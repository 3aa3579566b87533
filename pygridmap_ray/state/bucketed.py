"""Bucketed (co-partitioned) table layout + storage-partitioned join.

The 100 TB join story: pay the hash shuffle ONCE at write time —
``bucketed_write`` persists a table as ``dir/__bucket=<h>/...`` with
``h = hash(key) % n`` — and every later join between tables bucketed on
the same key with the same ``n`` is shuffle-FREE: bucket i of A can
only match bucket i of B, so ``bucketed_join`` schedules one task per
bucket pair, each doing a local Arrow hash join over two pruned reads.
This is the Hive/Iceberg bucketed-table / Spark storage-partitioned
join, expressed Ray-Data-first: the bucket list is a tiny Dataset and
each bucket join is an ordinary ``map_batches`` task, so streaming
backpressure and retries apply per bucket.

Pick ``num_buckets`` so a single bucket pair fits a worker's heap
(buckets are the unit of join memory AND of resume — a failed run
reuses every finished bucket output).  Reuses the engine-wide bucket
law (``cluster.bucket_of``) so datasets bucketed by any stage of this
repo co-locate.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from ..cluster import bucket_of


def bucketed_write(ds, out_dir: str, *, key: str,
                   num_buckets: int = 32) -> int:
    """Persist ``ds`` hash-bucketed on int64 ``key`` (hive layout
    ``out_dir/__bucket=<h>/part-*.parquet``, atomic visible renames via
    the partitioned sink).  Returns rows written."""
    from ..tiler import write_partitioned

    def tag(b: pa.Table) -> pa.Table:
        k = np.asarray(b[key], np.int64)
        return b.append_column(
            "__bucket", pa.array(bucket_of(k, num_buckets))
        )

    tagged = ds.map_batches(tag, batch_format="pyarrow")
    return write_partitioned(tagged, out_dir, ["__bucket"])


def bucketed_join(dir_a: str, dir_b: str, *, key: str,
                  right_key: str | None = None,
                  num_buckets: int = 32, how: str = "inner"):
    """Shuffle-free join of two :func:`bucketed_write` trees bucketed
    with the same ``num_buckets`` (keys may differ by name but share
    the bucket law).  One task per bucket: local pruned reads + an
    in-memory Arrow hash join — co-partitioning makes partition i the
    only possible match set for partition i."""
    import pyarrow.parquet as pq
    import ray.data as rd

    if how != "inner":
        # outer variants need empty-side schemas to synthesize null
        # rows for missing bucket dirs; not wired yet
        raise ValueError("bucketed_join supports how='inner' only")
    rk = right_key or key

    def join_bucket(batch: pd.DataFrame) -> pd.DataFrame:
        out = []
        for i in batch["bucket"]:
            pa_dir = f"{dir_a}/__bucket={int(i)}"
            pb_dir = f"{dir_b}/__bucket={int(i)}"
            if not (os.path.isdir(pa_dir) and os.path.isdir(pb_dir)):
                continue  # inner join: a missing side ⇒ no matches
            ta = pq.read_table(pa_dir)
            tb = pq.read_table(pb_dir)
            j = ta.join(tb, keys=[key], right_keys=[rk], join_type=how)
            out.append(j.to_pandas())
        if not out:
            return pd.DataFrame()
        return pd.concat(out, ignore_index=True)

    specs = rd.from_items(
        [{"bucket": i} for i in range(num_buckets)]
    )
    return specs.map_batches(
        join_bucket, batch_format="pandas", batch_size=1
    )
