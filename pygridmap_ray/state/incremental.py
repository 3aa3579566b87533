"""Incremental partition-wise aggregation (the daily-ingest pattern).

At 100 TB a recurring aggregate must not rescan the world: the input is
a hive-partitioned tree where most partitions are unchanged between
runs.  :func:`incremental_aggregate` fingerprints every partition
directory (file names + sizes — any rewrite changes it), recomputes
PARTIAL aggregates only for partitions whose fingerprint moved (or are
new), drops cached partials of vanished partitions, and folds cached +
fresh partials into the final aggregate.  A steady-state daily run
touches only the day's new partitions regardless of corpus size.

Cache layout: ``cache_dir/<partition>/partial.parquet`` plus one
``_incr_state.json`` mapping partition -> fingerprint.  Partials are
AGGREGATE-scale by construction (bounded by distinct keys within a
partition — grid cells, languages, …), the same driver-size class as
the engine's bucket-total collections; a pathological key cardinality
needs a partitioned partial sink instead, same protocol.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def _partition_fingerprint(part_dir: str) -> str:
    entries = sorted(
        (f, os.path.getsize(os.path.join(part_dir, f)))
        for f in os.listdir(part_dir)
        if not f.startswith("_") and not f.startswith(".")
    )
    return hashlib.md5(json.dumps(entries).encode()).hexdigest()


def list_partitions(input_dir: str) -> dict[str, str]:
    """{partition_name: fingerprint} for every hive partition dir."""
    out = {}
    for d in sorted(os.listdir(input_dir)):
        p = os.path.join(input_dir, d)
        if os.path.isdir(p) and not d.startswith("_"):
            out[d] = _partition_fingerprint(p)
    return out


def incremental_aggregate(
    input_dir: str,
    cache_dir: str,
    *,
    key_cols: list[str],
    value_col: str,
):
    """Sum of ``value_col`` per ``key_cols`` over the partitioned tree at
    ``input_dir``, recomputing only stale partitions.

    Returns ``(dataset, stats)`` where ``stats`` =
    ``{"recomputed": k, "cached": m, "dropped": d}`` — the test/audit
    hook proving the incremental contract.
    """
    import ray.data as rd

    from ray.data.aggregate import Sum

    os.makedirs(cache_dir, exist_ok=True)
    state_path = os.path.join(cache_dir, "_incr_state.json")
    state: dict[str, str] = {}
    if os.path.exists(state_path):
        with open(state_path) as f:
            state = json.load(f)

    current = list_partitions(input_dir)
    stale = [p for p, fp in current.items() if state.get(p) != fp]
    dropped = [p for p in state if p not in current]
    for p in dropped:
        pf = os.path.join(cache_dir, p, "partial.parquet")
        if os.path.exists(pf):
            os.remove(pf)

    if stale:
        # one Dataset read over the stale partitions' files only; the
        # path column maps rows back to their partition, vectorized
        files = [
            os.path.join(input_dir, p, f)
            for p in stale
            for f in sorted(os.listdir(os.path.join(input_dir, p)))
            if f.endswith(".parquet") and not f.startswith("_")
        ]
        ds = rd.read_parquet(files, include_paths=True)
        prefix = os.path.abspath(input_dir)

        def partial(b: pa.Table) -> pa.Table:
            paths = np.asarray(b["path"]).astype(object)
            parts = np.array(
                [p[len(prefix):].lstrip("/").split("/", 1)[0] for p in paths],
                dtype=object,
            )
            df = b.drop_columns(["path"]).to_pandas()
            df["__part"] = parts
            g = (
                df.groupby(["__part", *key_cols], sort=False)[value_col]
                .sum()
                .reset_index()
            )
            return pa.Table.from_pandas(g, preserve_index=False)

        partials = (
            ds.map_batches(partial, batch_format="pyarrow")
            .groupby(["__part", *key_cols])
            .aggregate(Sum(value_col, alias_name=value_col))
            .to_pandas()
        )
        # per-partition partial files: atomic tmp+rename, aggregate-scale
        for p in stale:
            sub = partials[partials["__part"] == p].drop(columns=["__part"])
            pdir = os.path.join(cache_dir, p)
            os.makedirs(pdir, exist_ok=True)
            tmp = os.path.join(pdir, ".partial.tmp")
            pq.write_table(pa.Table.from_pandas(sub, preserve_index=False),
                           tmp)
            os.replace(tmp, os.path.join(pdir, "partial.parquet"))
            state[p] = current[p]

    state = {p: fp for p, fp in state.items() if p in current}
    tmp = state_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(state, f, sort_keys=True)
    os.replace(tmp, state_path)

    fold = rd.read_parquet(
        [os.path.join(cache_dir, p, "partial.parquet") for p in current]
    )
    out = fold.groupby(key_cols).aggregate(Sum(value_col,
                                               alias_name=value_col))
    stats = {
        "recomputed": len(stale),
        "cached": len(current) - len(stale),
        "dropped": len(dropped),
    }
    return out, stats


def snapshot_diff(
    a,
    b,
    *,
    id_col: str = "doc_id",
    hash_col: str = "h",
    num_buckets: int | None = None,
):
    """Corpus snapshot diff — the data-versioning audit between two
    ingest runs: every id labeled ``added`` (B only), ``removed`` (A
    only), ``changed`` (both, different content hash) or ``unchanged``.

    Inputs are (id, content-hash) tables (hash upstream with
    ``text.md5_fingerprint`` so the raw text never enters the shuffle).
    One union + coarse-bucket shuffle on the id; per bucket the two
    sides align with vectorized index reindexing — no per-id Python.
    Ids must be unique within each snapshot."""
    from ..cluster import passthrough_schema, segment_apply

    def tag(side: int):
        def f(t: pa.Table) -> pa.Table:
            t = t.select([id_col, hash_col])
            return t.append_column("__side", pa.array(
                np.full(t.num_rows, side, dtype=np.int8)))

        return f

    u = a.map_batches(tag(0), batch_format="pyarrow").union(
        b.map_batches(tag(1), batch_format="pyarrow")
    )

    def kernel(t: pa.Table, starts: np.ndarray) -> pa.Table:
        # one or two rows per id (ids unique per snapshot), side A first
        side = np.asarray(t["__side"], np.int8)
        h = np.asarray(t[hash_col], dtype=object)
        last = np.append(starts[1:], t.num_rows) - 1
        status = np.where(
            last > starts,
            np.where(h[starts] == h[last], "unchanged", "changed"),
            np.where(side[starts] == 0, "removed", "added"),
        )
        return pa.table(
            {id_col: t[id_col].take(starts), "status": pa.array(status, pa.string())}
        )

    schema = passthrough_schema(a)
    if schema is not None:
        schema = pa.schema([schema.field(id_col), ("status", pa.string())])
    return segment_apply(
        u,
        id_col,
        kernel,
        schema,
        order=("__side",),
        num_buckets=num_buckets,
    )
