"""Global ordered prefix-sum and training-sequence packing.

The pretraining data layout step the reference never needed but every
LLM corpus run does: concatenate documents in a deterministic global
order and chop the token stream into fixed-capacity training sequences
(the GPT-style "concat and chunk" law).  Each document gets the sequence
id and intra-sequence offset where its first token lands.

The primitive underneath is a distributed prefix sum over a totally
ordered key — the same scan Spark's ``zipWithIndex`` performs — built
from Dataset ops only:

1. one cheap Min/Max aggregate bounds the order key;
2. ``map_batches`` emits per-batch per-range-bucket subtotals (a
   combiner: at most ``n_buckets`` rows per batch leave the node);
3. the ≤ ``n_buckets`` bucket totals collect on the driver (a few KB)
   and scan into exclusive bucket base offsets;
4. one range-bucket exchange (``cluster.segment_apply`` keyed on the
   bucket id) co-locates each bucket, which sorts and cumsums
   vectorized and adds its base.

The single all-to-all in step 4 is inherent — a global rank needs
order — and is the same cost class as ``Dataset.sort``.  Partitioning
assumption: one bucket must fit a worker; size ``n_buckets`` so
``rows / n_buckets`` matches the target block size (the driver-side
state stays ``n_buckets`` int64s regardless).  Order keys are assumed
near-uniform over their range (dense doc ids); a pathologically skewed
key distribution skews bucket sizes, never correctness.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from pygridmap_ray.cluster import (
    passthrough_schema,
    resolve_num_buckets as _resolve_buckets,
    segment_apply,
)

#: the range-bucket id of the order domain: the segment key of the scan,
#: exchanged with ``num_buckets`` = the range-bucket count so each range
#: bucket keeps its own exchange group when that count is a power of two
_RNG = "__rng"


def global_prefix_sum(
    ds,
    *,
    order_col: str,
    value_col: str,
    out_col: str = "start",
    n_buckets: int | None = None,
):
    """Exclusive prefix sum of ``value_col`` in ascending ``order_col``
    order (the sum of all values with a strictly smaller key).

    ``order_col`` must be a unique integer key — it defines the global
    concatenation order, so ties would make the law ambiguous.
    """
    n_buckets = _resolve_buckets(n_buckets)
    from ray.data.aggregate import Max, Min

    ds = ds.materialize()  # three consumers: bounds, partials, shuffle
    bounds = ds.aggregate(
        Min(order_col, alias_name="lo"), Max(order_col, alias_name="hi")
    )
    if bounds["lo"] is None:
        # empty input: int(None) would raise — honor the declared
        # output schema instead (same contract as keyed_prefix_sum)
        return _empty_with_schema(ds, [(out_col, pa.int64())])
    lo, hi = int(bounds["lo"]), int(bounds["hi"])
    span = hi - lo + 1
    nb = min(n_buckets, span)

    def bucket_of(keys: np.ndarray) -> np.ndarray:
        # exact integer range bucketing: key -> [0, nb)
        return ((keys.astype(np.int64) - lo) * nb // span).astype(np.int64)

    def partial(b: pa.Table) -> pa.Table:
        k = np.asarray(b[order_col], dtype=np.int64)
        v = np.asarray(b[value_col], dtype=np.int64)
        bk = bucket_of(k)
        tot = np.zeros(nb, dtype=np.int64)
        np.add.at(tot, bk, v)
        nz = np.nonzero(tot)[0]
        return pa.table({_RNG: pa.array(nz), "__sub": pa.array(tot[nz])})

    sub = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    totals = np.zeros(nb, dtype=np.int64)
    np.add.at(totals, sub[_RNG].to_numpy(dtype=np.int64),
              sub["__sub"].to_numpy(dtype=np.int64))
    base = np.concatenate([[0], np.cumsum(totals)[:-1]])  # nb int64s

    def tag(b: pa.Table) -> pa.Table:
        k = np.asarray(b[order_col], dtype=np.int64)
        return b.append_column(_RNG, pa.array(bucket_of(k)))

    def scan_bucket(t: pa.Table, starts: np.ndarray) -> pa.Table:
        k = np.asarray(t[order_col], dtype=np.int64)
        if len(k) > 1 and (k[1:] == k[:-1]).any():
            # equal keys make the scan order — and thus every offset —
            # depend on block arrival; all rows of one key share a bucket,
            # so this adjacency check is complete
            raise ValueError(
                f"global_prefix_sum: duplicate {order_col!r} keys — the "
                "order column must be unique for a deterministic scan"
            )
        v = np.asarray(t[value_col], dtype=np.int64)
        # exclusive cumsum restarted at each range bucket, plus its base
        ex = np.cumsum(v) - v
        seg = np.repeat(starts, np.diff(np.append(starts, len(v))))
        rng = np.asarray(t[_RNG], np.int64)
        out = base[rng] + ex - ex[seg]
        return t.drop_columns([_RNG]).append_column(out_col, pa.array(out))

    return segment_apply(
        ds.map_batches(tag, batch_format="pyarrow"),
        _RNG,
        scan_bucket,
        passthrough_schema(ds, [(out_col, pa.int64())]),
        order=(order_col,),
        num_buckets=nb,
    )


def pack_sequences(
    ds,
    *,
    id_col: str = "doc_id",
    tokens_col: str = "n_tokens",
    cap: int = 2048,
    n_buckets: int | None = None,
):
    """Concat-and-chunk sequence packing: documents concatenate in
    ascending ``id_col`` order into one virtual token stream, which is
    chopped into sequences of exactly ``cap`` tokens.  Emits per doc the
    sequence holding its FIRST token (``seq_id``), the offset inside it
    (``seq_off``), and how many sequences the doc spans (``n_seqs`` —
    long documents straddle chunk boundaries, exactly like the training
    reality).  Deterministic and order/partitioning-independent."""
    n_buckets = _resolve_buckets(n_buckets)
    ds = ds.materialize()
    if ds.count() == 0:
        # finish() below never runs on zero-row blocks: declare the
        # promised five-column schema directly
        return _empty_with_schema(
            ds,
            [("seq_id", pa.int64()), ("seq_off", pa.int64()),
             ("n_seqs", pa.int64())],
            keep=[id_col, tokens_col],
        )
    out = global_prefix_sum(
        ds, order_col=id_col, value_col=tokens_col,
        out_col="__start", n_buckets=n_buckets,
    )

    def finish(b: pa.Table) -> pa.Table:
        s = np.asarray(b["__start"], dtype=np.int64)
        v = np.asarray(b[tokens_col], dtype=np.int64)
        seq = s // cap
        off = s - seq * cap
        last = np.where(v > 0, (s + v - 1) // cap, seq)
        return pa.table(
            {
                id_col: b[id_col],
                tokens_col: b[tokens_col],
                "seq_id": pa.array(seq),
                "seq_off": pa.array(off),
                "n_seqs": pa.array(last - seq + 1),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def sql_pack_sequences(
    cap: int,
    *,
    id_col: str = "doc_id",
    tokens_col: str = "n_tokens",
    source: str = "documents",
) -> str:
    """DuckDB twin of :func:`pack_sequences` — the concat-and-chunk law
    as one window scan.  Pure int64 arithmetic on both sides, so the
    driver hash must match bit-exactly."""
    return f"""
WITH c AS (
  SELECT {id_col}, {tokens_col},
    COALESCE(SUM({tokens_col}) OVER (ORDER BY {id_col}
      ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)::BIGINT AS s
  FROM {source}
)
SELECT {id_col}, {tokens_col},
  s // {cap} AS seq_id,
  s % {cap} AS seq_off,
  (CASE WHEN {tokens_col} > 0 THEN (s + {tokens_col} - 1) // {cap}
        ELSE s // {cap} END - s // {cap} + 1) AS n_seqs
FROM c
"""


def _empty_with_schema(
    ds,
    extra_cols: list[tuple[str, pa.DataType]],
    keep: list[str] | None = None,
):
    """A zero-row dataset carrying ``ds``'s columns (restricted to
    ``keep`` when given, in ``keep`` order) plus ``extra_cols`` — the
    declared-output-schema contract for empty inputs (map_batches UDFs
    are never invoked on zero-row blocks, so an empty pipeline would
    otherwise surface the INPUT schema — and ``select_columns`` does
    not project the schema of a zero-row dataset either — breaking any
    consumer that reads the promised output columns)."""
    import ray.data as rd

    sch = ds.schema()
    if sch is None:  # schemaless empty dataset: nothing to declare
        return ds
    types = {}
    for n, t in zip(sch.names, sch.types):
        if not isinstance(t, pa.DataType):  # pandas-block numpy dtype
            # object columns surface as numpy dtype('O') or the literal
            # `object` class (Ray's empty-pandas-block schema); neither
            # has a numpy->arrow mapping — string is the only object
            # payload the engine's key/group columns carry
            t = (
                pa.string()
                if t is object or getattr(t, "kind", None) == "O"
                else pa.from_numpy_dtype(t)
            )
        types[n] = t
    names = list(sch.names) if keep is None else list(keep)
    fields = [(n, types[n]) for n in names] + extra_cols
    return rd.from_arrow(
        pa.table({n: pa.array([], t) for n, t in fields})
    )


def keyed_prefix_sum(
    ds,
    *,
    key_col: str,
    order_col: str,
    value_col: str,
    out_col: str = "cum",
    n_buckets: int | None = None,
    key_limit: int = 100_000,
):
    """Per-key INCLUSIVE prefix sum in ascending ``order_col`` order —
    the keyed companion of :func:`global_prefix_sum` (SQL's
    ``SUM(v) OVER (PARTITION BY key ORDER BY o ROWS UNBOUNDED
    PRECEDING)``), the primitive under per-source token budgeting /
    curriculum cutoffs.

    Same shape: one Min/Max bound pass, per-batch (bucket, key)
    subtotal partials, driver-side scan into per-(key, bucket) base
    offsets, ONE range shuffle with a per-bucket vectorized keyed
    cumsum.  ``order_col`` must be a unique integer key (global
    uniqueness — doc ids); ``key_col`` must be LOW-cardinality (the
    driver holds n_keys x n_buckets int64 bases — gated by
    ``key_limit`` with a clear error, the bounded-domain rule)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Max, Min

    n_buckets = _resolve_buckets(n_buckets)
    ds = ds.materialize()
    bounds = ds.aggregate(
        Min(order_col, alias_name="lo"), Max(order_col, alias_name="hi")
    )
    if bounds["lo"] is None:
        # empty input: still honor the declared output schema (input
        # columns + out_col) so schema-sensitive consumers don't break
        return _empty_with_schema(ds, [(out_col, pa.int64())])
    lo, hi = int(bounds["lo"]), int(bounds["hi"])
    span = hi - lo + 1
    nb = min(n_buckets, span)

    def bucket_of(keys: np.ndarray) -> np.ndarray:
        return ((keys.astype(np.int64) - lo) * nb // span).astype(np.int64)

    def partial(b: pa.Table) -> pa.Table:
        k = np.asarray(pc.cast(b[key_col], pa.string())).astype(object)
        o = np.asarray(b[order_col], dtype=np.int64)
        v = np.asarray(b[value_col], dtype=np.int64)
        bk = bucket_of(o)
        ku, ki = np.unique(k, return_inverse=True)
        pk = ki.astype(np.int64) * np.int64(nb) + bk
        pku, pki = np.unique(pk, return_inverse=True)
        tot = np.bincount(pki, weights=v, minlength=len(pku)).astype(
            np.int64
        )
        return pa.table(
            {
                "__k": pa.array(ku[(pku // nb)], pa.string()),
                _RNG: pa.array(pku % np.int64(nb)),
                "__sub": pa.array(tot),
            }
        )

    sub = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    keys = sub["__k"].unique()
    if len(keys) > key_limit:
        raise ValueError(
            f"{len(keys)} distinct {key_col!r} keys exceed the "
            f"bounded-domain gate ({key_limit}): keyed_prefix_sum holds "
            "n_keys x n_buckets driver bases — bucket the key first"
        )
    base: dict = {}
    for kv, g in sub.groupby("__k", sort=False):
        tot = np.zeros(nb, dtype=np.int64)
        np.add.at(tot, g[_RNG].to_numpy(np.int64),
                  g["__sub"].to_numpy(np.int64))
        base[kv] = np.concatenate([[0], np.cumsum(tot)[:-1]])

    def tag(b: pa.Table) -> pa.Table:
        o = np.asarray(b[order_col], dtype=np.int64)
        return b.append_column(_RNG, pa.array(bucket_of(o)))

    def scan_bucket(t: pa.Table, starts: np.ndarray) -> pa.Table:
        o = np.asarray(t[order_col], dtype=np.int64)
        if len(o) > 1 and (o[1:] == o[:-1]).any():
            raise ValueError(
                f"keyed_prefix_sum: duplicate {order_col!r} keys — the "
                "order column must be globally unique"
            )
        k = np.asarray(pc.cast(t[key_col], pa.string())).astype(object)
        v = np.asarray(t[value_col], dtype=np.int64)
        rng = np.asarray(t[_RNG], np.int64)
        # running sum per (range bucket, key), then the (key, bucket) base
        seg = np.repeat(np.arange(len(starts)), np.diff(np.append(starts, len(v))))
        cum = (
            pd.Series(v)
            .groupby([seg, k], sort=False)
            .cumsum()
            .to_numpy(np.int64)
        )
        kb = np.array([base[kv][b] for kv, b in zip(k, rng)], dtype=np.int64)
        return t.drop_columns([_RNG]).append_column(out_col, pa.array(cum + kb))

    return segment_apply(
        ds.map_batches(tag, batch_format="pyarrow"),
        _RNG,
        scan_bucket,
        passthrough_schema(ds, [(out_col, pa.int64())]),
        order=(order_col,),
        num_buckets=nb,
    )


def token_budget_take(
    ds,
    *,
    key_col: str = "source",
    order_col: str = "doc_id",
    tokens_col: str = "n_tokens",
    budget: int = 1 << 20,
):
    """Per-source token budgeting — the data-mixing cutoff step: docs
    concatenate per source in ascending ``order_col`` order and a doc
    is KEPT while its source's running token total (inclusive) is
    within ``budget``.  One :func:`keyed_prefix_sum` + a stateless map;
    deterministic and partitioning-independent.

    Emits (order_col, key_col, tokens_col, cum_tokens, kept)."""
    ds = ds.materialize()
    if ds.count() == 0:
        # finish() below never runs on zero-row blocks: declare the
        # promised five-column schema directly (bool kept)
        return _empty_with_schema(
            ds, [("cum_tokens", pa.int64()), ("kept", pa.bool_())],
            keep=[order_col, key_col, tokens_col],
        )
    out = keyed_prefix_sum(
        ds, key_col=key_col, order_col=order_col, value_col=tokens_col,
        out_col="cum_tokens",
    )

    def finish(b: pa.Table) -> pa.Table:
        cum = np.asarray(b["cum_tokens"], np.int64)
        return pa.table(
            {
                order_col: b[order_col],
                key_col: b[key_col],
                tokens_col: b[tokens_col],
                "cum_tokens": b["cum_tokens"],
                "kept": pa.array(cum <= budget),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def sql_token_budget_take(
    budget: int,
    *,
    key_col: str = "source",
    order_col: str = "doc_id",
    tokens_col: str = "n_tokens",
    source: str = "documents",
) -> str:
    """DuckDB twin of :func:`token_budget_take` — one window cumsum.
    Pure int64 arithmetic on both sides."""
    return f"""
WITH c AS (
  SELECT {order_col}, {key_col}, {tokens_col},
    SUM({tokens_col}) OVER (PARTITION BY {key_col} ORDER BY {order_col}
      ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)::BIGINT
      AS cum_tokens
  FROM {source}
)
SELECT {order_col}, {key_col}, {tokens_col}, cum_tokens,
       (cum_tokens <= {budget}) AS kept
FROM c
"""


def shuffle_by_hash(
    ds,
    *,
    key_col: str = "doc_id",
    salt: str = "",
    n_buckets: int | None = None,
):
    """Deterministic global training shuffle: every record gets a dense
    0-based ``pos`` — its rank under ``ORDER BY md5(key || salt), key``.
    Changing ``salt`` re-deals the epoch; the position is content-stable
    (independent of row order, partitioning, cluster size), so shuffled
    shards are reproducible and resumable.

    Same machinery as :func:`global_prefix_sum` with count partials: the
    60-bit hash is uniform by construction, so fixed-width hash-range
    buckets are balanced regardless of key skew; per-bucket counts
    collect on the driver (``n_buckets`` int64s), each bucket sorts
    vectorized and adds its base rank.  One shuffle, same cost class as
    ``Dataset.sort``."""
    n_buckets = _resolve_buckets(n_buckets)
    import pyarrow.compute as pc

    from .text import md5_prefix_int

    HBITS = 60  # 15 md5 hex digits: positive int64 on both sides

    def hash_of(b: pa.Table) -> np.ndarray:
        return md5_prefix_int(
            pc.cast(b[key_col], pa.string()), salt=salt, hexdigits=15
        ).astype(np.int64)

    nb = n_buckets
    if nb & (nb - 1) or nb <= 0:
        raise ValueError("n_buckets must be a power of two")
    shift = np.int64(HBITS - int(np.log2(nb)))  # range bucket via shift:
    # h * nb would overflow int64 for h near 2^60

    def tag(b: pa.Table) -> pa.Table:
        h = hash_of(b)
        bk = h >> shift
        return b.append_column("__h", pa.array(h)).append_column(
            _RNG, pa.array(bk.astype(np.int64))
        )

    tagged = ds.map_batches(tag, batch_format="pyarrow").materialize()

    def count_partial(b: pa.Table) -> pa.Table:
        bk = np.asarray(b[_RNG], dtype=np.int64)
        tot = np.bincount(bk, minlength=nb).astype(np.int64)
        nz = np.nonzero(tot)[0]
        return pa.table({_RNG: pa.array(nz), "__n": pa.array(tot[nz])})

    sub = tagged.map_batches(count_partial, batch_format="pyarrow").to_pandas()
    totals = np.zeros(nb, dtype=np.int64)
    if len(sub):
        np.add.at(totals, sub[_RNG].to_numpy(dtype=np.int64),
                  sub["__n"].to_numpy(dtype=np.int64))
    base = np.concatenate([[0], np.cumsum(totals)[:-1]])

    def rank_bucket(t: pa.Table, starts: np.ndarray) -> pa.Table:
        seg_len = np.diff(np.append(starts, t.num_rows))
        rank = np.arange(t.num_rows) - np.repeat(starts, seg_len)
        rng = np.asarray(t[_RNG], np.int64)
        return t.drop_columns(["__h", _RNG]).append_column(
            "pos", pa.array(base[rng] + rank)
        )

    return segment_apply(
        tagged,
        _RNG,
        rank_bucket,
        passthrough_schema(tagged, [("pos", pa.int64())], drop=("__h", _RNG)),
        order=("__h", key_col),
        num_buckets=nb,
    )


def sql_shuffle_by_hash(
    *,
    key_col: str = "doc_id",
    salt: str = "",
    source: str = "documents",
    select: str = "doc_id",
) -> str:
    """DuckDB twin of :func:`shuffle_by_hash` (md5-hex rank law)."""
    h = (
        f"('0x' || substr(md5(CAST({key_col} AS VARCHAR) || '{salt}'), 1, 15))"
        f"::BIGINT"
    )
    return (
        f"SELECT {select}, ROW_NUMBER() OVER (ORDER BY {h}, {key_col}) - 1 "
        f"AS pos FROM {source}"
    )
