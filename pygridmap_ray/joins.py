"""Order-aware joins Ray Data cannot express natively.

``Dataset.join`` (Ray 2.49) is an equality hash join; the two operators
here need ORDER within a key:

- :func:`asof_join` — attach to each left row the latest right row at or
  before it in event time (DuckDB's ``ASOF JOIN``, pandas
  ``merge_asof``).  One hash shuffle: both sides are schema-aligned,
  tagged and unioned, exchanged with ``cluster.segment_apply`` on ``by``
  (bounded group count independent of key cardinality), and each bucket
  resolves with a single vectorized ``pandas.merge_asof(by=...)`` over an
  index-only frame — matched right values are then gathered with Arrow
  ``take`` so output columns keep their exact Arrow types (no
  pandas int->float null promotion).

- :func:`interval_join` — equality on ``by`` + containment of ``on`` in
  ``[start, end)`` against a SMALL interval table (validity windows,
  sessions, calendars).  The interval side is broadcast (``ray.put``
  once, cached per worker), the probe side streams; per batch the match
  is one lexsort + per-interval ``searchsorted`` (vectorized over rows,
  Python loop only over the broadcast side).

Partitioning assumptions (documented per the custom-operator contract):
``asof_join`` requires one ``by``-key's rows to fit in a worker (true
for per-entity event streams; a single pathological hot key degrades to
that key's volume, like any keyed window).  ``interval_join`` requires
the interval table to fit in worker memory; for a LARGE interval side,
bucket both sides by ``by`` and apply the same kernel per bucket.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from pygridmap_ray.cluster import (
    Broadcast,
    default_num_partitions,
    resolve_num_buckets as _resolve_buckets,
    segment_apply,
)


def asof_join(
    left,
    right,
    *,
    on: str = "ts",
    by: str = "user_id",
    direction: str = "backward",
    suffix: str = "_r",
    num_buckets: int | str | None = "auto",
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
):
    """As-of join two Datasets: for each left row, the single right row
    with the greatest ``on`` <= left ``on`` (``direction='backward'``; or
    smallest >= for ``'forward'``) sharing the ``by`` key.  Left-outer
    semantics: unmatched left rows keep nulls in the right columns.

    Right columns other than ``by``/``on`` are appended with ``suffix``;
    right's own ``on`` is appended as ``on + suffix``.  ``by`` must be
    integer-typed (bucketing hash); pass ``num_buckets=None`` to group
    directly by the key instead (any type, one group per key);
    ``"auto"`` (the default) derives the bucket count from the cluster.
    """
    if num_buckets == "auto":
        num_buckets = _resolve_buckets(None)
    if direction not in ("backward", "forward"):
        raise ValueError(f"direction must be backward|forward, got {direction!r}")
    # Dataset.schema() EXECUTES the upstream pipeline to its first block
    # (a limit-1 plan) — twice here.  Callers that know their schemas pass
    # them and skip both executions; None falls back to inference.
    if left_schema is None:
        _ls = left.schema()
        left_schema = pa.schema(list(zip(_ls.names, _ls.types)))
    if right_schema is None:
        _rs = right.schema()
        right_schema = pa.schema(list(zip(_rs.names, _rs.types)))
    left_cols = list(left_schema.names)
    if on not in left_cols or by not in left_cols:
        raise ValueError(f"left is missing {on!r}/{by!r}")
    rvalue_cols = [c for c in right_schema.names if c not in (on, by)]
    renamed = {c: c + suffix for c in rvalue_cols}
    out_right_cols = [on + suffix] + [renamed[c] for c in rvalue_cols]
    clash = set(out_right_cols) & set(left_cols)
    if clash:
        raise ValueError(
            f"suffixed right columns collide with left columns: {sorted(clash)}"
            " — pass a different suffix"
        )
    rtypes = {
        on + suffix: right_schema.field(on).type,
        **{renamed[c]: right_schema.field(c).type for c in rvalue_cols},
    }
    union_fields = (
        [(c, left_schema.field(c).type) for c in left_cols]
        + [(n, rtypes[n]) for n in out_right_cols]
        + [("__side", pa.int8())]
    )
    union_schema = pa.schema(union_fields)

    def _align_left(b: pa.Table) -> pa.Table:
        n = b.num_rows
        cols = [b[c] for c in left_cols] + [
            pa.nulls(n, rtypes[c]) for c in out_right_cols
        ]
        cols.append(pa.nulls(n, pa.int8()).fill_null(0))
        return pa.table(cols, schema=union_schema)

    def _align_right(b: pa.Table) -> pa.Table:
        n = b.num_rows
        cols = []
        for c in left_cols:
            if c == by:
                cols.append(b[by])
            else:
                cols.append(pa.nulls(n, left_schema.field(c).type))
        cols.append(pc.cast(b[on], rtypes[on + suffix]))
        cols.extend(pc.cast(b[c], rtypes[renamed[c]]) for c in rvalue_cols)
        cols.append(pa.nulls(n, pa.int8()).fill_null(1))
        return pa.table(cols, schema=union_schema)

    la = left.map_batches(_align_left, batch_format="pyarrow")
    ra = right.map_batches(_align_right, batch_format="pyarrow")
    # the groupby below is a sort shuffle whose MAP parallelism equals the
    # input block count; a union of two narrow branches often carries a
    # handful of blocks, serializing the sort map on one task — split them
    unioned = la.union(ra).repartition(max(num_buckets or 0, 16))

    out_schema = pa.schema(
        [(c, left_schema.field(c).type) for c in left_cols]
        + [(n, rtypes[n]) for n in out_right_cols]
    )

    def _merge(g: pa.Table) -> pa.Table:
        side = np.asarray(g["__side"])
        lt = g.filter(pa.array(side == 0))
        rt = g.filter(pa.array(side == 1))
        # null ORDER keys can never match: right nulls drop, left nulls
        # keep null right columns (pandas merge_asof rejects null keys)
        rt = rt.filter(pc.is_valid(rt[on + suffix]))
        null_left = lt.filter(pc.is_null(lt[on]))
        lt = lt.filter(pc.is_valid(lt[on]))
        null_out = None
        if null_left.num_rows:
            null_out = pa.table(
                [null_left[c] for c in left_cols]
                + [pa.nulls(null_left.num_rows, rtypes[c]) for c in out_right_cols],
                schema=out_schema,
            )
        if lt.num_rows == 0:
            return null_out if null_out is not None else out_schema.empty_table()
        # index-only merge frame: by/on are now never null on either side,
        # so pandas dtypes stay faithful
        l_pd = pd.DataFrame(
            {
                by: np.asarray(lt[by]),
                on: lt[on].to_pandas(),
                "__li": np.arange(lt.num_rows),
            }
        ).sort_values(on, kind="stable")
        lt_cols = [lt[c] for c in left_cols]
        if rt.num_rows == 0:
            out = lt_cols + [pa.nulls(lt.num_rows, rtypes[c]) for c in out_right_cols]
            t = pa.table(out, schema=out_schema)
            return pa.concat_tables([t, null_out]) if null_out is not None else t
        r_pd = pd.DataFrame(
            {
                by: np.asarray(rt[by]),
                f"{on}__r": rt[on + suffix].to_pandas(),
                "__ri": np.arange(rt.num_rows),
            }
        ).sort_values(f"{on}__r", kind="stable")
        m = pd.merge_asof(
            l_pd,
            r_pd,
            left_on=on,
            right_on=f"{on}__r",
            by=by,
            direction=direction,
        )
        li = m["__li"].to_numpy()
        ri = m["__ri"].astype("float64").to_numpy()  # NaN-safe for all-match
        miss = np.isnan(ri)
        ridx = pa.array(
            np.where(miss, 0, ri).astype(np.int64), mask=miss
        )
        lidx = pa.array(li.astype(np.int64))
        out = [c.take(lidx) for c in lt_cols]
        out.append(rt[on + suffix].take(ridx))
        out.extend(rt[renamed[c]].take(ridx) for c in rvalue_cols)
        t = pa.table(out, schema=out_schema)
        return pa.concat_tables([t, null_out]) if null_out is not None else t

    if not num_buckets:
        return unioned.groupby(by).map_groups(_merge, batch_format="pyarrow")
    return segment_apply(
        unioned, by, lambda t, starts: _merge(t), out_schema,
        num_buckets=num_buckets,
    )


class _LookupKernel:
    """Per-worker dimension-lookup kernel: a pandas Index over the
    broadcast dimension key gives O(1) hash probes for any key dtype."""

    def __init__(self, dim: "pa.Table | dict", on: str, key: str, how: str,
                 value_cols: list[str] | None):
        self.on, self.how = on, how
        cols = value_cols or [c for c in dim.column_names if c != key]
        self.idx = pd.Index(np.asarray(dim[key]))
        if not self.idx.is_unique:
            raise ValueError(f"dimension key {key!r} has duplicate values")
        self.payload = {c: dim[c].combine_chunks() for c in cols}

    def __call__(self, batch: pa.Table) -> pa.Table:
        pos = self.idx.get_indexer(np.asarray(batch[self.on]))
        if self.how == "inner":
            hit = pos >= 0
            t = batch.filter(pa.array(hit))
            take = pa.array(pos[hit].astype(np.int64))
            for c, col in self.payload.items():
                t = t.append_column(c, col.take(take))
            return t
        miss = pos < 0
        take = pa.array(np.where(miss, 0, pos).astype(np.int64), mask=miss)
        t = batch
        for c, col in self.payload.items():
            t = t.append_column(c, col.take(take))
        return t


def lookup_join(
    ds,
    dim: pa.Table,
    *,
    on: str,
    key: str | None = None,
    value_cols: list[str] | None = None,
    how: str = "inner",
):
    """Broadcast equality join against a SMALL dimension table.

    The canonical scale pattern for enriching a streaming fact table
    (documents x language stats, points x region attributes, orders x
    customer): the dimension goes to the object store ONCE, each worker
    builds a hash index once (:class:`cluster.Broadcast`), and the probe
    side streams — never an all-to-all shuffle join.  ``key`` defaults to
    ``on``; the dimension key must be unique (validated at kernel build).
    ``how='inner'`` drops misses, ``'left'`` keeps them with nulls.
    """
    if how not in ("inner", "left"):
        raise ValueError(f"how must be inner|left, got {how!r}")
    key = key or on
    if value_cols is not None:
        dim = dim.select([key, *value_cols])
    index = Broadcast(dim, lambda d: _LookupKernel(d, on, key, how, value_cols))

    def apply(batch: pa.Table) -> pa.Table:
        return index.get()(batch)

    return ds.map_batches(apply, batch_format="pyarrow")


class _IntervalKernel:
    """Per-worker probe kernel holding the broadcast interval table
    sorted by (by, start).  Intervals must be non-overlapping per key
    (validity windows); overlap raises at build time."""

    def __init__(self, iv: dict, on: str, by: str, how: str):
        self.on, self.by, self.how = on, by, how
        order = np.lexsort((iv["start"], iv["key"]))
        self.k = np.asarray(iv["key"], dtype=np.int64)[order]
        self.s = np.asarray(iv["start"], dtype=np.int64)[order]
        self.e = np.asarray(iv["end"], dtype=np.int64)[order]
        self.payload = {
            name: pa.array(np.asarray(col)[order])
            for name, col in iv.items()
            if name not in ("key", "start", "end")
        }
        same = self.k[1:] == self.k[:-1]
        if np.any(same & (self.s[1:] < self.e[:-1])):
            raise ValueError("intervals overlap within a key")

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            rows = np.empty(0, dtype=np.int64)
            hits = np.empty(0, dtype=np.int64)
        else:
            keycol = batch[self.by]
            oncol = batch[self.on]
            if pa.types.is_timestamp(oncol.type):
                oncol = pc.cast(pc.cast(oncol, pa.timestamp("us")), pa.int64())
            valid = np.asarray(pc.and_(pc.is_valid(keycol), pc.is_valid(oncol)))
            bkey = np.asarray(pc.fill_null(keycol, 0), dtype=np.int64)
            bon = np.asarray(pc.fill_null(oncol, 0), dtype=np.int64)
            # null key/time rows never match: excluded from the probe order
            # (inner drops them; left keeps them with null payload).
            # one searchsorted per broadcast interval, vectorized over the
            # batch rows of that interval's key
            vidx = np.nonzero(valid)[0]
            order = vidx[np.lexsort((bon[vidx], bkey[vidx]))]
            sk, so = bkey[order], bon[order]
            rows_l, hits_l = [], []
            # segment bounds of each interval's key among the batch rows
            seg_lo = np.searchsorted(sk, self.k, side="left")
            seg_hi = np.searchsorted(sk, self.k, side="right")
            for i in range(len(self.k)):
                lo, hi = seg_lo[i], seg_hi[i]
                if lo == hi:
                    continue
                a = lo + np.searchsorted(so[lo:hi], self.s[i], side="left")
                b = lo + np.searchsorted(so[lo:hi], self.e[i], side="left")
                if a < b:
                    rows_l.append(order[a:b])
                    hits_l.append(np.full(b - a, i, dtype=np.int64))
            rows = np.concatenate(rows_l) if rows_l else np.empty(0, dtype=np.int64)
            hits = np.concatenate(hits_l) if hits_l else np.empty(0, dtype=np.int64)
        if self.how == "inner":
            t = batch.take(pa.array(rows))
            for name, col in self.payload.items():
                t = t.append_column(name, col.take(pa.array(hits)))
            return t
        # left: matched rows get payload, the rest null
        match_of = np.full(n, -1, dtype=np.int64)
        match_of[rows] = hits
        miss = match_of < 0
        idx = pa.array(np.where(miss, 0, match_of), mask=miss)
        t = batch
        for name, col in self.payload.items():
            if len(col) == 0:
                t = t.append_column(name, pa.nulls(n, col.type))
            else:
                t = t.append_column(name, col.take(idx))
        return t


def interval_join(
    points,
    intervals: dict,
    *,
    on: str = "ts",
    by: str = "user_id",
    how: str = "inner",
):
    """Join a streaming Dataset to a broadcast interval table.

    ``intervals``: dict of columns — ``key`` (int64), ``start``/``end``
    (int64 epoch-us, half-open), plus payload columns to attach.  A row
    matches when ``row[by] == key and start <= us(row[on]) < end``.
    ``how='inner'`` emits matches only; ``'left'`` keeps all rows with
    null payload (requires non-overlapping intervals — guaranteed by the
    per-key overlap check).
    """
    if how not in ("inner", "left"):
        raise ValueError(f"how must be inner|left, got {how!r}")
    table = Broadcast(intervals, lambda iv: _IntervalKernel(iv, on, by, how))

    def apply(batch: pa.Table) -> pa.Table:
        return table.get()(batch)

    return points.map_batches(apply, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Broadcast semi/anti join + distributed bloom prefilter
# ---------------------------------------------------------------------------


class _MembershipKernel:
    """Per-worker exact-membership kernel: a pandas Index over the
    broadcast DISTINCT key array gives O(1) probes for any key dtype."""

    def __init__(self, keys, on: str, anti: bool):
        self.idx = pd.Index(keys)
        self.on, self.anti = on, anti

    def __call__(self, batch: pa.Table) -> pa.Table:
        hit = self.idx.get_indexer(np.asarray(batch[self.on])) >= 0
        return batch.filter(pa.array(~hit if self.anti else hit))


def distinct_keys(right, key: str) -> np.ndarray:
    """Collect the DISTINCT values of one column to the driver.

    Per-batch ``pc.unique`` partials stream back, so the driver holds only
    the distinct set (the build-side contract of every broadcast join:
    distinct keys fit in memory, raw rows need not)."""
    parts = right.map_batches(
        lambda b: pa.table({key: pc.unique(b[key])}), batch_format="pyarrow"
    )
    arrs = [
        np.asarray(b[key])
        for b in parts.iter_batches(batch_size=None, batch_format="pyarrow")
        if b.num_rows
    ]
    if not arrs:
        return np.array([], dtype=object)
    return np.unique(np.concatenate(arrs))


def semi_join(
    left,
    right,
    *,
    on: str,
    right_on: str | None = None,
    anti: bool = False,
):
    """Exact broadcast semi/anti join: keep left rows whose ``on`` value
    does (``anti=False``) or does not (``anti=True``) appear among the
    right side's ``right_on`` values.

    The scale pattern for "filter a 100 TB fact table by a key set": the
    right side reduces to its DISTINCT keys (streamed, deduped per
    batch), the key array ships to the object store ONCE, and the left
    side streams through a stateless membership filter — no shuffle, no
    row amplification.  For a right side whose distinct keys exceed
    worker memory, run :func:`bloom_prefilter` first and finish with a
    partitioned hash join on the survivors.

    ``right`` may be a Dataset (distinct keys collected) or a numpy
    array / list of precollected keys.
    """
    right_on = right_on or on
    keys = right if isinstance(right, (np.ndarray, list)) else distinct_keys(
        right, right_on
    )
    members = Broadcast(np.asarray(keys), lambda k: _MembershipKernel(k, on, anti))

    def apply(batch: pa.Table) -> pa.Table:
        return members.get()(batch)

    return left.map_batches(apply, batch_format="pyarrow")


def _bloom_positions(vals: np.ndarray, num_bits: int, num_hashes: int):
    """k bit positions per value via double hashing.  ``pd.util.hash_array``
    vectorizes any dtype; stability is only needed WITHIN a run (the bloom
    is built and probed in the same job, never persisted)."""
    h1 = pd.util.hash_array(vals, hash_key="0123456789123456").astype(np.uint64)
    # splitmix64 finalizer as the second, independent hash
    z = h1 + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    h2 = (z ^ (z >> np.uint64(31))) | np.uint64(1)  # odd -> full-period stride
    m = np.uint64(num_bits)
    return [((h1 + np.uint64(j) * h2) % m).astype(np.int64) for j in range(num_hashes)]


def bloom_build(right, key: str, *, num_bits: int = 1 << 20, num_hashes: int = 4):
    """Distributed bloom-filter build over one column: each batch emits a
    partial bitmap (a single bytes row), partials OR together on the
    driver.  Driver traffic is ``num_blocks x num_bits/8`` bytes — size
    ``num_bits`` to ~10 bits per expected distinct key; for extreme block
    counts insert a ``repartition`` tree before collecting.

    Returns ``{"bits": Broadcast, "num_bits": m, "num_hashes": k}``
    ready for :func:`bloom_prefilter`."""
    if num_bits % 8:
        raise ValueError("num_bits must be a multiple of 8")

    if isinstance(right, (np.ndarray, list)):
        # precollected key array (e.g. shared with an exact semi_join):
        # build the bitmap directly, no extra pass over the build side
        bits = np.zeros(num_bits // 8, dtype=np.uint8)
        vals = np.asarray(right)
        if len(vals):
            for pos in _bloom_positions(vals, num_bits, num_hashes):
                np.bitwise_or.at(
                    bits, pos >> 3, np.uint8(1) << (pos & 7).astype(np.uint8)
                )
        return {
            "bits": Broadcast(bits),
            "num_bits": num_bits,
            "num_hashes": num_hashes,
        }

    def partial(b: pa.Table) -> pa.Table:
        bits = np.zeros(num_bits // 8, dtype=np.uint8)
        if b.num_rows:
            vals = np.asarray(pc.unique(b[key]))
            for pos in _bloom_positions(vals, num_bits, num_hashes):
                np.bitwise_or.at(bits, pos >> 3, np.uint8(1) << (pos & 7).astype(np.uint8))
        return pa.table({"bits": pa.array([bits.tobytes()], pa.binary())})

    bits = np.zeros(num_bits // 8, dtype=np.uint8)
    parts = right.map_batches(partial, batch_format="pyarrow")
    for b in parts.iter_batches(batch_size=None, batch_format="pyarrow"):
        for buf in b["bits"].to_pylist():
            bits |= np.frombuffer(buf, dtype=np.uint8)
    return {
        "bits": Broadcast(bits),
        "num_bits": num_bits,
        "num_hashes": num_hashes,
    }


def bloom_prefilter(ds, bloom: dict, on: str):
    """Approximate semi-join prefilter: keeps every row whose key IS in
    the build set (no false negatives) plus a bounded false-positive
    fraction — the cheap first stage before an exact partitioned join
    when the build side's distinct keys exceed worker memory."""
    num_bits, num_hashes = bloom["num_bits"], bloom["num_hashes"]
    bitmap = bloom["bits"]

    def apply(batch: pa.Table) -> pa.Table:
        bits = bitmap.get()
        vals = np.asarray(batch[on])
        keep = np.ones(len(vals), dtype=bool)
        for pos in _bloom_positions(vals, num_bits, num_hashes):
            keep &= (bits[pos >> 3] & (np.uint8(1) << (pos & 7).astype(np.uint8))) != 0
        return batch.filter(pa.array(keep))

    return ds.map_batches(apply, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# salted join (hot-key skew handling)
# ---------------------------------------------------------------------------


def salted_join(
    left,
    right,
    *,
    on: str,
    right_on: str | None = None,
    salt: int = 8,
    num_partitions: int | None = None,
):
    """Inner hash join that survives pathological key skew: a hot key's
    left rows spread across ``salt`` sub-shards (key, s) while the right
    side replicates ``salt``-fold, so no single join partition ever holds
    a hot key's full volume — the classic salted-join rewrite, here as a
    first-class operator.

    The salt assignment is an arbitrary per-batch round-robin: the inner
    join OUTPUT is identical for every assignment (each left row still
    meets every matching right row exactly once), so determinism of the
    result does not depend on block layout.  Cost model: right-side
    shuffle volume multiplies by ``salt`` — use for small-to-medium right
    sides against a skew-prone left (the FK-join shape); for broadcast-
    sized right sides :func:`lookup_join` is strictly cheaper.
    ``num_partitions`` defaults to the cluster's width
    (:func:`cluster.default_num_partitions`), resolved here on the
    driver."""
    right_on = right_on or on
    if num_partitions is None:
        num_partitions = default_num_partitions()

    def tag_left(b: pa.Table) -> pa.Table:
        return b.append_column(
            "__salt", pa.array(np.arange(b.num_rows, dtype=np.int64) % salt)
        )

    def explode_right(b: pa.Table) -> pa.Table:
        idx = np.repeat(np.arange(b.num_rows, dtype=np.int64), salt)
        out = b.take(pa.array(idx))
        return out.append_column(
            "__salt",
            pa.array(np.tile(np.arange(salt, dtype=np.int64), b.num_rows)),
        )

    lt = left.map_batches(tag_left, batch_format="pyarrow").repartition(
        num_partitions
    )
    rt = right.map_batches(explode_right, batch_format="pyarrow").repartition(
        num_partitions
    )
    joined = lt.join(
        rt,
        "inner",
        num_partitions=num_partitions,
        on=(on, "__salt"),
        right_on=(right_on, "__salt"),
    )
    return joined.drop_columns(["__salt"])


def key_set_op(left, right, key_col: str, *, op: str,
               num_buckets: int | None = None):
    """Distributed DISTINCT set algebra over an int64 key column:
    ``op`` in {"intersect", "except", "union"} with SQL DISTINCT
    semantics.  Per-batch ``np.unique`` partials tagged with a side bit
    ride ONE coarse-bucket shuffle on key hash (all copies of a key —
    from either side — share a bucket); the per-bucket resolve is a
    sorted-run membership scan.  Keys are HIGH-cardinality so they
    never meet a fine groupby, and only distinct (key, side) pairs
    ever shuffle."""
    num_buckets = _resolve_buckets(num_buckets)
    if op not in ("intersect", "except", "union"):
        raise ValueError(f"unknown set op {op!r}")

    def tag(side: int):
        def fn(b: pa.Table) -> pa.Table:
            k = np.unique(np.asarray(b[key_col], np.int64))
            if len(k) and (k.min() < 0 or k.max() >= (1 << 62)):
                raise ValueError("keys must be in [0, 2^62)")
            return pa.table(
                {
                    "k": pa.array(k),
                    "side": pa.array(
                        np.full(len(k), side, dtype=np.int64)
                    ),
                }
            )

        return fn

    def resolve(t: pa.Table, starts: np.ndarray) -> dict:
        # sides ascend within each key: first row = lowest, last = highest
        ku = np.asarray(t["k"], np.int64)[starts]
        s = np.asarray(t["side"], np.int64)
        first_side = s[starts]
        in_both = first_side != s[np.append(starts[1:], len(s)) - 1]
        if op == "intersect":
            keep = ku[in_both]
        elif op == "except":
            keep = ku[(~in_both) & (first_side == 0)]
        else:  # union
            keep = ku
        return {key_col: keep}

    both = left.map_batches(tag(0), batch_format="pyarrow").union(
        right.map_batches(tag(1), batch_format="pyarrow")
    )
    return segment_apply(
        both, "k", resolve, pa.schema([(key_col, pa.int64())]),
        order=("side",), num_buckets=num_buckets,
    )


# --------------------------------------------------------------------------
# Fuzzy record linkage (Jaro-Winkler master-list matching)
# --------------------------------------------------------------------------

def _char_matrix(col) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized string column -> (uint8 char matrix, lengths).

    Zero-copy read of the Arrow string buffers: one ``np.frombuffer``
    over the flat data buffer and a single ragged scatter — no per-row
    Python.  ASCII law (the linkage oracles run on ASCII name columns;
    DuckDB's jaro_winkler counts codepoints, the matrix counts bytes —
    identical on ASCII)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_large_string(col.type) or pa.types.is_string(col.type):
        col = pc.cast(col, pa.string())
    off = np.frombuffer(col.buffers()[1], np.int32,
                        len(col) + 1 + col.offset)[col.offset:]
    data = np.frombuffer(col.buffers()[2], np.uint8, int(off[-1]))
    lens = (off[1:] - off[:-1]).astype(np.int64)
    n = len(lens)
    L = int(lens.max()) if n else 0
    mat = np.zeros((n, max(L, 1)), dtype=np.uint8)
    total = int(lens.sum())
    if total:
        rows = np.repeat(np.arange(n), lens)
        pos = np.arange(total) - np.repeat(
            np.cumsum(lens) - lens, lens
        )
        mat[rows, pos] = data[int(off[0]):int(off[0]) + total]
    return mat, lens


def jaro_winkler_block(mat_a, len_a, mat_b, len_b) -> np.ndarray:
    """DuckDB ``jaro_winkler_similarity`` law, vectorized across pairs —
    verified BIT-EXACT against DuckDB over 30k random pairs.

    Pinned law (DuckDB vendors rapidfuzz): any empty side -> 0.0 (even
    both-empty); match window = max(l1,l2)//2 - 1 floored at 0; greedy
    first-unmatched matching; transpositions = mismatched match
    positions // 2 (INTEGER halving, not .5 fractions); jaro =
    (m/l1 + m/l2 + (m-t)/m)/3; Winkler boost iff jaro > 0.7 with common
    prefix capped at 4 and weight 0.1.

    O(L1*L2) vectorized steps, each elementwise over the whole pair
    block — names are short (tens of chars), pair blocks are the hot
    axis."""
    n = len(len_a)
    L1 = mat_a.shape[1]
    L2 = mat_b.shape[1]
    la = len_a.astype(np.int64)
    lb = len_b.astype(np.int64)
    window = np.maximum(np.maximum(la, lb) // 2 - 1, 0)
    matchedB = np.zeros((n, L2), dtype=bool)
    matchJ = np.full((n, L1), -1, dtype=np.int32)
    for i in range(L1):
        active = i < la
        if not active.any():
            break
        ch = mat_a[:, i]
        lo = np.maximum(0, i - window)
        hi = np.minimum(lb, i + window + 1)
        found = np.zeros(n, dtype=bool)
        jmax = int(hi.max())
        for j in range(jmax):
            cond = (
                ~found
                & active
                & (j >= lo)
                & (j < hi)
                & ~matchedB[:, j]
                & (mat_b[:, j] == ch)
            )
            if cond.any():
                matchedB[cond, j] = True
                matchJ[cond, i] = j
                found |= cond
    m = (matchJ >= 0).sum(axis=1).astype(np.int64)
    # transpositions: k-th matched char of A (i order) vs k-th matched
    # char of B (j order); zero padding beyond m compares equal
    Lm = max(L1, L2)
    M1 = np.zeros((n, Lm), dtype=np.uint8)
    M2 = np.zeros((n, Lm), dtype=np.uint8)
    maskA = matchJ >= 0
    r1 = np.cumsum(maskA, axis=1) - 1
    rows, cols = np.nonzero(maskA)
    M1[rows, r1[rows, cols]] = mat_a[rows, cols]
    r2 = np.cumsum(matchedB, axis=1) - 1
    rows2, cols2 = np.nonzero(matchedB)
    M2[rows2, r2[rows2, cols2]] = mat_b[rows2, cols2]
    t = (M1 != M2).sum(axis=1).astype(np.int64) // 2
    ok = (m > 0) & (la > 0) & (lb > 0)
    mf = m.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        jaro = (mf / la + mf / lb + (mf - t) / mf) / 3.0
    jaro = np.where(ok, jaro, 0.0)
    p = np.zeros(n, dtype=np.int64)
    pref = np.ones(n, dtype=bool)
    for i in range(min(4, min(L1, L2))):
        pref = pref & (i < la) & (i < lb) & (mat_a[:, i] == mat_b[:, i])
        p += pref
    return np.where(jaro > 0.7, jaro + 0.1 * p * (1.0 - jaro), jaro)


def _pack3(mat: np.ndarray, lens: np.ndarray, tail: bool) -> np.ndarray:
    """int64 blocking key: first (tail=False) or last (tail=True) 3 chars
    packed big-endian.  Mirrors SQL ``substr(s, 1, 3)`` /
    ``substr(s, length(s)-2, 3)`` equality for names >= 3 chars."""
    n = len(lens)
    if tail:
        idx = np.arange(n)
        base = np.maximum(lens - 3, 0)
        c0 = mat[idx, base]
        c1 = mat[idx, np.minimum(base + 1, mat.shape[1] - 1)]
        c2 = mat[idx, np.minimum(base + 2, mat.shape[1] - 1)]
    else:
        c0 = mat[:, 0] if mat.shape[1] > 0 else np.zeros(n, np.uint8)
        c1 = mat[:, 1] if mat.shape[1] > 1 else np.zeros(n, np.uint8)
        c2 = mat[:, 2] if mat.shape[1] > 2 else np.zeros(n, np.uint8)
    return (
        c0.astype(np.int64) * 65536
        + c1.astype(np.int64) * 256
        + c2.astype(np.int64)
    )


def fuzzy_link(
    ds,
    master: list[str],
    *,
    id_col: str = "id",
    name_col: str = "name",
    threshold: float = 0.88,
    round_to: int = 6,
):
    """Fuzzy record linkage of a record stream against a master name
    list: each record's name is matched to its best master entry by
    Jaro-Winkler similarity over BLOCKED candidates (first-3-char OR
    last-3-char agreement — the classic multi-pass blocking), keeping
    the match iff the 6dp-rounded similarity clears ``threshold``.

    Output: every input row with ``match_name`` / ``jw`` columns (NULL
    when no candidate clears the bar).  Best-match law: maximum rounded
    jw, ties to the lexicographically SMALLEST master name — both sides
    of the oracle rank on the rounded value so ulp noise cannot reorder
    (the jw kernel is bit-exact vs DuckDB anyway, see
    :func:`jaro_winkler_block`).

    Scale plan: the master list is the SMALL side by nature (a
    reference roster); it broadcasts once and each worker fetches the
    blocking postings index once (:class:`cluster.Broadcast`).  The
    record stream never shuffles — the whole op is one stateless
    map_batches, linear in records, candidates bounded by block sizes.
    A master too big to broadcast would switch to the partitioned-join
    path on the blocking key (the `salted_join`/`safe_join` family) —
    not needed for roster-scale masters.

    Reference semantics: fuzzy-join deduplication of entity tables, the
    linkage stage a training-data pipeline runs to merge metadata
    catalogs (no pygridmap counterpart — training-data operator
    family)."""
    import ray.data as rd

    names = sorted(set(master))
    marr = pa.array(names, pa.string())
    mmat, mlens = _char_matrix(marr)
    if len(names) and int(mlens.min()) < 3:
        raise ValueError("fuzzy_link master names must be >= 3 chars")
    pk = _pack3(mmat, mlens, tail=False) * 2
    sk = _pack3(mmat, mlens, tail=True) * 2 + 1
    keys = np.concatenate([pk, sk])
    midx = np.concatenate([np.arange(len(names))] * 2)
    order = np.argsort(keys, kind="stable")
    payload = {
        "keys": keys[order],
        "midx": midx[order],
        "names": np.asarray(names, dtype=object),
        "mmat": mmat,
        "mlens": mlens,
    }
    master_index = Broadcast(payload)
    tol = 10.0 ** round_to

    def link(b: pa.Table) -> pa.Table:
        k = master_index.get()
        rmat, rlens = _char_matrix(b[name_col])
        n = b.num_rows
        cand_r: list[np.ndarray] = []
        cand_m: list[np.ndarray] = []
        for tail in (False, True):
            rkeys = _pack3(rmat, rlens, tail=tail) * 2 + int(tail)
            lo = np.searchsorted(k["keys"], rkeys, side="left")
            hi = np.searchsorted(k["keys"], rkeys, side="right")
            cnt = hi - lo
            total = int(cnt.sum())
            if not total:
                continue
            rows = np.repeat(np.arange(n), cnt)
            pos = np.arange(total) - np.repeat(
                np.cumsum(cnt) - cnt, cnt
            ) + np.repeat(lo, cnt)
            cand_r.append(rows)
            cand_m.append(k["midx"][pos])
        match_idx = np.full(n, -1, dtype=np.int64)
        match_jw = np.zeros(n, dtype=np.float64)
        if cand_r:
            rows = np.concatenate(cand_r)
            mi = np.concatenate(cand_m)
            packed = rows * len(k["names"]) + mi
            packed = np.unique(packed)
            rows = packed // len(k["names"])
            mi = packed % len(k["names"])
            jw = jaro_winkler_block(
                rmat[rows], rlens[rows], k["mmat"][mi], k["mlens"][mi]
            )
            jwr = np.floor(jw * tol + 0.5) / tol  # jw >= 0
            # best per row: max rounded jw, tie -> smallest master name
            # (master is sorted, so smaller mi == smaller name)
            sel = np.lexsort((mi, -jwr, rows))
            rows_s = rows[sel]
            first = np.flatnonzero(
                np.concatenate([[True], rows_s[1:] != rows_s[:-1]])
            )
            keep = jwr[sel][first] >= threshold
            match_idx[rows_s[first][keep]] = mi[sel][first][keep]
            match_jw[rows_s[first][keep]] = jwr[sel][first][keep]
        matched = match_idx >= 0
        lut = pa.array(
            list(k["names"]) or [""], pa.string()
        )
        mcol = lut.take(
            pa.array(np.maximum(match_idx, 0), pa.int64(),
                     mask=~matched)
        )
        jcol = pa.array(match_jw, pa.float64(), mask=~matched)
        return pa.table(
            {
                id_col: b[id_col],
                name_col: b[name_col],
                "match_name": mcol,
                "jw": jcol,
            }
        )

    return ds.map_batches(link, batch_format="pyarrow")


def typo_names(ds, *, id_col: str, name_col: str, out_col: str = "dirty"):
    """Deterministic name corruption (the linkage test-fixture law,
    mirrored in SQL by :func:`sql_typo_expr`): position
    ``p = (id // 3) % length + 1`` (1-based); ``id % 3 == 0`` drops the
    char at p, ``== 1`` duplicates it, ``== 2`` leaves the name alone.
    Vectorized via char-matrix gathers; output strings assemble through
    one flat-buffer write (no per-row Python)."""

    def corrupt(b: pa.Table) -> pa.Table:
        ids = np.asarray(b[id_col], np.int64)
        mat, lens = _char_matrix(b[name_col])
        n = b.num_rows
        q = (ids // 3) % np.maximum(lens, 1)  # 0-based typo position
        mode = ids % 3
        out_lens = lens + np.where(mode == 0, -1, 0) + np.where(
            mode == 1, 1, 0
        )
        Lout = int(out_lens.max()) if n else 1
        out = np.zeros((n, max(Lout, 1)), dtype=np.uint8)
        j = np.arange(out.shape[1])[None, :]
        # source index per output position, per mode
        src_drop = j + (j >= q[:, None])            # skip char q
        src_dup = j - (j > q[:, None])              # repeat char q
        src = np.where(
            mode[:, None] == 0,
            src_drop,
            np.where(mode[:, None] == 1, src_dup, j),
        )
        src = np.clip(src, 0, mat.shape[1] - 1)
        vals = np.take_along_axis(mat, src, axis=1)
        valid = j < out_lens[:, None]
        out[valid] = vals[valid]
        flat = out[valid]
        offs = np.zeros(n + 1, np.int32)
        np.cumsum(out_lens, out=offs[1:])
        col = pa.StringArray.from_buffers(
            n,
            pa.py_buffer(offs.tobytes()),
            pa.py_buffer(flat.tobytes()),
        )
        return pa.table(
            {id_col: b[id_col], out_col: col}
        )

    return ds.map_batches(corrupt, batch_format="pyarrow")


def sql_typo_expr(id_expr: str, name_expr: str) -> str:
    """SQL twin of the :func:`typo_names` corruption law (DuckDB
    1-based substr; `//` truncates but ids are non-negative so it
    equals numpy's floor)."""
    p = f"((({id_expr}) // 3) % length({name_expr}) + 1)"
    s = name_expr
    return (
        f"CASE ({id_expr}) % 3 "
        f"WHEN 0 THEN substr({s}, 1, {p} - 1) || substr({s}, {p} + 1) "
        f"WHEN 1 THEN substr({s}, 1, {p}) || substr({s}, {p}, 1) "
        f"|| substr({s}, {p} + 1) "
        f"ELSE {s} END"
    )


def sql_fuzzy_link(
    *,
    source: str,
    id_expr: str,
    name_expr: str,
    master_source: str,
    master_expr: str,
    id_col: str = "id",
    name_col: str = "name",
    threshold: float = 0.88,
    round_to: int = 6,
) -> str:
    """DuckDB twin of :func:`fuzzy_link`: same blocking predicate
    (prefix-3 OR suffix-3 agreement), `jaro_winkler_similarity` rounded
    at ``round_to``, best match by rounded jw DESC then master name ASC,
    kept iff rounded jw >= threshold."""
    return f"""
WITH rec AS (
  SELECT {id_expr} AS rid, {name_expr} AS rname FROM {source}
),
master AS (
  SELECT DISTINCT {master_expr} AS mn FROM {master_source}
),
cand AS (
  SELECT r.rid, r.rname, m.mn,
         round(jaro_winkler_similarity(r.rname, m.mn), {round_to}) AS jw
  FROM rec r JOIN master m
    ON substr(r.rname, 1, 3) = substr(m.mn, 1, 3)
    OR substr(r.rname, length(r.rname) - 2, 3)
       = substr(m.mn, length(m.mn) - 2, 3)
),
best AS (
  SELECT rid, mn, jw,
         ROW_NUMBER() OVER (
           PARTITION BY rid ORDER BY jw DESC, mn ASC
         ) AS rn
  FROM cand
)
SELECT r.rid AS {id_col}, r.rname AS {name_col},
       CASE WHEN b.jw >= {threshold} THEN b.mn END AS match_name,
       CASE WHEN b.jw >= {threshold} THEN b.jw END AS jw
FROM rec r LEFT JOIN best b ON b.rid = r.rid AND b.rn = 1
"""
