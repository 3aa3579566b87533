"""Iterative graph algorithms as materialized-state Ray Data loops.

``pagerank`` runs the classic damped power iteration with a FIXED
iteration count — the Pregel shape on Ray Data: edge weights
(1/outdegree) compute once; each superstep is one hash join (rank state
x edges on src) plus one coarse-bucketed vectorized sum per dst; the
rank state (one row per node — always orders of magnitude smaller than
the edge set) materializes between supersteps.  Nothing driver-side
ever holds the graph.

Determinism contract: every arithmetic step (weight = 1.0/deg, the
``(1.0 - d)/n`` teleport term, the final ``pr * n`` scaling) is written
the same way in :func:`sql_pagerank`'s unrolled CTEs, so the oracle
compares exact rounded values, not a tolerance.  Summation order
differs between engines; rank is scaled to mean 1 and rounded
half-away at ``round_to`` so ulp noise cannot flip the compare.

Assumes the edge list makes every node both a source and a target
(e.g. undirected graphs doubled into both directions) — dangling-node
mass redistribution is NOT implemented and such nodes would drop from
the state after one superstep.  ``connected_components`` (dedup.py)
covers the other classic iterative-graph need.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from pygridmap_ray.cluster import (
    Broadcast,
    resolve_num_buckets as _resolve_buckets,
    segment_apply,
    segment_pairs,
)

#: schema of a distinct node-id Dataset
_V_SCHEMA = pa.schema([("v", pa.int64())])


def _first_v(t: pa.Table, starts: np.ndarray) -> dict:
    """:func:`segment_apply` kernel: one ``v`` per distinct value."""
    return {"v": np.asarray(t["v"], np.int64)[starts]}


def pagerank(
    edges,
    *,
    src: str = "src",
    dst: str = "dst",
    damping: float = 0.85,
    iters: int = 5,
    num_partitions: int | None = None,
    round_to: int = 6,
    broadcast_state_limit: int = 2_000_000,
    seed_nodes: np.ndarray | None = None,
):
    """Damped PageRank after exactly ``iters`` supersteps over a
    deduplicated directed int64 edge Dataset.  Returns ``(v,
    pr_scaled)`` with rank scaled to mean 1.0 and rounded half-away.

    The rank state is one float per node.  Below
    ``broadcast_state_limit`` nodes each superstep BROADCASTS the state
    (ray.put once, per-worker sorted-index cache) and streams the edge
    set through a stateless multiply + coarse sum — one shuffle per
    superstep, no join.  Above the limit it falls back to a partitioned
    hash join per superstep (state x edges on src) — same law, the
    shape a 10^9-node graph needs.

    ``seed_nodes`` switches to PERSONALIZED PageRank: the restart mass
    (1 - damping) is split over the seed set instead of all nodes, and
    the walk starts at the seeds — topic-/trust-biased importance.
    Seeds are inherently a small broadcastable set; supported on the
    broadcast-state path (the sharded-state variant needs one extra
    LEFT join of the node universe per superstep — not wired)."""
    from .cluster import segment_sum

    if num_partitions is None:
        from .cluster import default_num_partitions

        num_partitions = default_num_partitions()

    def one(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": pc.cast(b[src], pa.int64()),
                "dst": pc.cast(b[dst], pa.int64()),
                "val": pa.nulls(b.num_rows, pa.float64()).fill_null(1.0),
            }
        )

    tagged = edges.map_batches(one, batch_format="pyarrow")
    deg = segment_sum(
        # narrow inputs often arrive as 1-2 blocks: split them so the
        # exchange's map phase is not serialized on one task
        tagged.map_batches(
            lambda b: b.select(["src", "val"]), batch_format="pyarrow"
        ).repartition(num_partitions),
        ["src"],
    )
    tol = 10.0**round_to

    deg = deg.materialize()  # node-sized; reused by every consumer below
    if deg.count() <= broadcast_state_limit:
        dd = deg.to_pandas()

        order = np.argsort(dd["src"].to_numpy(np.int64), kind="stable")
        ids = dd["src"].to_numpy(np.int64)[order]
        degv = dd["val"].to_numpy(np.float64)[order]
        n = len(ids)
        nf = float(n)
        teleport = (1.0 - damping) / nf
        if seed_nodes is not None:
            smask = np.isin(
                ids, np.unique(np.asarray(seed_nodes, np.int64))
            )
            if not smask.any():
                raise ValueError("no seed_nodes present in the graph")
            kf = float(smask.sum())
            tvec = np.where(smask, (1.0 - damping) / kf, 0.0)
            pr_init = np.where(smask, 1.0 / kf, 0.0)
        else:
            tvec = np.full(n, teleport)
            pr_init = np.full(n, 1.0 / nf)
        dref = Broadcast({"ids": ids, "deg": degv})

        def attach_wt(b: pa.Table) -> pa.Table:
            p = dref.get()
            s = np.asarray(b["src"], np.int64)
            wt = 1.0 / p["deg"][np.searchsorted(p["ids"], s)]
            return pa.table({"src": b["src"], "dst": b["dst"], "wt": pa.array(wt)})

        wedges = (
            tagged.select_columns(["src", "dst"])
            .map_batches(attach_wt, batch_format="pyarrow")
            .materialize()  # reused every superstep
        )
        dense = n <= 1 << 18  # 2 MB state: dense per-task partial vectors
        pr = pr_init
        for it in range(iters):
            pref = Broadcast(pr)

            if dense:
                # no shuffle at all: each task returns a DENSE partial
                # contribution vector (n floats), summed on the driver —
                # for small states this beats the coarse-sum shuffle's
                # fixed all-to-all latency by ~3x per superstep
                def contrib_dense(b: pa.Table, _pref=pref) -> pa.Table:
                    p = _pref.get()
                    dk = dref.get()
                    s = np.asarray(b["src"], np.int64)
                    d2 = np.asarray(b["dst"], np.int64)
                    v = p[np.searchsorted(dk["ids"], s)] * np.asarray(
                        b["wt"], np.float64
                    )
                    acc = np.zeros(len(dk["ids"]))
                    np.add.at(acc, np.searchsorted(dk["ids"], d2), v)
                    return pa.table({"acc": pa.array([acc.tobytes()], pa.binary())})

                acc = np.zeros(n)
                for b in wedges.map_batches(
                    contrib_dense, batch_format="pyarrow"
                ).iter_batches(batch_size=None, batch_format="pyarrow"):
                    for buf in b["acc"].to_pylist():
                        acc += np.frombuffer(buf, dtype=np.float64)
                pr = tvec + damping * acc
                continue

            def contrib(b: pa.Table, _pref=pref) -> pa.Table:
                p = _pref.get()
                dk = dref.get()
                s = np.asarray(b["src"], np.int64)
                v = p[np.searchsorted(dk["ids"], s)] * np.asarray(
                    b["wt"], np.float64
                )
                return pa.table({"dst": b["dst"], "val": pa.array(v)})

            s = segment_sum(
                wedges.map_batches(contrib, batch_format="pyarrow"), ["dst"]
            ).to_pandas()
            pr = tvec.copy()
            pos = np.searchsorted(ids, s["dst"].to_numpy(np.int64))
            pr[pos] = tvec[pos] + damping * s["val"].to_numpy(np.float64)
        out = np.sign(pr * nf) * np.floor(np.abs(pr * nf) * tol + 0.5) / tol
        import ray.data as rd

        return rd.from_arrow(
            pa.table({"v": pa.array(ids), "pr_scaled": pa.array(out)})
        )

    # big-graph path: the state is a Dataset, attached per superstep with
    # a partitioned hash join.  No safe_join guard needed: this path only
    # runs above the broadcast limit (nodes >> join width), and every
    # side is a fresh balanced repartition — no empty blocks to lose the
    # hash-shuffle schema race on (cluster.compact_blocks docstring).
    deg_ds = deg.map_batches(
        lambda b: pa.table({"src": b["src"], "deg": b["val"]}),
        batch_format="pyarrow",
    ).repartition(num_partitions)

    wedges = (
        tagged.select_columns(["src", "dst"])
        .repartition(num_partitions)
        .join(deg_ds, "inner", num_partitions=num_partitions, on=("src",))
        .map_batches(
            lambda b: pa.table(
                {
                    "src": b["src"],
                    "dst": b["dst"],
                    "wt": pc.divide(pa.scalar(1.0), pc.cast(b["deg"], pa.float64())),
                }
            ),
            batch_format="pyarrow",
        )
        .materialize()  # reused every superstep
    )

    n = deg_ds.count()
    nf = float(n)
    sv = None
    if seed_nodes is not None:
        # PERSONALIZED restart: teleport mass splits over the seeds
        # PRESENT in the graph — seeds stay broadcastable (tiny array
        # in the update closures), only the rank state is sharded
        sv = np.unique(np.asarray(seed_nodes, np.int64))

        def _member(b: pa.Table) -> pa.Table:
            m = np.isin(np.asarray(b["src"], np.int64), sv)
            return pa.table({"m": pa.array(m.astype(np.int64))})

        k = float(
            deg_ds.map_batches(_member, batch_format="pyarrow").sum("m")
            or 0
        )
        if k == 0.0:  # same error as the broadcast path (graph.py:107)
            raise ValueError("no seed_nodes present in the graph")
        teleport = (1.0 - damping) / k
        init_val = 1.0 / k
    else:
        teleport = (1.0 - damping) / nf
        init_val = 1.0 / nf

    def _init(b: pa.Table) -> pa.Table:
        v = np.asarray(b["src"], np.int64)
        if sv is None:
            p0 = np.full(len(v), init_val)
        else:
            p0 = np.where(np.isin(v, sv), init_val, 0.0)
        return pa.table({"v": b["src"], "pr": pa.array(p0)})

    pr = deg_ds.map_batches(_init, batch_format="pyarrow").materialize()
    # zero-contribution universe rows: unioned into every superstep's
    # sum so nodes with no inbound mass KEEP their teleport (and keep
    # contributing) instead of silently dropping out of the state
    zeros = deg_ds.map_batches(
        lambda b: pa.table(
            {
                "dst": b["src"],
                "val": pa.nulls(b.num_rows, pa.float64()).fill_null(0.0),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    def _update(b: pa.Table) -> pa.Table:
        v = np.asarray(b["dst"], np.int64)
        if sv is None:
            tv = np.full(len(v), teleport)
        else:
            tv = np.where(np.isin(v, sv), teleport, 0.0)
        return pa.table(
            {
                "v": b["dst"],
                "pr": pa.array(
                    tv + damping * np.asarray(b["val"], np.float64)
                ),
            }
        )

    for _ in range(iters):
        state = pr.map_batches(
            lambda b: pa.table({"src": b["v"], "pr": b["pr"]}),
            batch_format="pyarrow",
        ).repartition(num_partitions)
        contrib = wedges.join(
            state, "inner", num_partitions=num_partitions, on=("src",)
        ).map_batches(
            lambda b: pa.table(
                {
                    "dst": b["dst"],
                    "val": pc.multiply(b["pr"], b["wt"]),
                }
            ),
            batch_format="pyarrow",
        )
        summed = segment_sum(contrib.union(zeros), ["dst"])
        pr = summed.map_batches(
            _update, batch_format="pyarrow"
        ).materialize()

    def finish(b: pa.Table) -> pa.Table:
        s = np.asarray(b["pr"], np.float64) * nf
        s = np.sign(s) * np.floor(np.abs(s) * tol + 0.5) / tol
        return pa.table({"v": b["v"], "pr_scaled": pa.array(s)})

    return pr.map_batches(finish, batch_format="pyarrow")


def bipartite_edges_sql(
    *,
    source: str = "lineitem",
    left: str = "l_suppkey",
    right: str = "l_partkey",
) -> str:
    """Shared edge law for the supplier<->part graph: distinct pairs,
    namespaced into one int64 node space (left even, right odd), doubled
    into both directions so no node dangles."""
    return f"""
  SELECT {left} * 2 AS src, {right} * 2 + 1 AS dst
  FROM (SELECT DISTINCT {left}, {right} FROM {source})
  UNION ALL
  SELECT {right} * 2 + 1 AS src, {left} * 2 AS dst
  FROM (SELECT DISTINCT {left}, {right} FROM {source})
"""


def sql_pagerank(
    *,
    edges_sql: str,
    damping: float = 0.85,
    iters: int = 5,
    round_to: int = 6,
) -> str:
    """DuckDB twin of :func:`pagerank`: the power iteration unrolled
    into ``iters`` CTEs with identical arithmetic."""
    d = repr(damping)
    tol = f"1e{round_to}"
    ctes = [
        f"edges AS ({edges_sql})",
        "deg AS (SELECT src, COUNT(*)::DOUBLE AS deg FROM edges GROUP BY src)",
        "wedges AS (SELECT e.src, e.dst, 1.0 / deg.deg AS wt"
        " FROM edges e JOIN deg ON deg.src = e.src)",
        "nn AS (SELECT COUNT(*)::DOUBLE AS n FROM deg)",
        "pr0 AS (SELECT src AS v, 1.0 / (SELECT n FROM nn) AS pr FROM deg)",
    ]
    for k in range(1, iters + 1):
        ctes.append(
            f"pr{k} AS (SELECT w.dst AS v, (1.0 - {d}) / (SELECT n FROM nn)"
            f" + {d} * SUM(p.pr * w.wt) AS pr"
            f" FROM wedges w JOIN pr{k - 1} p ON p.v = w.src GROUP BY w.dst)"
        )
    return (
        "WITH " + ",\n".join(ctes) + f"\nSELECT v, ROUND(pr * (SELECT n FROM nn)"
        f" * {tol}) / {tol} AS pr_scaled FROM pr{iters}"
    )


def distinct_int_pairs(ds, a_col: str, b_col: str, *, num_buckets: int | None = None):
    """Global DISTINCT over an int pair column set: per-batch np.unique
    partial on the packed 64-bit key -> coarse-bucket shuffle (all copies
    of one pair share a bucket) -> per-bucket np.unique -> unpacked
    ``(a, b)`` rows.  Requires both values < 2^31 (packed key layout)."""
    def pack(b: pa.Table) -> pa.Table:
        a = np.asarray(b[a_col], dtype=np.int64)
        v = np.asarray(b[b_col], dtype=np.int64)
        if len(a) and (a.max() >= (1 << 31) or v.max() >= (1 << 31) or a.min() < 0 or v.min() < 0):
            raise ValueError("pair values must be in [0, 2^31)")
        return pa.table({"k": pa.array(np.unique(a * (1 << 31) + v))})

    def uniq(t: pa.Table, starts: np.ndarray) -> dict:
        k = np.asarray(t["k"], np.int64)[starts]
        return {a_col: k >> 31, b_col: k & ((1 << 31) - 1)}

    return segment_apply(
        ds.map_batches(pack, batch_format="pyarrow"),
        "k",
        uniq,
        pa.schema([(a_col, pa.int64()), (b_col, pa.int64())]),
        num_buckets=num_buckets,
    )


def distinct_int_pairs_table(ds, a_col: str, b_col: str, *,
                             max_rows: int = 50_000_000) -> pa.Table:
    """Driver-final variant of :func:`distinct_int_pairs` for DENSE-PATH
    consumers (k-core, label propagation, the pagerank dense gate) that
    materialize the whole distinct edge set on the driver anyway: one
    per-batch packed-key ``np.unique`` partial, partials streamed to the
    driver, one final ``np.unique`` — no shuffle at all (measured ~3x
    faster than the coarse-groupby plan at sf0.1).  The driver-memory
    contract is ENFORCED: streamed partial volume beyond ``max_rows``
    raises a clear error naming :func:`distinct_int_pairs` (the
    coarse-bucket distributed distinct) instead of OOMing the driver —
    partial rows upper-bound the distinct count, so the gate is
    conservative."""

    def pack(b: pa.Table) -> pa.Table:
        a = np.asarray(b[a_col], dtype=np.int64)
        v = np.asarray(b[b_col], dtype=np.int64)
        if len(a) and (
            a.max() >= (1 << 31)
            or v.max() >= (1 << 31)
            or a.min() < 0
            or v.min() < 0
        ):
            raise ValueError("pair values must be in [0, 2^31)")
        return pa.table({"k": pa.array(np.unique(a * (1 << 31) + v))})

    parts = []
    total = 0
    for b in ds.map_batches(pack, batch_format="pyarrow").iter_batches(
        batch_size=None, batch_format="pyarrow"
    ):
        arr = np.asarray(b["k"], np.int64)
        total += len(arr)
        if total > max_rows:
            raise ValueError(
                f"distinct pair partials exceed the driver gate "
                f"({max_rows} rows): this consumer's edge set is not "
                "driver-memory scale — use distinct_int_pairs (the "
                "coarse-bucket distributed distinct) and a sharded "
                "consumer path (kcore_membership / _scc_sharded shape)"
            )
        parts.append(arr)
    k = (
        np.unique(np.concatenate(parts))
        if parts
        else np.empty(0, np.int64)
    )
    return pa.table(
        {a_col: pa.array(k >> 31), b_col: pa.array(k & ((1 << 31) - 1))}
    )


def degree_histogram(pairs, a_col: str, b_col: str, *,
                     num_buckets: int | None = None):
    """Degree distribution of the bipartite graph given its DISTINCT
    edge set (e.g. :func:`distinct_int_pairs` output): one row
    ``(degree, n_nodes)`` per observed degree, both sides counted in a
    namespaced node space (left even, right odd — the
    :func:`bipartite_edges_sql` law).

    Scale plan: node ids are HIGH-cardinality, so degrees never go
    through a fine groupby — per-batch ``np.unique`` partials on the
    namespaced node key, one coarse-bucket shuffle (all partials of a
    node share a bucket), per-bucket reduceat sum, then the degree
    values (LOW-cardinality) feed the one small built-in groupby.
    Mirrors reference ``gridtiler.py`` aggregation staging (partial ->
    tiny final), applied to graph degrees.
    """
    from ray.data.aggregate import Sum

    def explode(b: pa.Table) -> pa.Table:
        a = np.asarray(b[a_col], np.int64) * 2
        v = np.asarray(b[b_col], np.int64) * 2 + 1
        node, cnt = np.unique(np.concatenate([a, v]), return_counts=True)
        return pa.table({"node": pa.array(node), "cnt": pa.array(cnt)})

    def per_bucket(t: pa.Table, starts: np.ndarray) -> dict:
        deg = np.add.reduceat(np.asarray(t["cnt"], np.int64), starts)
        dval, dcnt = np.unique(deg, return_counts=True)
        return {"degree": dval, "n_nodes": dcnt}

    return (
        segment_apply(
            pairs.map_batches(explode, batch_format="pyarrow"),
            "node",
            per_bucket,
            pa.schema({"degree": pa.int64(), "n_nodes": pa.int64()}),
            num_buckets=num_buckets,
        )
        .groupby("degree")
        .aggregate(Sum("n_nodes", alias_name="n_nodes"))
    )


def sql_degree_histogram(*, source: str = "lineitem",
                         left: str = "l_suppkey",
                         right: str = "l_partkey") -> str:
    return f"""
WITH e AS (SELECT DISTINCT {left}, {right} FROM {source}),
nodes AS (
  SELECT {left} * 2 AS node, COUNT(*)::BIGINT AS deg FROM e GROUP BY 1
  UNION ALL
  SELECT {right} * 2 + 1 AS node, COUNT(*)::BIGINT AS deg FROM e GROUP BY 1
)
SELECT deg AS degree, COUNT(*)::BIGINT AS n_nodes FROM nodes GROUP BY deg
"""


def co_occurrence(ds, key_col: str, item_col: str, *,
                  max_degree: int = 64, num_buckets: int | None = None):
    """Bipartite projection with pair counts: for every unordered item
    pair sharing a key, how many keys they share (the co-purchase /
    co-occurrence matrix).  The classic blowup control is the degree
    cutoff: keys with more than ``max_degree`` items are dropped on BOTH
    sides of the law (a key with d items emits d(d-1)/2 pairs — hot keys
    are the quadratic risk, exactly the PPJoin/LSH hot-bucket rule used
    in dedup.py).

    Plan: one coarse-bucket shuffle on key hash (all items — and all
    duplicate copies — of a key share a bucket, so the global
    (key, item) dedup happens IN-BUCKET with one packed np.unique
    instead of its own shuffle; per-batch partial dedup bounds the
    shuffle volume first) -> per-bucket vectorized within-segment pair
    emission (no Python loop over keys) + packed-pair partial counts ->
    second coarse shuffle on pair hash -> reduceat sum.  Pair ids are
    HIGH-cardinality so they never see a fine groupby."""
    def bucket(b: pa.Table) -> pa.Table:
        k = np.asarray(b[key_col], np.int64)
        it = np.asarray(b[item_col], np.int64)
        if len(k) and (
            k.max() >= (1 << 31) or it.max() >= (1 << 31)
            or k.min() < 0 or it.min() < 0
        ):
            raise ValueError("key/item values must be in [0, 2^31)")
        u = np.unique(k * (1 << 31) + it)  # per-batch partial dedup
        return pa.table(
            {"k": pa.array(u >> 31), "it": pa.array(u & ((1 << 31) - 1))}
        )

    def emit_pairs(t: pa.Table, starts: np.ndarray):
        import pandas as pd

        # global (key, item) dedup: every copy of a pair shares this
        # call, sorted by (k, it), so copies are adjacent
        k = np.asarray(t["k"], np.int64)
        it = np.asarray(t["it"], np.int64)
        first = np.zeros(len(k), dtype=bool)
        first[starts] = True
        keep = first | np.append(True, it[1:] != it[:-1])
        k, it = k[keep], it[keep]
        starts = np.flatnonzero(first[keep])
        n = np.diff(np.append(starts, len(k)))
        keep = n <= max_degree
        # drop hot keys entirely (both-sides law)
        if not keep.all():
            mask = np.repeat(keep, n)
            k, it = k[mask], it[mask]
            starts = np.flatnonzero(
                np.concatenate([[True], k[1:] != k[:-1]])
            ) if len(k) else np.empty(0, np.int64)
            n = np.diff(np.append(starts, len(k)))
        if len(k) == 0:
            return pd.DataFrame({"pair": pd.Series([], dtype=np.int64),
                                 "n": pd.Series([], dtype=np.int64)})
        # within-segment ordered pairs (i < j), fully vectorized:
        # left count per element = (segment remainder after it)
        local = np.arange(len(k)) - np.repeat(starts, n)
        rem = np.repeat(n, n) - 1 - local          # pairs each row starts
        total = int(rem.sum())
        left = np.repeat(np.arange(len(k)), rem)
        # offset within each row's run: 1..rem
        run_start = np.cumsum(rem) - rem
        off = np.arange(total) - np.repeat(run_start, rem) + 1
        right = left + off
        a, bb = it[left], it[right]
        lo = np.minimum(a, bb)
        hi = np.maximum(a, bb)
        pk, pn = np.unique(lo * (1 << 31) + hi, return_counts=True)
        return pd.DataFrame({"pair": pk, "n": pn.astype(np.int64)})

    def final(t: pa.Table, starts: np.ndarray) -> dict:
        pu = np.asarray(t["pair"], np.int64)[starts]
        return {
            "item_a": pu >> 31,
            "item_b": pu & ((1 << 31) - 1),
            "n_shared": np.add.reduceat(np.asarray(t["n"], np.int64), starts),
        }

    I = pa.int64()
    pairs = segment_apply(
        ds.select_columns([key_col, item_col]).map_batches(
            bucket, batch_format="pyarrow"
        ),
        "k",
        emit_pairs,
        pa.schema({"pair": I, "n": I}),
        order=("it",),
        num_buckets=num_buckets,
    )
    return segment_apply(
        pairs,
        "pair",
        final,
        pa.schema({"item_a": I, "item_b": I, "n_shared": I}),
        num_buckets=num_buckets,
    )


def sql_co_occurrence(*, source: str = "lineitem",
                      key: str = "l_partkey", item: str = "l_suppkey",
                      max_degree: int = 64) -> str:
    return f"""
WITH e AS (SELECT DISTINCT {key}, {item} FROM {source}),
ok AS (SELECT {key} FROM e GROUP BY {key}
       HAVING COUNT(*) <= {max_degree}),
f AS (SELECT e.{key}, e.{item} FROM e JOIN ok USING ({key}))
SELECT LEAST(a.{item}, b.{item}) AS item_a,
       GREATEST(a.{item}, b.{item}) AS item_b,
       COUNT(*)::BIGINT AS n_shared
FROM f a JOIN f b
  ON a.{key} = b.{key} AND a.{item} < b.{item}
GROUP BY item_a, item_b
"""


def _coocc_pair_partials(ds, group_col: str, item_col: str,
                         num_buckets: int):
    """Stages 1-2 of the co-occurrence pair count (shared by the
    driver-table and Dataset folds): per-batch packed (group, item)
    dedup partials, ONE group-hash coarse shuffle (all members of a
    group co-locate), per-bucket vectorized stride-d pair emission with
    in-bucket pre-sum.  Returns the (pk, cnt) partial Dataset — one
    pair may still span partial rows across buckets."""

    def emit_pairs(b: pa.Table) -> pa.Table:
        g = np.asarray(b[group_col], np.int64)
        it = np.asarray(b[item_col], np.int64)
        if len(g) and (
            g.max() >= (1 << 31) or it.max() >= (1 << 31)
            or g.min() < 0 or it.min() < 0
        ):
            raise ValueError("group/item values must be in [0, 2^31)")
        k = np.unique(g * (1 << 31) + it)
        return pa.table({"g": pa.array(k >> 31), "k": pa.array(k)})

    def bucket_pairs(t: pa.Table, starts: np.ndarray) -> "pd.DataFrame":
        import pandas as pd

        k = np.asarray(t["k"], np.int64)  # sorted; copies are adjacent
        k = k[np.append(True, k[1:] != k[:-1])]
        g = k >> 31
        it = k & ((1 << 31) - 1)
        # k sorted => (g, it) lexsorted: items ascend within each group
        parts = []
        d = 1
        while True:
            if d >= len(g):
                break
            same = g[:-d] == g[d:]
            if not same.any():
                break
            u = it[:-d][same]
            v = it[d:][same]
            parts.append(u * (1 << 31) + v)
            d += 1
        if not parts:
            return pd.DataFrame(
                {"pk": pd.Series([], dtype="int64"),
                 "cnt": pd.Series([], dtype="int64")}
            )
        pk, cnt = np.unique(np.concatenate(parts), return_counts=True)
        return pd.DataFrame({"pk": pk, "cnt": cnt.astype(np.int64)})

    return segment_apply(
        ds.map_batches(emit_pairs, batch_format="pyarrow"),
        "g",
        bucket_pairs,
        pa.schema({"pk": pa.int64(), "cnt": pa.int64()}),
        order=("k",),
        num_buckets=num_buckets,
    )


def cooccurrence_edge_table(
    ds,
    group_col: str,
    item_col: str,
    *,
    min_weight: int = 3,
    num_buckets: int | None = None,
) -> pa.Table:
    """Thresholded item co-occurrence graph: one (u, v, w) row per item
    pair sharing >= ``min_weight`` distinct groups, u < v by item id.

    Scale plan: rows bucket by GROUP hash (all members of one group
    co-locate; groups are small — order line counts — so per-group pair
    volume is bounded); within each bucket the (group, item) set is
    deduped with one packed np.unique, pairs emit via the vectorized
    stride-d scan (no Python per group), and partial pair counts reduce
    with a second packed np.unique.  Partials then hash-bucket by PAIR
    key and sum vectorized.  The THRESHOLDED edge set returns as a
    driver table — bounded by min_weight (the analytics consumers hold
    it anyway); raise min_weight rather than gathering dense graphs.
    For graphs whose THRESHOLDED edge set itself outgrows the driver,
    use :func:`cooccurrence_edges_ds` + the ``*_distributed`` census
    consumers."""
    num_buckets = _resolve_buckets(num_buckets)
    partials = _coocc_pair_partials(ds, group_col, item_col, num_buckets)
    return _fold_pair_partials_table(partials, min_weight)


def _fold_pair_partials_table(partials, min_weight: int) -> pa.Table:
    """Driver fold of the (pk, cnt) pair partials: one per-batch partial
    of a pair may span stage-1 buckets, so totals reduce on the driver
    over pair-vocabulary-scale rows, then threshold."""
    parts = [
        (np.asarray(b["pk"], np.int64), np.asarray(b["cnt"], np.int64))
        for b in partials.iter_batches(batch_size=None, batch_format="pyarrow")
    ]
    if parts:
        pk = np.concatenate([p[0] for p in parts])
        cnt = np.concatenate([p[1] for p in parts])
        order = np.argsort(pk, kind="stable")
        pk, cnt = pk[order], cnt[order]
        starts = np.flatnonzero(
            np.concatenate([[True], pk[1:] != pk[:-1]])
        )
        tot = np.add.reduceat(cnt, starts)
        pk = pk[starts]
        keep = tot >= min_weight
        pk, tot = pk[keep], tot[keep]
    else:
        pk = np.empty(0, np.int64)
        tot = np.empty(0, np.int64)
    return pa.table(
        {
            "u": pa.array(pk >> 31),
            "v": pa.array(pk & ((1 << 31) - 1)),
            "w": pa.array(tot),
        }
    )


def triangle_stats(edges: pa.Table, *, round_to: int = 6) -> pa.Table:
    """Global triangle census of an undirected simple graph given its
    (u, v) edge table (u < v): one row (n_nodes, n_edges, n_wedges,
    n_triangles, clustering) with clustering = 3*triangles/wedges
    (the global/transitivity coefficient, 6dp half-away).

    Exact node-iterator algorithm, vectorized: edges orient low->high
    DEGREE (ties by node id — the standard O(E^1.5) wedge bound), the
    oriented adjacency emits wedges with the stride-d scan, and each
    wedge closes iff its (v, w) key is in the oriented edge-key set
    (sorted-array membership, no hashing)."""
    u = np.asarray(edges["u"], np.int64)
    v = np.asarray(edges["v"], np.int64)
    if not len(u):
        return pa.table(
            {
                "n_nodes": pa.array([0], pa.int64()),
                "n_edges": pa.array([0], pa.int64()),
                "n_wedges": pa.array([0], pa.int64()),
                "n_triangles": pa.array([0], pa.int64()),
                "clustering": pa.array([None], pa.float64()),
            }
        )
    nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
    iu, iv = inv[: len(u)], inv[len(u):]
    n = len(nodes)
    deg = np.bincount(iu, minlength=n) + np.bincount(iv, minlength=n)
    n_edges = len(u)
    n_wedges = int((deg.astype(np.int64) * (deg - 1) // 2).sum())
    # orient by (deg, node-id): rank nodes, edge points lower -> higher
    rank = np.empty(n, np.int64)
    rank[np.lexsort((np.arange(n), deg))] = np.arange(n)
    ru, rv = rank[iu], rank[iv]
    src = np.where(ru < rv, ru, rv)
    dst = np.where(ru < rv, rv, ru)
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    ekey = src * n + dst  # sorted ascending by construction
    # segmented-triu wedge enumeration: O(W) total (W = oriented wedge
    # count) instead of the stride-d scan's O(E * max_out_degree) —
    # dense co-occurrence graphs have out-degrees in the hundreds, which
    # made the stride scan the measured driver hotspot.  Chunked so the
    # wedge slab stays bounded regardless of degree skew.
    seg_starts = np.flatnonzero(np.r_[True, src[1:] != src[:-1]])
    tri = 0
    for ga, gb in segment_pairs(seg_starts, len(src)):
        a = dst[ga]
        b = dst[gb]
        wk = np.minimum(a, b) * n + np.maximum(a, b)
        pos = np.searchsorted(ekey, wk)
        np.clip(pos, 0, len(ekey) - 1, out=pos)
        tri += int((ekey[pos] == wk).sum())
    if n_wedges:
        c = (3.0 * float(tri)) / float(n_wedges)
        tol = 10.0 ** round_to
        c = np.sign(c) * np.floor(abs(c) * tol + 0.5) / tol
        cl = pa.array([float(c)])
    else:
        cl = pa.array([None], pa.float64())
    return pa.table(
        {
            "n_nodes": pa.array([int(n)], pa.int64()),
            "n_edges": pa.array([int(n_edges)], pa.int64()),
            "n_wedges": pa.array([int(n_wedges)], pa.int64()),
            "n_triangles": pa.array([int(tri)], pa.int64()),
            "clustering": cl,
        }
    )


def adamic_adar_table(edges: pa.Table, *, round_to: int = 6) -> pa.Table:
    """Adamic-Adar link prediction over an undirected simple graph given
    its (u, v) edge table (u < v): one row per NON-adjacent two-hop pair
    (u < w) with the common-neighbor count and the AA score
    sum_v 1 / ln(deg(v)), rounded half-away at ``round_to`` dp (the step
    dwarfs float-sum order noise; see CLAUDE.md rounding protocol).

    Driver-final by design: candidate volume is sum_v deg(v)^2 / 2 of
    the THRESHOLDED graph the caller built (cooccurrence_edge_table's
    min_weight bounds it); at 100 TB the same wedge emission runs as the
    per-bucket kernel of the triangle census, this helper is the
    analytics tail.  Wedges emit via the CSR stride scan (no Python per
    node), pair scores reduce with one lexsort + np.add.reduceat."""
    u = np.asarray(edges["u"], np.int64)
    v = np.asarray(edges["v"], np.int64)
    empty = pa.table(
        {
            "u": pa.array([], pa.int64()),
            "w": pa.array([], pa.int64()),
            "n_common": pa.array([], pa.int64()),
            "aa": pa.array([], pa.float64()),
        }
    )
    if not len(u):
        return empty
    nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
    iu, iv = inv[: len(u)], inv[len(u):]
    n = len(nodes)
    # symmetric CSR: neighbors of every node, sorted by (node, neighbor)
    src = np.concatenate([iu, iv])
    dst = np.concatenate([iv, iu])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    deg = np.bincount(src, minlength=n).astype(np.int64)
    with np.errstate(divide="ignore"):
        # deg==1 gives inf but a degree-1 node is never a wedge center
        inv_ln = 1.0 / np.log(deg.astype(np.float64))
    # wedge emission: for stride d, rows i and i+d share src => dst pair
    pk_parts, wt_parts = [], []
    d = 1
    while d < len(src):
        same = src[:-d] == src[d:]
        if not same.any():
            break
        a = dst[:-d][same]  # a < b: dst ascends within a src run
        b = dst[d:][same]
        pk_parts.append(a * n + b)
        wt_parts.append(inv_ln[src[:-d][same]])
        d += 1
    if not pk_parts:
        return empty
    pk = np.concatenate(pk_parts)
    wt = np.concatenate(wt_parts)
    # drop pairs that are direct edges (sorted membership, no hashing)
    lo = np.minimum(iu, iv)
    hi = np.maximum(iu, iv)
    ekey = np.sort(lo * n + hi)
    pos = np.searchsorted(ekey, pk)
    pos = np.clip(pos, 0, len(ekey) - 1)
    keep = ekey[pos] != pk
    pk, wt = pk[keep], wt[keep]
    if not len(pk):
        return empty
    order = np.argsort(pk, kind="stable")
    pk, wt = pk[order], wt[order]
    starts = np.flatnonzero(np.concatenate([[True], pk[1:] != pk[:-1]]))
    score = np.add.reduceat(wt, starts)
    cnt = np.diff(np.append(starts, len(pk)))
    pk = pk[starts]
    tol = 10.0 ** round_to
    score = np.sign(score) * np.floor(np.abs(score) * tol + 0.5) / tol
    return pa.table(
        {
            "u": pa.array(nodes[pk // n]),
            "w": pa.array(nodes[pk % n]),
            "n_common": pa.array(cnt.astype(np.int64)),
            "aa": pa.array(score),
        }
    )


def assortativity_table(edges: pa.Table, *, round_to: int = 6) -> pa.Table:
    """Degree assortativity of an undirected simple graph: the Pearson
    correlation of (deg(src), deg(dst)) over the 2M directed-symmetrized
    edges.  All five sums are int64 (exact); the only float ops are the
    final casts, one sqrt and one divide — bit-identical to the SQL twin
    which uses the same closed form."""
    u = np.asarray(edges["u"], np.int64)
    v = np.asarray(edges["v"], np.int64)
    if not len(u):
        return pa.table(
            {
                "n_edges": pa.array([0], pa.int64()),
                "assortativity": pa.array([None], pa.float64()),
            }
        )
    nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
    iu, iv = inv[: len(u)], inv[len(u):]
    deg = (
        np.bincount(iu, minlength=len(nodes))
        + np.bincount(iv, minlength=len(nodes))
    ).astype(np.int64)
    x = np.concatenate([deg[iu], deg[iv]])
    y = np.concatenate([deg[iv], deg[iu]])
    m = len(x)
    sx = int(x.sum())
    sy = int(y.sum())
    sxy = int((x * y).sum())
    sxx = int((x * x).sum())
    syy = int((y * y).sum())
    num = float(m * sxy - sx * sy)
    den = np.sqrt(float(m * sxx - sx * sx) * float(m * syy - sy * sy))
    if den == 0.0:
        r = None
    else:
        r = num / den
        tol = 10.0 ** round_to
        r = float(np.sign(r) * np.floor(abs(r) * tol + 0.5) / tol)
    return pa.table(
        {
            "n_edges": pa.array([len(u)], pa.int64()),
            "assortativity": pa.array([r], pa.float64()),
        }
    )


HITS_ITERS = 5


def hits_scores(
    pairs: pa.Table,
    hub_col: str = "a",
    auth_col: str = "b",
    *,
    iters: int = HITS_ITERS,
    round_to: int = 6,
) -> pa.Table:
    """HITS hubs-and-authorities over a bipartite (hub, auth) distinct
    edge table: a = sum of hub scores over in-edges, h = sum of
    authority scores over out-edges, each normalized by its MAX every
    iteration (max-normalization keeps the per-iteration float error at
    one divide instead of a norm-sum; the SQL twin mirrors the order).

    Driver-final over the distinct-pair table (the kcore shape); the
    10^9-edge path is the pagerank superstep — same scatter, hub/auth
    state broadcast or joined per iteration."""
    hub = np.asarray(pairs[hub_col], np.int64)
    aut = np.asarray(pairs[auth_col], np.int64)
    hn, hi = np.unique(hub, return_inverse=True)
    an, ai = np.unique(aut, return_inverse=True)
    h = np.ones(len(hn))
    a = np.zeros(len(an))
    for _ in range(iters):
        a = np.zeros(len(an))
        np.add.at(a, ai, h[hi])
        a = a / a.max()
        h = np.zeros(len(hn))
        np.add.at(h, hi, a[ai])
        h = h / h.max()
    tol = 10.0 ** round_to
    h = np.sign(h) * np.floor(np.abs(h) * tol + 0.5) / tol
    a = np.sign(a) * np.floor(np.abs(a) * tol + 0.5) / tol
    return pa.table(
        {
            "node": pa.array(np.concatenate([hn, an])),
            "kind": pa.array(
                ["hub"] * len(hn) + ["auth"] * len(an), pa.string()
            ),
            "score": pa.array(np.concatenate([h, a])),
        }
    )


def hits_scores_ds(
    edges,
    hub_col: str = "a",
    auth_col: str = "b",
    *,
    iters: int = HITS_ITERS,
    round_to: int = 6,
):
    """:func:`hits_scores` for DISTINCT bipartite edge Datasets beyond
    the driver gate — the pagerank superstep shape: hub/authority
    scores live in node-scale Datasets; each iteration is one
    partitioned ``safe_join`` scatter + one coarse per-target sum per
    direction, with the max normalization from a streaming aggregate.
    Returns a Dataset (node, kind, score) — same law/rounding as the
    driver solve."""
    import ray.data as rd

    from .cluster import compact_blocks, default_num_partitions, safe_join

    w = default_num_partitions()
    I = pa.int64()
    edge_schema = pa.schema([(hub_col, I), (auth_col, I)])
    h_schema = pa.schema([("v", I), ("s", pa.float64())])
    edges_c = compact_blocks(edges.repartition(w), edge_schema)

    def _distinct_col(col):
        def part(b: pa.Table) -> pa.Table:
            return pa.table({"v": pa.array(np.unique(np.asarray(b[col], np.int64)))})

        return segment_apply(
            edges_c.map_batches(part, batch_format="pyarrow"), "v", _first_v, _V_SCHEMA
        )

    hubs = compact_blocks(
        _distinct_col(hub_col).map_batches(
            lambda b: pa.table(
                {
                    "v": pc.cast(b["v"], I),
                    "s": pa.nulls(b.num_rows, pa.float64()).fill_null(
                        1.0
                    ),
                }
            ),
            batch_format="pyarrow",
        ),
        h_schema,
    )
    auths = None

    def scatter(src_state, on_col, out_col):
        msgs = safe_join(
            edges_c, src_state, "inner", num_partitions=w,
            on=(on_col,), right_on=("v",), right_schema=h_schema,
        )
        summed = _coarse_reduce_by_key(
            msgs, out_col, "s", op="sum", out_key="v", out_val="s",
            val_type=pa.float64(),
        ).materialize()
        mx = summed.max("s")
        return compact_blocks(
            summed.map_batches(
                lambda b, _m=float(mx): pa.table(
                    {
                        "v": b["v"],
                        "s": pc.divide(b["s"], pa.scalar(_m)),
                    }
                ),
                batch_format="pyarrow",
            ),
            h_schema,
        )

    for _ in range(iters):
        auths = scatter(hubs, hub_col, auth_col)
        hubs = scatter(auths, auth_col, hub_col)
    tol = 10.0 ** round_to

    def finish(kind):
        def f(b: pa.Table) -> pa.Table:
            sc = np.asarray(b["s"], np.float64)
            sc = np.sign(sc) * np.floor(np.abs(sc) * tol + 0.5) / tol
            return pa.table(
                {
                    "node": b["v"],
                    "kind": pa.array([kind] * b.num_rows, pa.string()),
                    "score": pa.array(sc),
                }
            )

        return f

    return (
        hubs.map_batches(finish("hub"), batch_format="pyarrow")
        .union(auths.map_batches(finish("auth"), batch_format="pyarrow"))
        .sort(["kind", "node"])
    )



def sql_hits(
    *,
    source: str = "lineitem",
    left: str = "l_suppkey",
    right: str = "l_partkey",
    iters: int = HITS_ITERS,
    round_to: int = 6,
) -> str:
    """DuckDB twin of :func:`hits_scores` on the distinct
    (left, right) bipartite edges: the power iteration unrolled with
    identical max-normalization order."""
    tol = f"1e{round_to}"
    ctes = [
        f"e AS (SELECT DISTINCT {left} AS hub, {right} AS aut FROM {source})",
        "h0 AS (SELECT hub AS v, 1.0::DOUBLE AS s FROM (SELECT DISTINCT hub FROM e))",
    ]
    prev_h = "h0"
    for k in range(1, iters + 1):
        # normalize with a window MAX so every CTE is referenced ONCE —
        # DuckDB inlines CTEs, and a scalar (SELECT MAX..) re-reference
        # doubles the join chain per iteration (2^iters blowup)
        ctes.append(
            f"a{k} AS (SELECT v, s / MAX(s) OVER () AS s FROM ("
            f"SELECT e.aut AS v, SUM(p.s) AS s"
            f" FROM e JOIN {prev_h} p ON p.v = e.hub GROUP BY e.aut))"
        )
        ctes.append(
            f"h{k} AS (SELECT v, s / MAX(s) OVER () AS s FROM ("
            f"SELECT e.hub AS v, SUM(p.s) AS s"
            f" FROM e JOIN a{k} p ON p.v = e.aut GROUP BY e.hub))"
        )
        prev_h = f"h{k}"
    return (
        "WITH " + ",\n".join(ctes)
        + f"""
SELECT v AS node, 'hub' AS kind, ROUND(s * {tol}) / {tol} AS score
FROM h{iters}
UNION ALL
SELECT v AS node, 'auth' AS kind, ROUND(s * {tol}) / {tol} AS score
FROM a{iters}
"""
    )


def bfs_hops(
    edges,
    seeds: np.ndarray,
    *,
    a_col: str = "a",
    b_col: str = "b",
    max_hops: int = 4,
    broadcast_state_limit: int = 2_000_000,
    num_partitions: int | None = None,
):
    """Multi-source BFS hop distance over a SYMMETRIC deduplicated int64
    edge Dataset: returns a ``pa.Table`` of ``(node, hops)`` with the
    minimum hop count (<= ``max_hops``) from the seed set, seeds at 0.

    Scale shape (the pagerank state law): BFS state is one small int
    per node.  Below ``broadcast_state_limit`` nodes each superstep
    broadcasts the FRONTIER as a sorted array (``ray.put`` once,
    per-worker cache) and streams the edge set through a stateless
    membership + packed-unique partial — one map pass per level, no
    join, visited/dist arrays driver-held (the same node-scale budget
    as pagerank's broadcast rank vector).  Above the limit each level
    is a partitioned ``cluster.safe_join`` of the frontier Dataset
    against the edge set plus a left_outer anti-join against the
    visited state — same law, the 10^9-node shape."""
    import ray.data as rd

    if num_partitions is None:
        from .cluster import default_num_partitions

        num_partitions = default_num_partitions()

    edges = edges.materialize()  # re-streamed once per level
    # node-count probe: distinct endpoints bounded by 2x edge rows; use
    # the driver-final packed unique (cheap per-batch partials)
    def _ends(b: pa.Table) -> pa.Table:
        u = np.unique(
            np.concatenate(
                [np.asarray(b[a_col], np.int64), np.asarray(b[b_col], np.int64)]
            )
        )
        return pa.table({"v": pa.array(u)})

    ends = pa.concat_tables(
        edges.map_batches(_ends, batch_format="pyarrow").iter_batches(
            batch_size=None, batch_format="pyarrow"
        )
    )
    nodes = np.unique(np.asarray(ends["v"], np.int64))

    seeds = np.unique(np.asarray(seeds, np.int64))
    seeds = seeds[np.isin(seeds, nodes)]

    if len(nodes) <= broadcast_state_limit:
        visited = seeds.copy()
        dist = {0: seeds}
        frontier = seeds
        for d in range(1, max_hops + 1):
            if not len(frontier):
                break
            f_ref = Broadcast(np.sort(frontier))

            def expand(b: pa.Table, _ref=f_ref) -> pa.Table:
                fr = _ref.get()
                a = np.asarray(b[a_col], np.int64)
                v = np.asarray(b[b_col], np.int64)
                if len(fr):
                    i = np.minimum(np.searchsorted(fr, a), len(fr) - 1)
                    m = fr[i] == a
                else:
                    m = np.zeros(len(a), bool)
                return pa.table({"v": pa.array(np.unique(v[m]))})

            nxt = pa.concat_tables(
                edges.map_batches(expand, batch_format="pyarrow").iter_batches(
                    batch_size=None, batch_format="pyarrow"
                )
            )
            cand = np.unique(np.asarray(nxt["v"], np.int64))
            frontier = cand[~np.isin(cand, visited)]
            if len(frontier):
                dist[d] = frontier
                visited = np.concatenate([visited, frontier])
        out_v = np.concatenate([dist[d] for d in sorted(dist)])
        out_d = np.concatenate(
            [np.full(len(dist[d]), d, np.int64) for d in sorted(dist)]
        )
        o = np.argsort(out_v, kind="stable")
        return pa.table(
            {"node": pa.array(out_v[o]), "hops": pa.array(out_d[o])}
        )

    # distributed path: frontier / visited as Datasets, one safe_join
    # expansion + one left_outer anti-join per level.  Every post-join
    # projection goes through map_batches + compact_blocks: Ray 2.49's
    # select_columns/rename_columns misbehave downstream of a hash join
    # (stale schema probe), and empty blocks keep the pre-UDF schema.
    from .cluster import compact_blocks, safe_join

    v_schema = pa.schema([("v", pa.int64())])
    vis_schema = pa.schema([("v", pa.int64()), ("hops", pa.int64())])
    visited_ds = rd.from_arrow(
        pa.table({"v": pa.array(seeds), "hops": pa.array(
            np.zeros(len(seeds), np.int64))})
    ).repartition(num_partitions)
    frontier_ds = compact_blocks(
        visited_ds.map_batches(
            lambda b: b.select(["v"]), batch_format="pyarrow"
        ),
        v_schema,
    )
    for d in range(1, max_hops + 1):
        exp = safe_join(
            edges.repartition(num_partitions),
            frontier_ds,
            "inner",
            num_partitions=num_partitions,
            on=(a_col,),
            right_on=("v",),
            right_schema=v_schema,
        )

        def _uniq(b: pa.Table) -> pa.Table:
            return pa.table({"v": pa.array(np.unique(np.asarray(b[b_col], np.int64)))})

        cand = segment_apply(
            compact_blocks(exp.map_batches(_uniq, batch_format="pyarrow"), v_schema),
            "v",
            _first_v,
            _V_SCHEMA,
        )
        anti = safe_join(
            compact_blocks(
                cand.map_batches(
                    lambda b: pa.table(
                        {"v": pc.cast(b["v"], pa.int64())}
                    ),
                    batch_format="pyarrow",
                ),
                v_schema,
            ),
            visited_ds.map_batches(
                lambda b: pa.table(
                    {
                        "vv": pc.cast(b["v"], pa.int64()),
                        "m": pa.array(np.ones(b.num_rows, np.int64)),
                    }
                ),
                batch_format="pyarrow",
            ),
            "left_outer",
            num_partitions=num_partitions,
            on=("v",),
            right_on=("vv",),
            right_schema=pa.schema([("vv", pa.int64()), ("m", pa.int64())]),
        )

        def _new(b: pa.Table, _d=d) -> pa.Table:
            keep = pc.is_null(b["m"])
            v = np.asarray(b.filter(keep)["v"], np.int64)
            return pa.table(
                {
                    "v": pa.array(v),
                    "hops": pa.array(np.full(len(v), _d, np.int64)),
                }
            )

        new = compact_blocks(
            anti.map_batches(_new, batch_format="pyarrow"), vis_schema
        )
        if new.count() == 0:
            break
        frontier_ds = compact_blocks(
            new.map_batches(
                lambda b: b.select(["v"]), batch_format="pyarrow"
            ),
            v_schema,
        )
        visited_ds = visited_ds.union(new).materialize()
    out = pa.concat_tables(
        compact_blocks(visited_ds, vis_schema).iter_batches(
            batch_size=None, batch_format="pyarrow"
        )
    )
    return out.rename_columns(["node", "hops"]).sort_by("node")


def _scc_assign_round(color, member, nodes, scc, alive):
    """Fold one FW-BW round's results into the scc/alive state: every
    member node's component id is the MIN ORIGINAL node id of its color
    class; members leave the alive set."""
    midx = np.flatnonzero(member)
    if not len(midx):
        return 0
    mc = color[midx]
    order = np.argsort(mc, kind="stable")
    midx_s = midx[order]
    mc_s = mc[order]
    starts = np.flatnonzero(
        np.concatenate([[True], mc_s[1:] != mc_s[:-1]])
    )
    comp_min = np.minimum.reduceat(nodes[midx_s], starts)
    grp = np.cumsum(
        np.concatenate([[0], (mc_s[1:] != mc_s[:-1]).astype(np.int64)])
    )
    scc[midx_s] = comp_min[grp]
    alive[midx_s] = False
    return len(midx)


def _endpoint_distinct(ep_ds, a_col: str, b_col: str, *,
                       num_buckets: int | None = None):
    """Distinct endpoint ids of a pair Dataset as a ``("v",)`` Dataset —
    per-batch ``np.unique`` partials + ONE coarse-bucket shuffle (node
    ids are high-cardinality; never a fine groupby)."""
    def part(b: pa.Table) -> pa.Table:
        u = np.unique(
            np.concatenate(
                [np.asarray(b[a_col], np.int64),
                 np.asarray(b[b_col], np.int64)]
            )
        )
        return pa.table({"v": pa.array(u)})

    return segment_apply(
        ep_ds.map_batches(part, batch_format="pyarrow"),
        "v",
        _first_v,
        _V_SCHEMA,
        num_buckets=num_buckets,
    )


def _coarse_reduce_by_key(ds, key_col: str, val_col: str, *, op: str,
                          out_key: str, out_val: str,
                          num_buckets: int | None = None,
                          val_type: pa.DataType = pa.int64()):
    """``(key, max/min/sum(val))`` over an int64-keyed stream: per-batch
    sort+``reduceat`` partials shrink each batch to its distinct keys,
    then one :func:`segment_apply` exchange folds per key vectorized —
    the aggregation shape every high-cardinality key takes in this
    engine.  ``val_type`` is the value column's type (int64 or float64)."""
    red = {"max": np.maximum, "min": np.minimum, "sum": np.add}[op]
    dt = val_type.to_pandas_dtype()

    def part(b: pa.Table) -> pa.Table:
        k = np.asarray(b[key_col], np.int64)
        x = np.asarray(b[val_col], dt)
        o = np.argsort(k, kind="stable")
        k, x = k[o], x[o]
        st = np.flatnonzero(np.concatenate([[True], k[1:] != k[:-1]]))
        return pa.table(
            {out_key: pa.array(k[st]), out_val: pa.array(red.reduceat(x, st))}
        )

    def fold(t: pa.Table, starts: np.ndarray) -> dict:
        return {
            out_key: np.asarray(t[out_key], np.int64)[starts],
            out_val: red.reduceat(np.asarray(t[out_val], dt), starts),
        }

    return segment_apply(
        ds.map_batches(part, batch_format="pyarrow"),
        out_key,
        fold,
        pa.schema([(out_key, pa.int64()), (out_val, val_type)]),
        num_buckets=num_buckets,
    )


def _scc_sharded(ep_ds, nodes_ds, *, a_col: str, b_col: str,
                 max_rounds: int):
    """FW-BW coloring with SHARDED per-node state — the above-the-
    broadcast-gate branch of :func:`scc` (the ``bfs_hops`` distributed
    shape): color/alive/member live in a node-scale Dataset, every
    fixpoint sweep is one partitioned ``cluster.safe_join`` of the
    deduplicated edge Dataset against the live state plus a coarse
    per-target max/min reduce, and state updates are a left_outer join
    back — nothing node- or edge-scale ever lands on the driver.

    Returns a ``ray.data.Dataset`` of (node, scc_id) sorted by node
    (node-scale output stays distributed at this size)."""
    import ray.data as rd

    from .cluster import compact_blocks, default_num_partitions, safe_join

    w = default_num_partitions()
    I = pa.int64()
    edge_schema = pa.schema([(a_col, I), (b_col, I)])
    state_schema = pa.schema(
        [("v", I), ("color", I), ("alive", I), ("member", I)]
    )
    live_schema = pa.schema([("v", I), ("color", I)])
    memb_schema = pa.schema([("vt", I), ("ct", I)])
    mx_schema = pa.schema([("vm", I), ("mx", I)])
    new_schema = pa.schema([("vn", I), ("one", I)])
    cand_schema = pa.schema([("uc", I), ("ct", I)])
    comp_schema = pa.schema([("cmk", I), ("scc_id", I)])
    asg_schema = pa.schema([("node", I), ("scc_id", I)])

    edges = compact_blocks(ep_ds.repartition(w), edge_schema)

    def init_state(b: pa.Table) -> pa.Table:
        n = b.num_rows
        one = pa.array(np.ones(n, np.int64))
        zero = pa.array(np.zeros(n, np.int64))
        return pa.table(
            {"v": b["v"], "color": b["v"], "alive": one, "member": zero}
        )

    state = compact_blocks(
        nodes_ds.map_batches(init_state, batch_format="pyarrow")
        .repartition(w),
        state_schema,
    )
    out_parts = []

    def reset(b: pa.Table) -> pa.Table:
        v = np.asarray(b["v"], np.int64)
        al = np.asarray(b["alive"], np.int64)
        return pa.table(
            {
                "v": b["v"],
                "color": pa.array(np.where(al == 1, v, -1)),
                "alive": b["alive"],
                "member": pa.array(np.zeros(len(v), np.int64)),
            }
        )

    def live_of(b: pa.Table) -> pa.Table:
        keep = pc.equal(b["alive"], 1)
        f = b.filter(keep)
        return pa.table({"v": f["v"], "color": f["color"]})

    def roots(b: pa.Table) -> pa.Table:
        v = np.asarray(b["v"], np.int64)
        c = np.asarray(b["color"], np.int64)
        al = np.asarray(b["alive"], np.int64)
        return pa.table(
            {
                "v": b["v"], "color": b["color"], "alive": b["alive"],
                "member": pa.array(((al == 1) & (c == v)).astype(np.int64)),
            }
        )

    def memb_of(b: pa.Table) -> pa.Table:
        f = b.filter(pc.equal(b["member"], 1))
        return pa.table({"vt": f["v"], "ct": f["color"]})

    for _ in range(max_rounds):
        if not state.sum("alive"):
            break
        state = compact_blocks(
            state.map_batches(reset, batch_format="pyarrow"), state_schema
        )
        # forward MAX-color fixpoint
        while True:
            live = compact_blocks(
                state.map_batches(live_of, batch_format="pyarrow"),
                live_schema,
            )
            msgs = safe_join(
                edges, live, "inner", num_partitions=w,
                on=(a_col,), right_on=("v",), right_schema=live_schema,
            )
            mx = _coarse_reduce_by_key(
                msgs, b_col, "color", op="max", out_key="vm", out_val="mx"
            )
            mxd = compact_blocks(mx, mx_schema)
            upd = safe_join(
                state, mxd, "left_outer", num_partitions=w,
                on=("v",), right_on=("vm",), right_schema=mx_schema,
            )

            def apply_mx(b: pa.Table) -> pa.Table:
                c = np.asarray(b["color"], np.int64)
                al = np.asarray(b["alive"], np.int64)
                m = np.asarray(
                    pc.fill_null(b["mx"], -(1 << 62)), np.int64
                )
                new = np.where((al == 1) & (m > c), m, c)
                return pa.table(
                    {
                        "v": b["v"], "color": pa.array(new),
                        "alive": b["alive"], "member": b["member"],
                        "chg": pa.array((new != c).astype(np.int64)),
                    }
                )

            u2 = upd.map_batches(
                apply_mx, batch_format="pyarrow"
            ).materialize()
            changed = u2.sum("chg")
            state = compact_blocks(u2, state_schema)  # select drops chg
            if not changed:
                break
        # backward reachability restricted to each color class
        state = compact_blocks(
            state.map_batches(roots, batch_format="pyarrow"), state_schema
        )
        while True:
            mem = compact_blocks(
                state.map_batches(memb_of, batch_format="pyarrow"),
                memb_schema,
            )
            msgs = safe_join(
                edges, mem, "inner", num_partitions=w,
                on=(b_col,), right_on=("vt",), right_schema=memb_schema,
            )

            def cand_part(b: pa.Table) -> pa.Table:
                u = np.asarray(b[a_col], np.int64)
                ct = np.asarray(b["ct"], np.int64)
                k = np.unique((u << np.int64(31)) | ct)
                return pa.table(
                    {
                        "uc": pa.array(k >> np.int64(31)),
                        "ct": pa.array(k & np.int64((1 << 31) - 1)),
                    }
                )

            cands = compact_blocks(
                msgs.map_batches(cand_part, batch_format="pyarrow"),
                cand_schema,
            )
            hits = safe_join(
                cands, state, "inner", num_partitions=w,
                on=("uc",), right_on=("v",), left_schema=cand_schema,
            )

            def pick_new(b: pa.Table) -> pa.Table:
                u = np.asarray(b["uc"], np.int64)
                ct = np.asarray(b["ct"], np.int64)
                c = np.asarray(b["color"], np.int64)
                al = np.asarray(b["alive"], np.int64)
                mb = np.asarray(b["member"], np.int64)
                keep = (al == 1) & (mb == 0) & (c == ct)
                vn = np.unique(u[keep])
                return pa.table(
                    {
                        "vn": pa.array(vn),
                        "one": pa.array(np.ones(len(vn), np.int64)),
                    }
                )

            nd = (
                hits.map_batches(pick_new, batch_format="pyarrow")
                .materialize()
            )
            if not nd.sum("one"):
                break
            nmat = compact_blocks(nd, new_schema)
            upd = safe_join(
                state, nmat, "left_outer", num_partitions=w,
                on=("v",), right_on=("vn",), right_schema=new_schema,
            )

            def join_mem(b: pa.Table) -> pa.Table:
                hit = pc.fill_null(b["one"], 0)
                mb = np.asarray(b["member"], np.int64) | np.asarray(
                    hit, np.int64
                )
                return pa.table(
                    {
                        "v": b["v"], "color": b["color"],
                        "alive": b["alive"], "member": pa.array(mb),
                    }
                )

            state = compact_blocks(
                upd.map_batches(join_mem, batch_format="pyarrow"),
                state_schema,
            )
        # assign: component id = min member node id of each color class
        members = compact_blocks(
            state.map_batches(
                lambda b: (lambda f: pa.table(
                    {"cm": f["color"], "node": f["v"]}
                ))(b.filter(pc.equal(b["member"], 1))),
                batch_format="pyarrow",
            ),
            pa.schema([("cm", I), ("node", I)]),
        )
        comp = compact_blocks(
            _coarse_reduce_by_key(
                members, "cm", "node", op="min",
                out_key="cmk", out_val="scc_id",
            ),
            comp_schema,
        )
        asg = safe_join(
            members, comp, "inner", num_partitions=w,
            on=("cm",), right_on=("cmk",),
            left_schema=pa.schema([("cm", I), ("node", I)]),
            right_schema=comp_schema,
        )
        am = (
            asg.map_batches(
                lambda b: pa.table(
                    {"node": b["node"], "scc_id": b["scc_id"]}
                ),
                batch_format="pyarrow",
            )
            .materialize()
        )
        if not am.count():
            break
        out_parts.append(am)

        def peel(b: pa.Table) -> pa.Table:
            al = np.asarray(b["alive"], np.int64)
            mb = np.asarray(b["member"], np.int64)
            return pa.table(
                {
                    "v": b["v"], "color": b["color"],
                    "alive": pa.array(al & (1 - mb)),
                    "member": pa.array(np.zeros(len(al), np.int64)),
                }
            )

        state = compact_blocks(
            state.map_batches(peel, batch_format="pyarrow"), state_schema
        )
    if state.sum("alive"):
        raise RuntimeError(f"scc did not converge in {max_rounds} rounds")
    if not out_parts:
        return rd.from_arrow(
            pa.table(
                {"node": pa.array([], I), "scc_id": pa.array([], I)}
            )
        )
    res = out_parts[0]
    for p in out_parts[1:]:
        res = res.union(p)
    return res.sort("node")


def scc(
    edges,
    *,
    a_col: str = "u",
    b_col: str = "v",
    max_rounds: int = 64,
    local_max_edges: int = 1 << 20,
    broadcast_state_limit: int = 2_000_000,
):
    """Strongly connected components of a DIRECTED int64 edge Dataset:
    ``pa.Table (node, scc_id)`` for every endpoint, ``scc_id`` = the
    MIN node id of the component (every node appears; singletons get
    their own id).

    Algorithm: iterative coloring / FW-BW (Orzan's distributed SCC —
    the standard shared-nothing shape, no Tarjan stack):

    1. forward MAX-color fixpoint along edges (``color(v) = max over
       forward-ancestors ∪ self``) — each color class has its root
       ``c`` (``color(c) == c``) and is closed under reachability from
       the root;
    2. backward reachability from all roots simultaneously, RESTRICTED
       to each node's own color class (edge u->v joins u iff v is a
       member and ``color(u) == color(v)``) — the joined set of class
       ``c`` is exactly ``SCC(c)``;
    3. assign (component id = min member node id), peel the assigned
       nodes, repeat on the remaining subgraph.  Every round assigns
       at least each class root's SCC, so rounds are bounded by the
       longest root-chain (``max_rounds`` is a safety fence).

    Hybrid execution (the `connected_components` law): at or below
    ``local_max_edges`` the whole loop runs vectorized on the driver
    over the deduplicated edge arrays.  Above it, the per-node color /
    member state (one int64 + one bit per node, the pagerank /
    bfs_hops state budget, gated by ``broadcast_state_limit``) is
    broadcast per superstep (``ray.put`` once, per-worker cache) and
    each fixpoint / BFS iteration is ONE stateless streaming pass over
    the edge Dataset emitting packed per-batch partials — no join, no
    fine groupby, edge stream materialized once and re-streamed per
    pass.  Node sets beyond the broadcast gate take
    :func:`_scc_sharded` — state sharded into a node-scale Dataset and
    every pass a partitioned `cluster.safe_join` (the bfs_hops
    distributed shape); that branch returns a ``Dataset`` of
    (node, scc_id) because node-scale output no longer fits the driver.
    """
    # the edge census never gathers the raw edge set to the driver:
    # distributed distinct first, then count-gated materialization
    ep_ds = distinct_int_pairs(edges, a_col, b_col).materialize()
    m = ep_ds.count()
    local = m <= local_max_edges
    if local:
        if m:
            ep = pa.concat_tables(
                ep_ds.iter_batches(batch_size=None, batch_format="pyarrow")
            )
            U = np.asarray(ep[a_col], np.int64)
            V = np.asarray(ep[b_col], np.int64)
        else:
            U = np.empty(0, np.int64)
            V = np.empty(0, np.int64)
        nodes = np.unique(np.concatenate([U, V]))
    else:
        nodes_ds = _endpoint_distinct(ep_ds, a_col, b_col).materialize()
        n_nodes = nodes_ds.count()
        if n_nodes > broadcast_state_limit:
            return _scc_sharded(
                ep_ds, nodes_ds, a_col=a_col, b_col=b_col,
                max_rounds=max_rounds,
            )
        nodes = np.sort(
            np.concatenate(
                [
                    np.asarray(b["v"], np.int64)
                    for b in nodes_ds.iter_batches(
                        batch_size=None, batch_format="pyarrow"
                    )
                ]
            )
        )
    n = len(nodes)
    scc_out = np.full(n, -1, dtype=np.int64)
    alive = np.ones(n, dtype=bool)

    if local:
        Ui = np.searchsorted(nodes, U)
        Vi = np.searchsorted(nodes, V)

        def max_color_pass(color, live_edge):
            """one forward sweep; returns True if any color changed"""
            cs = color[Ui[live_edge]]
            vs = Vi[live_edge]
            order = np.argsort(vs, kind="stable")
            vs_s, cs_s = vs[order], cs[order]
            starts = np.flatnonzero(
                np.concatenate([[True], vs_s[1:] != vs_s[:-1]])
            )
            if not len(starts):
                return False
            heads = vs_s[starts]
            mx = np.maximum.reduceat(cs_s, starts)
            upd = mx > color[heads]
            color[heads[upd]] = mx[upd]
            return bool(upd.any())

        def backward_pass(color, member, live_edge):
            """one backward sweep; returns True if any node joined"""
            m = (
                live_edge
                & member[Vi]
                & ~member[Ui]
                & (color[Ui] == color[Vi])
            )
            if not m.any():
                return False
            member[Ui[m]] = True
            return True

    else:
        eds = ep_ds  # deduplicated, already materialized

        def _passes(kind, state_payload):
            ref = Broadcast(state_payload)

            def fwd(b: pa.Table, _r=ref) -> pa.Table:
                st = _r.get()
                nd, col, al = st["nodes"], st["color"], st["alive"]
                u = np.searchsorted(nd, np.asarray(b[a_col], np.int64))
                v = np.searchsorted(nd, np.asarray(b[b_col], np.int64))
                m = al[u] & al[v]
                u, v = u[m], v[m]
                if not len(u):
                    return pa.table(
                        {"h": pa.array([], pa.int64()),
                         "c": pa.array([], pa.int64())}
                    )
                cs = col[u]
                order = np.argsort(v, kind="stable")
                vs, cs = v[order], cs[order]
                starts = np.flatnonzero(
                    np.concatenate([[True], vs[1:] != vs[:-1]])
                )
                return pa.table(
                    {
                        "h": pa.array(vs[starts]),
                        "c": pa.array(np.maximum.reduceat(cs, starts)),
                    }
                )

            def bwd(b: pa.Table, _r=ref) -> pa.Table:
                st = _r.get()
                nd, col, al, mem = (
                    st["nodes"], st["color"], st["alive"], st["member"]
                )
                u = np.searchsorted(nd, np.asarray(b[a_col], np.int64))
                v = np.searchsorted(nd, np.asarray(b[b_col], np.int64))
                m = (
                    al[u] & al[v] & mem[v] & ~mem[u]
                    & (col[u] == col[v])
                )
                return pa.table({"j": pa.array(np.unique(u[m]))})

            return fwd if kind == "fwd" else bwd

        def max_color_pass(color, live_edge):
            fwd = _passes(
                "fwd",
                {"nodes": nodes, "color": color.copy(), "alive": alive},
            )
            tabs = list(
                eds.map_batches(fwd, batch_format="pyarrow").iter_batches(
                    batch_size=None, batch_format="pyarrow"
                )
            )
            if not tabs:
                return False
            parts = pa.concat_tables(tabs)
            h = np.asarray(parts["h"], np.int64)
            c = np.asarray(parts["c"], np.int64)
            if not len(h):
                return False
            order = np.argsort(h, kind="stable")
            h, c = h[order], c[order]
            starts = np.flatnonzero(
                np.concatenate([[True], h[1:] != h[:-1]])
            )
            heads = h[starts]
            mx = np.maximum.reduceat(c, starts)
            upd = mx > color[heads]
            color[heads[upd]] = mx[upd]
            return bool(upd.any())

        def backward_pass(color, member, live_edge):
            bwd = _passes(
                "bwd",
                {
                    "nodes": nodes,
                    "color": color.copy(),
                    "alive": alive,
                    "member": member.copy(),
                },
            )
            tabs = list(
                eds.map_batches(bwd, batch_format="pyarrow").iter_batches(
                    batch_size=None, batch_format="pyarrow"
                )
            )
            if not tabs:
                return False
            parts = pa.concat_tables(tabs)
            j = np.asarray(parts["j"], np.int64)
            if not len(j):
                return False
            member[j] = True
            return True

    for _ in range(max_rounds):
        if not alive.any():
            break
        live_edge = alive[Ui] & alive[Vi] if local else None
        color = np.where(alive, np.arange(n, dtype=np.int64), -1)
        while max_color_pass(color, live_edge):
            pass
        member = np.zeros(n, dtype=bool)
        roots = alive & (color == np.arange(n))
        member[np.flatnonzero(roots)] = True
        while backward_pass(color, member, live_edge):
            pass
        if not _scc_assign_round(color, member, nodes, scc_out, alive):
            break
    if alive.any():
        raise RuntimeError(
            f"scc did not converge in {max_rounds} rounds"
        )
    return pa.table(
        {"node": pa.array(nodes), "scc_id": pa.array(scc_out)}
    )


def sql_scc(*, edges_sql: str, nodes_sql: str) -> str:
    """DuckDB twin of :func:`scc`: recursive reachability closure +
    mutual-pair min fold.  ``edges_sql`` must yield (u, v);
    ``nodes_sql`` must yield (u) — quadratic closure, oracle-scale
    only."""
    return f"""
WITH RECURSIVE
nodes AS ({nodes_sql}),
e AS ({edges_sql}),
reach AS (
  SELECT u AS s, v AS t FROM e
  UNION
  SELECT r.s, e.v FROM reach r JOIN e ON e.u = r.t
),
mutual AS (
  SELECT r1.s, r1.t FROM reach r1
  JOIN reach r2 ON r2.s = r1.t AND r2.t = r1.s
)
SELECT n.u AS node,
       LEAST(n.u, COALESCE(MIN(m.t), n.u))::BIGINT AS scc_id
FROM nodes n LEFT JOIN mutual m ON m.s = n.u
GROUP BY n.u
"""


def local_clustering(edges: pa.Table, *, round_to: int = 6) -> pa.Table:
    """Per-node (local) clustering coefficient of an undirected simple
    graph given its (u, v) edge table (u < v): ``(node, degree, n_tri,
    coeff)`` with ``coeff = 2*n_tri / (degree*(degree-1))`` rounded
    half-away (NULL when degree < 2) — the node-level counterpart of
    :func:`triangle_stats`'s global transitivity.

    Same exact O(E^1.5) degree-oriented segmented-triu wedge scan; each
    closed wedge credits ALL THREE corners via one bincount per slab.
    Edge tables arrive pre-reduced (cooccurrence_edge_table), so the
    driver-vectorized scan is the `connected_components` hybrid shape."""
    u = np.asarray(edges["u"], np.int64)
    v = np.asarray(edges["v"], np.int64)
    if not len(u):
        return pa.table(
            {
                "node": pa.array([], pa.int64()),
                "degree": pa.array([], pa.int64()),
                "n_tri": pa.array([], pa.int64()),
                "coeff": pa.array([], pa.float64()),
            }
        )
    nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
    iu, iv = inv[: len(u)], inv[len(u):]
    n = len(nodes)
    deg = (
        np.bincount(iu, minlength=n) + np.bincount(iv, minlength=n)
    ).astype(np.int64)
    rank = np.empty(n, np.int64)
    rank[np.lexsort((np.arange(n), deg))] = np.arange(n)
    ru, rv = rank[iu], rank[iv]
    src = np.where(ru < rv, ru, rv)
    dst = np.where(ru < rv, rv, ru)
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    ekey = src * n + dst
    tri_cnt = np.zeros(n, np.int64)
    unrank = np.empty(n, np.int64)
    unrank[rank] = np.arange(n)
    seg_starts = np.flatnonzero(np.r_[True, src[1:] != src[:-1]])
    for ga, gb in segment_pairs(seg_starts, len(src)):
        a = dst[ga]
        b = dst[gb]
        wk = np.minimum(a, b) * n + np.maximum(a, b)
        pos = np.searchsorted(ekey, wk)
        np.clip(pos, 0, len(ekey) - 1, out=pos)
        closed = ekey[pos] == wk
        if closed.any():
            corners = np.concatenate(
                [src[ga[closed]], a[closed], b[closed]]
            )
            tri_cnt += np.bincount(corners, minlength=n)
    # tri_cnt is indexed by RANK space (src/dst are ranks)
    tri_by_node = tri_cnt[rank]
    tol = 10.0 ** round_to
    with np.errstate(divide="ignore", invalid="ignore"):
        coeff = (2.0 * tri_by_node) / (deg * (deg - 1)).astype(np.float64)
    coeff = np.floor(coeff * tol + 0.5) / tol  # coeff >= 0
    ok = deg >= 2
    return pa.table(
        {
            "node": pa.array(nodes),
            "degree": pa.array(deg),
            "n_tri": pa.array(tri_by_node),
            "coeff": pa.array(
                np.where(ok, coeff, 0.0), pa.float64(), mask=~ok
            ),
        }
    )


def cooccurrence_edges_ds(
    ds,
    group_col: str,
    item_col: str,
    *,
    min_weight: int = 3,
    num_buckets: int | None = None,
):
    """:func:`cooccurrence_edge_table` with the final fold DISTRIBUTED:
    the (pk, cnt) partials take a second coarse shuffle on PAIR hash
    (all partials of one pair co-locate), each bucket sums and
    thresholds vectorized, and the (u, v, w) edge set stays a Dataset —
    the path for graphs whose thresholded edge table exceeds the
    driver gate.  Identical pair/threshold law to the driver fold."""
    import pandas as pd

    num_buckets = _resolve_buckets(num_buckets)
    partials = _coocc_pair_partials(ds, group_col, item_col, num_buckets)
    return _fold_pair_partials_ds(partials, min_weight, num_buckets)


def _fold_pair_partials_ds(partials, min_weight: int, num_buckets: int):
    """Distributed fold of the (pk, cnt) pair partials: a second coarse
    shuffle on PAIR hash co-locates every partial of a pair; each
    bucket sums and thresholds vectorized."""
    def fold(t: pa.Table, starts: np.ndarray) -> dict:
        tot = np.add.reduceat(np.asarray(t["cnt"], np.int64), starts)
        pku = np.asarray(t["pk"], np.int64)[starts]
        keep = tot >= min_weight
        pku, tot = pku[keep], tot[keep]
        return {"u": pku >> 31, "v": pku & ((1 << 31) - 1), "w": tot}

    return segment_apply(
        partials,
        "pk",
        fold,
        pa.schema({"u": pa.int64(), "v": pa.int64(), "w": pa.int64()}),
        num_buckets=num_buckets,
    )


def _oriented_edges_ds(edges_ds, *, num_partitions: int):
    """Degree-orient an undirected (u, v) edge Dataset without driver
    state: per-node degrees via coarse-sum partials, two partitioned
    joins attach deg(u)/deg(v), and each edge points from the LOWER
    (deg, node) endpoint to the higher — the same total order as the
    driver census's rank (packed surrogate key ``deg << 31 | node`` is
    monotone in (deg, node); node ids are < 2^31 by the pair-packing
    contract).  Returns (degrees_ds ("node", "deg"), oriented_ds
    ("src", "dst", "dpk") with dpk the dst's packed key)."""
    from .cluster import compact_blocks, safe_join

    I = pa.int64()

    def deg_part(b: pa.Table) -> pa.Table:
        nd = np.concatenate(
            [np.asarray(b["u"], np.int64), np.asarray(b["v"], np.int64)]
        )
        u, c = np.unique(nd, return_counts=True)
        return pa.table({"node": pa.array(u), "deg": pa.array(
            c.astype(np.int64))})

    deg_ds = _coarse_reduce_by_key(
        edges_ds.map_batches(deg_part, batch_format="pyarrow"),
        "node", "deg", op="sum", out_key="node", out_val="deg",
    )
    deg_schema = pa.schema([("node", I), ("deg", I)])
    degd = compact_blocks(deg_ds, deg_schema)
    e = safe_join(
        edges_ds, degd.map_batches(
            lambda b: pa.table({"node": b["node"], "du": b["deg"]}),
            batch_format="pyarrow",
        ),
        "inner", num_partitions=num_partitions,
        on=("u",), right_on=("node",),
        left_schema=pa.schema([("u", I), ("v", I), ("w", I)]),
        right_schema=pa.schema([("node", I), ("du", I)]),
    )
    e = safe_join(
        e, degd.map_batches(
            lambda b: pa.table({"node": b["node"], "dv": b["deg"]}),
            batch_format="pyarrow",
        ),
        "inner", num_partitions=num_partitions,
        on=("v",), right_on=("node",),
        left_schema=pa.schema(
            [("u", I), ("v", I), ("w", I), ("du", I)]
        ),
        right_schema=pa.schema([("node", I), ("dv", I)]),
    )

    def orient(b: pa.Table) -> pa.Table:
        u = np.asarray(b["u"], np.int64)
        v = np.asarray(b["v"], np.int64)
        pku = (np.asarray(b["du"], np.int64) << 31) | u
        pkv = (np.asarray(b["dv"], np.int64) << 31) | v
        lo = pku < pkv
        return pa.table(
            {
                "src": pa.array(np.where(lo, u, v)),
                "dst": pa.array(np.where(lo, v, u)),
                "dpk": pa.array(np.where(lo, pkv, pku)),
            }
        )

    oriented = compact_blocks(
        e.map_batches(orient, batch_format="pyarrow"),
        pa.schema([("src", I), ("dst", I), ("dpk", I)]),
    )
    return degd, oriented


def _wedge_partials(oriented, *, with_center: bool,
                    num_buckets: int | None = None):
    """Bucketed segmented-triu wedge emission over a degree-oriented
    edge Dataset: ONE coarse shuffle on src hash (a node's out-
    neighborhood co-locates; out-degrees are O(sqrt(E)) under degree
    orientation), per bucket each src segment emits its dst pairs
    canonically ordered by packed (deg, node) key, chunked so the
    wedge slab stays bounded.  Emits (wk, cnt) — or (wk, center) rows
    when ``with_center`` (the per-node census needs the third corner)."""
    import pandas as pd

    def wedges(t: pa.Table, seg_starts: np.ndarray) -> "pd.DataFrame":
        srt = np.asarray(t["src"], np.int64)
        dn = np.asarray(t["dst"], np.int64)
        wk_l, extra_l = [], []
        for ga, gb in segment_pairs(seg_starts, len(srt)):
            # dpk ascends within a segment => dn[ga] is the lower
            # (deg, node) corner: wedge key in oriented-edge order
            wk_l.append((dn[ga] << 31) | dn[gb])
            if with_center:
                extra_l.append(srt[ga])
        if not wk_l:
            return pd.DataFrame(
                {"wk": pd.Series([], dtype="int64")}
                | (
                    {"center": pd.Series([], dtype="int64")}
                    if with_center
                    else {"cnt": pd.Series([], dtype="int64")}
                )
            )
        wk = np.concatenate(wk_l)
        if with_center:
            return pd.DataFrame(
                {"wk": wk, "center": np.concatenate(extra_l)}
            )
        wku, cnt = np.unique(wk, return_counts=True)
        return pd.DataFrame({"wk": wku, "cnt": cnt.astype(np.int64)})

    return segment_apply(
        oriented,
        "src",
        wedges,
        pa.schema([("wk", pa.int64()), ("center" if with_center else "cnt", pa.int64())]),
        order=("dpk",),
        num_buckets=num_buckets,
    )


def triangle_stats_distributed(
    edges_ds, *, round_to: int = 6, num_partitions: int | None = None
) -> pa.Table:
    """:func:`triangle_stats` for edge sets beyond the driver gate: the
    (u, v, w) Dataset (e.g. :func:`cooccurrence_edges_ds`) never lands
    on the driver.  Degrees fold in coarse-sum partials; wedges emit
    via the bucketed segmented-triu partials; closure is ONE
    partitioned join of wedge keys against the oriented edge-key set
    (a triangle closes iff its top pair is itself an oriented edge —
    each triangle counted once, at its minimum-(deg, node) corner).
    Only the five census scalars reach the driver."""
    from .cluster import compact_blocks, default_num_partitions, safe_join

    w = num_partitions or default_num_partitions()
    I = pa.int64()
    edges_ds = edges_ds.materialize()
    n_edges = int(edges_ds.count())
    if n_edges == 0:
        return triangle_stats(
            pa.table({"u": pa.array([], I), "v": pa.array([], I)}),
            round_to=round_to,
        )
    degd, oriented = _oriented_edges_ds(edges_ds, num_partitions=w)
    n_nodes = int(degd.count())
    n_wedges = int(
        degd.map_batches(
            lambda b: pa.table(
                {
                    "wd": pa.array(
                        (lambda d: d * (d - 1) // 2)(
                            np.asarray(b["deg"], np.int64)
                        )
                    )
                }
            ),
            batch_format="pyarrow",
        ).sum("wd")
        or 0
    )
    ekeys = compact_blocks(
        oriented.map_batches(
            lambda b: pa.table(
                {
                    "wk": pa.array(
                        (np.asarray(b["src"], np.int64) << 31)
                        | np.asarray(b["dst"], np.int64)
                    ),
                    "hit": pa.array(
                        np.ones(b.num_rows, np.int64)
                    ),
                }
            ),
            batch_format="pyarrow",
        ),
        pa.schema([("wk", I), ("hit", I)]),
    )
    wparts = compact_blocks(
        _wedge_partials(oriented, with_center=False),
        pa.schema([("wk", I), ("cnt", I)]),
    )
    closed = safe_join(
        wparts, ekeys, "inner", num_partitions=w,
        on=("wk",),
        left_schema=pa.schema([("wk", I), ("cnt", I)]),
        right_schema=pa.schema([("wk", I), ("hit", I)]),
    )
    tri = int(closed.sum("cnt") or 0)
    if n_wedges:
        c = (3.0 * float(tri)) / float(n_wedges)
        tol = 10.0 ** round_to
        c = np.sign(c) * np.floor(abs(c) * tol + 0.5) / tol
        cl = pa.array([float(c)])
    else:
        cl = pa.array([None], pa.float64())
    return pa.table(
        {
            "n_nodes": pa.array([n_nodes], I),
            "n_edges": pa.array([n_edges], I),
            "n_wedges": pa.array([n_wedges], I),
            "n_triangles": pa.array([tri], I),
            "clustering": cl,
        }
    )


def local_clustering_distributed(
    edges_ds, *, round_to: int = 6, num_partitions: int | None = None
):
    """:func:`local_clustering` beyond the driver gate: per-node
    triangle credits from the SAME wedge-closure join as
    :func:`triangle_stats_distributed`, but wedges carry their center
    so every closed wedge credits all three corners; credits fold in
    coarse-sum partials and join back onto the degree Dataset.
    Returns a node-scale Dataset (node, degree, n_tri, coeff)."""
    from .cluster import compact_blocks, default_num_partitions, safe_join

    w = num_partitions or default_num_partitions()
    I = pa.int64()
    edges_ds = edges_ds.materialize()
    degd, oriented = _oriented_edges_ds(edges_ds, num_partitions=w)
    ekeys = compact_blocks(
        oriented.map_batches(
            lambda b: pa.table(
                {
                    "wk": pa.array(
                        (np.asarray(b["src"], np.int64) << 31)
                        | np.asarray(b["dst"], np.int64)
                    ),
                    "hit": pa.array(np.ones(b.num_rows, np.int64)),
                }
            ),
            batch_format="pyarrow",
        ),
        pa.schema([("wk", I), ("hit", I)]),
    )
    wparts = compact_blocks(
        _wedge_partials(oriented, with_center=True),
        pa.schema([("wk", I), ("center", I)]),
    )
    closed = safe_join(
        wparts, ekeys, "inner", num_partitions=w,
        on=("wk",),
        left_schema=pa.schema([("wk", I), ("center", I)]),
        right_schema=pa.schema([("wk", I), ("hit", I)]),
    )

    def credits(b: pa.Table) -> pa.Table:
        wk = np.asarray(b["wk"], np.int64)
        c = np.asarray(b["center"], np.int64)
        nd = np.concatenate([wk >> 31, wk & ((1 << 31) - 1), c])
        u, n = np.unique(nd, return_counts=True)
        return pa.table(
            {"node": pa.array(u), "n_tri": pa.array(n.astype(np.int64))}
        )

    tri_ds = compact_blocks(
        _coarse_reduce_by_key(
            closed.map_batches(credits, batch_format="pyarrow"),
            "node", "n_tri", op="sum", out_key="node", out_val="n_tri",
        ),
        pa.schema([("node", I), ("n_tri", I)]),
    )
    joined = safe_join(
        degd, tri_ds, "left_outer", num_partitions=w,
        on=("node",),
        right_schema=pa.schema([("node", I), ("n_tri", I)]),
    )
    tol = 10.0 ** round_to

    def finish(b: pa.Table) -> pa.Table:
        deg = np.asarray(b["deg"], np.int64)
        nt = np.asarray(pc.fill_null(b["n_tri"], 0), np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            coeff = (2.0 * nt) / (deg * (deg - 1)).astype(np.float64)
        coeff = np.floor(coeff * tol + 0.5) / tol
        ok = deg >= 2
        return pa.table(
            {
                "node": b["node"],
                "degree": pa.array(deg),
                "n_tri": pa.array(nt),
                "coeff": pa.array(
                    np.where(ok, coeff, 0.0), pa.float64(), mask=~ok
                ),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow").sort("node")



def _sssp_sharded(eds, nodes_ds, seeds, *, a_col: str, b_col: str,
                  w_col: str, max_hops: int):
    """Bounded-hop Bellman-Ford with SHARDED distance state — the
    above-the-gate branch of :func:`sssp_hops`: reached (node, cost)
    rows live in a Dataset; each of the exactly ``max_hops`` supersteps
    is one partitioned ``safe_join`` of the edge set against the
    current state (relax: cost + w to each head) followed by a coarse
    per-target min over state ∪ candidates.  Nothing node- or
    edge-scale lands on the driver; returns a Dataset (node, cost)
    sorted by node."""
    import ray.data as rd

    from .cluster import compact_blocks, default_num_partitions, safe_join

    wparts = default_num_partitions()
    I = pa.int64()
    edge_schema = pa.schema([(a_col, I), (b_col, I), (w_col, I)])
    st_schema = pa.schema([("v", I), ("cost", I)])
    edges_c = compact_blocks(eds.repartition(wparts), edge_schema)
    sv = np.unique(np.asarray(seeds, np.int64))
    seed_ds = rd.from_arrow(
        pa.table(
            {"v": pa.array(sv), "cost": pa.array(
                np.zeros(len(sv), np.int64))}
        )
    )
    # seeds outside the node universe drop (broadcast-path parity)
    state = compact_blocks(
        safe_join(
            compact_blocks(seed_ds, st_schema),
            nodes_ds,
            "inner",
            num_partitions=wparts,
            on=("v",),
            left_schema=st_schema,
            right_schema=pa.schema([("v", I)]),
        ),
        st_schema,
    )

    def relax(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "v": pc.cast(b[b_col], I),
                "cost": pa.array(
                    np.asarray(b["cost"], np.int64)
                    + np.asarray(b[w_col], np.int64)
                ),
            }
        )

    for _ in range(max_hops):
        msgs = safe_join(
            edges_c, state, "inner", num_partitions=wparts,
            on=(a_col,), right_on=("v",), right_schema=st_schema,
        )
        cand = msgs.map_batches(relax, batch_format="pyarrow")
        state = compact_blocks(
            _coarse_reduce_by_key(
                state.union(cand), "v", "cost", op="min",
                out_key="v", out_val="cost",
            ),
            st_schema,
        )
    return (
        state.map_batches(
            lambda b: pa.table({"node": b["v"], "cost": b["cost"]}),
            batch_format="pyarrow",
        )
        .sort("node")
    )


def kcore_membership(
    edges,
    *,
    a_col: str = "a",
    b_col: str = "b",
    k: int = 3,
    rounds: int = 6,
    local_max_edges: int = 1 << 20,
):
    """k-core membership (+ in-core degree) of a SYMMETRIC deduplicated
    int64 edge Dataset: peel nodes with degree < ``k`` for exactly
    ``rounds`` supersteps (idempotent once converged — the bounded-
    round LAW both twins share), then emit every surviving node with
    its in-core degree.

    Hybrid (the scc shape): the edge census never gathers blind — the
    caller hands a Dataset, and at or below ``local_max_edges`` rows it
    folds to driver arrays for the vectorized bincount peel; above,
    alive membership lives in a node-scale Dataset and each superstep
    is two partitioned ``safe_join`` endpoint filters + one coarse
    per-tail degree sum (early-stable exit: peeling only removes
    nodes, so an unchanged alive COUNT is exact convergence).  Returns
    a ``pa.Table`` (node, deg) below the gate, a Dataset above."""
    import ray.data as rd

    from .cluster import compact_blocks, default_num_partitions, safe_join

    edges = edges.materialize()
    m = int(edges.count())
    if m <= local_max_edges:
        tabs = [
            t
            for t in edges.iter_batches(
                batch_size=None, batch_format="pyarrow"
            )
            if t.num_rows
        ]
        if not tabs:
            return pa.table(
                {"node": pa.array([], pa.int64()),
                 "deg": pa.array([], pa.int64())}
            )
        tbl = pa.concat_tables(tabs)
        u = np.asarray(tbl[a_col], np.int64)
        v = np.asarray(tbl[b_col], np.int64)
        nodes, inv_u = np.unique(u, return_inverse=True)
        inv_v = np.searchsorted(nodes, v)
        alive = np.ones(len(nodes), bool)
        for _ in range(rounds):
            e_alive = alive[inv_u] & alive[inv_v]
            deg = np.bincount(inv_u[e_alive], minlength=len(nodes))
            nxt = alive & (deg >= k)
            if np.array_equal(nxt, alive):
                break
            alive = nxt
        e_alive = alive[inv_u] & alive[inv_v]
        deg = np.bincount(inv_u[e_alive], minlength=len(nodes))
        keep = alive & (deg > 0)
        return pa.table(
            {
                "node": pa.array(nodes[keep], pa.int64()),
                "deg": pa.array(deg[keep].astype(np.int64)),
            }
        )

    w = default_num_partitions()
    I = pa.int64()
    edge_schema = pa.schema([(a_col, I), (b_col, I)])
    v_schema = pa.schema([("v", I)])
    vb_schema = pa.schema([("vb", I)])
    edges_c = compact_blocks(edges.repartition(w), edge_schema)
    alive = compact_blocks(
        _endpoint_distinct(edges_c, a_col, b_col), v_schema
    )
    prev = int(alive.count())

    def live_edges(alv):
        e1 = safe_join(
            edges_c, alv, "inner", num_partitions=w,
            on=(a_col,), right_on=("v",), right_schema=v_schema,
        )
        alv_b = compact_blocks(
            alv.map_batches(
                lambda b: pa.table({"vb": b["v"]}),
                batch_format="pyarrow",
            ),
            vb_schema,
        )
        return safe_join(
            e1, alv_b, "inner", num_partitions=w,
            on=(b_col,), right_on=("vb",), right_schema=vb_schema,
        )

    def deg_of(e_ds):
        def part(b: pa.Table) -> pa.Table:
            a = np.asarray(b[a_col], np.int64)
            u, c = np.unique(a, return_counts=True)
            return pa.table(
                {"node": pa.array(u),
                 "deg": pa.array(c.astype(np.int64))}
            )

        return _coarse_reduce_by_key(
            e_ds.map_batches(part, batch_format="pyarrow"),
            "node", "deg", op="sum", out_key="node", out_val="deg",
        )

    deg_schema = pa.schema([("node", I), ("deg", I)])
    for _ in range(rounds):
        deg = compact_blocks(deg_of(live_edges(alive)), deg_schema)
        alive = compact_blocks(
            deg.map_batches(
                lambda b: (lambda f: pa.table({"v": f["node"]}))(
                    b.filter(pc.greater_equal(b["deg"], k))
                ),
                batch_format="pyarrow",
            ),
            v_schema,
        )
        cur = int(alive.count())
        if cur == prev:
            break
        prev = cur
    final = compact_blocks(deg_of(live_edges(alive)), deg_schema)
    return final.map_batches(
        lambda b: b.filter(pc.greater(b["deg"], 0)),
        batch_format="pyarrow",
    ).sort("node")



def label_prop_membership(
    edges,
    *,
    a_col: str = "a",
    b_col: str = "b",
    rounds: int = 10,
    local_max_edges: int = 1 << 20,
):
    """Synchronous label propagation over a SYMMETRIC deduplicated edge
    Dataset: labels start as node ids; each of exactly ``rounds``
    rounds every node with neighbors adopts its most frequent neighbor
    label (tie -> smallest).  Returns the community census
    ``(community, n_nodes)`` — the bounded-round LAW both twins share.

    Hybrid (the kcore_membership shape): at or below
    ``local_max_edges`` edge rows the vectorized mode pass runs over
    driver arrays; above, the label state is a node-scale Dataset and
    each round is one partitioned ``safe_join`` (neighbor labels) +
    one coarse (node, label) count reduce + one coarse per-node argmax
    + a left_outer adopt join — nothing edge- or node-scale on the
    driver, census folds to community-scale."""
    import pandas as pd
    import ray.data as rd

    from .cluster import compact_blocks, default_num_partitions, safe_join

    edges = edges.materialize()
    m = int(edges.count())
    if m <= local_max_edges:
        tabs = [
            t
            for t in edges.iter_batches(
                batch_size=None, batch_format="pyarrow"
            )
            if t.num_rows
        ]
        if not tabs:
            return pa.table(
                {"community": pa.array([], pa.int64()),
                 "n_nodes": pa.array([], pa.int64())}
            )
        tbl = pa.concat_tables(tabs)
        u = np.asarray(tbl[a_col], np.int64)
        v = np.asarray(tbl[b_col], np.int64)
        nodes, inv_u = np.unique(u, return_inverse=True)
        inv_v = np.searchsorted(nodes, v)
        lab = nodes.copy()
        for _ in range(rounds):
            nl = lab[inv_v]
            order = np.lexsort((nl, inv_u))
            su, sl = inv_u[order], nl[order]
            runs = np.concatenate(
                [[True], (su[1:] != su[:-1]) | (sl[1:] != sl[:-1])]
            )
            rs = np.flatnonzero(runs)
            rc = np.diff(np.append(rs, len(su)))
            ru, rl = su[rs], sl[rs]
            pick = np.lexsort((rl, -rc, ru))
            first = np.concatenate(
                [[True], ru[pick][1:] != ru[pick][:-1]]
            )
            new = lab.copy()
            new[ru[pick][first]] = rl[pick][first]
            lab = new
        comm, sizes = np.unique(lab, return_counts=True)
        return pa.table(
            {
                "community": pa.array(comm, pa.int64()),
                "n_nodes": pa.array(sizes.astype(np.int64)),
            }
        )

    w = default_num_partitions()
    I = pa.int64()
    edge_schema = pa.schema([(a_col, I), (b_col, I)])
    lab_schema = pa.schema([("v", I), ("lab", I)])
    upd_schema = pa.schema([("vu", I), ("newlab", I)])
    edges_c = compact_blocks(edges.repartition(w), edge_schema)
    labels = compact_blocks(
        _endpoint_distinct(edges_c, a_col, b_col).map_batches(
            lambda b: pa.table({"v": b["v"], "lab": b["v"]}),
            batch_format="pyarrow",
        ),
        lab_schema,
    )
    def count_part(b: pa.Table) -> pa.Table:
        # per-batch (node, label) count partial
        u = np.asarray(b[a_col], np.int64)
        la = np.asarray(b["lab"], np.int64)
        df = (
            pd.DataFrame({"u": u, "la": la})
            .groupby(["u", "la"], sort=False)
            .size()
            .reset_index(name="c")
        )
        df["c"] = df["c"].astype(np.int64)
        return pa.Table.from_pandas(df, preserve_index=False)

    def argmax_fold(t: pa.Table, starts: np.ndarray) -> pd.DataFrame:
        # sum partial counts per (u, la): sorted, so copies are adjacent
        la = np.asarray(t["la"], np.int64)
        first = np.zeros(len(la), dtype=bool)
        first[starts] = True
        pair = np.flatnonzero(first | np.append(True, la[1:] != la[:-1]))
        uu = np.asarray(t["u"], np.int64)[pair]
        la = la[pair]
        c = np.add.reduceat(np.asarray(t["c"], np.int64), pair)
        pick = np.lexsort((la, -c, uu))
        first = np.concatenate(
            [[True], uu[pick][1:] != uu[pick][:-1]]
        )
        return pd.DataFrame(
            {"vu": uu[pick][first], "newlab": la[pick][first]}
        )

    for _ in range(rounds):
        msgs = safe_join(
            edges_c,
            labels, "inner", num_partitions=w,
            on=(b_col,), right_on=("v",), right_schema=lab_schema,
        )
        upd = compact_blocks(
            segment_apply(
                msgs.map_batches(count_part, batch_format="pyarrow"),
                "u",
                argmax_fold,
                upd_schema,
                order=("la",),
            ),
            upd_schema,
        )
        joined = safe_join(
            labels, upd, "left_outer", num_partitions=w,
            on=("v",), right_on=("vu",), right_schema=upd_schema,
        )
        labels = compact_blocks(
            joined.map_batches(
                lambda b: pa.table(
                    {
                        "v": b["v"],
                        "lab": pc.coalesce(b["newlab"], b["lab"]),
                    }
                ),
                batch_format="pyarrow",
            ),
            lab_schema,
        )

    def census_part(b: pa.Table) -> pa.Table:
        la = np.asarray(b["lab"], np.int64)
        u, c = np.unique(la, return_counts=True)
        return pa.table(
            {"community": pa.array(u),
             "n_nodes": pa.array(c.astype(np.int64))}
        )

    out = _coarse_reduce_by_key(
        labels.map_batches(census_part, batch_format="pyarrow"),
        "community", "n_nodes", op="sum",
        out_key="community", out_val="n_nodes",
    )
    return out.sort("community")



def sssp_hops(
    edges,
    seeds: np.ndarray,
    *,
    a_col: str = "a",
    b_col: str = "b",
    w_col: str = "w",
    max_hops: int = 4,
    broadcast_state_limit: int = 2_000_000,
):
    """Bounded-hop weighted shortest path: minimum INTEGER path cost
    from the seed set over paths of at most ``max_hops`` edges —
    distributed Bellman-Ford, exactly ``max_hops`` relaxation
    supersteps, so the hop bound is the LAW (both sides compute the
    same quantity; an unbounded min-cost closure does not terminate in
    recursive SQL).

    Returns ``pa.Table (node, cost)`` for every reached node.

    Scale shape (the bfs_hops state budget): per-node int64 distances
    broadcast once per superstep (``ray.put`` + per-worker cache); each
    superstep is ONE stateless streaming pass over the edge Dataset
    emitting per-batch (head, min candidate) partials via
    lexsort + ``np.minimum.reduceat`` — no joins, no fine groupbys.
    Only edges whose tail improved last round relax (frontier-active
    law), so converged regions stop paying.  Beyond the broadcast gate
    the distance state shards into a Dataset and each superstep is a
    partitioned `cluster.safe_join` relaxation + coarse per-target min
    (:func:`_sssp_sharded`) — that branch returns a ``Dataset`` of
    (node, cost), node-scale output staying distributed."""
    INF = np.int64(1 << 62)
    eds = edges.materialize()
    # node census stays distributed; only the count gates the branch
    nodes_ds = _endpoint_distinct(eds, a_col, b_col).materialize()
    n_nodes = nodes_ds.count()
    if n_nodes > broadcast_state_limit:
        return _sssp_sharded(
            eds, nodes_ds, seeds, a_col=a_col, b_col=b_col, w_col=w_col,
            max_hops=max_hops,
        )
    if n_nodes:
        nodes = np.sort(
            np.concatenate(
                [
                    np.asarray(b["v"], np.int64)
                    for b in nodes_ds.iter_batches(
                        batch_size=None, batch_format="pyarrow"
                    )
                ]
            )
        )
    else:
        nodes = np.empty(0, np.int64)
    n = len(nodes)
    dist = np.full(n, INF, dtype=np.int64)
    seeds = np.unique(np.asarray(seeds, np.int64))
    sidx = np.searchsorted(nodes, seeds)
    sidx = sidx[(sidx < n) & (nodes[np.minimum(sidx, n - 1)] == seeds)]
    dist[sidx] = 0
    active = np.sort(sidx)
    for _ in range(max_hops):
        if not len(active):
            break
        ref = Broadcast(
            {"nodes": nodes, "dist": dist.copy(), "active": active.copy()}
        )

        def relax(b: pa.Table, _r=ref) -> pa.Table:
            st = _r.get()
            nd, ds_, ac = st["nodes"], st["dist"], st["active"]
            u = np.searchsorted(nd, np.asarray(b[a_col], np.int64))
            v = np.searchsorted(nd, np.asarray(b[b_col], np.int64))
            w = np.asarray(b[w_col], np.int64)
            if len(ac):
                pos = np.minimum(np.searchsorted(ac, u), len(ac) - 1)
                m = ac[pos] == u
            else:
                m = np.zeros(len(u), bool)
            if not m.any():
                return pa.table(
                    {"h": pa.array([], pa.int64()),
                     "c": pa.array([], pa.int64())}
                )
            v, cand = v[m], ds_[u[m]] + w[m]
            order = np.argsort(v, kind="stable")
            vs, cs = v[order], cand[order]
            starts = np.flatnonzero(
                np.concatenate([[True], vs[1:] != vs[:-1]])
            )
            return pa.table(
                {
                    "h": pa.array(vs[starts]),
                    "c": pa.array(np.minimum.reduceat(cs, starts)),
                }
            )

        tabs = list(
            eds.map_batches(relax, batch_format="pyarrow").iter_batches(
                batch_size=None, batch_format="pyarrow"
            )
        )
        if not tabs:
            break
        parts = pa.concat_tables(tabs)
        h = np.asarray(parts["h"], np.int64)
        c = np.asarray(parts["c"], np.int64)
        if not len(h):
            break
        order = np.argsort(h, kind="stable")
        h, c = h[order], c[order]
        starts = np.flatnonzero(np.concatenate([[True], h[1:] != h[:-1]]))
        heads = h[starts]
        mn = np.minimum.reduceat(c, starts)
        upd = mn < dist[heads]
        dist[heads[upd]] = mn[upd]
        active = np.sort(heads[upd])
    reached = dist < INF
    return pa.table(
        {
            "node": pa.array(nodes[reached]),
            "cost": pa.array(dist[reached]),
        }
    )


def sql_personalized_pagerank(
    *,
    edges_sql: str,
    seeds_sql: str,
    damping: float = 0.85,
    iters: int = 5,
    round_to: int = 6,
) -> str:
    """DuckDB twin of :func:`pagerank` with ``seed_nodes`` — the power
    iteration unrolled over the FULL src-node universe (LEFT joins keep
    zero-contribution nodes at their teleport), restart mass split over
    the seeds present in the graph.  ``seeds_sql`` must yield (sv)."""
    d = repr(damping)
    tol = f"1e{round_to}"
    ctes = [
        f"edges AS ({edges_sql})",
        "deg AS (SELECT src, COUNT(*)::DOUBLE AS deg FROM edges GROUP BY src)",
        "wedges AS (SELECT e.src, e.dst, 1.0 / deg.deg AS wt"
        " FROM edges e JOIN deg ON deg.src = e.src)",
        "nn AS (SELECT COUNT(*)::DOUBLE AS n FROM deg)",
        f"sd AS (SELECT DISTINCT s.sv FROM ({seeds_sql}) s"
        " JOIN deg ON deg.src = s.sv)",
        "kk AS (SELECT COUNT(*)::DOUBLE AS k FROM sd)",
        "pr0 AS (SELECT deg.src AS v, CASE WHEN sd.sv IS NOT NULL"
        " THEN 1.0 / (SELECT k FROM kk) ELSE 0.0 END AS pr"
        " FROM deg LEFT JOIN sd ON sd.sv = deg.src)",
    ]
    for k in range(1, iters + 1):
        ctes.append(
            f"pr{k} AS (SELECT deg.src AS v,"
            f" CASE WHEN sd.sv IS NOT NULL THEN (1.0 - {d})"
            f" / (SELECT k FROM kk) ELSE 0.0 END"
            f" + {d} * COALESCE(a.acc, 0.0) AS pr"
            f" FROM deg LEFT JOIN sd ON sd.sv = deg.src"
            f" LEFT JOIN (SELECT w.dst AS v, SUM(p.pr * w.wt) AS acc"
            f" FROM wedges w JOIN pr{k - 1} p ON p.v = w.src"
            f" GROUP BY w.dst) a ON a.v = deg.src)"
        )
    return (
        "WITH " + ",\n".join(ctes)
        + f"\nSELECT v, ROUND(pr * (SELECT n FROM nn)"
        f" * {tol}) / {tol} AS pr_scaled FROM pr{iters}"
    )


def harmonic_centrality(
    edges,
    landmarks: np.ndarray,
    *,
    a_col: str = "a",
    b_col: str = "b",
    max_hops: int = 4,
    round_to: int = 6,
) -> pa.Table:
    """Landmark harmonic centrality: for every node reached from any
    landmark within ``max_hops``, ``harm = sum over landmarks L of
    1/hops(L, node)`` (terms with hops = 0, i.e. the landmark itself,
    contribute 0 — the standard convention), rounded half-away.  The
    landmark-sample estimator is THE scalable form of closeness-family
    centrality (exact all-pairs BFS is quadratic); each landmark costs
    one :func:`bfs_hops` run — level-synchronous broadcast-frontier
    supersteps, no joins below the state gate.

    Output: (node, n_seen, harm) — n_seen = how many landmarks reach
    the node within the bound."""
    landmarks = np.unique(np.asarray(landmarks, np.int64))
    nds, hps = [], []
    for lm in landmarks:
        t = bfs_hops(
            edges, np.asarray([lm], np.int64),
            a_col=a_col, b_col=b_col, max_hops=max_hops,
        )
        nds.append(np.asarray(t["node"], np.int64))
        hps.append(np.asarray(t["hops"], np.int64))
    nd = np.concatenate(nds) if nds else np.array([], np.int64)
    hp = np.concatenate(hps) if hps else np.array([], np.int64)
    # node-scale vectorized fold: group by node, count landmarks,
    # sum 1/hops over positive-hop terms
    nodes, inv = np.unique(nd, return_inverse=True)
    n_seen = np.bincount(inv, minlength=len(nodes)).astype(np.int64)
    term = np.where(hp > 0, 1.0 / np.maximum(hp, 1), 0.0)
    harm = np.zeros(len(nodes), np.float64)
    np.add.at(harm, inv, term)
    tol = 10.0 ** round_to
    harm = np.floor(harm * tol + 0.5) / tol
    return pa.table(
        {
            "node": pa.array(nodes),
            "n_seen": pa.array(n_seen),
            "harm": pa.array(harm),
        }
    )


def assoc_rules(
    ds,
    key_col: str,
    item_col: str,
    *,
    min_count: int = 1,
    num_buckets: int | None = None,
    max_vocab: int = 10_000,
):
    """Association rules (market-basket support / confidence / lift)
    over (basket-key, item) rows: one directed rule row per ordered
    item pair co-occurring in >= ``min_count`` baskets.

    Scale plan: the item vocabulary is BOUNDED (the engine-wide
    groupby-key rule) and gathers once to the driver for the code map;
    the (key, item) stream dedups per batch with one packed
    ``np.unique``, takes ONE coarse shuffle on key hash (all copies of
    a basket co-locate, so the global dedup is in-bucket), and each
    bucket folds vectorized to (item-count / pair-count /
    distinct-basket) partials — at most ``K + K^2 + 1`` rows per
    bucket.  The final is domain-bounded, so it folds on the driver
    (SCALE.md driver-fold law).  Float law shared with the twin:
    ``support = round6(n_both / n_baskets)``, ``confidence =
    round6(n_both / n_ante)``, ``lift = round6((n_both * 1.0 *
    n_baskets) / (n_ante * 1.0 * n_cons))`` — same literals, same op
    order."""
    import pandas as pd
    import ray.data as rd

    vocab = sorted(
        r[item_col]
        for r in ds.groupby(item_col).count().to_pandas().to_dict("records")
        if r[item_col] is not None  # DISTINCT join semantics: nulls drop
    )
    K = len(vocab)
    if K > max_vocab:
        raise ValueError(
            f"assoc_rules item vocabulary has {K} distinct items — the "
            f"K + K^2 rule domain only fits BOUNDED vocabularies (gate "
            f"{max_vocab}); bucket or top-k the item column first"
        )

    def tag(b: pa.Table) -> pa.Table:
        # drop null key/item rows to match the vocab (a null item would
        # index_in to null -> garbage int64 cast)
        b = b.filter(
            pc.and_(pc.is_valid(b[key_col]), pc.is_valid(b[item_col]))
        )
        k = np.asarray(b[key_col], np.int64)
        if len(k) and (k.max() >= (1 << 31) or k.min() < 0):
            raise ValueError("basket keys must be in [0, 2^31)")
        it = np.asarray(
            pc.index_in(
                pc.cast(b[item_col], pa.string()),
                value_set=pa.array(vocab, pa.string()),
            )
        ).astype(np.int64)
        u = np.unique(k * np.int64(K) + it)  # per-batch partial dedup
        return pa.table(
            {"k": pa.array(u // np.int64(K)), "it": pa.array(u % np.int64(K))}
        )

    def fold(t: pa.Table, starts: np.ndarray) -> pd.DataFrame:
        # distinct (basket, item): sorted, so copies are adjacent
        k = np.asarray(t["k"], np.int64)
        it = np.asarray(t["it"], np.int64)
        first = np.zeros(len(k), dtype=bool)
        first[starts] = True
        keep = first | np.append(True, it[1:] != it[:-1])
        k, it = k[keep], it[keep]
        starts = np.flatnonzero(first[keep])
        rows_a, rows_b, rows_n, rows_kind = [], [], [], []
        # item partial counts
        iv, ic = np.unique(it, return_counts=True)
        rows_kind.append(np.zeros(len(iv), np.int64))
        rows_a.append(iv)
        rows_b.append(np.zeros(len(iv), np.int64))
        rows_n.append(ic.astype(np.int64))
        # unordered pair partial counts (within-basket segments)
        n = np.diff(np.append(starts, len(k)))
        local = np.arange(len(k)) - np.repeat(starts, n)
        rem = np.repeat(n, n) - 1 - local
        total = int(rem.sum())
        if total:
            left = np.repeat(np.arange(len(k)), rem)
            run_start = np.cumsum(rem) - rem
            off = np.arange(total) - np.repeat(run_start, rem) + 1
            a, b_ = it[left], it[left + off]
            lo, hi = np.minimum(a, b_), np.maximum(a, b_)
            pv, pc_ = np.unique(lo * np.int64(K) + hi, return_counts=True)
            rows_kind.append(np.ones(len(pv), np.int64))
            rows_a.append(pv // np.int64(K))
            rows_b.append(pv % np.int64(K))
            rows_n.append(pc_.astype(np.int64))
        # distinct-basket partial count
        rows_kind.append(np.array([2], np.int64))
        rows_a.append(np.array([0], np.int64))
        rows_b.append(np.array([0], np.int64))
        rows_n.append(np.array([len(starts)], np.int64))
        return pd.DataFrame(
            {
                "kind": np.concatenate(rows_kind),
                "a": np.concatenate(rows_a),
                "b": np.concatenate(rows_b),
                "n": np.concatenate(rows_n),
            }
        )

    part = (
        segment_apply(
            ds.select_columns([key_col, item_col]).map_batches(
                tag, batch_format="pyarrow"
            ),
            "k",
            fold,
            pa.schema({c: pa.int64() for c in ("kind", "a", "b", "n")}),
            order=("it",),
            num_buckets=num_buckets,
        )
        .groupby(["kind", "a", "b"])
        .sum("n")
        .to_pandas()
    )  # domain-bounded: K + K^2 + 1 rows
    nb = int(part.loc[part["kind"] == 2, "sum(n)"].sum())
    icnt = {
        int(r.a): int(r._4)
        for r in part[part["kind"] == 0].itertuples()
    }
    out = {
        "antecedent": [], "consequent": [], "n_both": [],
        "n_ante": [], "n_cons": [], "n_baskets": [],
        "support": [], "confidence": [], "lift": [],
    }

    def r6(x: float) -> float:
        return float(np.sign(x) * np.floor(np.abs(x) * 1e6 + 0.5) / 1e6)

    for r in part[part["kind"] == 1].itertuples():
        both = int(r._4)
        if both < min_count:
            continue
        for a, c in ((int(r.a), int(r.b)), (int(r.b), int(r.a))):
            na, nc = icnt[a], icnt[c]
            out["antecedent"].append(vocab[a])
            out["consequent"].append(vocab[c])
            out["n_both"].append(both)
            out["n_ante"].append(na)
            out["n_cons"].append(nc)
            out["n_baskets"].append(nb)
            out["support"].append(r6(both * 1.0 / nb))
            out["confidence"].append(r6(both * 1.0 / na))
            out["lift"].append(r6((both * 1.0 * nb) / (na * 1.0 * nc)))
    return rd.from_pandas(pd.DataFrame(out))


def sql_assoc_rules(
    *,
    source: str = "events",
    key: str = "user_id",
    item: str = "event_type",
    min_count: int = 1,
) -> str:
    return f"""
WITH e AS (SELECT DISTINCT {key}, {item} FROM {source}),
n AS (SELECT COUNT(DISTINCT {key})::BIGINT AS nb FROM e),
ic AS (SELECT {item}, COUNT(*)::BIGINT AS cnt FROM e GROUP BY {item}),
p AS (
  SELECT a.{item} AS ante, b.{item} AS cons, COUNT(*)::BIGINT AS n_both
  FROM e a JOIN e b
    ON a.{key} = b.{key} AND a.{item} <> b.{item}
  GROUP BY ante, cons
)
SELECT p.ante AS antecedent, p.cons AS consequent, p.n_both,
       ia.cnt AS n_ante, ib.cnt AS n_cons, (SELECT nb FROM n) AS n_baskets,
       ROUND(p.n_both * 1.0 / (SELECT nb FROM n) * 1e6) / 1e6 AS support,
       ROUND(p.n_both * 1.0 / ia.cnt * 1e6) / 1e6 AS confidence,
       ROUND((p.n_both * 1.0 * (SELECT nb FROM n))
             / (ia.cnt * 1.0 * ib.cnt) * 1e6) / 1e6 AS lift
FROM p
JOIN ic ia ON ia.{item} = p.ante
JOIN ic ib ON ib.{item} = p.cons
WHERE p.n_both >= {min_count}
"""
