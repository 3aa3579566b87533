"""Focal (neighborhood) statistics over sparse grid cells — raster map
algebra's focal-sum / focal-mean re-expressed for a cell stream.

Reference parity: pygridmap's raster path treats the grid as dense
per-tile arrays (reference ``gridtiler_raster.py:61-127``); a focal
kernel there is a windowed convolution per tile that needs HALO pixels
from the 8 neighbouring tiles before it can evaluate border cells.  The
engine works on the SPARSE occupied-cell stream instead and turns the
halo exchange into plain dataflow:

1. each batch reduces its points to per-cell count partials (``np.unique``
   on packed int64 cell keys — no groupby);
2. every partial is SPREAD to the ``(2k+1)^2`` neighbourhood cells it
   contributes to — a contribution whose target lies in another tile is
   exactly the halo copy a dense engine would ship;
3. ONE coarse-bucket sum keyed by target cell folds all partials; the
   cell's own count rides along in a second value column, so occupied
   cells are recovered without a join.

Contributions are additive, so partials never need the global per-cell
count first — two narrow shuffles total, both over (int64, int64,
float64) rows, independent of how many points share a cell.  At cluster
scale the spread factor is a constant 9 (or ``(2k+1)^2``) on the
already-reduced cell partials, not on the point stream.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from pygridmap_ray.cluster import (
    resolve_num_buckets as _resolve_buckets,
    segment_apply,
    segment_sum,
)

#: cell coords must fit this packing (iy * 2^32 + ix, both >= 0;
#: iy is bounded so pk - and the clusters path sentinel pk + 2^32
#: north claim - stays inside int64)
_PACK_SHIFT = np.int64(1) << np.int64(32)
_PACK_MAX_IY = (np.int64(1) << np.int64(31)) - np.int64(1)


def _cell_count_spread(
    b: pa.Table, *, ix_col: str, iy_col: str, ksize: int
) -> pa.Table:
    """One batch of cell-tagged points -> spread neighbourhood partials
    ``(tix, tiy, contrib, self_cnt)``: per-cell counts via packed-int
    ``np.unique``, each emitted to its ``(2k+1)^2`` target cells."""
    empty = pa.table(
        {
            "tix": pa.array([], pa.int64()),
            "tiy": pa.array([], pa.int64()),
            "contrib": pa.array([], pa.float64()),
            "self_cnt": pa.array([], pa.float64()),
        }
    )
    if not b.num_rows:
        return empty
    ix = np.asarray(b[ix_col], np.int64)
    iy = np.asarray(b[iy_col], np.int64)
    if (
        (ix < 0).any() or (iy < 0).any()
        or (ix >= _PACK_SHIFT).any() or (iy >= _PACK_MAX_IY).any()
    ):
        raise ValueError(
            "focal cells must satisfy 0 <= ix < 2^32, 0 <= iy < 2^31-1"
        )
    pk = iy * _PACK_SHIFT + ix
    u, cnt = np.unique(pk, return_counts=True)
    cix = u % _PACK_SHIFT
    ciy = u // _PACK_SHIFT
    w = 2 * ksize + 1
    offs = np.arange(-ksize, ksize + 1, dtype=np.int64)
    dx = np.tile(np.repeat(offs, w), len(u))
    dy = np.tile(np.tile(offs, w), len(u))
    tix = np.repeat(cix, w * w) + dx
    tiy = np.repeat(ciy, w * w) + dy
    contrib = np.repeat(cnt.astype(np.float64), w * w)
    self_cnt = np.where((dx == 0) & (dy == 0), contrib, 0.0)
    return pa.table(
        {
            "tix": pa.array(tix),
            "tiy": pa.array(tiy),
            "contrib": pa.array(contrib),
            "self_cnt": pa.array(self_cnt),
        }
    )


def focal_counts(
    ds,
    *,
    ix_col: str = "ix",
    iy_col: str = "iy",
    ksize: int = 1,
    num_buckets: int | None = None,
    round_to: int = 6,
):
    """Per occupied cell: its own point count plus the focal sum / mean
    of counts over the ``(2k+1) x (2k+1)`` neighbourhood (empty
    neighbour cells count 0, the dense-raster convention).

    Output columns: ``ix, iy, n_docs, focal_sum, focal_mean`` with
    ``focal_mean = round(focal_sum / (2k+1)^2, round_to)`` half-away —
    the SQL twin is a self-join on ``BETWEEN +-k`` (:func:`sql_focal_mean`).
    """
    if ksize < 1:
        raise ValueError("ksize must be >= 1")
    denom = float((2 * ksize + 1) ** 2)
    tol = 10.0**round_to

    spread = ds.map_batches(
        _cell_count_spread,
        batch_format="pyarrow",
        fn_kwargs=dict(ix_col=ix_col, iy_col=iy_col, ksize=ksize),
    )
    summed = segment_sum(
        spread,
        ["tix", "tiy"],
        ("contrib", "self_cnt"),
        num_buckets=num_buckets,
    )

    def finish(b: pa.Table) -> pa.Table:
        occ = np.asarray(b["self_cnt"], np.float64)
        keep = occ > 0.5
        fs = np.asarray(b["contrib"], np.float64)[keep]
        fm = np.floor((fs / denom) * tol + 0.5) / tol  # counts are >= 0
        return pa.table(
            {
                ix_col: pa.array(np.asarray(b["tix"], np.int64)[keep]),
                iy_col: pa.array(np.asarray(b["tiy"], np.int64)[keep]),
                "n_docs": pa.array(occ[keep].astype(np.int64)),
                "focal_sum": pa.array(fs.astype(np.int64)),
                "focal_mean": pa.array(fm),
            }
        )

    return summed.map_batches(finish, batch_format="pyarrow")


def sql_focal_mean(
    *, points_cte: str, ix_expr: str, iy_expr: str, ksize: int = 1
) -> str:
    """DuckDB twin of :func:`focal_counts` over the same point CTE and
    cell law (same ``(2k+1)^2`` divisor, same op order, half-away 6dp)."""
    w2 = (2 * ksize + 1) ** 2
    return f"""
WITH pts AS ({points_cte}), cells AS (
  SELECT {ix_expr} AS ix, {iy_expr} AS iy, COUNT(*) AS n_docs
  FROM pts GROUP BY 1, 2
)
SELECT a.ix, a.iy, a.n_docs::BIGINT AS n_docs,
       SUM(b.n_docs)::BIGINT AS focal_sum,
       ROUND(SUM(b.n_docs) / {w2}.0 * 1e6) / 1e6 AS focal_mean
FROM cells a JOIN cells b
  ON b.ix BETWEEN a.ix - {ksize} AND a.ix + {ksize}
 AND b.iy BETWEEN a.iy - {ksize} AND a.iy + {ksize}
GROUP BY a.ix, a.iy, a.n_docs
"""


# ---------------------------------------------------------------------------
# contiguous cell clusters (degree-of-urbanisation style labeling)
# ---------------------------------------------------------------------------


def cell_clusters(
    ds,
    *,
    ix_col: str = "ix",
    iy_col: str = "iy",
    min_count: int = 1,
    min_cluster_docs: int = 1,
    num_buckets: int | None = None,
):
    """Contiguous clusters of occupied grid cells — the Eurostat
    degree-of-urbanisation shape (GHSL "urban cluster": threshold cells,
    4-connectivity, cluster-level population floor) over the point
    stream.

    Plan: per-batch packed-cell count partials -> one coarse sum ->
    threshold (``count >= min_count``); each occupied cell then emits an
    ANCHOR row under its own key plus CLAIM rows under its east/north
    neighbour keys — one bucketed shuffle later a key holding both an
    anchor and claims yields the adjacency edges (and every anchor a
    self-edge, so isolated cells become singleton clusters), all matched
    vectorized inside the bucket.  Components come from
    :func:`pygridmap_ray.dedup.connected_components` (distributed
    pointer-jumping min-label), cluster aggregates from one more coarse
    sum keyed by the (hash-like) component id.

    Output: ``cluster_id`` (min packed cell key in the component),
    ``n_cells``, ``n_docs`` — rows with ``n_docs >= min_cluster_docs``.
    """

    from .dedup import connected_components
    from .cluster import default_num_partitions

    def count_partial(b: pa.Table) -> pa.Table:
        if not b.num_rows:
            return pa.table(
                {"pk": pa.array([], pa.int64()), "cnt": pa.array([], pa.float64())}
            )
        ix = np.asarray(b[ix_col], np.int64)
        iy = np.asarray(b[iy_col], np.int64)
        if (
            (ix < 0).any() or (iy < 0).any()
            or (ix >= _PACK_SHIFT - 1).any() or (iy >= _PACK_MAX_IY).any()
        ):
            # ix == 2^32-1 would make the east-claim key wrap into row
            # iy+1; iy >= 2^31-1 would overflow pk (and the north claim)
            raise ValueError(
                "cluster cells must satisfy 0 <= ix < 2^32-1, "
                "0 <= iy < 2^31-1"
            )
        pk = iy * _PACK_SHIFT + ix
        u, cnt = np.unique(pk, return_counts=True)
        return pa.table(
            {"pk": pa.array(u), "cnt": pa.array(cnt.astype(np.float64))}
        )

    from .cluster import LEFT_SENTINEL, compact_blocks

    nparts = default_num_partitions()
    _cells_schema = pa.schema([("pk", pa.int64()), ("cnt", pa.float64())])
    # ONE materialize serves both consumers (claims + join) AND removes
    # every empty block (threshold filter + map_groups can leave them),
    # so the join below needs no further left-side guard — see
    # cluster.compact_blocks (hash-shuffle schema race)
    cells = compact_blocks(
        segment_sum(
            ds.map_batches(count_partial, batch_format="pyarrow"),
            ["pk"],
            ("cnt",),
            num_buckets=num_buckets,
        ).map_batches(
            lambda b: b.filter(
                np.asarray(b["cnt"], np.float64) >= float(min_count)
            ),
            batch_format="pyarrow",
        ),
        _cells_schema,
        # zero occupied cells -> one sentinel cell with null count; its
        # fake singleton cluster dies at the NaN >= floor filter below
        sentinel_keys={"pk": LEFT_SENTINEL},
    )

    def claims(b: pa.Table) -> pa.Table:
        pk = np.asarray(b["pk"], np.int64)
        key = np.concatenate([pk, pk + 1, pk + _PACK_SHIFT])
        src = np.concatenate([pk, pk, pk])
        anchor = np.concatenate(
            [np.ones(len(pk), np.int64), np.zeros(2 * len(pk), np.int64)]
        )
        return pa.table(
            {"key": pa.array(key), "src": pa.array(src), "anchor": pa.array(anchor)}
        )

    def edge_kernel(t: pa.Table, starts: np.ndarray) -> dict:
        key = np.asarray(t["key"], np.int64)
        src = np.asarray(t["src"], np.int64)
        anc = np.asarray(t["anchor"], np.int64) == 1
        anchored = np.sort(key[anc])
        cl_key, cl_src = key[~anc], src[~anc]
        if len(anchored):
            pos = np.clip(np.searchsorted(anchored, cl_key), 0, len(anchored) - 1)
            hit = anchored[pos] == cl_key
        else:  # bucket holds claims only (their targets are unoccupied)
            hit = np.zeros(len(cl_key), dtype=bool)
        return {
            "id_a": np.concatenate([cl_src[hit], key[anc]]),
            "id_b": np.concatenate([cl_key[hit], key[anc]]),
        }

    edges = segment_apply(
        cells.map_batches(claims, batch_format="pyarrow"),
        "key",
        edge_kernel,
        pa.schema({"id_a": pa.int64(), "id_b": pa.int64()}),
        num_buckets=num_buckets,
    )
    labels = connected_components(edges, src="id_a", dst="id_b").materialize()

    # labels are node-scale (occupied cells, already a tiny fraction of
    # the point stream) and usually driver-solved by the CC hybrid —
    # broadcast them while they fit instead of paying a fixed-cost
    # partitioned hash join; fall back to safe_join above the bound.
    if labels.count() <= 2_000_000:
        from .joins import lookup_join

        parts = [
            t
            for t in labels.iter_batches(batch_size=None, batch_format="pyarrow")
            if t.num_rows and t.num_columns
        ]
        dim = (
            pa.concat_tables(parts)
            if parts
            else pa.table(
                {"node": pa.array([], pa.int64()),
                 "label": pa.array([], pa.int64())}
            )
        )
        joined = lookup_join(cells, dim, on="pk", key="node",
                             value_cols=["label"])
    else:
        from .cluster import safe_join

        joined = safe_join(
            cells,  # already compacted above — no empty blocks
            labels,
            "inner",
            num_partitions=nparts,
            on=("pk",),
            right_on=("node",),
            # the label side can be sparse or globally empty (local CC
            # solve on a tiny graph) — see cluster.compact_blocks
            right_schema=pa.schema(
                [("node", pa.int64()), ("label", pa.int64())]
            ),
        )

    def cluster_partial(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "component": b["label"],
                "n_docs": b["cnt"],
                "n_cells": pa.array(np.ones(b.num_rows, np.float64)),
            }
        )

    agg = segment_sum(
        joined.map_batches(cluster_partial, batch_format="pyarrow"),
        ["component"],
        ("n_docs", "n_cells"),
        num_buckets=num_buckets,
    )

    def finish(b: pa.Table) -> pa.Table:
        nd = np.asarray(b["n_docs"], np.float64)
        keep = nd >= float(min_cluster_docs)
        return pa.table(
            {
                "cluster_id": pa.array(np.asarray(b["component"], np.int64)[keep]),
                "n_cells": pa.array(
                    np.asarray(b["n_cells"], np.float64)[keep].astype(np.int64)
                ),
                "n_docs": pa.array(nd[keep].astype(np.int64)),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def sql_cell_clusters(
    *,
    points_cte: str,
    ix_expr: str,
    iy_expr: str,
    min_count: int = 1,
    min_cluster_docs: int = 1,
) -> str:
    """DuckDB twin of :func:`cell_clusters`: recursive min-label
    propagation over the same packed keys and 4-adjacency.  The
    recursion only creates ``(node, label)`` rows with ``label < node``
    (dominated labels are pruned), so it terminates and MIN per node is
    the component id — same law as the engine's pointer jumping."""
    shift = int(_PACK_SHIFT)
    return f"""
WITH RECURSIVE pts AS ({points_cte}), cells AS (
  SELECT {ix_expr} AS ix, {iy_expr} AS iy, COUNT(*) AS cnt
  FROM pts GROUP BY 1, 2 HAVING COUNT(*) >= {min_count}
), c AS (
  SELECT iy * {shift} + ix AS pk, ix, iy, cnt FROM cells
), sym AS (
  SELECT a.pk AS u, b.pk AS v FROM c a JOIN c b
    ON (abs(a.ix - b.ix) + abs(a.iy - b.iy)) = 1
), rec AS (
  SELECT pk AS node, pk AS label FROM c
  UNION
  SELECT s.v AS node, r.label FROM rec r JOIN sym s ON s.u = r.node
  WHERE r.label < s.v
), comp AS (
  SELECT node, MIN(label) AS component FROM rec GROUP BY node
)
SELECT comp.component AS cluster_id,
       COUNT(*)::BIGINT AS n_cells,
       SUM(c.cnt)::BIGINT AS n_docs
FROM c JOIN comp ON c.pk = comp.node
GROUP BY comp.component
HAVING SUM(c.cnt) >= {min_cluster_docs}
"""


# ---------------------------------------------------------------------------
# per-cell categorical majority (mode with deterministic tie-break)
# ---------------------------------------------------------------------------


def cell_majority(
    ds,
    *,
    ix_col: str = "ix",
    iy_col: str = "iy",
    cat_col: str = "lang",
    num_buckets: int | None = None,
    round_to: int = 6,
):
    """Majority category per occupied cell (choropleth-style dominant
    class, e.g. dominant language per grid cell) with SQL's
    deterministic tie-break: highest count wins, ties go to the
    lexicographically smallest category.

    Plan: per-batch (cell, category) count partials (one pandas groupby
    over batch-local rows), ONE coarse-bucket shuffle keyed by the
    hash-like packed cell key (the engine-wide rule: never a fine
    groupby on cell keys), then a vectorized per-bucket fold: lexsort +
    ``np.add.reduceat`` sums per (cell, category), a second lexsort
    picks each cell's winner without any per-cell Python.

    Output: ``ix, iy, top_cat, n_top, n_total, share`` (share rounded
    half-away)."""
    import pandas as pd

    def partial(b: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "pk": pa.array([], pa.int64()),
                "cat": pa.array([], pa.string()),
                "cnt": pa.array([], pa.float64()),
            }
        )
        if not b.num_rows:
            return empty
        ix = np.asarray(b[ix_col], np.int64)
        iy = np.asarray(b[iy_col], np.int64)
        if (
            (ix < 0).any() or (iy < 0).any()
            or (ix >= _PACK_SHIFT).any() or (iy >= _PACK_MAX_IY).any()
        ):
            raise ValueError(
                "majority cells must satisfy 0 <= ix < 2^32, 0 <= iy < 2^31-1"
            )
        df = pd.DataFrame(
            {
                "pk": iy * _PACK_SHIFT + ix,
                "cat": np.asarray(b[cat_col]).astype(object),
            }
        )
        red = df.groupby(["pk", "cat"], sort=False).size().reset_index(name="cnt")
        return pa.table(
            {
                "pk": pa.array(red["pk"].to_numpy(np.int64)),
                "cat": pa.array(red["cat"], pa.string()),
                "cnt": pa.array(red["cnt"].to_numpy(np.float64)),
            }
        )

    tol = 10.0**round_to

    def bucket_kernel(t: pa.Table, starts: np.ndarray) -> dict:
        # fold batch partials: sum per (pk, cat), cats ascending per pk
        cat = np.asarray(t["cat"], dtype=object)
        change = np.r_[True, cat[1:] != cat[:-1]]
        change[starts] = True
        runs = np.nonzero(change)[0]
        pk = np.asarray(t["pk"], np.int64)[runs]
        cat = cat[runs]
        cnt = np.add.reduceat(np.asarray(t["cnt"], np.float64), runs)
        # winner per pk: order by (pk, -cnt, cat), take first
        order = np.lexsort((cat, -cnt, pk))
        pk, cat, cnt = pk[order], cat[order], cnt[order]
        first = np.r_[True, pk[1:] != pk[:-1]]
        totals = np.add.reduceat(cnt, np.nonzero(first)[0])
        wpk, wcat, wcnt = pk[first], cat[first], cnt[first]
        share = np.floor((wcnt / totals) * tol + 0.5) / tol
        return {
            ix_col: wpk % _PACK_SHIFT,
            iy_col: wpk // _PACK_SHIFT,
            "top_cat": wcat,
            "n_top": wcnt.astype(np.int64),
            "n_total": totals.astype(np.int64),
            "share": share,
        }

    I = pa.int64()
    return segment_apply(
        ds.map_batches(partial, batch_format="pyarrow"),
        "pk",
        bucket_kernel,
        pa.schema(
            [(ix_col, I), (iy_col, I), ("top_cat", pa.string()), ("n_top", I),
             ("n_total", I), ("share", pa.float64())]
        ),
        order=("cat",),
        num_buckets=num_buckets,
    )


def sql_cell_majority(
    *,
    points_cte: str,
    ix_expr: str,
    iy_expr: str,
    cat_col: str = "lang",
    round_to: int = 6,
) -> str:
    """DuckDB twin of :func:`cell_majority` (count DESC, category ASC
    tie-break; share = n_top / n_total rounded half-away)."""
    t = f"1e{round_to}"
    return f"""
WITH pts AS ({points_cte}), cl AS (
  SELECT {ix_expr} AS ix, {iy_expr} AS iy, {cat_col} AS cat,
         COUNT(*) AS cnt
  FROM pts GROUP BY 1, 2, 3
), ranked AS (
  SELECT ix, iy, cat, cnt,
         ROW_NUMBER() OVER (PARTITION BY ix, iy ORDER BY cnt DESC, cat) AS rn,
         SUM(cnt) OVER (PARTITION BY ix, iy) AS n_total
  FROM cl
)
SELECT ix, iy, cat AS top_cat, cnt::BIGINT AS n_top,
       n_total::BIGINT AS n_total,
       ROUND(cnt / n_total * {t}) / {t} AS share
FROM ranked WHERE rn = 1
"""
