"""GridOverlay — spatial join / intersection / union / areal interpolation.

Ray-Data-native re-expression of the reference ``GridOverlay``
(reference overlay.py:187-605).  Architecture:

1. **Fragment stage** (:class:`OverlayKernel`, a broadcast kernel): the
   polygon layer, its attribute LUTs and its (polygon, grid tile) pairs
   are built ONCE per worker (the reference rebuilds ``poly.sindex``
   inside every tile task, overlay.py:258); each grid-cell batch computes
   the coverage of the tiles its cells lie in, every candidate polygon in
   one batched pass, and looks its cells up in it — one output row per
   (cell, polygon) pair with positive overlap area (reference
   clip_polygon + overlay_polygon + area_overlay, overlay.py:244-335).
   ``how='union'`` additionally emits one remainder row per cell with
   uncovered area and null polygon attributes (the NaN ``__area_pct__``
   rows of the reference union output, overlay.ipynb cell 34).
2. **Cell finish** (:func:`_finish_cells`, in the SAME ``map_batches``
   task as the fragment stage): ``cover`` collect-list (overlay.py:
   312-323) and attribute rules sum/min/max/list (overlay.py:338-374).
   The kernel emits every fragment of a cell from the one call that sees
   the cell's grid row, so each cell is reduced where its fragments were
   made and nothing is exchanged — the reference likewise assigns in the
   tile worker (overlay.py:377-412), because cells never span tiles
   (SURVEY.md §2.3 note).

Remainder semantics (documented): remainder area = max(0, cell_area −
Σ fragment areas) — exact when the polygon layer is non-overlapping,
which holds for every union test the reference exercises (grid-on-grid).

Grid contract: one row per cell.  Every ``cell_id`` appears once in the
grid (``make_grid`` output, or any frame with unique ids); a cell
repeated across blocks would come out once per block.  Batches may hold
any cells in any order: a fragment's area depends on its polygon and
the grid alone, so every block layout gives the same fragments.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .cluster import Broadcast
from .geom.index import layer_luts, ragged
from .geom.kernels import TOL_EPS, coverage_pairs, snap_windows
from .planning import GridSpec

RULES = ("sum", "min", "max", "list")


class OverlayKernel:
    """Fragment producer over the broadcast polygon layer.

    Coverage windows are cut on the grid's tile lattice (``tilesize``
    cells, rows then columns, anchored at ``origin``): a polygon's window
    in a tile is the tile's part of the polygon's bbox snapped to the
    grid, with one cell of margin so a rounded snap cannot cut off a
    sliver cell; ``tilesize=None`` cuts windows only at the origin's
    row and column of cells.  A fragment's area is thus a function of the
    polygon and the grid alone, never of how the grid is batched.

    Built once per worker: the (polygon, tile) pairs, sorted by tile,
    and the attribute LUTs of
    :func:`~pygridmap_ray.geom.index.layer_luts`.  A batch computes the
    windows of the tiles its cells lie in, in one
    :func:`~pygridmap_ray.geom.kernels.coverage_pairs` call, sorts the
    rows by (cell, layer position), and finds each grid row's run of
    (polygon, area) pairs with ``searchsorted``; its memory follows the
    batch's tiles, not the layer's extent."""

    def __init__(
        self,
        polygons: list[dict],
        cellsize: tuple[float, float],
        origin: tuple[float, float],
        how: str = "intersection",
        attr_cols: tuple[str, ...] = ("nuts_id", "pop"),
        tilesize: tuple[int, int] | None = None,
    ):
        if how not in ("intersection", "union"):
            raise ValueError(f"how must be intersection|union, got {how!r}")
        self.how = how
        self.w, self.h = float(cellsize[0]), float(cellsize[1])
        self.ox, self.oy = float(origin[0]), float(origin[1])
        self.luts = layer_luts(polygons, attr_cols)
        self.poly_area = np.array([p["area"] for p in polygons], dtype=np.float64)
        self.rings = [p["rings"] for p in polygons]
        ix0, iy0, nx, ny = snap_windows([p["bbox"] for p in polygons], self.ox, self.oy, self.w, self.h)
        # each polygon's cell range [x0, x1) x [y0, y1), margin included
        self.x0, self.y0, self.x1, self.y1 = ix0 - 1, iy0 - 1, ix0 + nx + 1, iy0 + ny + 1
        self.ty, self.tx = tilesize or (2**31, 2**31)
        tx0, ty0 = self.x0 // self.tx, self.y0 // self.ty
        ntx = (self.x1 - 1) // self.tx - tx0 + 1
        poly, k = ragged(np.zeros(len(polygons), np.int64), ntx * ((self.y1 - 1) // self.ty - ty0 + 1))
        tx, ty = tx0[poly] + k % ntx[poly], ty0[poly] + k // ntx[poly]
        key = _cell_key(tx, ty)
        o = np.argsort(key, kind="stable")
        self.pair_key, self.pair_poly = key[o], poly[o]
        self.pair_tx, self.pair_ty = tx[o], ty[o]

    def _coverage(self, tiles: np.ndarray):
        """``(cell key, polygon, area)`` of every (polygon, tile) window of
        ``tiles`` (tile keys), sorted by (cell, layer position)."""
        lo = np.searchsorted(self.pair_key, tiles, "left")
        _, at = ragged(lo, np.searchsorted(self.pair_key, tiles, "right") - lo)
        poly, tx, ty = self.pair_poly[at], self.pair_tx[at], self.pair_ty[at]
        x0 = np.maximum(self.x0[poly], tx * self.tx)
        y0 = np.maximum(self.y0[poly], ty * self.ty)
        nx = np.minimum(self.x1[poly], (tx + 1) * self.tx) - x0
        ny = np.minimum(self.y1[poly], (ty + 1) * self.ty) - y0
        inst, ix, iy, area = coverage_pairs(
            [self.rings[i] for i in poly.tolist()],
            self.ox + x0 * self.w,
            self.oy + y0 * self.h,
            self.w,
            self.h,
            nx,
            ny,
        )
        key, poly = _cell_key(ix + x0[inst], iy + y0[inst]), poly[inst]
        o = np.lexsort((poly, key))
        return key[o], poly[o], area[o]

    def __call__(self, batch: pa.Table) -> pa.Table:
        ix, iy = np.asarray(batch["ix"], np.int64), np.asarray(batch["iy"], np.int64)
        keys, polys, areas = self._coverage(np.unique(_cell_key(ix // self.tx, iy // self.ty)))
        key = _cell_key(ix, iy)
        lo = np.searchsorted(keys, key, "left")
        row, at = ragged(lo, np.searchsorted(keys, key, "right") - lo)
        poly, area = polys[at], areas[at]
        t = batch.take(pa.array(row, pa.int64()))
        codes = pa.array(poly, pa.int64())
        for c, lut in self.luts.items():
            t = t.append_column(c, lut.take(codes))
        t = t.append_column("poly_area", pa.array(self.poly_area[poly]))
        t = t.append_column("area", pa.array(area))
        t = t.append_column("area_pct", pa.array(area / self.poly_area[poly]))
        if self.how == "intersection":
            return t
        # each cell's uncovered rest, its fragments added in layer order
        cell_area = self.w * self.h
        rem = cell_area - np.bincount(row, weights=area, minlength=batch.num_rows)
        pos = np.flatnonzero(rem > cell_area * TOL_EPS)
        r = batch.take(pa.array(pos, pa.int64()))
        for c, lut in self.luts.items():
            r = r.append_column(c, pa.nulls(len(pos), lut.type))
        r = r.append_column("poly_area", pa.nulls(len(pos), pa.float64()))
        r = r.append_column("area", pa.array(rem[pos]))
        r = r.append_column("area_pct", pa.nulls(len(pos), pa.float64()))
        return pa.concat_tables([t, r])


def _cell_key(ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
    """One int64 per grid cell, ordered by (iy, ix); ix may be negative."""
    return iy * 2**32 + ix


def _kernel_layer(polygons, spec: GridSpec, how: str, attr_cols) -> Broadcast:
    if how not in ("intersection", "union"):
        # fail on the driver, not inside a worker
        raise ValueError(f"how must be intersection|union, got {how!r}")
    args = (spec.cellsize, spec.bbox[:2], how, attr_cols, spec.tilesize)
    return Broadcast(polygons, lambda p: OverlayKernel(p, *args))


def overlay_fragments(
    grid_ds,
    polygons: list[dict],
    spec: GridSpec,
    *,
    how: str = "intersection",
    attr_cols: tuple[str, ...] = ("nuts_id", "pop"),
    batch_size: int | None = None,
):
    """Fragment rows of grid × polygon layer (reference O4/O5/O6).

    Stateless tasks (elastic, fuse with neighbors); each worker builds
    the kernel once (:class:`cluster.Broadcast`)."""
    layer = _kernel_layer(polygons, spec, how, attr_cols)

    def apply(batch: pa.Table) -> pa.Table:
        return layer.get()(batch)

    return grid_ds.map_batches(apply, batch_format="pyarrow", batch_size=batch_size)


def _run_heads(*keys: np.ndarray) -> np.ndarray:
    """True where a row starts a new run of equal key tuples."""
    head = np.ones(len(keys[0]), dtype=bool)
    head[1:] = np.any([k[1:] != k[:-1] for k in keys], axis=0)
    return head


def _finish_cells(
    frags: pa.Table,
    rule: str | None,
    columns: list[str],
    carry: list[str],
    cover: bool,
) -> pa.Table:
    """One row per cell of a fragment batch: ``cell_id, *carry,
    *columns[, cover, n_polys]``.  Union remainder rows (null poly_id)
    keep their cell in the output but contribute nothing: sum 0, null
    cover with n_polys 0, null min/max/list."""
    _, first, inv = np.unique(
        np.asarray(frags["cell_id"]), return_index=True, return_inverse=True
    )
    n = len(first)
    ri = np.nonzero(np.asarray(pc.is_valid(frags["poly_id"])))[0]
    cell = inv[ri]
    pid = np.asarray(frags["poly_id"].take(ri), dtype=np.int64)
    pct = np.asarray(frags["area_pct"].take(ri), dtype=np.float64)
    out = {c: frags[c].take(first) for c in ("cell_id", *carry)}

    def lists(cells, values, sep):
        # join each cell's run of values; ``cells`` (row -> cell) ascends
        offsets = np.searchsorted(cells, np.arange(n + 1)).astype(np.int32)
        joined = pc.binary_join(
            pa.ListArray.from_arrays(
                offsets, values, mask=pa.array(offsets[1:] == offsets[:-1])
            ),
            sep,
        )
        return joined, np.diff(offsets).astype(np.int64)

    by_pid = np.lexsort((pid, cell))
    if rule in ("min", "max"):
        best = np.lexsort((pid, pct if rule == "min" else -pct, cell))
        best = best[_run_heads(cell[best])]
        idx = np.full(n, -1, dtype=np.int64)
        idx[cell[best]] = ri[best]
        take = pa.array(idx, mask=idx < 0)
        for c in columns:
            out[c] = frags[c].take(take)
    for c in columns if rule in ("sum", "list") else ():
        wv = np.asarray(frags[c].take(ri), dtype=np.float64) * pct
        if rule == "sum":
            # pandas' compensated groupby sum, in emission order: plain
            # float adds (np.add.reduceat) differ by ulps
            s = pd.Series(wv).groupby(cell).sum()
            sums = np.zeros(n)
            sums[s.index.to_numpy()] = s.to_numpy()
            out[c] = pa.array(sums)
        else:
            vals = pa.array([f"{v:.9f}" for v in wv[by_pid].tolist()], pa.string())
            out[c] = lists(cell[by_pid], vals, ";")[0]
    if cover:
        o = by_pid[_run_heads(cell[by_pid], pid[by_pid])]
        ids = pc.cast(pa.array(pid[o]), pa.string())
        out["cover"], count = lists(cell[o], ids, ",")
        out["n_polys"] = pa.array(count)
    return pa.table(out)


def grid_overlay(
    grid_ds,
    polygons: list[dict],
    spec: GridSpec,
    *,
    how: str = "intersection",
    rule: str | None = None,
    columns: list[str] | None = None,
    cover: bool = False,
    carry: list[str] | None = None,
    attr_cols: tuple[str, ...] = ("nuts_id", "pop"),
):
    """Full overlay: fragments, then per-cell cover/attribute assignment
    (reference GridOverlay.__call__, overlay.py:433-552).

    ``rule`` in {sum, min, max, list} assigns each ``columns`` polygon
    attribute to cells: sum -> Σ attr·area_pct (weighted areal
    interpolation); min/max -> attr of the fragment with the lowest/highest
    area_pct (tie-broken by ascending poly_id — the reference's sort-then-
    first, overlay.py:340-360, made deterministic); list -> ';'-joined
    weighted values ordered by poly_id.  ``cover`` adds the sorted
    contributing-polygon id string (reference collect-list, overlay.py:
    312-323).  ``carry`` = grid columns to keep (constant per cell).
    Cells with no fragment rows (intersection) are absent, matching the
    reference inner merge (overlay.py:369-374).  Output columns:
    ``cell_id, *carry, *columns[, cover, n_polys]``; with neither a rule
    nor ``cover`` the fragment rows are returned as they are.

    ``grid_ds`` must hold one row per cell (unique ``cell_id``, as
    ``make_grid`` emits): the per-cell finish runs inside the fragment
    task, on that task's batch, with no exchange.
    """
    if rule is not None and rule not in RULES:
        raise ValueError(f"rule must be one of {RULES}")
    if rule is None and not cover:
        return overlay_fragments(grid_ds, polygons, spec, how=how, attr_cols=attr_cols)
    layer = _kernel_layer(polygons, spec, how, attr_cols)
    columns = list(columns or [])
    carry = list(carry or [])

    def apply(batch: pa.Table) -> pa.Table:
        return _finish_cells(layer.get()(batch), rule, columns, carry, cover)

    return grid_ds.map_batches(apply, batch_format="pyarrow", batch_size=None)


def area_interpolate(
    polygons: list[dict],
    grid_ds,
    spec: GridSpec,
    variables: list[str],
    *,
    cover: bool = True,
):
    """Weighted areal interpolation of extensive polygon variables onto the
    grid — the reference's tobler-equivalent wrapper (overlay.py:559-605):
    how='intersection', rule='sum', area=cover=True.  The reference's
    retry-with-memory_split is obsolete under Ray streaming + spill."""
    return grid_overlay(
        grid_ds,
        polygons,
        spec,
        how="intersection",
        rule="sum",
        columns=variables,
        cover=cover,
    )


def crop_grid_bbox(grid_ds, bbox, x_col: str = "x", y_col: str = "y"):
    """Partition pruning by coordinate predicate — O3 strategy (c)
    (reference crop_polygon, overlay.py:206-208): keep cells with
    xmin <= x <= xmax and ymin <= y <= ymax, vectorized per batch."""
    xmin, ymin, xmax, ymax = bbox

    def f(b: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.and_(
                pc.greater_equal(b[x_col], pa.scalar(float(xmin))),
                pc.less_equal(b[x_col], pa.scalar(float(xmax))),
            ),
            pc.and_(
                pc.greater_equal(b[y_col], pa.scalar(float(ymin))),
                pc.less_equal(b[y_col], pa.scalar(float(ymax))),
            ),
        )
        return b.filter(keep)

    return grid_ds.map_batches(f, batch_format="pyarrow")


def crop_grid_tiles(grid_ds, tile_ids, tile_col: str = "tile_id"):
    """Partition pruning by stored tile id — O3 strategy (a) (reference
    overlay.py:196-199): the tile id is a COLUMN, so pruning is a
    vectorized membership filter, not a scheduling concern."""
    ids = pa.array(sorted(int(t) for t in tile_ids), pa.int64())

    def f(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_in(b[tile_col], value_set=ids))

    return grid_ds.map_batches(f, batch_format="pyarrow")


def cells_to_polygon_layer(
    df: pd.DataFrame, spec: GridSpec, value_col: str = "val"
) -> list[dict]:
    """Turn a (small) cell grid into a polygon layer — the second layer of
    the reference's grid-on-grid identity / scale-reduction tests
    (overlay.ipynb cells 26-30)."""
    from .geom.kernels import as_ring

    w, h = spec.cellsize
    out = []
    for r in df.itertuples():
        x0 = spec.bbox[0] + r.ix * w
        y0 = spec.bbox[1] + r.iy * h
        out.append(
            {
                "poly_id": int(r.cell_id),
                "nuts_id": str(int(r.cell_id)),
                "rings": [
                    as_ring([[x0, y0], [x0 + w, y0], [x0 + w, y0 + h], [x0, y0 + h]])
                ],
                "bbox": (x0, y0, x0 + w, y0 + h),
                "pop": float(getattr(r, value_col)),
                "area": w * h,
            }
        )
    return out


# ---------------------------------------------------------------------------
# DuckDB twins (oracle side, over the rect-decomposed fixture layer)
# ---------------------------------------------------------------------------


def _sql_frag_ctes(
    spec: GridSpec, poly_rects_cte: str | None = None, round_to: int = 6
) -> str:
    from .synth import sql_polygon_area_cte, sql_polygon_rects_cte

    w, h = spec.cellsize
    x0, y0 = spec.bbox[0], spec.bbox[1]
    r = 10.0**round_to
    return f"""
WITH poly_rects AS ({poly_rects_cte or sql_polygon_rects_cte()}),
poly_area AS ({sql_polygon_area_cte()}),
cells AS (
  SELECT iy.i * {spec.ncols} + ix.i AS cell_id, ix.i AS ix, iy.i AS iy,
         {x0!r} + ix.i * {w!r} AS cx0, {y0!r} + iy.i * {h!r} AS cy0
  FROM (SELECT UNNEST(generate_series(0, {spec.ncols - 1})) AS i) ix,
       (SELECT UNNEST(generate_series(0, {spec.nrows - 1})) AS i) iy
),
frag AS (
  SELECT c.cell_id, c.ix, c.iy, r.poly_id,
         SUM(GREATEST(0, LEAST(c.cx0 + {w!r}, r.rxmax) - GREATEST(c.cx0, r.rxmin))
           * GREATEST(0, LEAST(c.cy0 + {h!r}, r.rymax) - GREATEST(c.cy0, r.rymin))) AS area
  FROM cells c
  JOIN poly_rects r
    ON c.cx0 < r.rxmax AND c.cx0 + {w!r} > r.rxmin
   AND c.cy0 < r.rymax AND c.cy0 + {h!r} > r.rymin
  GROUP BY c.cell_id, c.ix, c.iy, r.poly_id
  HAVING SUM(GREATEST(0, LEAST(c.cx0 + {w!r}, r.rxmax) - GREATEST(c.cx0, r.rxmin))
           * GREATEST(0, LEAST(c.cy0 + {h!r}, r.rymax) - GREATEST(c.cy0, r.rymin))) > 0
),
frag2 AS (
  SELECT f.cell_id, f.ix, f.iy, f.poly_id, p.nuts_id, p.pop,
         ROUND(f.area * {r!r}) / {r!r} AS area,
         ROUND(f.area / p.poly_area * {r!r}) / {r!r} AS area_pct
  FROM frag f JOIN poly_area p USING (poly_id)
)"""


def sql_overlay_fragments(
    spec: GridSpec,
    *,
    how: str = "intersection",
    poly_rects_cte: str | None = None,
    round_to: int = 6,
) -> str:
    """Fragments of the FULL-bbox grid vs the fixture polygon layer.
    area/area_pct rounded to ``round_to`` decimals (both sides) to absorb
    summation-order ulp differences."""
    w, h = spec.cellsize
    cell_area = w * h
    r = 10.0**round_to
    frag = _sql_frag_ctes(spec, poly_rects_cte, round_to)
    if how == "intersection":
        return frag + "\nSELECT * FROM frag2"
    return (
        frag
        + f""",
rem AS (
  SELECT c.cell_id, c.ix, c.iy, NULL::BIGINT AS poly_id, NULL::VARCHAR AS nuts_id,
         NULL::DOUBLE AS pop,
         ROUND(({cell_area!r} - COALESCE(SUM(f.area), 0)) * {r!r}) / {r!r} AS area,
         NULL::DOUBLE AS area_pct
  FROM cells c LEFT JOIN frag f USING (cell_id)
  GROUP BY c.cell_id, c.ix, c.iy
  HAVING {cell_area!r} - COALESCE(SUM(f.area), 0) > {cell_area!r} * {TOL_EPS!r}
)
SELECT * FROM frag2 UNION ALL SELECT * FROM rem"""
    )


def sql_grid_overlay_sum(
    spec: GridSpec,
    variables: list[str] = ("pop",),
    *,
    cover: bool = True,
    round_to: int = 6,
) -> str:
    """Per-cell weighted-sum assignment + cover over the full-bbox grid
    (oracle twin of :func:`area_interpolate`)."""
    base = _sql_frag_ctes(spec, round_to=12)
    r = 10.0**round_to
    aggs = [
        f"ROUND(SUM({v} * area_pct) * {r!r}) / {r!r} AS {v}" for v in variables
    ]
    cov = (
        "STRING_AGG(poly_id::VARCHAR, ',' ORDER BY poly_id) AS cover, "
        "COUNT(DISTINCT poly_id)::BIGINT AS n_polys, "
        if cover
        else ""
    )
    return (
        base
        + f"\nSELECT cell_id, {cov}{', '.join(aggs)} FROM frag2 GROUP BY cell_id"
    )


def disaggregate(
    polygons: list[dict],
    grid_ds,
    spec: GridSpec,
    variables: list[str],
):
    """Dasymetric disaggregation: each polygon's extensive totals are
    spread down onto the grid cells proportionally to intersection area,
    ``cell_v = sum_p v_p * area(cell ∩ p) / area(p)``, so per-polygon
    mass is conserved exactly for polygons fully inside the grid (the
    Eurostat gridded-statistics production direction: region totals ->
    1 km grid).  ``area / area(p)`` is the fragment's ``area_pct``, so
    this is :func:`area_interpolate`'s weighting with ``ix``/``iy``
    carried and no cover: ``cell_id, ix, iy, *variables``."""
    return grid_overlay(
        grid_ds,
        polygons,
        spec,
        how="intersection",
        rule="sum",
        columns=variables,
        carry=["ix", "iy"],
    )


def sql_disaggregate(spec: GridSpec, variables: list[str]) -> str:
    """DuckDB twin of :func:`disaggregate` over the fixture layer: the
    fragment CTE (same 6-dp area law) joined to the rect-decomposed
    per-polygon total area, weighted-summed per cell."""
    from .synth import sql_polygon_area_cte, sql_polygon_rects_cte

    sel = ", ".join(
        f"ROUND(SUM(f.{v} * f.area / pa.poly_area) * 1e6) / 1e6 AS {v}"
        for v in variables
    )
    return f"""
WITH frag AS ({sql_overlay_fragments(spec, how="intersection")}),
poly_rects AS ({sql_polygon_rects_cte()}),
parea AS ({sql_polygon_area_cte()})
SELECT f.cell_id, f.ix, f.iy, {sel}
FROM frag f JOIN parea pa USING (poly_id)
GROUP BY f.cell_id, f.ix, f.iy
"""


def poly_metrics(ds, *, rings_col: str = "rings"):
    """Per-polygon shape metrics: net shoelace area (holes CW subtract),
    total boundary length (holes add), shoelace-moment centroid (cx, cy)
    and Polsby-Popper compactness ``4*pi*A / P^2`` (the classic public
    gerrymandering score, rounded 6dp) — the geopandas ``.area`` /
    ``.length`` / ``.centroid`` parity point as a stateless Arrow stage.

    Vectorized across the whole batch: rings flatten to one vertex
    stream, the wraparound next-vertex index is patched at ring ends, and
    ``np.add.reduceat`` folds cross products / edge lengths per ring —
    no per-polygon Python.
    """

    def metrics(b: pa.Table) -> pa.Table:
        ids = np.asarray(b["poly_id"], np.int64)
        rings_rows = b[rings_col].to_pylist()
        xs, ys, ring_starts, ring_poly = [], [], [], []
        pos = 0
        for pi, rings in enumerate(rings_rows):
            for ring in rings:
                pts = np.asarray(ring, dtype=np.float64).reshape(-1, 2)
                xs.append(pts[:, 0])
                ys.append(pts[:, 1])
                ring_starts.append(pos)
                ring_poly.append(pi)
                pos += len(pts)
        if not xs:
            return pa.table(
                {
                    "poly_id": pa.array([], pa.int64()),
                    "area": pa.array([], pa.float64()),
                    "perimeter": pa.array([], pa.float64()),
                    "compactness": pa.array([], pa.float64()),
                }
            )
        x = np.concatenate(xs)
        y = np.concatenate(ys)
        starts = np.asarray(ring_starts, np.int64)
        ends = np.append(starts[1:], len(x)) - 1
        nxt = np.arange(1, len(x) + 1)
        nxt[ends] = starts
        cross = x * y[nxt] - x[nxt] * y
        elen = np.sqrt(
            (x[nxt] - x) * (x[nxt] - x) + (y[nxt] - y) * (y[nxt] - y)
        )
        ring_area = 0.5 * np.add.reduceat(cross, starts)
        ring_perim = np.add.reduceat(elen, starts)
        ring_mx = np.add.reduceat((x + x[nxt]) * cross, starts)
        ring_my = np.add.reduceat((y + y[nxt]) * cross, starts)
        rp = np.asarray(ring_poly, np.int64)
        area = np.bincount(rp, weights=ring_area, minlength=len(ids))
        perim = np.bincount(rp, weights=ring_perim, minlength=len(ids))
        cx = (np.bincount(rp, weights=ring_mx, minlength=len(ids)) / 6.0) / area
        cy = (np.bincount(rp, weights=ring_my, minlength=len(ids)) / 6.0) / area
        comp = (4.0 * np.pi * area) / (perim * perim)
        rnd = lambda v: np.sign(v) * np.floor(np.abs(v) * 1e6 + 0.5) / 1e6
        return pa.table(
            {
                "poly_id": pa.array(ids),
                "area": pa.array(area),
                "perimeter": pa.array(perim),
                "cx": pa.array(rnd(cx)),
                "cy": pa.array(rnd(cy)),
                "compactness": pa.array(rnd(comp)),
            }
        )

    return ds.map_batches(metrics, batch_format="pyarrow")


def sql_poly_metrics(rings_by_poly: dict) -> str:
    """Oracle twin: the fixture ring vertices (and their wraparound
    successors, precomputed — same constants) embedded as VALUES; the
    integer-coordinate fixture keeps every shoelace / length term exact,
    so summation order cannot diverge."""
    rows = []
    for pid, rings in sorted(rings_by_poly.items()):
        for ring in rings:
            pts = np.asarray(ring, dtype=np.float64).reshape(-1, 2)
            for i in range(len(pts)):
                nx, ny = pts[(i + 1) % len(pts)]
                # ::DOUBLE — bare decimal literals parse as DECIMAL and
                # overflow in the moment products
                rows.append(
                    f"({pid}, {pts[i, 0]!r}::DOUBLE, {pts[i, 1]!r}::DOUBLE,"
                    f" {nx!r}::DOUBLE, {ny!r}::DOUBLE)"
                )
    vals = ", ".join(rows)
    return (
        f"WITH v(poly_id, x, y, nx, ny) AS (VALUES {vals}), "
        f"m AS (SELECT poly_id, SUM(x * ny - nx * y) * 0.5 AS area,"
        f" SUM(sqrt((nx - x) * (nx - x) + (ny - y) * (ny - y)))"
        f" AS perimeter,"
        f" SUM((x + nx) * (x * ny - nx * y)) AS mx,"
        f" SUM((y + ny) * (x * ny - nx * y)) AS my"
        f" FROM v GROUP BY poly_id) "
        f"SELECT poly_id, area, perimeter,"
        f" ROUND(((mx / 6.0) / area) * 1e6) / 1e6 AS cx,"
        f" ROUND(((my / 6.0) / area) * 1e6) / 1e6 AS cy,"
        f" ROUND(((4.0 * pi() * area) / (perimeter * perimeter)) * 1e6)"
        f" / 1e6 AS compactness FROM m"
    )


def poly_overlay(
    subjects_ds,
    clips: list[dict],
    *,
    id_col: str = "poly_id",
    rings_col: str = "rings",
    round_to: int = 6,
    heal_tol: float | None = None,
):
    """Layer x layer overlay: intersection AREA of every (subject
    polygon, convex clip polygon) pair — the general ``gpd.overlay``
    surface of the reference (overlay.py:296-297) for convex clip
    layers (decompose a concave clip into convex pieces first; the
    reference's exercised unions are convex tile rects).

    ``heal_tol`` (optional) runs :func:`geom.kernels.heal_rings` on every
    subject ring before clipping — the reference's TopologyException
    retry analog for user-provided layers with duplicate/spike/collinear
    vertices (reference overlay.py:299-309).

    Subjects stream as a Dataset whose ``rings_col`` is
    ``list<list<list<double>>>`` (outer rings CCW, holes CW — signed
    areas subtract, so holes are exact); the small clip layer ships via
    ``ray.put`` once and is bbox-pruned per subject.  CONCAVE clip
    polygons are ear-clipped into convex (triangle) pieces ONCE on the
    driver (:func:`geom.kernels.triangulate_ring` — areas add exactly
    over the tiling), so the per-batch kernel only ever runs convex SH.
    Per-batch cost is polygons x surviving clip pieces: all of a
    batch's (polygon, piece) pairs clip in one ragged numpy pass per
    piece edge, and only the pair bookkeeping is Python.  Emits (id_col, clip_id, area) rows with area > 0, rounded
    half-away."""
    from .geom.kernels import clip_areas_convex, rings_bbox, triangulate_ring

    def _is_convex_ccw(r: np.ndarray) -> bool:
        nxt = np.roll(r, -1, axis=0)
        e = nxt - r
        cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] \
            - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
        return bool((cross >= 0).all())

    payload = []
    for c in clips:
        r = np.asarray(c["ring"], dtype=np.float64)
        payload.append(
            {
                "clip_id": int(c["clip_id"]),
                "pieces": [r] if _is_convex_ccw(r) else triangulate_ring(r),
                "bbox": (
                    float(r[:, 0].min()),
                    float(r[:, 1].min()),
                    float(r[:, 0].max()),
                    float(r[:, 1].max()),
                ),
            }
        )
    clip_layer = Broadcast(payload)
    tol = 10.0**round_to

    def kernel(b: pa.Table) -> pa.Table:
        cl = clip_layer.get()
        ids = np.asarray(b[id_col], dtype=np.int64)
        rings_rows = b[rings_col].to_pylist()
        subj, pieces, pairs = [], [], []  # pairs: (row, clip_id, pieces)
        for i, raw in enumerate(rings_rows):
            rings = [np.asarray(r, dtype=np.float64) for r in raw]
            if heal_tol is not None:
                from .geom.kernels import heal_rings

                rings = heal_rings(rings, heal_tol)
            if not rings:
                continue
            bb = rings_bbox(rings)
            for c in cl:
                cb = c["bbox"]
                if bb[0] >= cb[2] or bb[2] <= cb[0] \
                        or bb[1] >= cb[3] or bb[3] <= cb[1]:
                    continue
                subj += [rings] * len(c["pieces"])
                pieces += c["pieces"]
                pairs.append((i, c["clip_id"], len(c["pieces"])))
        # every (subject, clip piece) pair of the batch in one ragged pass
        areas = clip_areas_convex(subj, pieces).tolist()
        out_id, out_cid, out_area = [], [], []
        at = 0
        for i, cid, k in pairs:
            a = sum(areas[at:at + k])
            at += k
            # round BEFORE the emission test: SH bridge geometry on a
            # disjoint-but-bbox-overlapping pair is exactly 0 in exact
            # arithmetic but +-1e-16 in float — testing the raw sum
            # could emit a spurious 0.0 row the exact-arithmetic SQL
            # twin never produces (both sides gate on the ROUNDED
            # area)
            ar = np.floor(abs(a) * tol + 0.5) / tol
            if a > 0.0 and ar > 0.0:
                out_id.append(ids[i])
                out_cid.append(cid)
                out_area.append(ar)
        return pa.table(
            {
                id_col: pa.array(np.asarray(out_id, dtype=np.int64)),
                "clip_id": pa.array(np.asarray(out_cid, dtype=np.int64)),
                "area": pa.array(np.asarray(out_area, dtype=np.float64)),
            }
        )

    return subjects_ds.map_batches(kernel, batch_format="pyarrow")
