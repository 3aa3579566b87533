"""make_grid — rasterise a polygon mask into a regular grid of cells.

Ray-Data-native re-expression of the reference ``GridMaker``
(reference gridding.py:132-399): the unit of work is a processing tile,
but a tile is a *row of a lazy ``range`` of tile ids*, not a
multiprocessing task, and a block of tiles is one batched pass
(:class:`EmitCells`), not a loop over them.  The kernel is a stateless
``map_batches`` stage fused with the range, holding the broadcast mask
and its (polygon, tile) pairs once per worker (reference re-pickles the
mask per tile, gridding.py:345-353).

Output schema (system columns, reference gridding.py:66-68, 164-167):

  cell_id:int64  ix:int32  iy:int32  x:double  y:double
  tile_id:int64  intersects:int8  within:int8

``x, y`` are the ``xypos`` reference-corner coordinates (default LLc,
base.py:347-370); geometry is derived from (ix, iy, cellsize, origin) and
never materialized.

Flag semantics: per-cell ``within`` / ``intersects`` are the OR-fold over
mask geometries of area-based tests (coverage >= cell_area*(1-TOL) /
coverage > TOL), matching the reference's per-geometry OR loop
(gridding.py:180-182) under the engine's area-positive intersection
convention (see geom.kernels docstring).  A tile fully covered by a
single mask polygon short-circuits to all-(1,1) without per-cell tests
(reference tile-level ``wans`` shortcut, gridding.py:145-151).

trim=False semantics: by default the engine still computes per-cell
flags and emits all cells (strictly more informative than the
reference).  Pass ``placeholders=True`` to :func:`make_grid` for exact
reference ``trim=False`` row-set parity (gridding.py:160-172): cells of
mask-intersecting tiles carry TILE-level flags (intersects=1,
within=tile-covered), and each non-intersecting tile contributes ONE
placeholder row at the tile's lower-left corner with
``cell_id = -1 - tile_id`` (the reference emits the tile polygon itself
there; the engine has no geometry column, so the negative cell_id is the
recognizable placeholder key).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .cluster import Broadcast
from .geom.index import ragged
from .geom.kernels import TOL_EPS, clip_areas_rect, coverage_pairs, snap_windows
from .planning import GridSpec, plan_grid, pos_offset

#: the output schema (module docstring)
_COLUMNS = [
    ("cell_id", np.int64), ("ix", np.int32), ("iy", np.int32), ("x", np.float64), ("y", np.float64),
    ("tile_id", np.int64), ("intersects", np.int8), ("within", np.int8),
]


def _tile_rects(spec: GridSpec, tiy: np.ndarray, tix: np.ndarray):
    """Per tile: first row and column, rows, columns, and the extent
    ``x0, y0, x1, y1`` (reference gridding.py:140-143)."""
    (tr, tc), (w, h) = spec.tilesize, spec.cellsize
    r0, c0 = tiy * tr, tix * tc
    ny, nx = np.minimum(r0 + tr, spec.nrows) - r0, np.minimum(c0 + tc, spec.ncols) - c0
    x0, y0 = spec.bbox[0] + c0 * w, spec.bbox[1] + r0 * h
    return r0, c0, ny, nx, x0, y0, x0 + nx * w, y0 + ny * h


class EmitCells:
    """Cell kernel over the broadcast mask, built once per worker
    (reference ships the mask with every tile task, gridding.py:345-353).

    Built once: the (polygon, tile) pairs whose bboxes meet strictly
    (the reference's per-tile candidate test), sorted by tile.  A batch
    of tile ids is one pass over all its tiles: one
    :func:`~pygridmap_ray.geom.kernels.clip_areas_rect` call over its
    pairs for the tile-level full cover, one
    :func:`~pygridmap_ray.geom.kernels.coverage_pairs` call over the
    pairs of the other tiles, and the per-cell tests OR-folded by flat
    cell index.

    ``tile_flags=True`` replays the reference's trim=False branch
    (gridding.py:160-172): flags are computed once at TILE level and
    stamped on every cell; tiles that do not intersect the mask emit the
    single placeholder row instead of their cells."""

    def __init__(self, spec: GridSpec, mask, trim: bool, interior: bool, tile_flags: bool = False):
        self.spec, self.trim, self.interior, self.tile_flags = spec, trim, interior, tile_flags
        self.layer = isinstance(mask, list) and bool(mask)
        if not self.layer:
            return
        self.rings = [p["rings"] for p in mask]
        b = np.array([p["bbox"] for p in mask], np.float64)
        ix0, iy0, nx, ny = snap_windows(b, *spec.bbox[:2], *spec.cellsize)
        # the tiles of each snapped bbox with one cell of margin, on the grid
        (tr, tc), last = spec.tilesize, (spec.nytiles - 1, spec.nxtiles - 1)
        tx0, tx1 = (np.clip(v // tc, 0, last[1]) for v in (ix0 - 1, ix0 + nx))
        ty0, ty1 = (np.clip(v // tr, 0, last[0]) for v in (iy0 - 1, iy0 + ny))
        ntx = tx1 - tx0 + 1
        poly, k = ragged(np.zeros(len(b), np.int64), ntx * (ty1 - ty0 + 1))
        tiy, tix = ty0[poly] + k // ntx[poly], tx0[poly] + k % ntx[poly]
        *_, x0, y0, x1, y1 = _tile_rects(spec, tiy, tix)
        b = b[poly]
        meet = (b[:, 0] < x1) & (b[:, 2] > x0) & (b[:, 1] < y1) & (b[:, 3] > y0)
        tile = (tix + tiy * spec.nxtiles)[meet]
        o = np.argsort(tile, kind="stable")
        self.pair_tile, self.pair_poly = tile[o], poly[meet][o]

    def cells(self, tiles: np.ndarray) -> dict[str, np.ndarray]:
        """The cell rows of ``tiles`` (tile ids), column -> typed array."""
        spec = self.spec
        w, h = spec.cellsize
        cell_area = w * h
        r0, c0, ny, nx, x0, y0, x1, y1 = _tile_rects(spec, *np.divmod(tiles, spec.nxtiles))
        full = np.zeros(len(tiles), bool)  # covered by a single polygon
        live = np.full(len(tiles), not (self.layer and (self.trim or self.tile_flags)))
        if self.layer:
            lo = np.searchsorted(self.pair_tile, tiles, "left")
            j, at = ragged(lo, np.searchsorted(self.pair_tile, tiles, "right") - lo)
            rings = [self.rings[i] for i in self.pair_poly[at].tolist()]
            # every pair's area inside its tile, in one clip pass.  The
            # full-cover tolerance is ONE CELL's epsilon, not the tile's:
            # tile_area*TOL would let a missing sliver concentrate on a
            # single cell and stamp within=1 where the per-cell path (and
            # the oracle) says 0
            areas = clip_areas_rect(rings, x0[j], y0[j], x1[j], y1[j])
            full[j[areas >= ((x1 - x0) * (y1 - y0))[j] - cell_area * TOL_EPS]] = True
            # tile-level ians under the area-positive convention, or any candidate
            live[j[areas > cell_area * TOL_EPS] if self.tile_flags else j] = True
        # the cells of the live tiles, tile after tile, each row-major
        size = np.where(live, nx * ny, 0)
        t, pos = ragged(np.zeros(len(tiles), np.int64), size)
        iy, ix = r0[t] + pos // nx[t], c0[t] + pos % nx[t]
        # a polygon-less mask grids the full bbox, intersects=1 within=0
        # (reference gridding.py:145-147,163); tile flags stamp intersects=1
        within, intersects = full[t], full[t] | (self.tile_flags or not self.layer)
        if self.layer and not self.tile_flags:
            # the other tiles' coverage, every pair in one call, then the
            # OR-fold over polygons of the per-cell tests
            part = np.flatnonzero(~full[j])
            jp = j[part]
            inst, cx, cy, cov = coverage_pairs(
                [rings[i] for i in part.tolist()], x0[jp], y0[jp], w, h, nx[jp], ny[jp]
            )
            tj = jp[inst]
            flat = np.cumsum(size)[tj] - size[tj] + cy * nx[tj] + cx
            within[flat[cov >= cell_area * (1.0 - TOL_EPS)]] = True
            intersects[flat[cov > cell_area * TOL_EPS]] = True
            if self.trim:
                keep = within if self.interior else within | intersects
                t, iy, ix = t[keep], iy[keep], ix[keep]
                within, intersects = within[keep], intersects[keep]
        offx, offy = pos_offset(spec.xypos, spec.cellsize)
        x, y = spec.bbox[0] + ix * w + offx, spec.bbox[1] + iy * h + offy
        cols = [iy * spec.ncols + ix, ix, iy, x, y, tiles[t], intersects, within]
        # one placeholder row per tile off the mask, at its lower-left
        p = np.flatnonzero(~live) if self.tile_flags else np.zeros(0, np.int64)
        rows = [-1 - tiles[p], c0[p], r0[p], x0[p], y0[p], tiles[p], *np.zeros((2, len(p)))]
        return {c: np.concatenate([a, b]).astype(dt) for (c, dt), a, b in zip(_COLUMNS, cols, rows)}

    def __call__(self, batch: pa.Table) -> pa.Table:
        return pa.table(self.cells(np.asarray(batch["id"], np.int64)))


def emit_tile_cells(
    spec: GridSpec,
    tiy: int,
    tix: int,
    mask: list[dict] | bool | None,
    trim: bool,
    interior: bool,
    tile_flags: bool = False,
) -> dict[str, np.ndarray]:
    """The cells of one tile (reference prll_process_tile,
    gridding.py:132-188): :class:`EmitCells` over a single tile."""
    kernel = EmitCells(spec, mask, trim, interior, tile_flags)
    return kernel.cells(np.array([spec.tile_id(tiy, tix)]))


def make_grid(
    mask=None,
    *,
    cellsize,
    bbox=None,
    tile: int | tuple[int, int] = 64,
    trim: bool = True,
    interior: bool = False,
    placeholders: bool = False,
    xypos: str = "LLc",
    sort: bool | str = False,
    mode: str = "prll",
):
    """Build the cell grid as a Ray Dataset (reference GridMaker.__call__ +
    grid_maker, gridding.py:258-399).

    ``mask``: polygon layer (list of dicts with ``rings`` + ``bbox``, e.g.
    from :func:`pygridmap_ray.synth.polygon_layer`), or None/True for a
    full-bbox grid.  ``interior=True`` forces ``trim=True`` (reference
    gridding.py:303-304).  ``placeholders=True`` (requires ``trim=False``
    and a polygon mask) selects exact reference trim=False row-set parity
    — tile-level flags + one placeholder row per non-intersecting tile
    (see module docstring).  ``sort``: False | 'tile' | 'rc' — explicit
    ``ds.sort`` only when requested (Ray blocks are unordered; conformance
    comparisons sort by cell_id, SURVEY.md §7.5.6).  ``mode``: the
    reference's tile strategy (prll | seq | qtree, gridding.py:64); every
    mode runs the one batched kernel, :class:`EmitCells`, over blocks of
    about 4 tiles, so all three give the same rows, which are those of
    :func:`emit_tile_cells` run one tile at a time.
    """
    import ray.data as rd

    if interior:
        trim = True
    if placeholders and (trim or not isinstance(mask, list) or not mask):
        raise ValueError(
            "placeholders=True is the reference trim=False compatibility "
            "mode: it requires trim=False and a polygon-layer mask"
        )
    if bbox is None:
        if not isinstance(mask, list) or not mask:
            raise ValueError("bbox is required when mask is not a polygon layer")
        from .geom.kernels import bbox_union

        bbox = bbox_union(*(p["bbox"] for p in mask))
    spec = plan_grid(bbox, cellsize, tile, xypos=xypos)
    # the tile ids as a lazy range, so the driver puts nothing: about 4
    # tiles per block (at most 256 blocks), and one kernel call per block
    # (batch_size=None, fused with the range read)
    ds = rd.range(spec.ntiles, override_num_blocks=min(256, -(-spec.ntiles // 4)))
    if mode not in ("prll", "seq", "qtree"):
        raise ValueError(f"mode must be prll|seq|qtree, got {mode!r}")
    cells = Broadcast(mask, lambda m: EmitCells(spec, m, trim, interior, placeholders))

    def apply(batch: pa.Table) -> pa.Table:
        return cells.get()(batch)

    out = ds.map_batches(apply, batch_format="pyarrow", batch_size=None)
    # sorted modes (reference gridding.py:64: tile/tilerc/tilecr/rc/cr)
    if sort == "tile":
        out = out.sort(["tile_id", "cell_id"])
    elif sort == "tilerc":
        out = out.sort(["tile_id", "iy", "ix"])
    elif sort == "tilecr":
        out = out.sort(["tile_id", "ix", "iy"])
    elif sort == "rc" or sort is True:
        out = out.sort(["iy", "ix"])
    elif sort == "cr":
        out = out.sort(["ix", "iy"])
    elif sort:
        raise ValueError(f"sort must be tile|tilerc|tilecr|rc|cr, got {sort!r}")
    return out


def sql_make_grid(
    bbox,
    cellsize,
    *,
    trim: bool = True,
    interior: bool = False,
    placeholders: bool = False,
    xypos: str = "LLc",
    tile: int | tuple[int, int] = 64,
    poly_rects_cte: str | None = None,
    mask_true: bool = False,
) -> str:
    """DuckDB twin of :func:`make_grid` over the rect-decomposed fixture
    mask (``poly_rects`` CTE).  Coverage per cell = sum of interval-overlap
    areas over the DISJOINT rects of each polygon, then the same TOL_EPS
    thresholds and OR-fold as the engine kernel.  ``mask_true`` mirrors the
    mask=True full-bbox grid (intersects=1, within=0); ``placeholders``
    mirrors the reference trim=False compatibility mode (tile-level flags
    + placeholder rows)."""
    from .synth import sql_polygon_rects_cte

    if interior:
        trim = True
    if isinstance(cellsize, (int, float)):
        cellsize = (float(cellsize), float(cellsize))
    spec = plan_grid(bbox, cellsize, tile, xypos=xypos)
    w, h = spec.cellsize
    offx, offy = pos_offset(xypos, spec.cellsize)
    x0, y0 = spec.bbox[0], spec.bbox[1]
    tsr, tsc = spec.tilesize
    cell_area = w * h
    if mask_true:
        return f"""
WITH cells AS (
  SELECT iy.i * {spec.ncols} + ix.i AS cell_id, ix.i AS ix, iy.i AS iy
  FROM (SELECT UNNEST(generate_series(0, {spec.ncols - 1})) AS i) ix,
       (SELECT UNNEST(generate_series(0, {spec.nrows - 1})) AS i) iy
)
SELECT cell_id, ix::INT AS ix, iy::INT AS iy,
       {x0!r} + ix * {w!r} + {offx!r} AS x, {y0!r} + iy * {h!r} + {offy!r} AS y,
       (ix // {tsc}) + (iy // {tsr}) * {spec.nxtiles} AS tile_id,
       1::TINYINT AS intersects, 0::TINYINT AS within
FROM cells
"""
    rects = poly_rects_cte or sql_polygon_rects_cte()
    if placeholders:
        # tile origin op order matches the engine kernel exactly:
        # bbox0 + (tix*tsc) * w — int product first, then one float multiply
        return f"""
WITH poly_rects AS ({rects}),
tiles AS (
  SELECT tx.i AS tix, ty.i AS tiy,
         {x0!r} + (tx.i * {tsc}) * {w!r} AS tx0,
         {y0!r} + (ty.i * {tsr}) * {h!r} AS ty0,
         LEAST({spec.ncols} - tx.i * {tsc}, {tsc}) AS ncx,
         LEAST({spec.nrows} - ty.i * {tsr}, {tsr}) AS ncy
  FROM (SELECT UNNEST(generate_series(0, {spec.nxtiles - 1})) AS i) tx,
       (SELECT UNNEST(generate_series(0, {spec.nytiles - 1})) AS i) ty
),
tcov AS (
  SELECT t.tix, t.tiy, t.ncx, t.ncy, r.poly_id,
         SUM(GREATEST(0, LEAST(t.tx0 + t.ncx * {w!r}, r.rxmax) - GREATEST(t.tx0, r.rxmin))
           * GREATEST(0, LEAST(t.ty0 + t.ncy * {h!r}, r.rymax) - GREATEST(t.ty0, r.rymin))) AS cov
  FROM tiles t
  JOIN poly_rects r
    ON t.tx0 < r.rxmax AND t.tx0 + t.ncx * {w!r} > r.rxmin
   AND t.ty0 < r.rymax AND t.ty0 + t.ncy * {h!r} > r.rymin
  GROUP BY t.tix, t.tiy, t.ncx, t.ncy, r.poly_id
),
tflags AS (
  SELECT tix, tiy,
         MAX(CASE WHEN cov > {cell_area!r} * {TOL_EPS!r} THEN 1 ELSE 0 END) AS ians,
         MAX(CASE WHEN cov >= (ncx * {w!r}) * (ncy * {h!r}) - {cell_area!r} * {TOL_EPS!r}
                  THEN 1 ELSE 0 END) AS wans
  FROM tcov GROUP BY tix, tiy
),
cells AS (
  SELECT iy.i * {spec.ncols} + ix.i AS cell_id,
         ix.i AS ix, iy.i AS iy,
         {x0!r} + ix.i * {w!r} AS cx0,
         {y0!r} + iy.i * {h!r} AS cy0
  FROM (SELECT UNNEST(generate_series(0, {spec.ncols - 1})) AS i) ix,
       (SELECT UNNEST(generate_series(0, {spec.nrows - 1})) AS i) iy
)
SELECT c.cell_id, c.ix::INT AS ix, c.iy::INT AS iy,
       c.cx0 + {offx!r} AS x, c.cy0 + {offy!r} AS y,
       (c.ix // {tsc}) + (c.iy // {tsr}) * {spec.nxtiles} AS tile_id,
       1::TINYINT AS intersects, f.wans::TINYINT AS within
FROM cells c
JOIN tflags f ON f.tix = c.ix // {tsc} AND f.tiy = c.iy // {tsr} AND f.ians = 1
UNION ALL
SELECT -1 - (t.tix + t.tiy * {spec.nxtiles}) AS cell_id,
       (t.tix * {tsc})::INT AS ix, (t.tiy * {tsr})::INT AS iy,
       t.tx0 AS x, t.ty0 AS y,
       t.tix + t.tiy * {spec.nxtiles} AS tile_id,
       0::TINYINT AS intersects, 0::TINYINT AS within
FROM tiles t
LEFT JOIN tflags f ON f.tix = t.tix AND f.tiy = t.tiy
WHERE COALESCE(f.ians, 0) = 0
"""
    keep = (
        "within = 1"
        if interior
        else "(within = 1 OR intersects = 1)"
        if trim
        else "TRUE"
    )
    return f"""
WITH poly_rects AS ({rects}),
cells AS (
  SELECT iy.i * {spec.ncols} + ix.i AS cell_id,
         ix.i AS ix, iy.i AS iy,
         {x0!r} + ix.i * {w!r} AS cx0,
         {y0!r} + iy.i * {h!r} AS cy0
  FROM (SELECT UNNEST(generate_series(0, {spec.ncols - 1})) AS i) ix,
       (SELECT UNNEST(generate_series(0, {spec.nrows - 1})) AS i) iy
),
cov AS (
  SELECT c.cell_id, r.poly_id,
         SUM(GREATEST(0, LEAST(c.cx0 + {w!r}, r.rxmax) - GREATEST(c.cx0, r.rxmin))
           * GREATEST(0, LEAST(c.cy0 + {h!r}, r.rymax) - GREATEST(c.cy0, r.rymin))) AS cov
  FROM cells c
  JOIN poly_rects r
    ON c.cx0 < r.rxmax AND c.cx0 + {w!r} > r.rxmin
   AND c.cy0 < r.rymax AND c.cy0 + {h!r} > r.rymin
  GROUP BY c.cell_id, r.poly_id
),
flags AS (
  SELECT cell_id,
         MAX(CASE WHEN cov >= {cell_area!r} * (1.0 - {TOL_EPS!r}) THEN 1 ELSE 0 END) AS within,
         MAX(CASE WHEN cov > {cell_area!r} * {TOL_EPS!r} THEN 1 ELSE 0 END) AS intersects
  FROM cov GROUP BY cell_id
)
SELECT c.cell_id, c.ix::INT AS ix, c.iy::INT AS iy,
       c.cx0 + {offx!r} AS x, c.cy0 + {offy!r} AS y,
       (c.ix // {tsc}) + (c.iy // {tsr}) * {spec.nxtiles} AS tile_id,
       COALESCE(f.intersects, 0)::TINYINT AS intersects,
       COALESCE(f.within, 0)::TINYINT AS within
FROM cells c LEFT JOIN flags f USING (cell_id)
WHERE {keep}
"""
