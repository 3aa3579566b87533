"""make_grid — rasterise a polygon mask into a regular grid of cells.

Ray-Data-native re-expression of the reference ``GridMaker``
(reference gridding.py:132-399): the unit of work is a processing tile,
but a tile is a *row of a Dataset of tile specs*, not a multiprocessing
task; the cell-emission kernel is a stateless ``map_batches`` stage
holding the broadcast mask once per worker (reference re-pickles the
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
from .geom.kernels import TOL_EPS, clip_areas_rect, coverage_pairs
from .planning import GridSpec, plan_grid, pos_offset


def _tile_cell_range(spec: GridSpec, tiy: int, tix: int):
    """Global (row0, row1, col0, col1) cell-index range of one tile."""
    r0 = tiy * spec.tilesize[0]
    r1 = min((tiy + 1) * spec.tilesize[0], spec.nrows)
    c0 = tix * spec.tilesize[1]
    c1 = min((tix + 1) * spec.tilesize[1], spec.ncols)
    return r0, r1, c0, c1


def _placeholder_row(spec: GridSpec, tiy: int, tix: int, r0: int, c0: int, x0, y0):
    """Reference trim=False placeholder for a non-intersecting tile
    (gridding.py:160-163: one row at the tile's lower-left, flags 0/0)."""
    return {
        "cell_id": np.array([-1 - spec.tile_id(tiy, tix)], dtype=np.int64),
        "ix": np.array([c0], dtype=np.int32),
        "iy": np.array([r0], dtype=np.int32),
        "x": np.array([x0], dtype=np.float64),
        "y": np.array([y0], dtype=np.float64),
        "tile_id": np.array([spec.tile_id(tiy, tix)], dtype=np.int64),
        "intersects": np.zeros(1, dtype=np.int8),
        "within": np.zeros(1, dtype=np.int8),
    }


def emit_tile_cells(
    spec: GridSpec,
    tiy: int,
    tix: int,
    mask: list[dict] | bool | None,
    trim: bool,
    interior: bool,
    tile_flags: bool = False,
) -> dict[str, np.ndarray] | None:
    """The per-tile cell-emission kernel (reference prll_process_tile,
    gridding.py:132-188).  Returns a dict-of-arrays batch or None.

    ``tile_flags=True`` replays the reference's trim=False branch
    (gridding.py:160-172): flags are computed once at TILE level and
    stamped on every cell; tiles that do not intersect the mask emit the
    single placeholder row instead of their cells."""
    r0, r1, c0, c1 = _tile_cell_range(spec, tiy, tix)
    ny, nx = r1 - r0, c1 - c0
    if ny <= 0 or nx <= 0:
        return None
    w, h = spec.cellsize
    x0 = spec.bbox[0] + c0 * w
    y0 = spec.bbox[1] + r0 * h
    cell_area = w * h

    if isinstance(mask, list) and mask:
        tile_x1, tile_y1 = x0 + nx * w, y0 + ny * h
        cand = [
            p
            for p in mask
            if p["bbox"][0] < tile_x1
            and p["bbox"][2] > x0
            and p["bbox"][1] < tile_y1
            and p["bbox"][3] > y0
        ]
        if not cand and trim and not tile_flags:
            return None
        # every candidate's area inside the tile, in one clip pass
        areas = clip_areas_rect([p["rings"] for p in cand], x0, y0, tile_x1, tile_y1)
        # single-polygon full cover (tile-level wans).  Tolerance is ONE
        # CELL's epsilon, not the tile's: tile_area*TOL would let a missing
        # sliver concentrate on a single cell and stamp within=1 where the
        # per-cell path (and the oracle) says 0
        full = bool(
            (areas >= (tile_x1 - x0) * (tile_y1 - y0) - cell_area * TOL_EPS).any()
        )
        if tile_flags:
            # tile-level ians/wans under the engine's area-positive convention
            if not (areas > cell_area * TOL_EPS).any():
                return _placeholder_row(spec, tiy, tix, r0, c0, x0, y0)
            intersects = np.ones((ny, nx), dtype=bool)
            within = np.full((ny, nx), full, dtype=bool)
        elif full:
            within = np.ones((ny, nx), dtype=bool)
            intersects = np.ones((ny, nx), dtype=bool)
        else:
            # every candidate's coverage of the tile in one call, then the
            # OR-fold over candidates of the per-cell tests
            _, ixs, iys, cov = coverage_pairs([p["rings"] for p in cand], x0, y0, w, h, nx, ny)
            within = np.zeros((ny, nx), dtype=bool)
            intersects = np.zeros((ny, nx), dtype=bool)
            hit = cov >= cell_area * (1.0 - TOL_EPS)
            within[iys[hit], ixs[hit]] = True
            hit = cov > cell_area * TOL_EPS
            intersects[iys[hit], ixs[hit]] = True
            if trim and not intersects.any():
                return None
    else:
        # mask True/None/empty: full-bbox gridding; reference mask=True sets
        # intersects=1, within=0 (gridding.py:145-147,163)
        intersects = np.ones((ny, nx), dtype=bool)
        within = np.zeros((ny, nx), dtype=bool)

    iy_g, ix_g = np.mgrid[r0:r1, c0:c1]
    iy_g = iy_g.ravel()
    ix_g = ix_g.ravel()
    within = within.ravel()
    intersects = intersects.ravel()
    if isinstance(mask, list) and mask and trim:
        keep = within if interior else (within | intersects)
        iy_g, ix_g = iy_g[keep], ix_g[keep]
        within, intersects = within[keep], intersects[keep]
        if len(iy_g) == 0:
            return None
    offx, offy = pos_offset(spec.xypos, spec.cellsize)
    return {
        "cell_id": (iy_g * spec.ncols + ix_g).astype(np.int64),
        "ix": ix_g.astype(np.int32),
        "iy": iy_g.astype(np.int32),
        "x": spec.bbox[0] + ix_g * w + offx,
        "y": spec.bbox[1] + iy_g * h + offy,
        "tile_id": np.full(len(iy_g), spec.tile_id(tiy, tix), dtype=np.int64),
        "intersects": intersects.astype(np.int8),
        "within": within.astype(np.int8),
    }


class EmitCells:
    """Tile kernel holding the broadcast mask, built once per worker
    (reference ships the mask with every tile task, gridding.py:345-353)."""

    def __init__(
        self,
        spec: GridSpec,
        mask,
        trim: bool,
        interior: bool,
        tile_flags: bool = False,
    ):
        self.spec = spec
        self.mask = mask
        self.trim = trim
        self.interior = interior
        self.tile_flags = tile_flags

    def __call__(self, batch: pa.Table) -> pa.Table:
        tiys = batch["tiy"].to_numpy()
        tixs = batch["tix"].to_numpy()
        parts = []
        for tiy, tix in zip(tiys.tolist(), tixs.tolist()):
            out = emit_tile_cells(
                self.spec,
                tiy,
                tix,
                self.mask,
                self.trim,
                self.interior,
                self.tile_flags,
            )
            if out is not None:
                parts.append(pa.table(out))
        if not parts:
            return pa.table(
                {
                    "cell_id": pa.array([], pa.int64()),
                    "ix": pa.array([], pa.int32()),
                    "iy": pa.array([], pa.int32()),
                    "x": pa.array([], pa.float64()),
                    "y": pa.array([], pa.float64()),
                    "tile_id": pa.array([], pa.int64()),
                    "intersects": pa.array([], pa.int8()),
                    "within": pa.array([], pa.int8()),
                }
            )
        return pa.concat_tables(parts)


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
    mode runs the one tile kernel, :func:`emit_tile_cells`, so all three
    give the same rows.
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
    specs = [
        {"tiy": tiy, "tix": tix}
        for tiy in range(spec.nytiles)
        for tix in range(spec.nxtiles)
    ]
    # one tile spec per input block (up to 256 blocks); batch_size=4
    # below then bundles 4 tiles per call (so 16 tiles give 4 output
    # blocks).  One tile per call was slower on a 16-tile grid
    ds = rd.from_items(specs, override_num_blocks=min(len(specs), 256))
    if mode not in ("prll", "seq", "qtree"):
        raise ValueError(f"mode must be prll|seq|qtree, got {mode!r}")
    cells = Broadcast(mask, lambda m: EmitCells(spec, m, trim, interior, placeholders))

    def apply(batch: pa.Table) -> pa.Table:
        return cells.get()(batch)

    out = ds.map_batches(apply, batch_format="pyarrow", batch_size=4)
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
