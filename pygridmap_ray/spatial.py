"""Point-in-polygon spatial join + kNN cell lookups.

The north-rule join: documents carrying point locations are joined to the
broadcast polygon layer (GISCO/NUTS-style) inside stateless
``map_batches`` tasks — the Ray-native form of the reference's per-tile
``sjoin``/rtree-candidate pattern (reference overlay.py:174-184, 258-260).

All three join paths test containment with the layer's one
:class:`~pygridmap_ray.geom.index.PolygonIndex` (bins -> candidates ->
slab edges -> parity), built once per worker by :class:`cluster.Broadcast`.
Candidates come from its bbox bins (``join_points_to_polygons``), a
cell-key hash join (``join_points_via_cell_index``) or a hex cover
(``join_points_via_hex_cover``).

Boundary convention: the even-odd ray-casting test classifies points on
a polygon's left/bottom edges as inside and right/top edges as outside —
exactly the half-open ``[xmin, xmax) x [ymin, ymax)`` convention of the
SQL oracle's rect decomposition, so the two agree even for points exactly
on edges.  The bbox candidate filter is half-open the same way.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .geom.index import PolygonIndex, ragged
from pygridmap_ray.cluster import (
    Broadcast,
    resolve_num_buckets as _resolve_buckets,
    segment_apply,
)


class PointJoinKernel:
    """Broadcast join kernel: the polygon layer's index, built once per
    worker.  Rows come out polygon-major, x-ascending (ties by row)
    within a polygon, then the unmatched rows for ``how='left'``."""

    def __init__(
        self,
        polygons,
        attr_cols: tuple[str, ...] = ("nuts_id", "pop"),
        how: str = "inner",
        x_col: str = "x",
        y_col: str = "y",
    ):
        self.index = PolygonIndex(polygons, attr_cols)
        self.how, self.x_col, self.y_col = how, x_col, y_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        px = np.asarray(batch[self.x_col], dtype=np.float64)
        py = np.asarray(batch[self.y_col], dtype=np.float64)
        pt, poly = self.index.candidates(px, py)
        inside = self.index.contains(px[pt], py[pt], poly)
        pt, poly = pt[inside], poly[inside]
        o = np.lexsort((pt, px[pt], poly))
        pt, poly = pt[o], poly[o]
        if self.how == "left":
            miss = np.nonzero(np.bincount(pt, minlength=batch.num_rows) == 0)[0]
            pt = np.concatenate([pt, miss])
            poly = np.concatenate([poly, np.full(len(miss), -1, np.int64)])
        t = batch.take(pa.array(pt, pa.int64()))
        codes = pa.array(poly, pa.int64(), mask=poly < 0)
        for c, lut in self.index.luts.items():
            t = t.append_column(c, lut.take(codes))
        return t


def join_points_to_polygons(
    ds,
    polygons: list[dict],
    *,
    how: str = "inner",
    attr_cols: tuple[str, ...] = ("nuts_id", "pop"),
    x_col: str = "x",
    y_col: str = "y",
    batch_size: int | None = None,
):
    """Spatial join of a point Dataset against the broadcast polygon layer.

    ``how='inner'``: one row per (point, containing polygon) — a point in
    N overlapping polygons yields N rows.  ``how='left'``: additionally
    keeps unmatched points with null polygon columns.  Stateless tasks;
    each worker builds the kernel once (:class:`cluster.Broadcast`).
    """
    if how not in ("inner", "left"):
        raise ValueError(f"how must be inner|left, got {how!r}")
    layer = Broadcast(
        polygons, lambda p: PointJoinKernel(p, attr_cols, how, x_col, y_col)
    )

    def apply(batch: pa.Table) -> pa.Table:
        return layer.get()(batch)

    return ds.map_batches(apply, batch_format="pyarrow", batch_size=batch_size)


def sql_point_join(points_cte: str, how: str = "inner") -> str:
    """DuckDB twin: half-open containment against the disjoint rect
    decomposition (one matching rect per polygon at most)."""
    from .synth import sql_polygon_rects_cte

    join = "JOIN" if how == "inner" else "LEFT JOIN"
    return f"""
WITH points AS ({points_cte}),
poly_rects AS ({sql_polygon_rects_cte()})
SELECT p.*, r.poly_id, r.nuts_id, r.pop
FROM points p
{join} poly_rects r
  ON p.x >= r.rxmin AND p.x < r.rxmax AND p.y >= r.rymin AND p.y < r.rymax
"""


def polygon_cells_index(
    polygons: list[dict],
    *,
    resolution: float,
    origin: tuple[float, float] = (0.0, 0.0),
) -> "object":
    """Distributed (cell_key, poly_id, full) index of a polygon layer.

    The scale path for spatial joins where BOTH sides are large (guide:
    partitioned hash join): each polygon's coverage is rasterized onto the
    cell grid — ``full=True`` cells are entirely inside the polygon,
    ``full=False`` cells touch its boundary.  Built as a Dataset so a
    10^6-polygon layer indexes in parallel and the result can be persisted
    / hash-partitioned by cell_key.
    """
    import ray.data as rd

    from .geom.kernels import coverage_pairs, snap_windows

    ox, oy = origin
    res = float(resolution)
    # per worker: each polygon's rings, the cells of its snapped bbox, its id
    layer = Broadcast(
        polygons,
        lambda ps: (
            [p["rings"] for p in ps],
            snap_windows([p["bbox"] for p in ps], ox, oy, res, res),
            np.array([p["poly_id"] for p in ps], dtype=np.int64),
        ),
    )

    def emit(batch: pa.Table) -> pa.Table:
        rings, windows, pids = layer.get()
        ids = np.asarray(batch["id"], dtype=np.int64)
        ix0, iy0, nx, ny = (v[ids] for v in windows)
        k, ixs, iys, cov = coverage_pairs(
            [rings[i] for i in ids.tolist()], ox + ix0 * res, oy + iy0 * res, res, res, nx, ny
        )
        # ANY positive coverage emits a candidate cell (a sliver cell
        # still contains joinable points), and only numerically
        # complete coverage skips the verify — both required for exact
        # parity with the broadcast join (review repros)
        return pa.table(
            {
                "cell_key": pa.array((iys + iy0[k]) * 2**32 + (ixs + ix0[k])),
                "poly_id": pa.array(pids[ids[k]]),
                "full": pa.array(cov >= res * res * (1.0 - 1e-12)),
            }
        )

    specs = rd.range(len(polygons), override_num_blocks=max(
        1, min(len(polygons), _resolve_buckets(None))))
    return specs.map_batches(emit, batch_format="pyarrow")


def join_points_via_cell_index(
    points_ds,
    polygons: list[dict],
    *,
    resolution: float,
    origin: tuple[float, float] = (0.0, 0.0),
    num_partitions: int | None = None,
    x_col: str = "x",
    y_col: str = "y",
):
    """Partitioned-hash-join spatial join (both sides large).

    points are cell-encoded; the polygon layer becomes a (cell_key,
    poly_id, full) Dataset; a hash `Dataset.join` on cell_key produces
    candidates; cells fully inside a polygon are accepted without
    geometry, boundary cells get an exact point-in-polygon verify (rings
    fetched from the broadcast layer — for layers too big to broadcast,
    partition the verify stage by poly_id range instead).

    Returns (point columns..., poly_id) — semantically identical to
    ``join_points_to_polygons(how='inner')`` modulo row order.
    """
    from .cluster import default_num_partitions
    from .tiler import with_cell_columns

    if num_partitions is None:
        num_partitions = default_num_partitions()
    idx = polygon_cells_index(polygons, resolution=resolution, origin=origin)
    pts = with_cell_columns(
        points_ds,
        resolution=resolution,
        tile_size_cell=128,
        x_origin=origin[0],
        y_origin=origin[1],
        x_col=x_col,
        y_col=y_col,
    ).drop_columns(["ix", "iy", "xt", "yt", "local_x", "local_y"])
    cand = pts.join(
        idx, "inner", num_partitions=num_partitions, on=("cell_key",)
    )
    layer = Broadcast(polygons, PolygonIndex)

    def verify(batch: pa.Table) -> pa.Table:
        index = layer.get()
        keep = np.asarray(batch["full"]).copy()
        edge = np.nonzero(~keep)[0]
        px = np.asarray(batch[x_col], dtype=np.float64)[edge]
        py = np.asarray(batch[y_col], dtype=np.float64)[edge]
        pid = np.asarray(batch["poly_id"], dtype=np.int64)[edge]
        keep[edge] = index.contains(px, py, index.position(pid))
        return batch.filter(pa.array(keep)).drop_columns(["full", "cell_key"])

    return cand.map_batches(verify, batch_format="pyarrow")


class KnnJoinKernel:
    """k-nearest-neighbor lookup against a broadcast reference point set,
    accelerated by the cell index: candidates come from expanding cell
    rings, exact distances resolve the final top-k.

    Exactness: rings are expanded until the k-th best candidate distance
    is <= r * resolution — any point in an unexplored ring (Chebyshev
    distance > r) lies at Euclidean distance >= r * resolution, so no
    closer neighbor can remain outside."""

    def __init__(self, ref_points, resolution: float, k: int):
        # ref_points: dict with 'id', 'x', 'y' numpy arrays
        self.rx = np.asarray(ref_points["x"], dtype=np.float64)
        self.ry = np.asarray(ref_points["y"], dtype=np.float64)
        self.rid = np.asarray(ref_points["id"], dtype=np.int64)
        self.res = float(resolution)
        self.k = int(k)
        # adapt the internal cell size to observed density: skewed corpora
        # (dense urban clusters) at the caller's resolution can put 1000s
        # of points in one cell, exploding candidate sets — halve the cell
        # until the p95 occupied-cell occupancy is O(k).  Results are
        # exact at ANY index resolution (the ring bound scales with it);
        # this is purely a candidate-set-size control.
        for _ in range(8):
            cix = np.floor(self.rx / self.res).astype(np.int64)
            ciy = np.floor(self.ry / self.res).astype(np.int64)
            key = ciy * (2**32) + cix
            _, counts = np.unique(key, return_counts=True)
            if len(counts) == 0:
                break
            # occupancy experienced by a random point (sum c^2 / n): a few
            # very hot cells dominate this even when cell-quantiles look
            # tame — exactly the skew signature
            point_weighted = float((counts.astype(np.float64) ** 2).sum()) / len(
                self.rx
            )
            if point_weighted <= max(8 * self.k, 32):
                break
            self.res /= 2.0
        else:
            # loop exhausted after a final halving: REBUILD keys at the
            # final resolution, else the index and query grids disagree
            cix = np.floor(self.rx / self.res).astype(np.int64)
            ciy = np.floor(self.ry / self.res).astype(np.int64)
            key = ciy * (2**32) + cix
        order = np.argsort(key, kind="stable")
        self.sorted_key = key[order]
        self.order = order
        # occupied-cell extents: ring expansion past the farthest index
        # cell provably finds nothing, so the stop bound is per-query
        # Chebyshev distance to these extents — exactness is preserved and
        # padding happens only when k > #refs
        if len(self.rx):
            self.cix_rng = (int(cix.min()), int(cix.max()))
            self.ciy_rng = (int(ciy.min()), int(ciy.max()))
        else:
            self.cix_rng = (0, 0)
            self.ciy_rng = (0, 0)

    def _cell_members(self, key: int) -> np.ndarray:
        lo = np.searchsorted(self.sorted_key, key, side="left")
        hi = np.searchsorted(self.sorted_key, key, side="right")
        return self.order[lo:hi]

    def _bulk_pass(self, px, py, r_bulk: int = 2):
        """Vectorized candidate gather over the (2r+1)^2 neighborhood for
        ALL points at once: per offset, one searchsorted pair over the
        sorted cell keys; ragged member ranges expanded with repeat/cumsum;
        per-point top-k via one lexsort over (point, distance, id) runs.

        Returns (ids, dists) arrays of shape (n, k) and a boolean
        ``resolved`` mask — a point resolves when it has >= k candidates
        and its k-th distance is within the explored radius r_bulk * res
        (the exactness bound); the rest fall back to the ring loop."""
        n = len(px)
        k = self.k
        cix = np.floor(px / self.res).astype(np.int64)
        ciy = np.floor(py / self.res).astype(np.int64)
        pt_parts: list[np.ndarray] = []
        mem_parts: list[np.ndarray] = []
        for dy in range(-r_bulk, r_bulk + 1):
            for dx in range(-r_bulk, r_bulk + 1):
                key = (ciy + dy) * (2**32) + (cix + dx)
                lo = np.searchsorted(self.sorted_key, key, side="left")
                hi = np.searchsorted(self.sorted_key, key, side="right")
                if not (hi - lo).any():
                    continue
                pt, at = ragged(lo, hi - lo)
                mem_parts.append(self.order[at])
                pt_parts.append(pt)
        if not pt_parts:
            return (
                np.full((n, k), -1, np.int64),
                np.full((n, k), np.nan),
                np.zeros(n, bool),
            )
        pt = np.concatenate(pt_parts)
        mem = np.concatenate(mem_parts)
        d2 = (self.rx[mem] - px[pt]) ** 2 + (self.ry[mem] - py[pt]) ** 2
        rid = self.rid[mem]
        order = np.lexsort((rid, d2, pt))
        pt_s, d2_s, rid_s = pt[order], d2[order], rid[order]
        # run boundaries per point
        run_start = np.zeros(len(pt_s), dtype=bool)
        run_start[0] = True
        run_start[1:] = pt_s[1:] != pt_s[:-1]
        start_idx = np.nonzero(run_start)[0]
        run_pt = pt_s[start_idx]
        run_len = np.diff(np.append(start_idx, len(pt_s)))
        pos_in_run = np.arange(len(pt_s)) - np.repeat(start_idx, run_len)
        counts = np.zeros(n, dtype=np.int64)
        counts[run_pt] = run_len
        top = pos_in_run < k
        ids_out = np.full((n, k), -1, np.int64)
        d_out = np.full((n, k), np.nan)
        ids_out[pt_s[top], pos_in_run[top]] = rid_s[top]
        d_out[pt_s[top], pos_in_run[top]] = d2_s[top]
        resolved = counts >= k
        if resolved.any():
            kth = d_out[:, k - 1]
            resolved &= kth <= (r_bulk * self.res) ** 2
        return ids_out, d_out, resolved

    def __call__(self, batch: pa.Table) -> pa.Table:
        px = np.asarray(batch["x"], dtype=np.float64)
        py = np.asarray(batch["y"], dtype=np.float64)
        n = len(px)
        out_src = np.repeat(np.arange(n), self.k)
        out_id = np.empty(n * self.k, dtype=np.int64)
        out_d = np.empty(n * self.k, dtype=np.float64)
        out_rank = np.tile(np.arange(1, self.k + 1), n)
        bulk_ids, bulk_d2, resolved = self._bulk_pass(px, py)
        id_m = out_id.reshape(n, self.k)
        d_m = out_d.reshape(n, self.k)
        id_m[resolved] = bulk_ids[resolved]
        d_m[resolved] = np.sqrt(bulk_d2[resolved])
        for i in np.nonzero(~resolved)[0].tolist():
            # walk rings around the query cell CLAMPED into the occupied
            # extent — a far-away query must not ring-walk the empty space
            # between itself and the data (previously O(distance^2) cells)
            cix = min(
                max(int(np.floor(px[i] / self.res)), self.cix_rng[0]),
                self.cix_rng[1],
            )
            ciy = min(
                max(int(np.floor(py[i] / self.res)), self.ciy_rng[0]),
                self.ciy_rng[1],
            )
            # Chebyshev distance from the query POINT to the clamped cell's
            # region (0 when the query lies inside it): the exactness bound
            # becomes kth <= max(0, r*res - dq)
            dqx = max(0.0, cix * self.res - px[i], px[i] - (cix + 1) * self.res)
            dqy = max(0.0, ciy * self.res - py[i], py[i] - (ciy + 1) * self.res)
            dq = max(dqx, dqy)
            # beyond this ring there are no occupied cells at all
            r_stop = max(
                abs(cix - self.cix_rng[0]),
                abs(cix - self.cix_rng[1]),
                abs(ciy - self.ciy_rng[0]),
                abs(ciy - self.ciy_rng[1]),
            )
            cand: list[np.ndarray] = []
            count = 0
            r = 0
            while True:
                if r == 0:
                    cells = [(cix, ciy)]
                else:
                    cells = [
                        (cix + dx, ciy + dy)
                        for dx in range(-r, r + 1)
                        for dy in range(-r, r + 1)
                        if max(abs(dx), abs(dy)) == r
                    ]
                for cx, cy in cells:
                    m = self._cell_members(cy * (2**32) + cx)
                    if len(m):
                        cand.append(m)
                        count += len(m)
                if count >= self.k:
                    ids_t = np.concatenate(cand)
                    d2_t = (self.rx[ids_t] - px[i]) ** 2 + (
                        self.ry[ids_t] - py[i]
                    ) ** 2
                    kth = np.partition(d2_t, self.k - 1)[self.k - 1]
                    # unexplored rings lie at distance >= r*res - dq from
                    # the query point
                    if kth <= max(0.0, r * self.res - dq) ** 2:
                        break
                if r >= r_stop:
                    break  # every occupied cell explored
                r += 1
            ids = (
                np.concatenate(cand) if cand else np.empty(0, dtype=np.int64)
            )
            d2 = (self.rx[ids] - px[i]) ** 2 + (self.ry[ids] - py[i]) ** 2
            # deterministic tie-break: (distance, neighbor id)
            top = np.lexsort((self.rid[ids], d2))[: self.k]
            kk = len(top)
            sl = slice(i * self.k, i * self.k + kk)
            out_id[sl] = self.rid[ids[top]]
            out_d[sl] = np.sqrt(d2[top])
            if kk < self.k:  # pad (fewer refs than k)
                out_id[i * self.k + kk : (i + 1) * self.k] = -1
                out_d[i * self.k + kk : (i + 1) * self.k] = np.nan
        src = batch.take(pa.array(out_src))
        src = src.append_column("neighbor_id", pa.array(out_id))
        src = src.append_column("rank", pa.array(out_rank.astype(np.int64)))
        src = src.append_column("distance", pa.array(out_d))
        return src


def knn_join(
    ds,
    ref_points: dict,
    *,
    resolution: float,
    k: int,
    batch_size: int | None = None,
):
    """For each point row, the k nearest reference points (cell-ring
    expansion, exact stopping bound); each worker builds the index once."""
    index = Broadcast(ref_points, lambda p: KnnJoinKernel(p, resolution, k))

    def apply(batch: pa.Table) -> pa.Table:
        return index.get()(batch)

    return ds.map_batches(apply, batch_format="pyarrow", batch_size=batch_size)


class _NearestPolyKernel:
    """Per-worker broadcast kernel for nearest-polygon assignment: exact
    euclidean distance to a rectilinear layer via its disjoint rect
    decomposition (distance to a union = min over parts; interior points
    get 0).  Rects iterate in ascending poly_id order with strict-less
    updates, so equal distances resolve to the smallest poly_id — the
    same total order as the SQL twin's (d2, poly_id) rank."""

    def __init__(self, layer, x_col: str, y_col: str):
        rows = []
        for p in sorted(layer, key=lambda p: p["poly_id"]):
            for r in p["rects"]:
                rows.append((p["poly_id"], *map(float, r)))
        arr = np.asarray(rows, dtype=np.float64)
        self.pid = arr[:, 0].astype(np.int64)
        self.rx0, self.ry0, self.rx1, self.ry1 = arr[:, 1], arr[:, 2], arr[:, 3], arr[:, 4]
        self.x_col, self.y_col = x_col, y_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        x = np.asarray(batch[self.x_col], dtype=np.float64)
        y = np.asarray(batch[self.y_col], dtype=np.float64)
        best_d2 = np.full(n, np.inf)
        best_pid = np.full(n, -1, dtype=np.int64)
        # loop over the SMALL broadcast side; vectorized over rows.
        # scale note: for huge layers, prune first with the cell index
        # (polygon_cells_index) and run this kernel per candidate set.
        for i in range(len(self.pid)):
            dx = np.maximum(np.maximum(self.rx0[i] - x, 0.0), x - self.rx1[i])
            dy = np.maximum(np.maximum(self.ry0[i] - y, 0.0), y - self.ry1[i])
            d2 = dx * dx + dy * dy
            upd = d2 < best_d2
            best_d2[upd] = d2[upd]
            best_pid[upd] = self.pid[i]
        return batch.append_column(
            "nearest_poly_id", pa.array(best_pid)
        ).append_column("dist", pa.array(np.sqrt(best_d2)))


def nearest_polygon_join(
    points_ds,
    polygons: list[dict],
    *,
    x_col: str = "x",
    y_col: str = "y",
):
    """Attach each point's nearest polygon id + euclidean distance
    (0 inside).  Broadcast-layer stage like the PIP join; the layer's
    rect decomposition makes the distance exact for rectilinear regions
    (the fixture/reference geometry family)."""
    layer = Broadcast(polygons, lambda l: _NearestPolyKernel(l, x_col, y_col))

    def apply(batch: pa.Table) -> pa.Table:
        return layer.get()(batch)

    return points_ds.map_batches(apply, batch_format="pyarrow")


def sql_nearest_polygon(points_cte: str) -> str:
    """DuckDB twin: identical max/multiply/min laws over the same rects;
    rank (d2, poly_id) matches the kernel's strict-less first-poly rule."""
    from .synth import sql_polygon_rects_cte

    dx = "GREATEST(r.rxmin - p.x, 0, p.x - r.rxmax)"
    dy = "GREATEST(r.rymin - p.y, 0, p.y - r.rymax)"
    return f"""
WITH points AS ({points_cte}),
poly_rects AS ({sql_polygon_rects_cte()}),
d AS (
  SELECT p.doc_id, p.x, p.y, r.poly_id,
         MIN(({dx}) * ({dx}) + ({dy}) * ({dy})) AS d2
  FROM points p, poly_rects r
  GROUP BY p.doc_id, p.x, p.y, r.poly_id
)
SELECT doc_id, poly_id AS nearest_poly_id,
       ROUND(SQRT(d2) * 1e6) / 1e6 AS dist
FROM (SELECT *, ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY d2, poly_id) AS rn
      FROM d)
WHERE rn = 1
"""


def join_points_via_hex_cover(
    ds,
    polygons: list[dict],
    *,
    hex_size: float,
    q_range: tuple[int, int],
    r_range: tuple[int, int],
    x_col: str = "x",
    y_col: str = "y",
):
    """Point-in-polygon join THROUGH a hex-cover index: the polygon side
    is rasterized ONCE into a conservative (hkey -> poly candidates)
    cover (hexes whose center lies within a rect expanded by the
    circumradius — a superset of every intersecting hex, since a hex is
    contained in its center disk), points probe the sorted cover with
    two searchsorted calls, and only cover candidates pay the exact
    ring-containment test of the layer's :class:`PolygonIndex`.  The
    ``rects`` only build the cover: they must cover each polygon.

    This is the 100 TB alternative to broadcasting the full polygon
    kernel: the cover is O(polygon area / hex area) keys; a point in an
    empty hex costs TWO binary searches and no geometry at all.  Output:
    one row per (point, containing polygon), like
    ``join_points_to_polygons(how='inner')``.
    """
    from .hex import _pack, hex_axial, hex_center

    qs = np.arange(q_range[0], q_range[1] + 1, dtype=np.int64)
    rs = np.arange(r_range[0], r_range[1] + 1, dtype=np.int64)
    gq, gr = np.meshgrid(qs, rs, indexing="ij")
    gq, gr = gq.ravel(), gr.ravel()
    cx, cy = hex_center(gq, gr, hex_size)
    gkey = _pack(gq, gr)

    cover_k, cover_p = [], []
    for poly in polygons:
        inside = np.zeros(len(gkey), dtype=bool)
        for x0, y0, x1, y1 in poly["rects"]:
            inside |= (
                (cx >= x0 - hex_size)
                & (cx < x1 + hex_size)
                & (cy >= y0 - hex_size)
                & (cy < y1 + hex_size)
            )
        cover_k.append(gkey[inside])
        cover_p.append(np.full(int(inside.sum()), poly["poly_id"], np.int64))
    ck = np.concatenate(cover_k)
    cp = np.concatenate(cover_p)
    order = np.lexsort((cp, ck))
    cover = Broadcast(
        (ck[order], cp[order], polygons),
        lambda v: (v[0], v[1], PolygonIndex(v[2])),
    )

    def probe(b: pa.Table) -> pa.Table:
        ck_, cp_, index = cover.get()
        x = np.asarray(b[x_col], np.float64)
        y = np.asarray(b[y_col], np.float64)
        k = _pack(*hex_axial(x, y, hex_size))
        lo = np.searchsorted(ck_, k, side="left")
        rows, at = ragged(lo, np.searchsorted(ck_, k, side="right") - lo)
        cand_poly = cp_[at]
        keep = index.contains(x[rows], y[rows], index.position(cand_poly))
        sub = b.take(pa.array(rows[keep], pa.int64()))
        return sub.append_column("poly_id", pa.array(cand_poly[keep], pa.int64()))

    return ds.map_batches(probe, batch_format="pyarrow")


def ripley_k(
    ds,
    *,
    radii: list[float],
    area: float,
    x_col: str = "x",
    y_col: str = "y",
    id_col: str = "doc_id",
    num_buckets: int | None = None,
):
    """Ripley's K point-pattern statistic at the given radii:
    ``K(r) = area * #{(i, j) : i != j, d_ij <= r} / n^2`` (no edge
    correction — the documented plain estimator; K values rounded 6dp).
    K above ``pi r^2`` means clustering at that scale, below means
    dispersion — the classic exploratory point-process diagnostic.

    Scale shape: points land in square cells of size max(radii); every
    point replicates to its 3x3 GHOST neighborhood (bounded 9x
    duplication, the standard distributed spatial-join trick), cells
    shuffle ONCE by coarse cell-hash bucket, and the per-bucket kernel
    counts owner x candidate pairs per cell with one vectorized distance
    matrix per cell (cell populations are lattice-bounded).  Ordered
    pairs are counted from the owner's side only, so no global dedup is
    needed; the driver reduces one count per radius.
    """
    import ray.data as rd
    from ray.data.aggregate import Sum

    rmax = float(max(radii))
    r2s = [float(r) * float(r) for r in radii]

    def scatter(b: pa.Table) -> pa.Table:
        x = np.asarray(b[x_col], np.float64)
        y = np.asarray(b[y_col], np.float64)
        pid = np.asarray(b[id_col], np.int64)
        cx = np.floor(x / rmax).astype(np.int64)
        cy = np.floor(y / rmax).astype(np.int64)
        parts_key, parts_x, parts_y, parts_id, parts_own = [], [], [], [], []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                key = ((cx + dx) << 32) | ((cy + dy) & np.int64(4294967295))
                parts_key.append(key)
                parts_x.append(x)
                parts_y.append(y)
                parts_id.append(pid)
                parts_own.append(
                    np.full(len(x), 1 if (dx == 0 and dy == 0) else 0, np.int8)
                )
        key = np.concatenate(parts_key)
        return pa.table(
            {
                "ckey": pa.array(key),
                "px": pa.array(np.concatenate(parts_x)),
                "py": pa.array(np.concatenate(parts_y)),
                "pid": pa.array(np.concatenate(parts_id)),
                "own": pa.array(np.concatenate(parts_own)),
            }
        )

    def kernel(t: pa.Table, starts: np.ndarray) -> dict:
        px = np.asarray(t["px"], np.float64)
        py = np.asarray(t["py"], np.float64)
        pid = np.asarray(t["pid"], np.int64)
        own = np.asarray(t["own"], np.int8)
        ends = np.append(starts[1:], len(px))
        counts = np.zeros(len(r2s), np.int64)
        for s, e in zip(starts, ends):
            ox = px[s:e][own[s:e] > 0]
            oy = py[s:e][own[s:e] > 0]
            oid = pid[s:e][own[s:e] > 0]
            if not len(ox):
                continue
            dx = ox[:, None] - px[s:e][None, :]
            dy = oy[:, None] - py[s:e][None, :]
            d2 = dx * dx + dy * dy
            neq = oid[:, None] != pid[s:e][None, :]
            for k, r2 in enumerate(r2s):
                counts[k] += int(((d2 <= r2) & neq).sum())
        return {"ri": np.arange(len(r2s)), "cnt": counts}

    agg = (
        segment_apply(
            ds.map_batches(scatter, batch_format="pyarrow"),
            "ckey",
            kernel,
            pa.schema({"ri": pa.int64(), "cnt": pa.int64()}),
            num_buckets=num_buckets,
        )
        .groupby("ri")
        .aggregate(Sum("cnt", alias_name="cnt"))
    )
    tot = agg.to_pandas().sort_values("ri")
    n = ds.count()
    k_vals = area * tot["cnt"].to_numpy(np.float64) / (float(n) * float(n))
    k_vals = np.sign(k_vals) * np.floor(np.abs(k_vals) * 1e6 + 0.5) / 1e6

    return rd.from_arrow(
        pa.table(
            {
                "r": pa.array(np.asarray(radii, np.float64)),
                "n_pairs": pa.array(tot["cnt"].to_numpy(np.int64)),
                "k": pa.array(k_vals),
            }
        )
    )


SECTOR_C = 2.414213562373095  # 1/tan(22.5 deg): trig-free sector edges


def variogram(
    ds,
    *,
    bins: list[tuple[float, float]],
    x_col: str = "x",
    y_col: str = "y",
    val_col: str = "val",
    id_col: str = "doc_id",
    num_buckets: int | None = None,
    directional: bool = False,
):
    """Empirical semivariogram: ``gamma(bin) = sum (z_i - z_j)^2 /
    (2 * N)`` over point pairs whose distance falls in the half-open
    bin ``[lo, hi)`` — the kriging precursor / spatial-continuity
    diagnostic, rounded 6dp.  Pairs are counted ORDERED on both sides
    (each unordered pair twice), which leaves gamma unchanged.

    Scale shape: identical to :func:`ripley_k` — 3x3 ghost-cell
    replication at cell size max(hi), one coarse bucket shuffle,
    per-cell vectorized distance/difference matrices, per-bin scalar
    partials.  max(hi) bounds the support, so no pair is missed.

    ``directional=True`` additionally splits every bin into FOUR
    axis-symmetric sectors (E-W, NE-SW, N-S, NW-SE; 45-degree wedges with
    trig-free |dx|/|dy| comparison edges at +-22.5 degrees, so the twin
    is bit-identical) — the anisotropy diagnostic.
    """
    import ray.data as rd
    from ray.data.aggregate import Sum

    rmax = float(max(hi for _, hi in bins))
    b2 = [(float(lo) * float(lo), float(hi) * float(hi)) for lo, hi in bins]

    def scatter(b: pa.Table) -> pa.Table:
        x = np.asarray(b[x_col], np.float64)
        y = np.asarray(b[y_col], np.float64)
        v = np.asarray(b[val_col], np.float64)
        pid = np.asarray(b[id_col], np.int64)
        cx = np.floor(x / rmax).astype(np.int64)
        cy = np.floor(y / rmax).astype(np.int64)
        ks, xs, ys, vs, ids, owns = [], [], [], [], [], []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                key = ((cx + dx) << 32) | ((cy + dy) & np.int64(4294967295))
                ks.append(key)
                xs.append(x)
                ys.append(y)
                vs.append(v)
                ids.append(pid)
                owns.append(
                    np.full(len(x), 1 if (dx == 0 and dy == 0) else 0, np.int8)
                )
        key = np.concatenate(ks)
        return pa.table(
            {
                "ckey": pa.array(key),
                "px": pa.array(np.concatenate(xs)),
                "py": pa.array(np.concatenate(ys)),
                "pv": pa.array(np.concatenate(vs)),
                "pid": pa.array(np.concatenate(ids)),
                "own": pa.array(np.concatenate(owns)),
            }
        )

    def kernel(t: pa.Table, starts: np.ndarray) -> dict:
        px = np.asarray(t["px"], np.float64)
        py = np.asarray(t["py"], np.float64)
        pv = np.asarray(t["pv"], np.float64)
        pid = np.asarray(t["pid"], np.int64)
        own = np.asarray(t["own"], np.int8)
        ends = np.append(starts[1:], len(px))
        n_sec = 4 if directional else 1
        cnt = np.zeros(len(b2) * n_sec, np.int64)
        ssq = np.zeros(len(b2) * n_sec, np.float64)
        for s, e in zip(starts, ends):
            om = own[s:e] > 0
            if not om.any():
                continue
            ox, oy, ov, oid = px[s:e][om], py[s:e][om], pv[s:e][om], pid[s:e][om]
            dx = ox[:, None] - px[s:e][None, :]
            dy = oy[:, None] - py[s:e][None, :]
            d2 = dx * dx + dy * dy
            dz = ov[:, None] - pv[s:e][None, :]
            dz2 = dz * dz
            neq = oid[:, None] != pid[s:e][None, :]
            if directional:
                adx, ady = np.abs(dx), np.abs(dy)
                sec = np.where(
                    adx >= SECTOR_C * ady,
                    0,
                    np.where(
                        ady >= SECTOR_C * adx,
                        2,
                        np.where(dx * dy >= 0.0, 1, 3),
                    ),
                )
            for k, (lo2, hi2) in enumerate(b2):
                m = (d2 >= lo2) & (d2 < hi2) & neq
                if directional:
                    for si in range(4):
                        ms = m & (sec == si)
                        cnt[k * 4 + si] += int(ms.sum())
                        ssq[k * 4 + si] += float(dz2[ms].sum())
                else:
                    cnt[k] += int(m.sum())
                    ssq[k] += float(dz2[m].sum())
        return {"bi": np.arange(len(cnt)), "cnt": cnt, "ssq": ssq}

    agg = (
        segment_apply(
            ds.map_batches(scatter, batch_format="pyarrow"),
            "ckey",
            kernel,
            pa.schema({"bi": pa.int64(), "cnt": pa.int64(), "ssq": pa.float64()}),
            num_buckets=num_buckets,
        )
        .groupby("bi")
        .aggregate(Sum("cnt", alias_name="cnt"), Sum("ssq", alias_name="ssq"))
        .to_pandas()
        .sort_values("bi")
    )
    n_sec = 4 if directional else 1
    cnt = np.zeros(len(b2) * n_sec, np.int64)
    ssq = np.zeros(len(b2) * n_sec)
    cnt[agg["bi"].to_numpy(np.int64)] = agg["cnt"].to_numpy(np.int64)
    ssq[agg["bi"].to_numpy(np.int64)] = agg["ssq"].to_numpy(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = ssq / (2.0 * cnt.astype(np.float64))
    gamma = np.where(cnt == 0, 0.0, gamma)
    gamma = np.sign(gamma) * np.floor(np.abs(gamma) * 1e6 + 0.5) / 1e6
    lo_col = [float(lo) for lo, _ in bins for _s in range(n_sec)]
    hi_col = [float(hi) for _, hi in bins for _s in range(n_sec)]
    cols = {
        "bin_lo": pa.array(lo_col),
        "bin_hi": pa.array(hi_col),
    }
    if directional:
        cols["sector"] = pa.array(
            np.tile(np.arange(4, dtype=np.int64), len(b2))
        )
    cols["n_pairs"] = pa.array(cnt)
    cols["gamma"] = pa.array(gamma)
    return rd.from_arrow(pa.table(cols))


def hull_boundary_chain(
    x: np.ndarray, y: np.ndarray, eps: float = 0.0
) -> np.ndarray:
    """Indices of all points on (or within ``eps`` cross-product slack of)
    the convex-hull BOUNDARY — vertices and collinear edge points — via an
    inclusive monotone chain that pops only on a turn more than ``eps``
    right.  With eps > max float-evaluation noise of the cross products it
    is a CONSERVATIVE filter: every point the exact supporting-line law
    would keep survives, plus possibly a few near-boundary extras, so it
    serves as the distributed combiner in front of an exact final pass
    (see ``hull_boundary_support``)."""
    n = len(x)
    if n <= 2:
        return np.arange(n)
    order = np.lexsort((y, x))

    def half(idx):
        out: list[int] = []
        for i in idx:
            while len(out) >= 2:
                ax_, ay_ = x[out[-2]], y[out[-2]]
                bx_, by_ = x[out[-1]], y[out[-1]]
                if (bx_ - ax_) * (y[i] - ay_) - (by_ - ay_) * (x[i] - ax_) < -eps:
                    out.pop()
                else:
                    break
            out.append(i)
        return out

    lower = half(order)
    upper = half(order[::-1])
    return np.unique(np.array(lower + upper, dtype=np.int64))


def hull_boundary_support(
    x: np.ndarray, y: np.ndarray, cand: np.ndarray
) -> np.ndarray:
    """Exact hull-boundary decision for candidate indices ``cand`` against
    the full point set: p is on the boundary iff some ray p->b (b any
    other point) has EVERY point left-or-on, with the cross product
    written exactly as the SQL twin writes it — both sides evaluate the
    same doubles, so the decision is bit-deterministic even for exactly
    collinear lattice points (the synthetic LCG law is a rational lattice
    and does produce them)."""
    keep = []
    for p in cand:
        px, py = x[p], y[p]
        cr = (x[:, None] - px) * (y[None, :] - py) - (y[:, None] - py) * (
            x[None, :] - px
        )
        ok = (cr >= 0.0).all(axis=1)
        ok[p] = False
        if ok.any():
            keep.append(p)
    return np.asarray(keep, dtype=np.int64)

_JC_OFF = np.int64(1 << 19)  # cell-index offset: indexes in (-2^19, 2^19)


def grid_join_counts(
    ds,
    *,
    cell: float,
    threshold: int,
    x_col: str = "x",
    y_col: str = "y",
    driver_gate: int = 2_000_000,
):
    """Join-count statistics (the ESDA BB/BW/WW spatial-association
    classic, Cliff & Ord): square cells of size ``cell``, a cell is
    BLACK when it holds >= ``threshold`` points, and every rook-adjacent
    pair of OCCUPIED cells is classified BB / BW / WW.  Returns one row
    ``(n_cells, n_joins, bb, bw, ww)`` — BB far above (BW far below)
    the CSR expectation means clustered marks.

    Scale shape: raw points reduce to packed-cell count partials and
    one coarse-bucket sum (lattice-bounded domain — the ripley_k
    contract); rook adjacency is PURE KEY ARITHMETIC on the packed
    (ix, iy) key (+2^20 for ix+1, +1 for iy+1), so the pair scan is
    two partitioned `cluster.safe_join`s of the bounded cell table
    against itself — no point ever meets a pair."""
    import ray.data as rd

    from .cluster import compact_blocks, default_num_partitions, safe_join
    from .cluster import segment_sum

    w = default_num_partitions()
    I = pa.int64()

    def cell_partial(b: pa.Table) -> pa.Table:
        x = np.asarray(b[x_col], np.float64)
        y = np.asarray(b[y_col], np.float64)
        ix = np.floor(x / cell).astype(np.int64) + _JC_OFF
        iy = np.floor(y / cell).astype(np.int64) + _JC_OFF
        if len(ix) and (
            ix.min() < 0 or ix.max() >= (1 << 20)
            or iy.min() < 0 or iy.max() >= (1 << 20)
        ):
            raise ValueError("cell indexes out of the 20-bit pack range")
        k = (ix << np.int64(20)) | iy
        ku, cnt = np.unique(k, return_counts=True)
        return pa.table(
            {"k": pa.array(ku), "val": pa.array(cnt.astype(np.int64))}
        )

    marked = segment_sum(
        ds.map_batches(cell_partial, batch_format="pyarrow"), ["k"]
    ).map_batches(
        lambda b: pa.table(
            {
                "k": pc.cast(b["k"], I),
                "black": pa.array(
                    (
                        np.asarray(b["val"], np.float64)
                        >= threshold
                    ).astype(np.int64)
                ),
            }
        ),
        batch_format="pyarrow",
    ).materialize()
    n_cells = int(marked.count())
    if n_cells <= driver_gate:
        # lattice-bounded cell table: sorted-array adjacency on the
        # driver beats two partitioned joins by their fixed cost
        tabs = [
            t
            for t in marked.iter_batches(
                batch_size=None, batch_format="pyarrow"
            )
            if t.num_rows
        ]
        if tabs:
            tbl = pa.concat_tables(tabs)
            kk = np.asarray(tbl["k"], np.int64)
            blk = np.asarray(tbl["black"], np.int64)
            o = np.argsort(kk, kind="stable")
            kk, blk = kk[o], blk[o]
        else:
            kk = np.empty(0, np.int64)
            blk = np.empty(0, np.int64)
        nj = bb = bw = 0
        iy_max = np.int64((1 << 20) - 1)
        for shift in (np.int64(1) << np.int64(20), np.int64(1)):
            if shift == 1:
                # a cell whose iy FIELD is at its max has no iy+1
                # neighbor: k+1 would carry into the ix field and match
                # (ix+1, iy=0) as a false rook pair (the SQL twin joins
                # real (ix, iy) and never wraps)
                src = (kk & iy_max) != iy_max
            else:
                # ix at field max packs past 2^40 — no real key up
                # there, searchsorted can't false-match
                src = np.ones(len(kk), bool)
            ks, bs = kk[src], blk[src]
            tgt = ks + shift
            pos = np.searchsorted(kk, tgt)
            pos = np.minimum(pos, max(len(kk) - 1, 0))
            hit = (len(kk) > 0) & (kk[pos] == tgt) if len(kk) else (
                np.zeros(0, bool)
            )
            nj += int(np.count_nonzero(hit))
            bb += int((bs[hit] & blk[pos[hit]]).sum())
            bw += int((bs[hit] ^ blk[pos[hit]]).sum())
        return rd.from_arrow(
            pa.table(
                {
                    "n_cells": pa.array([n_cells], I),
                    "n_joins": pa.array([nj], I),
                    "bb": pa.array([bb], I),
                    "bw": pa.array([bw], I),
                    "ww": pa.array([nj - bb - bw], I),
                }
            )
        )
    cells = compact_blocks(marked, pa.schema([("k", I), ("black", I)]))
    parts = []
    for shift in (np.int64(1) << np.int64(20), np.int64(1)):

        def _nbr(b: pa.Table, _s=shift) -> pa.Table:
            k = np.asarray(b["k"], np.int64)
            blq = np.asarray(b["black"], np.int64)
            if _s == 1:
                # iy field 0 cannot be anyone's iy+1 neighbor: k-1
                # would borrow from the ix field and claim (ix-1,
                # iy at max) as a false rook pair — same wrap the
                # driver branch masks
                keep = (k & np.int64((1 << 20) - 1)) != 0
                k, blq = k[keep], blq[keep]
            return pa.table(
                {"kn": pa.array(k - _s), "black_b": pa.array(blq)}
            )

        nbr = cells.map_batches(_nbr, batch_format="pyarrow")
        pairs = safe_join(
            cells, compact_blocks(
                nbr, pa.schema([("kn", I), ("black_b", I)])
            ),
            "inner", num_partitions=w,
            on=("k",), right_on=("kn",),
            left_schema=pa.schema([("k", I), ("black", I)]),
            right_schema=pa.schema([("kn", I), ("black_b", I)]),
        )
        parts.append(
            pairs.map_batches(
                lambda b: pa.table(
                    {
                        "bb": pa.array(
                            (
                                np.asarray(b["black"], np.int64)
                                & np.asarray(b["black_b"], np.int64)
                            )
                        ),
                        "bw": pa.array(
                            (
                                np.asarray(b["black"], np.int64)
                                ^ np.asarray(b["black_b"], np.int64)
                            )
                        ),
                        "one": pa.array(
                            np.ones(b.num_rows, np.int64)
                        ),
                    }
                ),
                batch_format="pyarrow",
            ).materialize()
        )
    tot = parts[0].union(parts[1]).materialize()
    n_joins = int(tot.sum("one") or 0)
    bb = int(tot.sum("bb") or 0)
    bw = int(tot.sum("bw") or 0)
    return rd.from_arrow(
        pa.table(
            {
                "n_cells": pa.array([n_cells], I),
                "n_joins": pa.array([n_joins], I),
                "bb": pa.array([bb], I),
                "bw": pa.array([bw], I),
                "ww": pa.array([n_joins - bb - bw], I),
            }
        )
    )
