"""Polygon-layer index: bins -> candidates -> slab edges -> parity.

The engine's form of the reference's per-tile rtree/STRtree candidate
queries (``poly.sindex.intersection``, reference overlay.py:258-260;
base.py:446-472), built once per worker over the broadcast layer:

- bins (:class:`BBoxIndex`): a uniform grid over the bboxes as a
  bin -> geometry CSR; ``query`` answers a probe rect, and
  :meth:`PolygonIndex.candidates` expands each point's bin into
  (point, polygon) pairs under the half-open filter ``xmin <= x < xmax,
  ymin <= y < ymax``;
- slab edges: each polygon's non-horizontal edges grouped by y-slab
  (about sqrt(#edges) slabs per polygon).  Bins and slabs share one
  monotone law (``_bin``), so every edge a point's ray can cross is in
  the point's slab;
- parity: :meth:`PolygonIndex.contains` counts crossings with one
  ``bincount``, using ``points_in_rings``' own arithmetic, so results
  are bit-identical to it (left/bottom edges inside, right/top outside);
- LUTs: ``poly_id`` -> layer position, and one Arrow LUT per attribute
  (:func:`layer_luts`, which the overlay kernel reads too).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


#: (point, polygon) pairs :meth:`PolygonIndex.contains` tests per step
CONTAINS_CHUNK = 16_384


def _bin(v, origin, width, n):
    """Monotone bin of ``v``: trunc((v - origin) / width) clipped to
    [0, n-1]; NaN lands in bin 0 (the exact filters then reject it)."""
    t = np.clip((np.asarray(v, np.float64) - origin) / width, 0, n - 1)
    return np.where(np.isnan(t), 0, t).astype(np.int64)


def ragged(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand ranges ``starts[i] .. starts[i] + counts[i]``: returns
    (owner i, flat position) per element, owners ascending."""
    counts = np.asarray(counts, np.int64)
    owner = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    pos = np.arange(len(owner)) + np.repeat(np.asarray(starts, np.int64) - first, counts)
    return owner, pos


def _csr(keys: np.ndarray, values: np.ndarray, nkeys: int):
    """(start offsets, values grouped by key); values keep their order
    within a key."""
    order = np.argsort(keys, kind="stable")
    start = np.zeros(nkeys + 1, np.int64)
    np.cumsum(np.bincount(keys, minlength=nkeys), out=start[1:])
    return start, values[order]


def layer_luts(polygons: list[dict], attr_cols: tuple[str, ...]) -> dict[str, pa.Array]:
    """Layer position -> value Arrow LUTs of ``poly_id`` and each
    attribute column, taken with the layer positions (null ones give
    null).  An attribute column is a string column when its first
    non-null value is a string, else float64; a ``None`` stays null.  An
    empty layer gets one-row LUTs, so null positions can still be taken."""
    pids = np.array([p["poly_id"] for p in polygons], dtype=np.int64)
    luts = {"poly_id": pa.array(pids if len(pids) else np.zeros(1, np.int64))}
    for c in attr_cols:
        vals = [p.get(c) for p in polygons]
        first = next((v for v in vals if v is not None), None)
        luts[c] = pa.array(vals or [None], pa.string() if isinstance(first, str) else pa.float64())
    return luts


class BBoxIndex:
    """Uniform-bin bounding-box index: bin -> geometry-id CSR."""

    def __init__(self, bboxes: np.ndarray, nbins: int = 64):
        """``bboxes``: (N, 4) array of [xmin, ymin, xmax, ymax]."""
        self.bboxes = np.asarray(bboxes, dtype=np.float64).reshape(-1, 4)
        b, n = self.bboxes, len(self.bboxes)
        self.x0 = float(b[:, 0].min()) if n else 0.0
        self.y0 = float(b[:, 1].min()) if n else 0.0
        self.nx = self.ny = max(1, min(nbins, int(np.sqrt(n)) + 1))
        self.bw = max((float(b[:, 2].max()) - self.x0) / self.nx, 1e-12) if n else 1.0
        self.bh = max((float(b[:, 3].max()) - self.y0) / self.ny, 1e-12) if n else 1.0
        bx0, by0 = self._bins(b[:, 0], b[:, 1])
        bx1, by1 = self._bins(b[:, 2], b[:, 3])
        # every (box, bin) under each box, vectorized
        wide = bx1 - bx0 + 1
        box, k = ragged(np.zeros(n, np.int64), wide * (by1 - by0 + 1))
        bins = (by0[box] + k // wide[box]) * self.nx + bx0[box] + k % wide[box]
        self.bin_start, self.bin_ids = _csr(bins, box, self.nx * self.ny)

    def _bins(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        return _bin(x, self.x0, self.bw, self.nx), _bin(y, self.y0, self.bh, self.ny)

    def query(self, xmin: float, ymin: float, xmax: float, ymax: float) -> np.ndarray:
        """Ids of geometries whose bbox overlaps the probe rect (sorted, unique)."""
        (bx0, bx1), (by0, by1) = self._bins([xmin, xmax], [ymin, ymax])
        rows = np.arange(by0, by1 + 1) * self.nx
        lo, hi = self.bin_start[rows + bx0], self.bin_start[rows + bx1 + 1]
        cand = np.unique(self.bin_ids[ragged(lo, hi - lo)[1]])
        b = self.bboxes[cand]
        hit = (b[:, 0] <= xmax) & (b[:, 2] >= xmin) & (b[:, 1] <= ymax) & (b[:, 3] >= ymin)
        return cand[hit]


class PolygonIndex(BBoxIndex):
    """The polygon layer's join index: bbox bins, slab edges and LUTs.

    ``polygons`` are layer dicts (``poly_id``, ``rings``, ``bbox`` and the
    ``attr_cols``); layer position ``i`` is ``polygons[i]``."""

    def __init__(self, polygons: list[dict], attr_cols: tuple[str, ...] = ()):
        super().__init__(np.array([p["bbox"] for p in polygons], dtype=np.float64))
        self.luts = layer_luts(polygons, attr_cols)
        pids = np.array([p["poly_id"] for p in polygons], dtype=np.int64)
        # poly_id -> position; a repeated poly_id resolves to its last polygon
        last = len(pids) - 1 - np.unique(pids[::-1], return_index=True)[1]
        self.sorted_pid, self.pid_pos = pids[last], last

        rings = [
            (i, np.asarray(r, np.float64))
            for i, p in enumerate(polygons)
            for r in p["rings"]
            if len(r) >= 3
        ]
        size = np.array([len(r) for _, r in rings], np.int64)
        owner = np.repeat(np.array([i for i, _ in rings], np.int64), size)
        v = np.concatenate([r[:, :2] for _, r in rings]) if rings else np.empty((0, 2))
        # each vertex's successor in its ring (np.roll per ring)
        nxt = np.arange(1, len(v) + 1)
        nxt[np.cumsum(size) - 1] = np.cumsum(size) - size
        x1, y1 = v[:, 0], v[:, 1]
        x2, y2 = x1[nxt], y1[nxt]
        live = y1 != y2  # a horizontal edge never crosses a horizontal ray
        owner, x1, y1, x2, y2 = owner[live], x1[live], y1[live], x2[live], y2[live]

        n = len(polygons)
        lo_y, hi_y = np.minimum(y1, y2), np.maximum(y1, y2)
        self.ry0 = np.full(n, np.inf)
        np.minimum.at(self.ry0, owner, lo_y)
        ry1 = np.full(n, -np.inf)
        np.maximum.at(ry1, owner, hi_y)
        nedge = np.bincount(owner, minlength=n)
        self.nslab = np.maximum(1, np.sqrt(nedge).astype(np.int64))
        span = ry1 - self.ry0
        self.slab_h = np.where(span > 0, span / self.nslab, 1.0)
        self.slab_base = np.cumsum(self.nslab) - self.nslab
        s0, s1 = self._slab(lo_y, owner), self._slab(hi_y, owner)
        e, k = ragged(np.zeros(len(owner), np.int64), s1 - s0 + 1)
        slab = self.slab_base[owner[e]] + s0[e] + k
        self.slab_start, edge = _csr(slab, e, int(self.nslab.sum()))
        self.ex1, self.ey1, self.ey2 = x1[edge], y1[edge], y2[edge]
        self.edx, self.edy = (x2 - x1)[edge], (y2 - y1)[edge]

    def _slab(self, y: np.ndarray, poly: np.ndarray) -> np.ndarray:
        return _bin(y, self.ry0[poly], self.slab_h[poly], self.nslab[poly])

    def position(self, poly_ids: np.ndarray) -> np.ndarray:
        """Layer positions of ``poly_ids`` (each must be in the layer)."""
        at = np.searchsorted(self.sorted_pid, np.asarray(poly_ids, np.int64))
        return self.pid_pos[at]

    def candidates(self, px: np.ndarray, py: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(point, polygon position) pairs whose bbox holds the point
        half-open; point-major, positions ascending within a point."""
        bx, by = self._bins(px, py)
        b = by * self.nx + bx
        lo = self.bin_start[b]
        pt, at = ragged(lo, self.bin_start[b + 1] - lo)
        poly = self.bin_ids[at]
        bb = self.bboxes[poly]
        x, y = px[pt], py[pt]
        keep = (x >= bb[:, 0]) & (x < bb[:, 2]) & (y >= bb[:, 1]) & (y < bb[:, 3])
        return pt[keep], poly[keep]

    def contains(self, x: np.ndarray, y: np.ndarray, poly: np.ndarray) -> np.ndarray:
        """Even-odd containment of float64 point ``k`` in polygon ``poly[k]``,
        ``CONTAINS_CHUNK`` pairs at a time so the expanded slab edges stay
        in cache on large batches."""
        out = np.empty(len(x), dtype=bool)
        for a in range(0, len(x), CONTAINS_CHUNK):
            b = a + CONTAINS_CHUNK
            out[a:b] = self._contains(x[a:b], y[a:b], poly[a:b])
        return out

    def _contains(self, x: np.ndarray, y: np.ndarray, poly: np.ndarray) -> np.ndarray:
        s = self.slab_base[poly] + self._slab(y, poly)
        lo = self.slab_start[s]
        pair, e = ragged(lo, self.slab_start[s + 1] - lo)
        yy = y[pair]
        crosses = (self.ey1[e] > yy) != (self.ey2[e] > yy)
        xint = self.ex1[e] + (yy - self.ey1[e]) * self.edx[e] / self.edy[e]
        hits = crosses & (x[pair] < xint)
        return (np.bincount(pair[hits], minlength=len(x)) & 1).astype(bool)
