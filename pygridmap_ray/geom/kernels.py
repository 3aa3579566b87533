"""Vectorized planar geometry kernels (pure numpy, no GEOS).

These replace the shapely operations the reference delegates to:

- shoelace area           <- ``geom.area``            (reference overlay.py:273,332)
- point-in-polygon        <- ``geom.within``          (reference gridding.py:181)
- clip polygon to rect    <- ``geom.intersection``    (reference overlay.py:275,296)
- rect/polygon relation   <- ``within``/``intersects`` tile tests
                                                      (reference gridding.py:150-151)

All polygons are "ring lists": a Python list of ``(N, 2)`` float64 numpy
arrays.  The first ring of a part is the exterior (CCW, positive signed
area); holes are CW (negative signed area); multi-part polygons simply
concatenate more rings.  Point containment uses the even-odd rule, so
orientation only matters for signed-area bookkeeping.

Boundary convention (documented divergence from GEOS): ``intersects``
means *area-positive* overlap (``clip area > tol``), not boundary touch.
``within`` means ``clip area == rect area`` (up to tol).  The reference's
notebook tests only ever assert on areas and attribute values, never on
touch-only relations, so this convention is conformance-safe; it is also
what the DuckDB oracle computes.
"""

from __future__ import annotations

import numpy as np

from .index import ragged

#: geometric tolerance, mirrors the reference's TOL_EPS (base.py:108)
TOL_EPS = 1e-5

Ring = np.ndarray  # (N, 2) float64, closed or open (first==last optional)
Rings = list  # list[Ring]


def as_ring(points) -> Ring:
    """Coerce to an (N,2) float64 array, dropping a duplicated closing vertex."""
    r = np.asarray(points, dtype=np.float64)
    if r.ndim != 2 or r.shape[1] != 2:
        raise ValueError(f"ring must be (N,2), got {r.shape}")
    if len(r) > 1 and r[0][0] == r[-1][0] and r[0][1] == r[-1][1]:
        r = r[:-1]
    return r


def ring_signed_area(ring: Ring) -> float:
    """Shoelace signed area of one ring (open representation)."""
    r = ring
    if len(r) < 3:
        return 0.0
    x, y = r[:, 0], r[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def rings_area(rings: Rings) -> float:
    """Net polygon area: sum of signed ring areas (holes CW subtract)."""
    return float(sum(ring_signed_area(r) for r in rings))


def rings_bbox(rings: Rings) -> tuple[float, float, float, float]:
    xs = np.concatenate([r[:, 0] for r in rings])
    ys = np.concatenate([r[:, 1] for r in rings])
    return float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max())


def points_in_rings(px: np.ndarray, py: np.ndarray, rings: Rings) -> np.ndarray:
    """Even-odd-rule containment for many points against one polygon.

    The plain form of the engine's ray-crossing test: the reference the
    tests hold the batched kernels to (:func:`coverage_pairs`' per-row
    crossing count and ``PolygonIndex.contains`` reproduce its
    arithmetic), and the interior-cell test of
    :func:`cells_coverage_parity`.  Two vectorized paths: a
    fully-broadcast (edges x points) kernel when the crossing matrix fits
    in cache, else a per-edge loop vectorized over points (identical
    arithmetic, identical results).
    """
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    inside = np.zeros(px.shape, dtype=bool)
    m = px.size
    for ring in rings:
        n = len(ring)
        if n < 3:
            continue
        x1 = ring[:, 0]
        y1 = ring[:, 1]
        x2 = np.roll(x1, -1)
        y2 = np.roll(y1, -1)
        if n * m <= 2_000_000 and m > 0:
            # broadcast: (E, 1) against (M,) -> (E, M)
            b = y1[:, None]
            d = y2[:, None]
            crosses = (b > py) != (d > py)
            dy = np.where(d != b, d - b, 1.0)
            xint = x1[:, None] + (py - b) * (x2[:, None] - x1[:, None]) / dy
            hits = crosses & (px < xint)
            inside ^= (hits.sum(axis=0) & 1).astype(bool)
            continue
        for i in range(n):
            a, b, c, d = x1[i], y1[i], x2[i], y2[i]
            if b == d:  # horizontal edge never crosses a horizontal ray
                continue
            crosses = (b > py) != (d > py)
            if not crosses.any():
                continue
            xint = a + (py - b) * (c - a) / (d - b)
            inside ^= crosses & (px < xint)
    return inside


# --- ragged Sutherland-Hodgman ----------------------------------------------
# Every clip runs on a CSR ring set: ``xy`` (V, 2) float64 vertices and
# ``off`` (R + 1,) int64 offsets, ring ``r`` being ``xy[off[r]:off[r + 1]]``.
# One pass clips every ring of the set against its own half-plane, so one
# ring, a tile's candidate polygons and all boundary cells of a polygon
# are each a few passes of numpy, never a per-vertex Python loop.


def _pack(rings: Rings) -> tuple[np.ndarray, np.ndarray]:
    """Ring list -> (xy, off)."""
    off = np.zeros(len(rings) + 1, dtype=np.int64)
    np.cumsum(np.array([len(r) for r in rings], dtype=np.int64), out=off[1:])
    if not rings:
        return np.empty((0, 2), dtype=np.float64), off
    return np.concatenate([np.asarray(r, dtype=np.float64) for r in rings]), off


def _successor(off: np.ndarray, nv: int) -> np.ndarray:
    """Index of each vertex's successor in its ring (the last wraps)."""
    nxt = np.arange(1, nv + 1)
    live = off[1:] > off[:-1]
    nxt[off[1:][live] - 1] = off[:-1][live]
    return nxt


def _take(xy: np.ndarray, off: np.ndarray, rings: np.ndarray):
    """The sub-set of ``rings`` (ring ids, repeats allowed), in that order."""
    n = (off[1:] - off[:-1])[rings]
    out = np.zeros(len(rings) + 1, dtype=np.int64)
    np.cumsum(n, out=out[1:])
    return xy[ragged(off[:-1][rings], n)[1]], out


def _sh_pass(xy, off, ins: np.ndarray, t_of):
    """One Sutherland-Hodgman pass over every ring of the set.

    ``ins`` marks the vertices inside the half-plane and ``t_of(i, j)``
    gives the crossing parameter of each edge ``i -> j`` whose ends differ.
    Per vertex the output is the vertex itself when inside, then the
    crossing point ``p + t * (q - p)`` when its edge leaves or enters:
    the scalar algorithm's order and arithmetic, element for element."""
    if ins.all():
        return xy, off
    nxt = _successor(off, len(xy))
    i = np.flatnonzero(ins != ins[nxt])
    j = nxt[i]
    p = xy[i]
    hit = p + t_of(i, j)[:, None] * (xy[j] - p)
    cnt = ins.astype(np.int64)
    cnt[i] += 1
    end = np.zeros(len(xy) + 1, dtype=np.int64)
    np.cumsum(cnt, out=end[1:])
    out = np.empty((int(end[-1]), 2), dtype=np.float64)
    out[end[:-1][ins]] = xy[ins]
    out[end[1:][i] - 1] = hit
    return out, end[off]


def _half_plane(xy, off, axis: int, bound, keep_ge: bool):
    """Clip every ring to ``xy[:, axis] >= bound`` (``<= bound`` unless
    ``keep_ge``); ``bound`` is a scalar or one value per ring."""
    b = np.asarray(bound, dtype=np.float64)
    if b.ndim:
        b = np.repeat(b, off[1:] - off[:-1])
    c = xy[:, axis]
    ins = c >= b if keep_ge else c <= b
    return _sh_pass(xy, off, ins, lambda i, j: ((b[i] if b.ndim else b) - c[i]) / (c[j] - c[i]))


def _clip_rect(xy, off, xmin, ymin, xmax, ymax):
    """Clip every ring to its rect, half-planes in the order x >= xmin,
    x <= xmax, y >= ymin, y <= ymax; bounds are scalars or per ring."""
    xy, off = _half_plane(xy, off, 0, xmin, True)
    xy, off = _half_plane(xy, off, 0, xmax, False)
    xy, off = _half_plane(xy, off, 1, ymin, True)
    return _half_plane(xy, off, 1, ymax, False)


def _ring_areas(xy: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Signed shoelace area of every ring, bit-identical to
    :func:`ring_signed_area` (0 below 3 vertices).

    The edge terms are summed in ``np.sum``'s pairwise order: below 8
    terms sequentially; up to 128 as eight lane sums (one ``bincount``)
    combined ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the tail
    sequentially; longer rings through ``np.sum`` itself."""
    n = off[1:] - off[:-1]
    if not len(xy):
        return np.zeros(len(n))
    nxt = _successor(off, len(xy))
    x, y = xy[:, 0], xy[:, 1]
    d = x * y[nxt] - x[nxt] * y
    ring = np.repeat(np.arange(len(n)), n)
    k = np.arange(len(d)) - off[:-1][ring]  # position within the ring
    m = np.where(n <= 128, n - n % 8, 0)[ring]  # terms in the eight lanes
    lane = k < m
    s = np.zeros(len(n))
    if lane.any():
        r = np.bincount(ring[lane] * 8 + k[lane] % 8, weights=d[lane], minlength=8 * len(n))
        r = r.reshape(-1, 8)
        s = ((r[:, 0] + r[:, 1]) + (r[:, 2] + r[:, 3])) + ((r[:, 4] + r[:, 5]) + (r[:, 6] + r[:, 7]))
    # then the < 8 terms after the lanes, one at a time (a padding 0.0
    # can flip only the sign of a zero area)
    tail = ~lane & (n <= 128)[ring]
    rest = np.zeros((len(n), 7))
    rest[ring[tail], (k - m)[tail]] = d[tail]
    for col in rest.T:
        s = s + col
    for big in np.flatnonzero(n > 128):
        s[big] = np.sum(d[off[big] : off[big + 1]])
    return np.where(n >= 3, 0.5 * s, 0.0)


def _rings_of(xy: np.ndarray, off: np.ndarray) -> Rings:
    """CSR -> ring list, dropping rings below 3 vertices."""
    return [xy[a:b] for a, b in zip(off[:-1].tolist(), off[1:].tolist()) if b - a >= 3]


def clip_ring_rect(
    ring: Ring, xmin: float, ymin: float, xmax: float, ymax: float
) -> Ring:
    """Sutherland-Hodgman clip of one ring against an axis-aligned rect.

    Valid because one side is always a convex (rectangular) window — this is
    the engine's replacement for ``geom.intersection(cell)`` /
    ``gpd.overlay`` (reference overlay.py:275,296-297).  The one-ring case
    of the ragged pass that :func:`cells_coverage` runs over all boundary
    cells at once."""
    return _clip_rect(*_pack([ring]), xmin, ymin, xmax, ymax)[0]


def clip_rings_rect(
    rings: Rings, xmin: float, ymin: float, xmax: float, ymax: float
) -> Rings:
    """Clip every ring to the rect; rings left with < 3 vertices drop."""
    return _rings_of(*_clip_rect(*_pack(rings), xmin, ymin, xmax, ymax))


def clip_areas_rect(polygons: list[Rings], xmin, ymin, xmax, ymax) -> np.ndarray:
    """Area of each polygon ∩ rect, all polygons in one ragged pass; the
    bounds are scalars or one value per polygon, and
    ``clip_areas_rect(ps, ...)[k] == clip_area_rect(ps[k], ...)``."""
    xy, off = _pack([r for rings in polygons for r in rings])
    owner = np.repeat(np.arange(len(polygons)), [len(rings) for rings in polygons])
    xmin, ymin, xmax, ymax = (
        b[owner] if np.ndim(b) else b
        for b in np.broadcast_arrays(xmin, ymin, xmax, ymax)
    )
    areas = _ring_areas(*_clip_rect(xy, off, xmin, ymin, xmax, ymax))
    # bincount adds in ring order from 0.0, as rings_area's sum does (it
    # returns int64 zeros when there is no ring at all)
    return np.bincount(owner, weights=areas, minlength=len(polygons)).astype(np.float64)


def clip_area_rect(
    rings: Rings, xmin: float, ymin: float, xmax: float, ymax: float
) -> float:
    """Area of polygon ∩ rect (exact for the clipped shape)."""
    return float(clip_areas_rect([rings], xmin, ymin, xmax, ymax)[0])


def segments_of(rings: Rings) -> np.ndarray:
    """All directed edges of a ring list as an (E, 4) array [x1 y1 x2 y2]."""
    segs = []
    for r in rings:
        if len(r) < 2:
            continue
        nxt = np.roll(r, -1, axis=0)
        segs.append(np.concatenate([r, nxt], axis=1))
    if not segs:
        return np.empty((0, 4), dtype=np.float64)
    return np.concatenate(segs, axis=0)


def _boundary_cells(segs: np.ndarray, x0, y0, w: float, h: float, nx, ny):
    """``(edge, iy, ix)`` of every cell whose rect overlaps an edge's
    bbox; the window ``x0, y0, nx, ny`` is scalar or one per edge."""
    ex0 = np.minimum(segs[:, 0], segs[:, 2])
    ex1 = np.maximum(segs[:, 0], segs[:, 2])
    ey0 = np.minimum(segs[:, 1], segs[:, 3])
    ey1 = np.maximum(segs[:, 1], segs[:, 3])
    ix0 = np.clip(np.floor((ex0 - x0) / w).astype(np.int64), 0, nx - 1)
    ix1 = np.clip(np.floor((ex1 - x0) / w - TOL_EPS).astype(np.int64), 0, nx - 1)
    iy0 = np.clip(np.floor((ey0 - y0) / h).astype(np.int64), 0, ny - 1)
    iy1 = np.clip(np.floor((ey1 - y0) / h - TOL_EPS).astype(np.int64), 0, ny - 1)
    wide = np.maximum(ix1, ix0) - ix0 + 1
    e, k = ragged(np.zeros(len(segs), np.int64), wide * (np.maximum(iy1, iy0) - iy0 + 1))
    return e, iy0[e] + k // wide[e], ix0[e] + k % wide[e]


def _boundary_areas(xy, off, owner, inst, iys, ixs, x0, y0, w, h) -> np.ndarray:
    """Area of instance ``inst[k]``'s rings (the CSR set ``(xy, off)``,
    ring ``r`` belonging to instance ``owner[r]``, owners ascending)
    inside its cell ``(iys[k], ixs[k])``: :func:`clip_area_rect` per
    cell, in two levels.

    The two x passes run once per (instance, column) strip on the
    instance's rings whose x-range meets the strip; the two y passes run
    per cell on its strip's rings whose y-range meets the cell.  A ring
    skipped by either test clips to nothing, and the bounds are the
    instance's per-cell ones (``x0 + ix*w``, ``+ w``, ``y0 + iy*h``,
    ``+ h``), so every clipped vertex and area is the per-cell clip's."""
    if not len(iys):
        return np.zeros(0)
    ncol = int(ixs.max()) + 1
    keys, strip_of = np.unique(inst * ncol + ixs, return_inverse=True)
    sinst, cols = keys // ncol, keys % ncol
    sx0 = x0[sinst] + cols * w
    sx1 = sx0 + w
    starts = off[:-1]
    rx0 = np.fmin.reduceat(xy[:, 0], starts)
    rx1 = np.fmax.reduceat(xy[:, 0], starts)
    # (strip, ring) pairs over the strip's instance's rings: strip-major
    # and in ring order within a strip
    first = np.searchsorted(owner, sinst, "left")
    s, r = ragged(first, np.searchsorted(owner, sinst, "right") - first)
    meet = (rx1[r] >= sx0[s]) & (rx0[r] <= sx1[s])
    s, r = s[meet], r[meet]
    sxy, soff = _take(xy, off, r)
    sxy, soff = _half_plane(sxy, soff, 0, sx0[s], True)
    sxy, soff = _half_plane(sxy, soff, 0, sx1[s], False)
    live = np.flatnonzero(soff[1:] > soff[:-1])
    if not len(live):
        return np.zeros(len(iys))
    sxy, soff, s = *_take(sxy, soff, live), s[live]
    ry0 = np.fmin.reduceat(sxy[:, 1], soff[:-1])
    ry1 = np.fmax.reduceat(sxy[:, 1], soff[:-1])
    # (cell, strip ring) pairs: every cell against its strip's rings
    first = np.searchsorted(s, np.arange(len(keys)), "left")
    last = np.searchsorted(s, np.arange(len(keys)), "right")
    cell, ring = ragged(first[strip_of], (last - first)[strip_of])
    cy0 = y0[inst[cell]] + iys[cell] * h
    cy1 = cy0 + h
    meet = (ry1[ring] >= cy0) & (ry0[ring] <= cy1)
    cell, ring, cy0, cy1 = cell[meet], ring[meet], cy0[meet], cy1[meet]
    cxy, coff = _take(sxy, soff, ring)
    cxy, coff = _half_plane(cxy, coff, 1, cy0, True)
    cxy, coff = _half_plane(cxy, coff, 1, cy1, False)
    return np.bincount(cell, weights=_ring_areas(cxy, coff), minlength=len(iys))


def _inside_centres(segs, si, base, x0, y0, w: float, h: float, nx, ny) -> np.ndarray:
    """Flat indices, ascending, of the cells whose centre the even-odd
    rule puts inside their instance's rings (edge ``e`` of ``segs``
    belongs to instance ``si[e]``; cell ``(iy, ix)`` of instance ``k`` is
    ``base[k] + iy * nx[k] + ix``), with :func:`points_in_rings`'
    arithmetic, from the rows' crossings alone.

    Each non-horizontal edge is expanded to the rows whose centre line
    ``cy = y0 + (row + 0.5) * h`` its y-range may cross, one more on each
    side, and kept where the test ``(b > cy) != (d > cy)`` holds, at
    ``xint = x1 + (cy - b) * (x2 - x1) / (d - b)``.  A closed ring
    crosses a line an even number of times, so a centre ``px`` has an
    odd count of ``px < xint`` exactly when it lies in a span ``[c_2j,
    c_2j+1)`` of its row's sorted crossings; each span is expanded to
    its cells, one more on each side, and kept by that exact test."""
    x1, b, x2, d = segs.T
    y0e, nye = y0[si], ny[si]
    lo = np.clip(np.floor((np.minimum(b, d) - y0e) / h - 0.5).astype(np.int64), 0, nye - 1)
    hi = np.clip(np.floor((np.maximum(b, d) - y0e) / h - 0.5).astype(np.int64) + 1, 0, nye - 1)
    e, row = ragged(lo, np.maximum(hi - lo + 1, 0) * (b != d))
    cy = y0e[e] + (row + 0.5) * h
    hit = (b[e] > cy) != (d[e] > cy)
    e, row, cy = e[hit], row[hit], cy[hit]
    xint = x1[e] + (cy - b[e]) * (x2[e] - x1[e]) / (d[e] - b[e])
    k = si[e]
    grp = base[k] + row * nx[k]  # the flat index of the row's first cell
    o = np.lexsort((xint, grp))
    xa, xb, k, grp = xint[o[0::2]], xint[o[1::2]], k[o[0::2]], grp[o[0::2]]
    c0 = np.clip(np.floor((xa - x0[k]) / w - 0.5).astype(np.int64), 0, nx[k] - 1)
    c1 = np.clip(np.floor((xb - x0[k]) / w - 0.5).astype(np.int64) + 1, 0, nx[k] - 1)
    s, ix = ragged(c0, np.maximum(c1 - c0 + 1, 0))
    px = x0[k[s]] + (ix + 0.5) * w
    inside = (xa[s] <= px) & (px < xb[s])
    return grp[s[inside]] + ix[inside]


def coverage_pairs(polygons: list[Rings], x0, y0, w: float, h: float, nx, ny):
    """:func:`cells_coverage` of N (polygon, window) instances in one
    ragged pass, as sparse rows.

    Instance ``k`` is the ring list ``polygons[k]`` over the window of
    ``ny[k] x nx[k]`` cells of size ``w x h`` whose lower-left corner is
    ``(x0[k], y0[k])``; ``x0``, ``y0``, ``nx`` and ``ny`` are scalars or
    one value per instance.  Returns ``(inst, ix, iy, area)``, one row
    per cell of positive area, ordered by (instance, iy, ix), where
    ``area`` is bit for bit ``cells_coverage(polygons[k], x0[k], y0[k],
    w, h, nx[k], ny[k])[iy, ix]``.

    Stages (the per-tile kernel behind GridMaker/GridOverlay flags,
    reference gridding.py:132-188):

    - pre-clip: every ring to its instance's window, one ragged pass;
    - boundary cells, those under a clipped edge's bbox: the exact
      Sutherland-Hodgman clip of :func:`_boundary_areas`, x per
      (instance, column) strip, then y per cell;
    - interior cells are uniform: full when their centre is inside, by
      the row crossings of :func:`_inside_centres`.

    Memory follows the boundary and covered cells, not the windows'
    area: no array spans a whole window."""
    n = len(polygons)
    x0, y0 = (np.broadcast_to(np.asarray(v, np.float64), (n,)) for v in (x0, y0))
    nx, ny = (np.broadcast_to(np.asarray(v, np.int64), (n,)) for v in (nx, ny))
    w, h = float(w), float(h)
    owner = np.repeat(np.arange(n), [len(rings) for rings in polygons])
    xy, off = _pack([r for rings in polygons for r in rings])
    x1, y1 = x0 + nx * w, y0 + ny * h
    xy, off = _clip_rect(xy, off, x0[owner], y0[owner], x1[owner], y1[owner])
    # rings left below 3 vertices drop, as clip_rings_rect drops them
    keep = np.flatnonzero((off[1:] - off[:-1] >= 3) & (nx > 0)[owner] & (ny > 0)[owner])
    (xy, off), owner = _take(xy, off, keep), owner[keep]
    # flat cell space: cell (iy, ix) of instance k is base[k] + iy * nx[k]
    # + ix; an instance left with no ring has no cells
    base = np.zeros(n + 1, np.int64)
    np.cumsum(np.where(np.bincount(owner, minlength=n) > 0, nx * ny, 0), out=base[1:])
    segs = np.concatenate([xy, xy[_successor(off, len(xy))]], axis=1)
    si = np.repeat(owner, off[1:] - off[:-1])  # each edge's instance

    def cells(flat):
        k = np.searchsorted(base, flat, "right") - 1
        return k, *np.divmod(flat - base[k], nx[k])

    e, iy, ix = _boundary_cells(segs, x0[si], y0[si], w, h, nx[si], ny[si])
    bflat = np.unique(base[si[e]] + iy * nx[si[e]] + ix)
    a = _boundary_areas(xy, off, owner, *cells(bflat), x0, y0, w, h)
    # interior cells, those off every boundary cell, are full or empty
    iflat = _inside_centres(segs, si, base, x0, y0, w, h, nx, ny)
    iflat = iflat[~np.isin(iflat, bflat, assume_unique=True)]
    flat = np.concatenate([iflat, bflat[a > 0]])
    area = np.concatenate([np.full(len(iflat), w * h), a[a > 0]])
    o = np.argsort(flat, kind="stable")
    k, iy, ix = cells(flat[o])
    return k, ix, iy, area[o]


def cells_coverage(
    rings: Rings,
    x0: float,
    y0: float,
    w: float,
    h: float,
    nx: int,
    ny: int,
) -> np.ndarray:
    """Exact coverage area of a polygon over a regular (ny, nx) cell grid.

    Cell ``(iy, ix)`` spans ``[x0+ix*w, x0+(ix+1)*w] x [y0+iy*h, y0+(iy+1)*h]``.
    Returns an (ny, nx) float64 array of overlap areas: the one-instance
    case of :func:`coverage_pairs`, where every boundary cell's area is
    bit-identical to ``clip_area_rect`` on that cell and an interior cell
    is ``w * h`` when ``points_in_rings`` holds its centre."""
    cov = np.zeros((ny, nx), dtype=np.float64)
    _, ix, iy, a = coverage_pairs([rings], x0, y0, w, h, nx, ny)
    cov[iy, ix] = a
    return cov


def snap_windows(bboxes: np.ndarray, ox: float, oy: float, w: float, h: float):
    """Cell windows ``(ix0, iy0, nx, ny)`` of (N, 4) bboxes on the grid of
    ``w x h`` cells anchored at ``(ox, oy)``: floor of the lower corner,
    ceil of the upper one, at least one cell each way."""
    b = np.asarray(bboxes, np.float64).reshape(-1, 4)
    ix0 = np.floor((b[:, 0] - ox) / w).astype(np.int64)
    iy0 = np.floor((b[:, 1] - oy) / h).astype(np.int64)
    nx = np.maximum(np.ceil((b[:, 2] - ox) / w).astype(np.int64) - ix0, 1)
    ny = np.maximum(np.ceil((b[:, 3] - oy) / h).astype(np.int64) - iy0, 1)
    return ix0, iy0, nx, ny


def rect_relation(
    rings: Rings, xmin: float, ymin: float, xmax: float, ymax: float
) -> int:
    """Relation of a rect to a polygon: 0=outside, 1=intersects, 2=within.

    Area-based (see module docstring); replaces the tile-level
    ``within``/``intersects`` mask tests (reference gridding.py:145-151).
    """
    area = clip_area_rect(rings, xmin, ymin, xmax, ymax)
    rect_area = (xmax - xmin) * (ymax - ymin)
    if area <= TOL_EPS * max(rect_area, 1.0):
        return 0
    if area >= rect_area * (1.0 - TOL_EPS):
        return 2
    return 1


def bbox_to_ring(
    xmin: float, ymin: float, xmax: float, ymax: float, density: int = 0
) -> Ring:
    """Rect bbox -> CCW ring, optionally densified with ``density`` extra
    collinear vertices per side (reference base.py:237-254)."""
    if density and density > 0:
        tx = np.linspace(xmin, xmax, density + 2)
        ty = np.linspace(ymin, ymax, density + 2)
        bottom = np.stack([tx[:-1], np.full(density + 1, ymin)], axis=1)
        right = np.stack([np.full(density + 1, xmax), ty[:-1]], axis=1)
        top = np.stack([tx[::-1][:-1], np.full(density + 1, ymax)], axis=1)
        left = np.stack([np.full(density + 1, xmin), ty[::-1][:-1]], axis=1)
        return np.concatenate([bottom, right, top, left], axis=0)
    return np.array(
        [[xmin, ymin], [xmax, ymin], [xmax, ymax], [xmin, ymax]], dtype=np.float64
    )


def bbox_intersection(*bboxes) -> tuple[float, float, float, float] | None:
    """Reduce-fold bbox intersection (reference base.py:439-445)."""
    xmin = max(b[0] for b in bboxes)
    ymin = max(b[1] for b in bboxes)
    xmax = min(b[2] for b in bboxes)
    ymax = min(b[3] for b in bboxes)
    if xmin >= xmax or ymin >= ymax:
        return None
    return (xmin, ymin, xmax, ymax)


def bbox_union(*bboxes) -> tuple[float, float, float, float]:
    """Reduce-fold bbox union (reference base.py:497-503)."""
    return (
        min(b[0] for b in bboxes),
        min(b[1] for b in bboxes),
        max(b[2] for b in bboxes),
        max(b[3] for b in bboxes),
    )


def _clip_convex(xy, off, clips: list[Ring], owner: np.ndarray):
    """Clip ring ``r`` of the set to the CONVEX CCW polygon
    ``clips[owner[r]]``: pass ``e`` clips every ring against edge ``e`` of
    its clip (``>= 0`` signed cross inside); a ring whose clip has no
    edge ``e`` stays as it is."""
    cxy, coff = _pack(clips)
    n = coff[1:] - coff[:-1]
    cnxt = _successor(coff, len(cxy))
    for e in range(int(n.max(initial=0))):
        k = np.minimum(coff[:-1] + e, len(cxy) - 1)
        ax, ay = cxy[k, 0], cxy[k, 1]
        ex, ey = cxy[cnxt[k], 0] - ax, cxy[cnxt[k], 1] - ay
        v = np.repeat(owner, off[1:] - off[:-1])  # clip of each vertex
        d = ex[v] * (xy[:, 1] - ay[v]) - ey[v] * (xy[:, 0] - ax[v])
        ins = (d >= 0.0) | (e >= n)[v]
        xy, off = _sh_pass(xy, off, ins, lambda i, j: d[i] / (d[i] - d[j]))
    return xy, off


def clip_ring_convex(ring: Ring, clip: Ring) -> Ring:
    """Sutherland-Hodgman clip of one ring against a CONVEX CCW clip
    polygon — the layer x layer generalization of :func:`clip_ring_rect`
    (which remains the fast path for axis-aligned windows).  Closes the
    reference's general ``gpd.overlay`` surface (reference
    overlay.py:296-297) for convex clip layers; concave x concave
    overlay decomposes the clip side into convex pieces first.

    The subject may be arbitrary (concave, CW hole rings): SH emits
    degenerate zero-area bridges for disconnected intersections, so the
    SIGNED AREA of the output is exact and orientation is preserved
    (holes stay negative).  Vertex-order output is for area/centroid
    laws, not for re-clipping."""
    return _clip_convex(*_pack([ring]), [clip], np.zeros(1, np.int64))[0]


def clip_rings_convex(rings: Rings, clip: Ring) -> Rings:
    return _rings_of(*_clip_convex(*_pack(rings), [clip], np.zeros(len(rings), np.int64)))


def clip_areas_convex(polygons: list[Rings], clips: list[Ring]) -> np.ndarray:
    """Signed area of ``polygons[k] ∩ clips[k]`` for every k, all pairs
    in one ragged pass; ``clip_areas_convex(ps, cs)[k] ==
    clip_area_convex(ps[k], cs[k])``."""
    xy, off = _pack([r for rings in polygons for r in rings])
    nr = [len(rings) for rings in polygons]
    areas = _ring_areas(*_clip_convex(xy, off, clips, np.repeat(np.arange(len(nr)), nr)))
    # Python's sum over each pair's rings in ring order (holes subtract),
    # as the one-pair case adds them
    ends = np.cumsum(nr, dtype=np.int64).tolist()
    areas = areas.tolist()
    return np.array([sum(areas[e - n : e]) for e, n in zip(ends, nr)], dtype=np.float64)


def clip_area_convex(rings: Rings, clip: Ring) -> float:
    """Signed-area sum of the convex-clipped rings (holes subtract)."""
    return float(clip_areas_convex([rings], [clip])[0])


def _points_in_tri(P: np.ndarray, a, b, c, eps: float) -> np.ndarray:
    """Strict-interior test of points P against CCW triangle abc."""
    d0 = (b[0] - a[0]) * (P[:, 1] - a[1]) - (b[1] - a[1]) * (P[:, 0] - a[0])
    d1 = (c[0] - b[0]) * (P[:, 1] - b[1]) - (c[1] - b[1]) * (P[:, 0] - b[0])
    d2 = (a[0] - c[0]) * (P[:, 1] - c[1]) - (a[1] - c[1]) * (P[:, 0] - c[0])
    return (d0 > eps) & (d1 > eps) & (d2 > eps)


def _triangulate_simple(r: Ring) -> list[Ring]:
    """Core ear clip over an already-oriented CCW ring; raises on a
    ring where no ear exists (see :func:`triangulate_ring` for the
    healing wrapper that catches this)."""
    scale = max(r[:, 0].ptp(), r[:, 1].ptp()) or 1.0
    eps = 1e-12 * scale * scale
    idx = list(range(len(r)))
    tris: list[Ring] = []
    while len(idx) > 3:
        n = len(idx)
        best_flat = None  # smallest-|cross| vertex, the degeneracy escape
        best_mag = np.inf
        found = False
        for k in range(n):
            i0, i1, i2 = idx[k - 1], idx[k], idx[(k + 1) % n]
            a, b, c = r[i0], r[i1], r[i2]
            cross = (b[0] - a[0]) * (c[1] - a[1]) \
                - (b[1] - a[1]) * (c[0] - a[0])
            if abs(cross) < best_mag:
                best_mag, best_flat = abs(cross), k
            if cross <= eps:
                continue  # reflex or collinear — not an ear
            others = [j for j in idx if j not in (i0, i1, i2)]
            if others and _points_in_tri(r[others], a, b, c, -eps).any():
                continue
            tris.append(np.array([a, b, c], dtype=np.float64))
            idx.pop(k)
            found = True
            break
        if not found:
            if best_mag > eps:  # simple-polygon precondition violated
                raise ValueError("triangulate_ring: no ear found "
                                 "(self-intersecting ring?)")
            idx.pop(best_flat)  # collinear vertex — removable, zero area
    if len(idx) == 3:
        t = r[idx]
        if ring_signed_area(t) > 0:
            tris.append(t)
    return tris


def _split_pinch(r: Ring, tol: float) -> tuple[Ring, Ring] | None:
    """Find the first pair of NON-adjacent (near-)coincident vertices —
    a self-TOUCHING pinch point — and split the ring into its two lobes
    there (both keep the pinch vertex once).  Returns None when the
    ring has no pinch within ``tol``."""
    n = len(r)
    t2 = tol * tol
    for i in range(n - 2):
        d2 = ((r[i + 2:] - r[i]) ** 2).sum(axis=1)
        for off in np.flatnonzero(d2 <= t2):
            j = i + 2 + int(off)
            if i == 0 and j == n - 1:
                continue  # first/last adjacency around the wrap
            return r[i:j], np.concatenate([r[j:], r[:i]], axis=0)
    return None


def triangulate_ring(ring: Ring) -> list[Ring]:
    """Ear-clipping triangulation of a SIMPLE (non-self-intersecting)
    ring, any orientation -> CCW triangles that exactly tile it.  O(n^2)
    — meant for clip-layer polygons that are triangulated ONCE on the
    driver and broadcast, never for per-row geometry.  Degenerate
    (collinear) vertices are dropped as zero-area ears.

    Healing pre/retry pass (the engine's analog of the reference's
    TopologyException retry, reference overlay.py:299-309): when no ear
    exists, the ring is first healed with :func:`heal_ring` at TOL_EPS
    (snap-duplicate vertex dedup, spike/collinear drop, zero-area ring
    drop — a healed-empty ring triangulates to zero triangles instead
    of raising), then a self-TOUCHING pinch (two non-adjacent vertices
    within TOL_EPS) is split into its lobes, each triangulated
    recursively.  A truly self-CROSSING ring still raises — its
    intended interior is ambiguous (use the parity kernels for the
    even-odd reading)."""
    r = as_ring(np.asarray(ring, dtype=np.float64))
    if len(r) < 3:
        return []
    if ring_signed_area(r) < 0:
        r = r[::-1]
    try:
        return _triangulate_simple(r)
    except ValueError:
        healed = heal_ring(r, TOL_EPS)
        if len(healed) < 3:
            return []  # zero-area / collapsed ring: nothing to tile
        if len(healed) != len(r) or not np.array_equal(healed, r):
            return triangulate_ring(healed)
        pinch = _split_pinch(r, TOL_EPS)
        if pinch is not None:
            a, b = pinch
            return triangulate_ring(a) + triangulate_ring(b)
        raise


def clip_area_poly(rings: Rings, clip: Ring) -> float:
    """Signed intersection area of ``rings`` with an ARBITRARY simple
    clip polygon: the clip is ear-clipped into CCW triangles (exact
    tiling, so areas add) and each triangle clips via
    :func:`clip_areas_convex`, all triangles in one pass.  Triangulate
    once and reuse :func:`clip_areas_convex` when clipping many
    polygons against one clip."""
    tris = triangulate_ring(clip)
    return float(sum(clip_areas_convex([rings] * len(tris), tris).tolist()))


def heal_ring(ring: Ring, tol: float = 0.0) -> Ring:
    """Degeneracy healing for one ring — the engine's analog of the
    reference's TopologyException retry (``unary_union`` +
    ``buffer(buff_geom_prec)``, reference overlay.py:299-309), for the
    degeneracies that retry actually repairs in its exercised paths:

    - consecutive (near-)duplicate vertices collapse (within ``tol``);
    - zero-area spikes (A-B-A reversals) and exactly-collinear interior
      vertices drop, iterated to a fixed point;
    - rings reduced below 3 vertices or below ``tol^2`` absolute area
      return empty.

    True self-intersection repair (the ``buffer(0)`` node-and-rebuild)
    is intentionally NOT attempted: a bowtie's intended interior is
    ambiguous, and the signed-area laws downstream already treat
    crossing lobes consistently (opposite lobes cancel).  Documented
    behavior, matching SURVEY §7.5 scope."""
    r = as_ring(np.asarray(ring, dtype=np.float64))
    t2 = tol * tol
    for _ in range(len(r) + 1):  # each pass removes >= 1 vertex or stops
        n = len(r)
        if n < 3:
            return np.empty((0, 2), dtype=np.float64)
        prv = np.roll(r, 1, axis=0)
        nxt = np.roll(r, -1, axis=0)
        dup = ((r - prv) ** 2).sum(axis=1) <= t2
        e1 = r - prv
        e2 = nxt - r
        cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        dot = (e1 * e2).sum(axis=1)
        spike = (np.abs(cross) <= t2) & (dot < 0.0)  # reversal
        flat = (cross == 0.0) & (dot >= 0.0)  # exactly collinear
        drop = dup | spike | flat
        if not drop.any():
            break
        # drop one vertex per pass (the first flagged) — neighbor masks
        # computed on the stale ring would over-delete
        r = np.delete(r, int(np.flatnonzero(drop)[0]), axis=0)
    if len(r) < 3 or abs(ring_signed_area(r)) <= max(t2, 0.0):
        return np.empty((0, 2), dtype=np.float64)
    return r


def heal_rings(rings: Rings, tol: float = 0.0) -> Rings:
    """Heal every ring, dropping the ones that collapse; ring ORDER and
    ORIENTATION are preserved (holes stay CW)."""
    out = []
    for r in rings:
        h = heal_ring(r, tol)
        if len(h) >= 3:
            out.append(h)
    return out


# --- parity (even-odd) healing for SELF-INTERSECTING rings -------------------
# The reference repairs TopologyException inputs with ``unary_union`` +
# ``buffer(buff_geom_prec)`` (reference overlay.py:299-309); for a
# self-intersecting ring that node-and-rebuild yields the even-odd
# interior (a bowtie becomes its two lobes).  The kernels below compute
# that healed interior's measure DIRECTLY — area and rect-clipped area
# under the parity rule — via a scanline slab decomposition, without ever
# reconstructing valid rings.  They are driver/broadcast-side kernels
# (clip layers are small); per-row quad healing has a vectorized closed
# form in :func:`quad_parity_area`.


def _parity_slabs(rings: Rings):
    """Slab decomposition of a possibly self-intersecting ring list.

    Returns ``(ys, segs)``: sorted unique slab-boundary y's (every vertex
    y plus every pairwise proper-intersection y, so no two segments cross
    strictly inside a slab) and the (E, 4) non-degenerate segment array.
    """
    segs = segments_of(rings)
    if len(segs) == 0:
        return np.empty(0), segs
    keep = (segs[:, 0] != segs[:, 2]) | (segs[:, 1] != segs[:, 3])
    segs = segs[keep]
    if len(segs) == 0:
        return np.empty(0), segs
    ys = [segs[:, 1], segs[:, 3]]
    # pairwise proper intersections, vectorized over the E x E grid
    px, py, qx, qy = segs[:, 0], segs[:, 1], segs[:, 2], segs[:, 3]
    rx, ry = qx - px, qy - py
    denom = rx[:, None] * ry[None, :] - ry[:, None] * rx[None, :]
    dpx = px[None, :] - px[:, None]
    dpy = py[None, :] - py[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (dpx * ry[None, :] - dpy * rx[None, :]) / denom
        u = (dpx * ry[:, None] - dpy * rx[:, None]) / denom
    hit = (
        (denom != 0.0) & (t > 0.0) & (t < 1.0) & (u > 0.0) & (u < 1.0)
    )
    if hit.any():
        i, _ = np.nonzero(hit)
        ys.append(py[i] + t[hit] * ry[i])
    return np.unique(np.concatenate(ys)), segs


def _slab_intervals(segs: np.ndarray, ylo: float, yhi: float):
    """x-intervals of the parity interior over one slab.

    Returns ``(xlo_l, xhi_l, xlo_r, xhi_r)`` arrays — the left/right
    boundary x's evaluated at the slab bottom and top, one row per
    interior interval (crossings paired 0-1, 2-3, ...).
    """
    ymid = 0.5 * (ylo + yhi)
    y1, y2 = segs[:, 1], segs[:, 3]
    act = (np.minimum(y1, y2) <= ylo) & (np.maximum(y1, y2) >= yhi) & (
        y1 != y2
    )
    if not act.any():
        z = np.empty(0)
        return z, z, z, z
    s = segs[act]
    dx = (s[:, 2] - s[:, 0]) / (s[:, 3] - s[:, 1])
    xb = s[:, 0] + (ylo - s[:, 1]) * dx
    xt = s[:, 0] + (yhi - s[:, 1]) * dx
    xm = s[:, 0] + (ymid - s[:, 1]) * dx
    order = np.lexsort((xb, xm))
    xb, xt = xb[order], xt[order]
    n2 = (len(xb) // 2) * 2
    return xb[0:n2:2], xt[0:n2:2], xb[1:n2:2], xt[1:n2:2]


def parity_area(rings: Rings) -> float:
    """Even-odd ("healed") area of a possibly SELF-INTERSECTING ring
    list.  Agrees with ``abs(rings_area)`` on simple polygons (holes
    subtract under parity exactly as signed areas do); on a bowtie it
    returns the sum of the lobe areas where the shoelace cancels to 0."""
    ys, segs = _parity_slabs(rings)
    if len(ys) < 2:
        return 0.0
    total = 0.0
    for k in range(len(ys) - 1):
        ylo, yhi = ys[k], ys[k + 1]
        if yhi <= ylo:
            continue
        lb, lt, rb, rt = _slab_intervals(segs, ylo, yhi)
        if len(lb):
            total += 0.5 * (yhi - ylo) * float(np.sum((rb + rt) - (lb + lt)))
    return total


def parity_clip_area_rect(
    rings: Rings, xmin: float, ymin: float, xmax: float, ymax: float
) -> float:
    """Area of (even-odd healed interior) ∩ axis-aligned rect.

    Exact: within a slab each interior interval is bounded by two linear
    edges, so the clipped width ``max(0, min(xr, xmax) - max(xl, xmin))``
    is piecewise linear in y; integrating trapezoid-exactly between the
    breakpoints (where an edge crosses xmin/xmax) gives the closed form.
    This is the healed counterpart of :func:`clip_area_rect` — valid on
    input the Sutherland-Hodgman path would silently mis-measure."""
    ys, segs = _parity_slabs(rings)
    if len(ys) < 2 or xmax <= xmin or ymax <= ymin:
        return 0.0
    total = 0.0
    for k in range(len(ys) - 1):
        ylo, yhi = max(float(ys[k]), ymin), min(float(ys[k + 1]), ymax)
        if yhi <= ylo:
            continue
        lb, lt, rb, rt = _slab_intervals(segs, ys[k], ys[k + 1])
        h = ys[k + 1] - ys[k]
        for i in range(len(lb)):
            # linear boundary x(y) over the FULL slab; clip y to the rect
            lsl = (lt[i] - lb[i]) / h
            rsl = (rt[i] - rb[i]) / h

            def width(y):
                xl = lb[i] + (y - ys[k]) * lsl
                xr = rb[i] + (y - ys[k]) * rsl
                return max(0.0, min(xr, xmax) - max(xl, xmin))

            # breakpoints: either boundary crossing xmin or xmax
            brk = [ylo, yhi]
            for x0, sl in ((lb[i], lsl), (rb[i], rsl)):
                for bound in (xmin, xmax):
                    if sl != 0.0:
                        yb = ys[k] + (bound - x0) / sl
                        if ylo < yb < yhi:
                            brk.append(float(yb))
            brk = sorted(set(brk))
            for a, b in zip(brk[:-1], brk[1:]):
                total += 0.5 * (b - a) * (width(a) + width(b))
    return total


def cells_coverage_parity(
    rings: Rings,
    x0: float,
    y0: float,
    w: float,
    h: float,
    nx: int,
    ny: int,
) -> np.ndarray:
    """:func:`cells_coverage` for a possibly self-intersecting polygon:
    per-cell areas of the parity-healed interior.  Interior cells still
    resolve through the (already even-odd) center containment test;
    boundary cells use :func:`parity_clip_area_rect`.  Driver-side
    healing path — quadratic slab setup, polygon-at-a-time."""
    cov = np.zeros((ny, nx), dtype=np.float64)
    if not rings:
        return cov
    segs = segments_of(rings)
    if len(segs) == 0:
        return cov
    boundary = np.zeros((ny, nx), dtype=bool)
    boundary[_boundary_cells(segs, x0, y0, w, h, nx, ny)[1:]] = True
    interior = ~boundary
    if interior.any():
        iys, ixs = np.nonzero(interior)
        cx = x0 + (ixs + 0.5) * w
        cy = y0 + (iys + 0.5) * h
        inside = points_in_rings(cx, cy, rings)
        cov[iys[inside], ixs[inside]] = w * h
    iys, ixs = np.nonzero(boundary)
    for iy, ix in zip(iys.tolist(), ixs.tolist()):
        cx0 = x0 + ix * w
        cy0 = y0 + iy * h
        a = parity_clip_area_rect(rings, cx0, cy0, cx0 + w, cy0 + h)
        if a > 0:
            cov[iy, ix] = a
    return cov


def quad_parity_area(
    ax, ay, bx, by, cx, cy, dx, dy
) -> np.ndarray:
    """Vectorized parity-healed area of quadrilaterals A-B-C-D.

    The row-scale specialization of :func:`parity_area`: a quad's healed
    interior has a closed form — if an opposite-edge pair properly
    crosses at X, the interior is the two lobes split at X; otherwise the
    quad is simple and the shoelace magnitude is exact.  Each formula is
    written in a fixed operation order so a SQL twin reproduces the
    doubles bit-for-bit (see ``_sql_heal_area``)."""
    ax, ay, bx, by, cx, cy, dx, dy = (
        np.asarray(v, np.float64) for v in (ax, ay, bx, by, cx, cy, dx, dy)
    )

    def tri(x1, y1, x2, y2, x3, y3):
        return np.abs((x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)) / 2.0

    def lobes(px, py, qx, qy, rx, ry, sx, sy, m1x, m1y, m2x, m2y):
        """Segments PQ x RS; lobe triangles (X,Q,M1) and (X,S,M2)."""
        d3 = (sx - rx) * (py - ry) - (sy - ry) * (px - rx)
        d4 = (sx - rx) * (qy - ry) - (sy - ry) * (qx - rx)
        t = d3 / (d3 - d4)
        xx = px + t * (qx - px)
        xy = py + t * (qy - py)
        return tri(xx, xy, qx, qy, m1x, m1y) + tri(xx, xy, sx, sy, m2x, m2y)

    def crosses(px, py, qx, qy, rx, ry, sx, sy):
        d1 = (qx - px) * (ry - py) - (qy - py) * (rx - px)
        d2 = (qx - px) * (sy - py) - (qy - py) * (sx - px)
        d3 = (sx - rx) * (py - ry) - (sy - ry) * (px - rx)
        d4 = (sx - rx) * (qy - ry) - (sy - ry) * (qx - rx)
        return (d1 * d2 < 0.0) & (d3 * d4 < 0.0)

    shoe = (
        ((ax * by - bx * ay) + (bx * cy - cx * by))
        + (cx * dy - dx * cy)
    ) + (dx * ay - ax * dy)
    simple = np.abs(shoe) / 2.0
    c1 = crosses(ax, ay, bx, by, cx, cy, dx, dy)  # AB x CD
    c2 = crosses(bx, by, cx, cy, dx, dy, ax, ay)  # BC x DA
    with np.errstate(divide="ignore", invalid="ignore"):
        # AB x CD at X: lobes (X,B,C) and (X,D,A)
        a1 = lobes(ax, ay, bx, by, cx, cy, dx, dy, cx, cy, ax, ay)
        # BC x DA at X: lobes (X,C,D) and (X,A,B)
        a2 = lobes(bx, by, cx, cy, dx, dy, ax, ay, dx, dy, bx, by)
    return np.where(c1, a1, np.where(c2, a2, simple))
