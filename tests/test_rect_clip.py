"""The batched rect clip against the per-vertex, per-cell algorithm it
replaced, kept here as the reference: every clipped vertex, every ring
area and every cell of ``cells_coverage`` must be bit-identical.

Grids and polygons are drawn so that vertices and axis-parallel edges
lie exactly on grid lines (coordinates built as ``x0 + k * w``, the
kernel's own cell-bound formula), polygons carry holes and several
parts, some lie wholly outside the window, and boundary cells hold
clipped rings of 3-7, 8-128 and more than 128 vertices (the three
branches of the pairwise ring-area sum).  ``coverage_pairs``, many
(polygon, window) instances in one call, is held to the reference
instance by instance.  The convex clip, on the same pass, is held to
its per-vertex loop the same way."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pygridmap_ray.geom.kernels import (
    TOL_EPS,
    _boundary_cells,
    cells_coverage,
    clip_area_convex,
    clip_area_rect,
    clip_areas_convex,
    clip_areas_rect,
    clip_ring_convex,
    clip_ring_rect,
    coverage_pairs,
    points_in_rings,
    ring_signed_area,
    segments_of,
)

# --- the reference: one Python step per vertex, one clip per cell ---------


def ref_clip_ring(ring, xmin, ymin, xmax, ymax):
    pts = ring
    for axis, bound, keep_ge in (
        (0, xmin, True),
        (0, xmax, False),
        (1, ymin, True),
        (1, ymax, False),
    ):
        n = len(pts)
        if n == 0:
            return pts
        coord = pts[:, axis]
        ins = coord >= bound if keep_ge else coord <= bound
        if ins.all():
            continue
        out = []
        for i in range(n):
            j = (i + 1) % n
            pi, pj = pts[i], pts[j]
            if ins[i]:
                out.append(pi)
            if ins[i] != ins[j]:
                t = (bound - pi[axis]) / (pj[axis] - pi[axis])
                out.append(pi + t * (pj - pi))
        pts = np.array(out, dtype=np.float64) if out else np.empty((0, 2))
    return pts


def ref_clip_rings(rings, *rect):
    return [c for c in (ref_clip_ring(r, *rect) for r in rings) if len(c) >= 3]


def ref_clip_ring_convex(ring, clip):
    pts, m = ring, len(clip)
    for e in range(m):
        n = len(pts)
        if n == 0:
            return pts
        ax, ay = clip[e]
        bx, by = clip[(e + 1) % m]
        ex, ey = bx - ax, by - ay
        d = ex * (pts[:, 1] - ay) - ey * (pts[:, 0] - ax)
        ins = d >= 0.0
        if ins.all():
            continue
        out = []
        for i in range(n):
            j = (i + 1) % n
            if ins[i]:
                out.append(pts[i])
            if ins[i] != ins[j]:
                t = d[i] / (d[i] - d[j])
                out.append(pts[i] + t * (pts[j] - pts[i]))
        pts = np.array(out, dtype=np.float64) if out else np.empty((0, 2))
    return pts


def ref_clip_area_convex(rings, clip):
    clipped = (ref_clip_ring_convex(r, clip) for r in rings)
    return float(sum(ring_signed_area(c) for c in clipped if len(c) >= 3))


def ref_clip_area(rings, *rect):
    return float(sum(ring_signed_area(r) for r in ref_clip_rings(rings, *rect)))


def ref_cells_coverage(rings, x0, y0, w, h, nx, ny, sizes=None):
    """The per-cell loop; ``sizes`` collects each boundary cell's clipped
    ring lengths."""
    cov = np.zeros((ny, nx))
    tile = ref_clip_rings(rings, x0, y0, x0 + nx * w, y0 + ny * h)
    if not tile:
        return cov
    segs = segments_of(tile)
    ex0 = np.minimum(segs[:, 0], segs[:, 2])
    ex1 = np.maximum(segs[:, 0], segs[:, 2])
    ey0 = np.minimum(segs[:, 1], segs[:, 3])
    ey1 = np.maximum(segs[:, 1], segs[:, 3])
    ix0 = np.clip(np.floor((ex0 - x0) / w).astype(np.int64), 0, nx - 1)
    ix1 = np.clip(np.floor((ex1 - x0) / w - TOL_EPS).astype(np.int64), 0, nx - 1)
    iy0 = np.clip(np.floor((ey0 - y0) / h).astype(np.int64), 0, ny - 1)
    iy1 = np.clip(np.floor((ey1 - y0) / h - TOL_EPS).astype(np.int64), 0, ny - 1)
    ix1, iy1 = np.maximum(ix1, ix0), np.maximum(iy1, iy0)
    boundary = np.zeros((ny, nx), dtype=bool)
    for k in range(len(segs)):
        boundary[iy0[k] : iy1[k] + 1, ix0[k] : ix1[k] + 1] = True
    iys, ixs = np.nonzero(~boundary)
    inside = points_in_rings(x0 + (ixs + 0.5) * w, y0 + (iys + 0.5) * h, tile)
    cov[iys[inside], ixs[inside]] = w * h
    iys, ixs = np.nonzero(boundary)
    for iy, ix in zip(iys.tolist(), ixs.tolist()):
        cx0, cy0 = x0 + ix * w, y0 + iy * h
        if sizes is not None:
            sizes += [len(r) for r in ref_clip_rings(tile, cx0, cy0, cx0 + w, cy0 + h)]
        a = ref_clip_area(tile, cx0, cy0, cx0 + w, cy0 + h)
        if a > 0:
            cov[iy, ix] = a
    return cov


# --- inputs -------------------------------------------------------------


def _star(cx, cy, radii, phase=0.0):
    a = phase + np.linspace(0.0, 2.0 * np.pi, len(radii), endpoint=False)
    return np.stack([cx + radii * np.cos(a), cy + radii * np.sin(a)], axis=1)


@st.composite
def grid(draw, w=None, h=None):
    x0 = float(draw(st.integers(-3, 3)))
    y0 = float(draw(st.integers(-3, 3)))
    w = w or draw(st.sampled_from([1.0, 0.5, 0.7, 2.0]))
    h = h or draw(st.sampled_from([1.0, 0.5, 0.3, 2.0]))
    return x0, y0, w, h, draw(st.integers(1, 12)), draw(st.integers(1, 12))


@st.composite
def polygon(draw, g):
    """Rings in grid units of ``g``: lattice rects on grid lines (with a
    hole, or two parts), or stars of 3-400 vertices, some snapped onto
    grid lines, with an optional hole and a second part."""
    x0, y0, w, h, nx, ny = g

    def gx(k):
        return x0 + k * w

    def gy(k):
        return y0 + k * h

    kind = draw(st.sampled_from(["lattice", "star", "star", "outside"]))
    if kind == "lattice":
        i0, j0 = draw(st.integers(-2, nx)), draw(st.integers(-2, ny))
        i1, j1 = i0 + draw(st.integers(1, nx + 2)), j0 + draw(st.integers(1, ny + 2))
        rings = [np.array([[gx(i0), gy(j0)], [gx(i1), gy(j0)], [gx(i1), gy(j1)], [gx(i0), gy(j1)]])]
        if i1 - i0 >= 3 and j1 - j0 >= 3 and draw(st.booleans()):
            rings.append(np.array(
                [[gx(i0 + 1), gy(j0 + 1)], [gx(i0 + 1), gy(j1 - 1)],
                 [gx(i1 - 1), gy(j1 - 1)], [gx(i1 - 1), gy(j0 + 1)]]
            ))
        if draw(st.booleans()):  # a second part, an L on grid lines
            a, b = i1 + 1, j0
            rings.append(np.array(
                [[gx(a), gy(b)], [gx(a + 2), gy(b)], [gx(a + 2), gy(b + 1)],
                 [gx(a + 1), gy(b + 1)], [gx(a + 1), gy(b + 3)], [gx(a), gy(b + 3)]]
            ))
        return rings
    n = draw(st.sampled_from([3, 5, 8, 13, 40, 96, 130, 257, 400]))
    cx = x0 + draw(st.floats(-1.0, nx + 1.0)) * w
    cy = y0 + draw(st.floats(-1.0, ny + 1.0)) * h
    if kind == "outside":  # wholly left of the window: empty tile clip
        cx = x0 - 20.0 * w
    r = draw(st.floats(0.2, max(nx, ny) * 0.8)) * min(w, h)
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    ring = _star(cx, cy, r * (0.55 + 0.45 * rng.random(n)), rng.random())
    if draw(st.booleans()):  # snap some vertices onto grid lines
        snap = rng.random(n) < 0.3
        ring[snap, 0] = x0 + np.round((ring[snap, 0] - x0) / w) * w
        snap = rng.random(n) < 0.3
        ring[snap, 1] = y0 + np.round((ring[snap, 1] - y0) / h) * h
    rings = [ring]
    if draw(st.booleans()):  # hole, clockwise
        rings.append(_star(cx, cy, np.full(max(3, n // 4), 0.3 * r))[::-1].copy())
    if draw(st.booleans()):  # second part
        rings.append(_star(cx + 2.2 * r, cy, r * (0.55 + 0.45 * rng.random(n))))
    return rings


@st.composite
def case(draw):
    g = draw(grid())
    return g, draw(polygon(g))


@st.composite
def instances(draw):
    """1-12 (window, polygon) instances sharing one cell size."""
    w = draw(st.sampled_from([1.0, 0.5, 0.7, 2.0]))
    h = draw(st.sampled_from([1.0, 0.5, 0.3, 2.0]))
    gs = draw(st.lists(grid(w, h), min_size=1, max_size=12))
    return w, h, [(g, draw(polygon(g))) for g in gs]


def per_instance(polys, windows, w, h):
    """coverage_pairs over all instances, scattered back to one dense
    (ny, nx) array per instance."""
    x0, y0, nx, ny = (np.array(v) for v in zip(*windows))
    inst, ix, iy, area = coverage_pairs(polys, x0, y0, w, h, nx, ny)
    assert (area > 0).all()
    assert np.all(np.diff(inst) >= 0)
    out = [np.zeros((b, a)) for *_, a, b in windows]
    for k, cov in enumerate(out):
        s = inst == k
        cov[iy[s], ix[s]] = area[s]
        # rows come out row-major within an instance
        assert np.array_equal(np.flatnonzero(cov), iy[s] * windows[k][2] + ix[s])
    return out


# --- tests --------------------------------------------------------------


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case())
def test_cells_coverage_matches_per_cell_loop(c):
    g, rings = c
    assert np.array_equal(cells_coverage(rings, *g), ref_cells_coverage(rings, *g))


def test_cells_coverage_ring_size_classes():
    """Boundary cells whose clipped rings have 3-7, 8-128 and more than
    128 vertices, and a polygon whose tile clip is empty."""
    g = (0.0, 0.0, 1.0, 1.0, 6, 5)
    # a 300-gon in one cell crossing its right edge; a 60-gon over a
    # cell corner; a triangle across cells; a hole and a part on grid lines
    rings = [
        _star(1.55, 1.5, np.full(300, 0.48)),
        _star(4.0, 3.0, np.full(60, 0.45)),
        np.array([[2.2, 3.1], [3.7, 3.3], [2.6, 4.9]]),
        np.array([[0.0, 3.0], [2.0, 3.0], [2.0, 5.0], [0.0, 5.0]]),
        np.array([[0.5, 3.5], [0.5, 4.5], [1.0, 4.5], [1.0, 3.5]]),
    ]
    sizes: list[int] = []
    ref = ref_cells_coverage(rings, *g, sizes=sizes)
    assert np.array_equal(cells_coverage(rings, *g), ref)
    sizes = np.array(sizes)
    assert ((sizes >= 3) & (sizes < 8)).any()
    assert ((sizes >= 8) & (sizes <= 128)).any()
    assert (sizes > 128).any()
    away = [r + 100.0 for r in rings]
    assert not cells_coverage(away, *g).any()
    assert not ref_cells_coverage(away, *g).any()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(instances())
def test_coverage_pairs_is_cells_coverage_per_instance(c):
    """Many (polygon, window) instances in one call: each instance's rows
    equal the per-cell loop's coverage, bit for bit."""
    w, h, cases = c
    windows = [(g[0], g[1], g[4], g[5]) for g, _ in cases]
    got = per_instance([rings for _, rings in cases], windows, w, h)
    for cov, (g, rings) in zip(got, cases):
        assert np.array_equal(cov, ref_cells_coverage(rings, *g))


def test_coverage_pairs_large_ring_and_missed_window():
    """A 2,400-vertex ring whose interior test takes points_in_rings'
    per-edge loop (above 2M edge x centre pairs), next to a holed
    lattice polygon on grid lines, a window that misses its polygon and
    an empty polygon."""
    w = h = 0.5
    rng = np.random.default_rng(11)
    big = _star(10.0, 9.0, 8.5 * (0.9 + 0.1 * rng.random(2400)))
    lattice = [
        np.array([[1.0, 1.0], [6.0, 1.0], [6.0, 5.0], [1.0, 5.0]]),
        np.array([[2.0, 2.0], [2.0, 4.0], [4.5, 4.0], [4.5, 2.0]]),
        np.array([[7.0, 1.0], [8.0, 1.0], [8.0, 2.5]]),
    ]
    polys = [[big], lattice, lattice, [], [big]]
    windows = [(0.0, 0.0, 42, 40), (0.5, 0.0, 20, 12), (30.0, 30.0, 5, 5), (0.0, 0.0, 3, 3), (4.0, 3.5, 9, 7)]
    # centres the interior test sees: the window less the boundary cells
    _, iy, ix = _boundary_cells(segments_of([big]), 0.0, 0.0, w, h, 42, 40)
    assert 2400 * (42 * 40 - len(set(zip(iy.tolist(), ix.tolist())))) > 2_000_000
    got = per_instance(polys, windows, w, h)
    for cov, rings, (x0, y0, nx, ny) in zip(got, polys, windows):
        assert np.array_equal(cov, ref_cells_coverage(rings, x0, y0, w, h, nx, ny))
    assert not got[2].any() and not got[3].any()


@settings(max_examples=200, deadline=None)
@given(case(), st.integers(0, 2**16))
def test_clip_ring_rect_matches_per_vertex_loop(c, seed):
    (x0, y0, w, h, nx, ny), rings = c
    rng = np.random.default_rng(seed)
    ring = rings[0]
    # rects on grid lines and on the ring's own vertex coordinates
    i = np.sort(rng.integers(-1, max(nx, ny) + 2, 4))
    k = rng.integers(0, len(ring), 2)
    for rect in (
        (x0 + i[0] * w, y0 + i[1] * h, x0 + i[2] * w + w, y0 + i[3] * h + h),
        (min(ring[k, 0]), min(ring[k, 1]), max(ring[k, 0]) + w, max(ring[k, 1]) + h),
    ):
        got, exp = clip_ring_rect(ring, *rect), ref_clip_ring(ring, *rect)
        assert got.shape == exp.reshape(-1, 2).shape
        assert np.array_equal(got, exp.reshape(-1, 2))
        assert clip_area_rect(rings, *rect) == ref_clip_area(rings, *rect)


def test_clip_area_keeps_ring_signed_area_sum_order():
    """A window holding the whole ring returns ``ring_signed_area`` bit for
    bit at every length: sequential below 8 terms, eight lanes up to 128,
    pairwise recursion beyond."""
    rng = np.random.default_rng(7)
    for n in range(3, 300):
        ring = _star(0.3, -0.2, 10.0 ** rng.uniform(-3, 3, n))
        assert clip_area_rect([ring], -1e4, -1e4, 1e4, 1e4) == ring_signed_area(ring), n


def test_clip_areas_rect_is_per_polygon_clip_area():
    rng = np.random.default_rng(3)
    polys = [
        [_star(rng.uniform(0, 4), rng.uniform(0, 4), rng.uniform(0.5, 2, n))]
        for n in (3, 9, 130, 40)
    ] + [[]]
    rect = (0.5, 1.0, 3.0, 3.5)
    got = clip_areas_rect(polys, *rect)
    assert got.tolist() == [clip_area_rect(p, *rect) for p in polys]
    assert got.tolist() == [ref_clip_area(p, *rect) for p in polys]
    # one rect per polygon
    lo = rng.uniform(-1, 3, (len(polys), 2))
    hi = lo + rng.uniform(0.2, 3, (len(polys), 2))
    got = clip_areas_rect(polys, lo[:, 0], lo[:, 1], hi[:, 0], hi[:, 1])
    assert got.tolist() == [ref_clip_area(p, *lo[k], *hi[k]) for k, p in enumerate(polys)]


def test_clip_areas_convex_matches_per_vertex_loop():
    """Every (polygon, convex clip) pair in one call, clips of 3 to 9
    edges side by side, equals the per-vertex clip pair by pair; so does
    the one-ring clip's vertex array."""
    rng = np.random.default_rng(5)
    polys, clips = [], []
    for _ in range(40):
        outer = _star(rng.uniform(0, 4), rng.uniform(0, 4), rng.uniform(0.5, 2, rng.integers(3, 140)))
        hole = _star(outer[:, 0].mean(), outer[:, 1].mean(), np.full(rng.integers(3, 9), 0.2))[::-1]
        polys.append([outer, hole] if rng.random() < 0.5 else [outer])
        m = int(rng.integers(3, 10))
        clip = _star(rng.uniform(0, 4), rng.uniform(0, 4), np.full(m, rng.uniform(0.3, 3)), rng.uniform(0, 6))
        # some clips through the polygon's own vertices
        clips.append(np.array([outer[0], outer[len(outer) // 2], outer[0] + [5, 0.5]]) if m == 3 else clip)
    got = clip_areas_convex(polys, clips)
    assert got.tolist() == [ref_clip_area_convex(p, c) for p, c in zip(polys, clips)]
    assert got.tolist() == [clip_area_convex(p, c) for p, c in zip(polys, clips)]
    assert clip_areas_convex([], []).tolist() == []
    for p, c in zip(polys, clips):
        assert np.array_equal(clip_ring_convex(p[0], c), ref_clip_ring_convex(p[0], c).reshape(-1, 2))


def test_coverage_pairs_memory_follows_covered_cells():
    """A small polygon in a window of nine million cells: no working array
    spans the window, so the peak allocation stays far below even one
    byte per window cell."""
    import tracemalloc

    tri = [np.array([[10.2, 10.3], [14.9, 11.1], [11.5, 16.8]])]
    tracemalloc.start()
    try:
        inst, ix, iy, area = coverage_pairs([tri], 0.0, 0.0, 1.0, 1.0, 3000, 3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    ref = ref_cells_coverage(tri, 8.0, 8.0, 1.0, 1.0, 10, 12)
    assert np.array_equal(ref[iy - 8, ix - 8], area) and np.count_nonzero(ref) == len(area)
