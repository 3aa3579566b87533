"""The shared polygon-layer index behind the three point-in-polygon join
paths (``PointJoinKernel``, ``join_points_via_cell_index``,
``join_points_via_hex_cover``) against a brute-force
``points_in_rings`` over every polygon of the layer.

Layers live on an integer lattice, so points can sit exactly on
vertices, on edges and on bbox max edges; polygons overlap, carry holes,
come in several parts and have horizontal edges."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pygridmap_ray.geom.kernels import as_ring, points_in_rings
from pygridmap_ray.spatial import PointJoinKernel

ATTRS = ("nuts_id", "pop")
HEX_SIZE = 6.3  # hex vertices stay off the integer lattice


def _rect(x0, y0, x1, y1):
    return as_ring([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])


@st.composite
def polygon(draw):
    kind = draw(st.sampled_from(["rect", "hole", "multi", "ell", "tri"]))
    x0, y0 = draw(st.integers(0, 50)), draw(st.integers(0, 50))
    w, h = draw(st.integers(4, 24)), draw(st.integers(4, 24))
    x1, y1 = x0 + w, y0 + h
    if kind == "rect":
        return [_rect(x0, y0, x1, y1)], [(x0, y0, x1, y1)]
    if kind == "hole":
        hx0 = draw(st.integers(x0 + 1, x1 - 2))
        hy0 = draw(st.integers(y0 + 1, y1 - 2))
        hx1 = draw(st.integers(hx0 + 1, x1 - 1))
        hy1 = draw(st.integers(hy0 + 1, y1 - 1))
        hole = as_ring([[hx0, hy0], [hx0, hy1], [hx1, hy1], [hx1, hy0]])
        rects = [
            (x0, y0, x1, hy0),
            (x0, hy1, x1, y1),
            (x0, hy0, hx0, hy1),
            (hx1, hy0, x1, hy1),
        ]
        return [_rect(x0, y0, x1, y1), hole], rects
    if kind == "multi":
        gap = draw(st.integers(1, 6))
        dy = draw(st.integers(-3, 3))
        second = (x1 + gap, y0 + dy, x1 + gap + w // 2, y1 + dy)
        return [_rect(x0, y0, x1, y1), _rect(*second)], [(x0, y0, x1, y1), second]
    if kind == "ell":
        mx = draw(st.integers(x0 + 1, x1 - 1))
        my = draw(st.integers(y0 + 1, y1 - 1))
        ring = as_ring([[x0, y0], [x1, y0], [x1, my], [mx, my], [mx, y1], [x0, y1]])
        return [ring], [(x0, y0, x1, my), (x0, my, mx, y1)]
    apex = draw(st.integers(x0 - 5, x1 + 5))
    # triangle with a horizontal base; its rects only cover it
    ring = as_ring([[x0, y0], [x1, y0], [apex, y1]])
    xs = (x0, x1, apex)
    return [ring], [(min(xs), y0, max(xs), y1)]


@st.composite
def case(draw, min_points=0):
    """(layer, points): layer positions and poly_ids deliberately differ."""
    parts = draw(st.lists(polygon(), min_size=1, max_size=6))
    ids = draw(st.permutations([3 * i + 7 for i in range(len(parts))]))
    layer = []
    for pid, (rings, rects) in zip(ids, parts):
        v = np.concatenate(rings)
        layer.append(
            {
                "poly_id": int(pid),
                "nuts_id": f"R{pid}",
                "pop": float(pid) + 0.5,
                "rings": rings,
                "rects": rects,
                "bbox": (
                    float(v[:, 0].min()),
                    float(v[:, 1].min()),
                    float(v[:, 0].max()),
                    float(v[:, 1].max()),
                ),
            }
        )
    # snapped points: every vertex, each edge's midpoint, bbox max edges
    snap = []
    for p in layer:
        bx0, by0, bx1, by1 = p["bbox"]
        snap += [(bx1, (by0 + by1) / 2), ((bx0 + bx1) / 2, by1), (bx1, by1)]
        for r in p["rings"]:
            snap += [tuple(q) for q in r]
            snap += [tuple(q) for q in (r + np.roll(r, -1, axis=0)) / 2]
    coord = st.floats(0.0, 80.0, allow_nan=False)
    pts = draw(
        st.lists(
            st.one_of(
                st.sampled_from(snap),
                st.tuples(st.integers(0, 80).map(float), st.integers(0, 80).map(float)),
                st.tuples(coord, coord),
            ),
            min_size=min_points,
            max_size=60 + min_points,
        )
    )
    x = np.array([p[0] for p in pts], dtype=np.float64)
    y = np.array([p[1] for p in pts], dtype=np.float64)
    return layer, x, y


def _batch(x, y):
    return pa.table({"row": np.arange(len(x), dtype=np.int64), "x": x, "y": y})


def _brute(layer, x, y):
    """Containment matrix (polygon position, point)."""
    return np.array([points_in_rings(x, y, p["rings"]) for p in layer]).reshape(
        len(layer), len(x)
    )


def _pairs(ds):
    out = []
    for b in ds.iter_batches(batch_format="pyarrow", batch_size=None):
        out += zip(b["row"].to_pylist(), b["poly_id"].to_pylist())
    return sorted(out)


def _brute_pairs(layer, x, y):
    inside = _brute(layer, x, y)
    return sorted(
        (int(i), layer[j]["poly_id"]) for j, i in zip(*np.nonzero(inside))
    )


@settings(max_examples=200, deadline=None)
@given(case(), st.sampled_from(["inner", "left"]))
def test_point_join_kernel_matches_brute_force(c, how):
    layer, x, y = c
    out = PointJoinKernel(layer, ATTRS, how)(_batch(x, y))
    inside = _brute(layer, x, y)
    # polygon-major, x-ascending (ties by row), then the unmatched rows
    want_rows, want_pid = [], []
    for j, p in enumerate(layer):
        rows = np.nonzero(inside[j])[0]
        rows = rows[np.argsort(x[rows], kind="stable")]
        want_rows += rows.tolist()
        want_pid += [p["poly_id"]] * len(rows)
    if how == "left":
        miss = np.nonzero(~inside.any(axis=0))[0].tolist()
        want_rows += miss
        want_pid += [None] * len(miss)
    assert out["row"].to_pylist() == want_rows
    assert out["poly_id"].to_pylist() == want_pid
    by_pid = {p["poly_id"]: p for p in layer}
    assert out["nuts_id"].to_pylist() == [
        by_pid[p]["nuts_id"] if p is not None else None for p in want_pid
    ]
    assert out["pop"].to_pylist() == [
        by_pid[p]["pop"] if p is not None else None for p in want_pid
    ]
    assert out.schema.field("poly_id").type == pa.int64()
    assert out.schema.field("nuts_id").type == pa.string()
    assert out.schema.field("pop").type == pa.float64()


@pytest.mark.parametrize("how", ["inner", "left"])
def test_point_join_kernel_empty_batch_keeps_types(how):
    from pygridmap_ray.synth import polygon_layer

    out = PointJoinKernel(polygon_layer(), ATTRS, how)(_batch(np.empty(0), np.empty(0)))
    assert out.num_rows == 0
    assert out.schema.names == ["row", "x", "y", "poly_id", "nuts_id", "pop"]
    assert [out.schema.field(c).type for c in ("poly_id", "nuts_id", "pop")] == [
        pa.int64(),
        pa.string(),
        pa.float64(),
    ]


def test_point_join_kernel_all_unmatched_left_batch():
    from pygridmap_ray.synth import polygon_layer

    x = np.array([-5.0, 1e7, 600_000.0])
    out = PointJoinKernel(polygon_layer(), ATTRS, "left")(_batch(x, x))
    assert out["row"].to_pylist() == [0, 1, 2]
    for c, t in (("poly_id", pa.int64()), ("nuts_id", pa.string()), ("pop", pa.float64())):
        assert out.schema.field(c).type == t
        assert out[c].null_count == 3


def _hex_ranges():
    from pygridmap_ray.hex import hex_axial

    g = np.arange(-10.0, 100.0, 0.5)
    gx, gy = np.meshgrid(g, g)
    q, r = hex_axial(gx.ravel(), gy.ravel(), HEX_SIZE)
    return (int(q.min()) - 1, int(q.max()) + 1), (int(r.min()) - 1, int(r.max()) + 1)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case(min_points=40))
def test_cell_index_and_hex_cover_match_brute_force(ray_session, c):
    import ray.data as rd

    from pygridmap_ray.spatial import (
        join_points_via_cell_index,
        join_points_via_hex_cover,
    )

    layer, x, y = c
    want = _brute_pairs(layer, x, y)
    ds = rd.from_arrow(_batch(x, y)).repartition(2)
    cell = join_points_via_cell_index(ds, layer, resolution=10.0, num_partitions=2)
    assert _pairs(cell) == want
    q_range, r_range = _hex_ranges()
    hexed = join_points_via_hex_cover(
        ds, layer, hex_size=HEX_SIZE, q_range=q_range, r_range=r_range
    )
    assert _pairs(hexed) == want


def test_none_first_attribute_stays_null(ray_session):
    """A layer whose first polygon has ``None`` attributes: the string
    column stays a string column and every ``None`` comes out null, in
    the point join and in the overlay."""
    import ray.data as rd

    from pygridmap_ray.gridding import make_grid
    from pygridmap_ray.overlay import grid_overlay, overlay_fragments
    from pygridmap_ray.planning import plan_grid
    from pygridmap_ray.spatial import join_points_to_polygons

    layer = [
        {"poly_id": 7, "nuts_id": None, "pop": None, "rings": [_rect(0, 0, 4, 4)],
         "bbox": (0, 0, 4, 4), "area": 16.0},
        {"poly_id": 9, "nuts_id": "AT1", "pop": 5.0, "rings": [_rect(4, 0, 8, 4)],
         "bbox": (4, 0, 8, 4), "area": 16.0},
    ]

    def table(ds, key):
        t = pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow", batch_size=None)))
        return t.sort_by(key)

    pts = rd.from_arrow(pa.table({"x": [5.0, 1.0, 20.0], "y": [1.0, 1.0, 1.0]}))
    got = table(join_points_to_polygons(pts, layer, how="left"), "x")
    assert got["poly_id"].to_pylist() == [7, 9, None]
    assert got["nuts_id"].type == pa.string()
    assert got["nuts_id"].to_pylist() == [None, "AT1", None]
    assert got["pop"].to_pylist() == [None, 5.0, None]

    bbox = (0.0, 0.0, 8.0, 4.0)
    spec = plan_grid(bbox, 4.0, (2, 2))
    grid = make_grid(True, cellsize=4.0, bbox=bbox, tile=(2, 2))
    frags = table(overlay_fragments(grid, layer, spec), "cell_id")
    assert frags["poly_id"].to_pylist() == [7, 9]
    assert frags["nuts_id"].to_pylist() == [None, "AT1"]
    assert frags["pop"].to_pylist() == [None, 5.0]
    cells = table(grid_overlay(grid, layer, spec, rule="max", columns=["nuts_id"]), "cell_id")
    assert cells["nuts_id"].to_pylist() == [None, "AT1"]
