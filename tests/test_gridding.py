"""make_grid conformance vs the DuckDB rect-decomposition oracle and the
reference's structural invariants (tile ids, xypos corners, trim/interior)."""

import duckdb
import numpy as np
import pytest

from pygridmap_ray.gridding import make_grid, sql_make_grid
from pygridmap_ray.synth import DOMAIN, polygon_layer

CELL = 10_000.0


def _run_sql(sql: str):
    con = duckdb.connect()
    return con.sql(sql).df().sort_values("cell_id").reset_index(drop=True)


@pytest.fixture(scope="module")
def mask():
    return polygon_layer()


@pytest.mark.parametrize(
    "cellsize,interior",
    # 10km cells align with polygon edges (no partial cells); 7.5km cells
    # exercise the boundary-cell Sutherland-Hodgman path against the oracle
    [(10_000.0, False), (10_000.0, True), (7_500.0, False), (7_500.0, True)],
)
def test_make_grid_matches_oracle(ray_session, mask, cellsize, interior):
    got = (
        make_grid(mask, cellsize=cellsize, bbox=DOMAIN, tile=(16, 16), interior=interior)
        .to_pandas()
        .sort_values("cell_id")
        .reset_index(drop=True)
    )
    exp = _run_sql(
        sql_make_grid(DOMAIN, cellsize, tile=(16, 16), interior=interior)
    )
    assert len(got) == len(exp)
    assert got["cell_id"].tolist() == exp["cell_id"].tolist()
    for c in ["ix", "iy", "tile_id", "intersects", "within"]:
        assert got[c].tolist() == exp[c].tolist(), c
    assert np.array_equal(got["x"].to_numpy(), exp["x"].to_numpy())
    assert np.array_equal(got["y"].to_numpy(), exp["y"].to_numpy())


def test_make_grid_no_trim_full_bbox(ray_session, mask):
    got = make_grid(mask, cellsize=50_000.0, bbox=DOMAIN, tile=8, trim=False)
    df = got.to_pandas().sort_values("cell_id").reset_index(drop=True)
    # full grid: ceil(500/50)=10 cols, ceil(501/50)=11 rows
    assert len(df) == 10 * 11
    exp = _run_sql(sql_make_grid(DOMAIN, 50_000.0, tile=8, trim=False))
    assert df["cell_id"].tolist() == exp["cell_id"].tolist()
    assert df["within"].tolist() == exp["within"].tolist()
    assert df["intersects"].tolist() == exp["intersects"].tolist()


def test_make_grid_mask_true(ray_session):
    """mask=True -> full grid, intersects=1 within=0 (reference
    gridding.py:145-147,163)."""
    df = make_grid(True, cellsize=50_000.0, bbox=(0, 0, 200_000, 100_000)).to_pandas()
    assert len(df) == 4 * 2
    assert (df["intersects"] == 1).all() and (df["within"] == 0).all()


@pytest.mark.parametrize("xypos,off", [("LLc", (0, 0)), ("URc", (1, 1)), ("CC", (0.5, 0.5))])
def test_xypos_corners(ray_session, xypos, off):
    df = (
        make_grid(True, cellsize=10_000.0, bbox=(0, 0, 30_000, 20_000), xypos=xypos)
        .to_pandas()
        .sort_values("cell_id")
    )
    assert np.array_equal(df["x"].to_numpy(), (df["ix"] + off[0]).to_numpy() * 10_000.0)
    assert np.array_equal(df["y"].to_numpy(), (df["iy"] + off[1]).to_numpy() * 10_000.0)


def test_interior_subset_of_trim(ray_session, mask):
    full = make_grid(mask, cellsize=25_000.0, bbox=DOMAIN).to_pandas()
    inner = make_grid(mask, cellsize=25_000.0, bbox=DOMAIN, interior=True).to_pandas()
    assert set(inner["cell_id"]) <= set(full["cell_id"])
    assert (inner["within"] == 1).all()
    # trim keeps within ∪ intersects
    assert ((full["within"] == 1) | (full["intersects"] == 1)).all()


def test_sorted_output(ray_session, mask):
    df = make_grid(
        mask, cellsize=50_000.0, bbox=DOMAIN, sort="tile"
    ).to_pandas()
    keys = list(zip(df["tile_id"], df["cell_id"]))
    assert keys == sorted(keys)


@pytest.mark.parametrize("cellsize", [10_000.0, 7_500.0])
def test_placeholders_compat_matches_oracle(ray_session, mask, cellsize):
    """Reference trim=False parity mode (gridding.py:160-172): tile-level
    flags on every cell of an intersecting tile; one placeholder row
    (cell_id = -1 - tile_id, tile lower-left coords, flags 0/0) for each
    non-intersecting tile."""
    got = (
        make_grid(
            mask,
            cellsize=cellsize,
            bbox=DOMAIN,
            tile=(16, 16),
            trim=False,
            placeholders=True,
        )
        .to_pandas()
        .sort_values("cell_id")
        .reset_index(drop=True)
    )
    exp = _run_sql(
        sql_make_grid(DOMAIN, cellsize, tile=(16, 16), trim=False, placeholders=True)
    )
    assert got["cell_id"].tolist() == exp["cell_id"].tolist()
    for c in ["ix", "iy", "tile_id", "intersects", "within"]:
        assert got[c].tolist() == exp[c].tolist(), c
    assert np.array_equal(got["x"].to_numpy(), exp["x"].to_numpy())
    assert np.array_equal(got["y"].to_numpy(), exp["y"].to_numpy())
    ph = got[got["cell_id"] < 0]
    cells = got[got["cell_id"] >= 0]
    # placeholder keys encode their tile; intersecting tiles stamp
    # tile-level intersects=1 on every cell
    assert (ph["cell_id"] == -1 - ph["tile_id"]).all()
    assert (ph[["intersects", "within"]] == 0).all().all()
    assert (cells["intersects"] == 1).all()
    # within is tile-constant in this mode
    assert (cells.groupby("tile_id")["within"].nunique() == 1).all()
    # no tile appears both as cells and as a placeholder
    assert not (set(ph["tile_id"]) & set(cells["tile_id"]))


def test_placeholders_requires_trim_false(ray_session, mask):
    with pytest.raises(ValueError, match="placeholders"):
        make_grid(mask, cellsize=CELL, bbox=DOMAIN, placeholders=True)
    with pytest.raises(ValueError, match="placeholders"):
        make_grid(True, cellsize=CELL, bbox=DOMAIN, trim=False, placeholders=True)


def _square(x0, y0, x1, y1):
    from pygridmap_ray.geom.kernels import rings_area

    ring = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])
    return {"poly_id": 0, "rings": [ring], "bbox": (x0, y0, x1, y1), "area": rings_area([ring])}


def _grid_case(name):
    """(mask layer, bbox, cellsize, tile) of the per-tile parity grids."""
    from test_overlay import _star_layer

    if name == "ragged":  # 67 x 67 cells in 7 x 5 tiles: no tile size divides the grid
        return polygon_layer(), DOMAIN, 7_500.0, (7, 5)
    if name == "625_tiles":  # more than 256 tiles, so each block holds several
        return _star_layer(), (0.0, 0.0, 100_000.0, 100_000.0), 2000.0, (2, 2)
    # 16 tiles in 4 blocks; the mask lies in tile 1, so tile 0 before it
    # and blocks 2-4 trim away
    square = _square(26_000.0, 1_000.0, 39_000.0, 14_000.0)
    return [square], (0.0, 0.0, 100_000.0, 100_000.0), 5_000.0, (5, 5)


MODES = {
    "trim": dict(),
    "interior": dict(interior=True),
    "no_trim": dict(trim=False),
    "placeholders": dict(trim=False, placeholders=True),
    "mask_true": dict(mask=True),
    "mask_none": dict(mask=None),
}


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("grid", ["ragged", "625_tiles", "trimmed_block"])
def test_make_grid_equals_per_tile_kernel(ray_session, grid, mode):
    """make_grid's batched pass gives the rows of emit_tile_cells run one
    tile at a time, in every mode, and every output block carries the
    8-column schema, also a block whose tiles are all trimmed away."""
    import pyarrow as pa
    import ray

    from pygridmap_ray.gridding import emit_tile_cells
    from pygridmap_ray.planning import plan_grid

    layer, bbox, cellsize, tile = _grid_case(grid)
    kw = {"mask": layer, **MODES[mode]}
    spec = plan_grid(bbox, cellsize, tile)
    blocks = ray.get(make_grid(cellsize=cellsize, bbox=bbox, tile=tile, **kw).to_arrow_refs())
    trim = kw.get("trim", True) or kw.get("interior", False)
    args = (kw["mask"], trim, kw.get("interior", False), kw.get("placeholders", False))
    ref = pa.concat_tables(
        pa.table(emit_tile_cells(spec, tiy, tix, *args))
        for tiy in range(spec.nytiles)
        for tix in range(spec.nxtiles)
    )
    assert all(b.schema.equals(ref.schema) for b in blocks)
    got = pa.concat_tables(blocks).sort_by("cell_id")
    assert got.num_rows > 0
    assert got.equals(ref.sort_by("cell_id"))
    if grid == "625_tiles":
        assert spec.ntiles == 625 and len(blocks) < spec.ntiles
    if grid == "trimmed_block" and mode in ("trim", "interior"):
        assert spec.ntiles == 16 and len(blocks) == 4
        # blocks may arrive in any order; three of the four hold no row
        assert sorted(b.num_rows == 0 for b in blocks) == [False, True, True, True]


def test_emit_cells_one_coverage_call_per_batch(monkeypatch):
    """A batch costs one clip_areas_rect and one coverage_pairs call,
    whatever its tile count: no per-tile loop."""
    import pyarrow as pa

    from pygridmap_ray import gridding
    from pygridmap_ray.planning import plan_grid
    from test_overlay import _star_layer

    calls = {"clip_areas_rect": 0, "coverage_pairs": 0}

    def counted(name):
        fn = getattr(gridding, name)

        def wrapper(*a, **k):
            calls[name] += 1
            return fn(*a, **k)

        return wrapper

    for name in calls:
        monkeypatch.setattr(gridding, name, counted(name))
    layer = _star_layer()
    spec = plan_grid((0.0, 0.0, 100_000.0, 100_000.0), 2000.0, (2, 2))
    for trim, interior, tile_flags in [(True, False, False), (True, True, False),
                                       (False, False, False), (False, False, True)]:
        kernel = gridding.EmitCells(spec, layer, trim, interior, tile_flags)
        for n in (1, 7, 160, spec.ntiles):
            calls.update(dict.fromkeys(calls, 0))
            out = kernel(pa.table({"id": np.arange(n, dtype=np.int64)}))
            assert max(calls.values()) <= 1, (trim, interior, tile_flags, n, calls)
            if n == spec.ntiles:
                assert out.num_rows > 0
                assert calls == {"clip_areas_rect": 1, "coverage_pairs": int(not tile_flags)}
