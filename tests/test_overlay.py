"""GridOverlay conformance: DuckDB oracle equality for fragments and
weighted assignment, plus the reference notebooks' golden properties
(identity, mass conservation, overlap consistency — overlay.ipynb)."""

import duckdb
import numpy as np
import pandas as pd
import pytest

from pygridmap_ray.gridding import make_grid
from pygridmap_ray.overlay import (
    area_interpolate,
    cells_to_polygon_layer,
    grid_overlay,
    overlay_fragments,
    sql_grid_overlay_sum,
    sql_overlay_fragments,
)
from pygridmap_ray.planning import plan_grid
from pygridmap_ray.synth import DOMAIN, polygon_layer


def _sql(s):
    con = duckdb.connect()
    return con.sql(s).df()


def _round6(x):
    return np.sign(x) * np.floor(np.abs(x) * 1e6 + 0.5) / 1e6


@pytest.fixture(scope="module")
def polys():
    return polygon_layer()


@pytest.fixture(scope="module")
def grid50(ray_session):
    spec = plan_grid(DOMAIN, 50_000.0, tile=(8, 8))
    ds = make_grid(True, cellsize=50_000.0, bbox=DOMAIN, tile=(8, 8))
    return spec, ds


@pytest.mark.parametrize("how", ["intersection", "union"])
def test_fragments_match_oracle(grid50, polys, how):
    spec, ds = grid50
    got = (
        overlay_fragments(ds, polys, spec, how=how)
        .to_pandas()
        .sort_values(["cell_id", "poly_id"])
        .reset_index(drop=True)
    )
    exp = (
        _sql(sql_overlay_fragments(spec, how=how))
        .sort_values(["cell_id", "poly_id"])
        .reset_index(drop=True)
    )
    assert len(got) == len(exp)
    assert got["cell_id"].tolist() == exp["cell_id"].tolist()
    gp = got["poly_id"].to_numpy(dtype=float)
    ep = exp["poly_id"].to_numpy(dtype=float)
    assert ((gp == ep) | (np.isnan(gp) & np.isnan(ep))).all()
    for c in ["area", "area_pct"]:
        g = _round6(got[c].to_numpy(dtype=float))
        e = exp[c].to_numpy(dtype=float)
        assert ((np.isnan(g) & np.isnan(e)) | (np.abs(g - e) <= 1e-6)).all(), c
    # fragment never exceeds cell or polygon area
    real = got[got["poly_id"].notna()]
    assert (real["area"] <= 50_000.0**2 + 1e-6).all()
    assert (real["area_pct"] <= 1 + 1e-12).all()


def test_weighted_sum_matches_oracle(grid50, polys):
    spec, ds = grid50
    got = (
        grid_overlay(ds, polys, spec, rule="sum", columns=["pop"], cover=True)
        .to_pandas()
        .sort_values("cell_id")
        .reset_index(drop=True)
    )
    got["pop"] = _round6(got["pop"].to_numpy(dtype=float))
    exp = (
        _sql(sql_grid_overlay_sum(spec, ["pop"]))
        .sort_values("cell_id")
        .reset_index(drop=True)
    )
    assert got["cell_id"].tolist() == exp["cell_id"].tolist()
    assert np.abs(got["pop"].to_numpy() - exp["pop"].to_numpy()).max() <= 1e-6
    assert got["cover"].tolist() == exp["cover"].tolist()
    assert got["n_polys"].tolist() == exp["n_polys"].tolist()


def test_identity_preservation(ray_session):
    """overlay(grid, grid) with rule=sum returns the attribute unchanged
    (reference testGridOverlay_0, overlay.ipynb cell 26)."""
    spec = plan_grid((0, 0, 200_000, 150_000), 50_000.0, tile=(4, 4))
    grid = make_grid(True, cellsize=50_000.0, bbox=spec.bbox, tile=(4, 4))
    df = grid.to_pandas().sort_values("cell_id").reset_index(drop=True)
    df["val"] = df["cell_id"].astype(float)
    layer = cells_to_polygon_layer(df, spec, "val")
    import ray.data as rd

    for how in ("intersection", "union"):
        out = (
            grid_overlay(
                rd.from_pandas(df), layer, spec, how=how, rule="sum", columns=["pop"]
            )
            .to_pandas()
            .sort_values("cell_id")
            .reset_index(drop=True)
        )
        assert out["pop"].tolist() == df["val"].tolist(), how


def test_mass_conservation_scale_reduction(ray_session):
    """Coarse grid onto 4x-finer grid, rule=sum: every fine cell gets
    val/16 exactly; per-coarse-cell sums reproduce val (reference
    testGridOverlay_1/2, overlay.ipynb cells 28-30)."""
    bbox = (0, 0, 160_000, 160_000)
    cspec = plan_grid(bbox, 40_000.0, tile=(4, 4))
    coarse = make_grid(True, cellsize=40_000.0, bbox=bbox).to_pandas()
    coarse["val"] = coarse["cell_id"].astype(float) + 1.0
    layer = cells_to_polygon_layer(coarse, cspec, "val")
    fspec = plan_grid(bbox, 10_000.0, tile=(8, 8))
    fine = make_grid(True, cellsize=10_000.0, bbox=bbox, tile=(8, 8))
    frags = overlay_fragments(fine, layer, fspec).to_pandas()
    frags["assigned"] = frags["pop"] * frags["area_pct"]
    # every fine cell exactly one coarse parent with pct = 1/16
    assert (frags.groupby("cell_id").size() == 1).all()
    assert (frags["area_pct"] == 1.0 / 16.0).all()
    assert (frags["assigned"] == frags["pop"] / 16.0).all()
    sums = frags.groupby("poly_id")["assigned"].sum()
    expect = coarse.set_index("cell_id")["val"]
    assert (sums.sort_index() == expect.sort_index()).all()


def test_overlap_consistency(grid50, polys):
    """Σ pop·area_pct from a rule=None run equals the rule=sum assigned
    value (reference testGridOverlay_3, overlay.ipynb cell 32)."""
    spec, ds = grid50
    frags = overlay_fragments(ds, polys, spec).to_pandas()
    manual = (
        (frags["pop"] * frags["area_pct"])
        .groupby(frags["cell_id"])
        .sum()
        .sort_index()
    )
    assigned = (
        grid_overlay(ds, polys, spec, rule="sum", columns=["pop"])
        .to_pandas()
        .set_index("cell_id")["pop"]
        .sort_index()
    )
    # cells with >=2 polygons must exist (P1/P7 overlap by construction)
    counts = frags.groupby("cell_id").size()
    assert (counts >= 2).any()
    assert np.allclose(manual.to_numpy(), assigned.to_numpy(), atol=1e-9)


def test_rule_min_max(grid50, polys):
    spec, ds = grid50
    frags = overlay_fragments(ds, polys, spec).to_pandas()
    got = (
        grid_overlay(ds, polys, spec, rule="max", columns=["pop"])
        .to_pandas()
        .set_index("cell_id")["pop"]
        .sort_index()
    )

    def argmax(g):
        r = g.sort_values(["area_pct", "poly_id"], ascending=[False, True])
        return r["pop"].iloc[0]

    exp = frags.groupby("cell_id").apply(argmax, include_groups=False).sort_index()
    assert got.tolist() == exp.tolist()


def _reference_cells(frags, rule, columns, carry, cover):
    """One row per cell, built per cell in plain pandas from the
    fragment rows — the reference's cover and attribute rules
    (overlay.py:312-374) with the engine's deterministic tie-breaks."""
    rows = []
    for cid, g in frags.groupby("cell_id", sort=True):
        real = g[g["poly_id"].notna()]
        row = {"cell_id": cid, **{c: g[c].iloc[0] for c in carry}}
        if cover:
            ids = sorted({int(v) for v in real["poly_id"]})
            row["cover"] = ",".join(map(str, ids)) if ids else None
            row["n_polys"] = len(ids)
        by_pid = real.sort_values("poly_id", kind="stable")
        best = real.sort_values(
            ["area_pct", "poly_id"], ascending=[rule == "min", True], kind="stable"
        )
        for c in columns:
            if rule in ("min", "max"):
                row[c] = best[c].iloc[0] if len(real) else None
                continue
            wv = by_pid[c] * by_pid["area_pct"]
            if rule == "sum":
                row[c] = float(wv.sum()) if len(real) else 0.0
            else:
                row[c] = ";".join(f"{v:.9f}" for v in wv) or None
        rows.append(row)
    return pd.DataFrame(rows)


_CELL_CASES = [("intersection", None, True), ("union", None, True)] + [
    (how, rule, cov)
    for how in ("intersection", "union")
    for rule in ("sum", "min", "max", "list")
    for cov in (False, True)
]


@pytest.mark.parametrize("how,rule,cover", _CELL_CASES)
def test_cell_rules_match_pandas_reference(grid50, polys, how, rule, cover):
    """Every (how, rule, cover) combination of grid_overlay against a
    per-cell pandas reference over the same fragments, compared column
    by column by name."""
    spec, ds = grid50
    carry = ["ix", "iy"]
    columns = [] if rule is None else (
        ["nuts_id", "pop"] if rule in ("min", "max") else ["pop"]
    )
    frags = overlay_fragments(ds, polys, spec, how=how).to_pandas()
    exp = _reference_cells(frags, rule, columns, carry, cover)
    got = (
        grid_overlay(
            ds, polys, spec, how=how, rule=rule, columns=columns,
            cover=cover, carry=carry,
        )
        .to_pandas()
        .sort_values("cell_id")
        .reset_index(drop=True)
    )
    assert sorted(got.columns) == sorted(exp.columns)
    assert len(got) == len(exp) == frags["cell_id"].nunique()
    for c in exp.columns:
        g, e = got[c], exp[c]
        assert g.isna().tolist() == e.isna().tolist(), c
        g, e = g[e.notna()], e[e.notna()]
        if rule == "sum" and c in columns:
            np.testing.assert_allclose(g.to_numpy(float), e.to_numpy(float), rtol=1e-12)
        else:
            assert g.tolist() == e.tolist(), c


def test_no_fragment_grid_keeps_declared_schema(ray_session, polys):
    """A grid whose cells touch no polygon yields zero rows (intersection)
    but keeps the declared column names and types."""
    import pyarrow as pa

    from pygridmap_ray.overlay import disaggregate

    bbox = (2_000_000.0, 2_000_000.0, 2_400_000.0, 2_400_000.0)
    spec = plan_grid(bbox, 50_000.0, tile=(4, 4))
    grid = make_grid(True, cellsize=50_000.0, bbox=bbox, tile=(4, 4)).materialize()
    assert grid.count() > 0
    cases = [
        (
            grid_overlay(grid, polys, spec, rule="sum", columns=["pop"], cover=True),
            [("cell_id", pa.int64()), ("pop", pa.float64()),
             ("cover", pa.string()), ("n_polys", pa.int64())],
        ),
        (
            disaggregate(polys, grid, spec, ["pop"]),
            [("cell_id", pa.int64()), ("ix", pa.int32()), ("iy", pa.int32()),
             ("pop", pa.float64())],
        ),
    ]
    for ds, want in cases:
        out = ds.materialize()
        assert out.count() == 0
        schema = out.schema()
        assert list(zip(schema.names, schema.types)) == want


def test_area_interpolate_wrapper(grid50, polys):
    spec, ds = grid50
    out = area_interpolate(polys, ds, spec, ["pop"]).to_pandas()
    assert {"cell_id", "pop", "cover", "n_polys"} <= set(out.columns)
    # total interpolated mass equals Σ pop over polygons fully inside domain
    # (all fixture polygons are inside the domain)
    total = sum(p["pop"] for p in polys)
    assert out["pop"].sum() == pytest.approx(total, rel=1e-9)


def test_disaggregate_conserves_mass(ray_session):
    """Dasymetric disaggregation: total mass on the grid equals the sum
    of polygon totals weighted by the covered fraction — exactly the
    polygon totals when every polygon lies inside the grid (the fixture
    layer does)."""
    from pygridmap_ray.gridding import make_grid
    from pygridmap_ray.overlay import disaggregate
    from pygridmap_ray.planning import plan_grid
    from pygridmap_ray.synth import DOMAIN, polygon_layer

    layer = polygon_layer()
    spec = plan_grid(DOMAIN, 50_000.0, tile=(8, 8))
    grid = make_grid(True, cellsize=50_000.0, bbox=DOMAIN, tile=(8, 8))
    out = disaggregate(layer, grid, spec, ["pop"]).to_pandas()
    total = out["pop"].sum()
    expect = sum(p["pop"] for p in layer)
    assert abs(total - expect) < 1e-6 * max(1.0, abs(expect))
    # inverse relationship: re-interpolating the disaggregated grid back
    # is NOT tested here (intensive/extensive asymmetry); conservation is
    # the defining invariant
    assert (out["pop"] >= -1e-12).all()


def test_poly_overlay_heal_tol_matches_clean_layer(ray_session):
    """poly_overlay(heal_tol=...) on a noise-injected subject layer
    (duplicate vertices + out-and-back spikes) reproduces the clean
    layer's areas exactly."""
    import numpy as np
    import ray.data as rd

    from pygridmap_ray.overlay import poly_overlay
    from pygridmap_ray.synth import clip_layer, polygon_layer

    def rows(noisy: bool):
        out = []
        for p in polygon_layer():
            rings = []
            for r in p["rings"]:
                r = r / 1000.0
                if noisy:
                    pts = []
                    for j, q in enumerate(r):
                        pts.append(q)
                        if j % 3 == 0:
                            pts.append(q)  # duplicate vertex
                        if j % 4 == 1:
                            s = q + np.array([7.0, 3.0])
                            pts += [s, q]  # zero-area spike
                    r = np.asarray(pts)
                rings.append(r.tolist())
            out.append({"poly_id": p["poly_id"], "rings": rings})
        return out

    def run(rows_, **kw):
        return (
            poly_overlay(rd.from_items(rows_).repartition(3),
                         clip_layer(), **kw)
            .to_pandas()
            .sort_values(["poly_id", "clip_id"])
            .reset_index(drop=True)
        )

    clean = run(rows(False))
    healed = run(rows(True), heal_tol=1e-9)
    assert clean.equals(healed)


def test_poly_metrics_known_shapes(ray_session):
    """Area/perimeter/compactness against hand-computed shapes,
    including a hole and a circle-approximation compactness limit."""
    import math

    import ray.data as rd

    from pygridmap_ray.overlay import poly_metrics

    # unit square; square with a centered half-size hole; near-circle
    theta = np.linspace(0, 2 * np.pi, 200, endpoint=False)
    circ = [[math.cos(t), math.sin(t)] for t in theta]
    subs = [
        {"poly_id": 0, "rings": [[[0, 0], [4, 0], [4, 4], [0, 4]]]},
        {
            "poly_id": 1,
            "rings": [
                [[0, 0], [4, 0], [4, 4], [0, 4]],
                [[1, 1], [1, 3], [3, 3], [3, 1]],  # CW hole
            ],
        },
        {"poly_id": 2, "rings": [circ]},
    ]
    out = (
        poly_metrics(rd.from_items(subs))
        .to_pandas()
        .sort_values("poly_id")
        .reset_index(drop=True)
    )
    assert abs(out.loc[0, "area"] - 16.0) < 1e-12
    assert abs(out.loc[0, "perimeter"] - 16.0) < 1e-12
    assert abs(out.loc[0, "compactness"] - math.pi / 4) < 1e-6
    assert abs(out.loc[1, "area"] - 12.0) < 1e-12
    assert abs(out.loc[1, "perimeter"] - 24.0) < 1e-12
    assert abs(out.loc[0, "cx"] - 2.0) < 1e-9 and abs(out.loc[0, "cy"] - 2.0) < 1e-9
    assert abs(out.loc[1, "cx"] - 2.0) < 1e-9 and abs(out.loc[1, "cy"] - 2.0) < 1e-9
    assert abs(out.loc[2, "cx"]) < 1e-6 and abs(out.loc[2, "cy"]) < 1e-6
    # near-circle approaches the isoperimetric bound 1
    assert out.loc[2, "compactness"] > 0.999


def test_poly_adjacency_known_topology(ray_session):
    """The fixture layer's hand-checkable relations: P7 overlaps P1
    (deliberate fixture overlap); P0 touches P1 (shared x=200k edge)."""
    from pygridmap_ray.pipelines.queries import q_poly_adjacency

    out = q_poly_adjacency("/root/testdata/sf0.001").to_pandas()
    rel = {
        (a, b): r
        for a, b, r in zip(out["poly_a"], out["poly_b"], out["relation"])
    }
    assert rel[(1, 7)] == "overlaps"
    assert rel[(0, 1)] == "touches"
    assert all(a < b for a, b in rel)


def test_zonal_hist_sums_to_zonal_stats(ray_session):
    """Per-polygon histogram counts must sum to zonal_stats n_cells."""
    from pygridmap_ray.pipelines.queries import q_zonal_hist, q_zonal_stats

    hist = q_zonal_hist("/root/testdata/sf0.001").to_pandas()
    stats = q_zonal_stats("/root/testdata/sf0.001").to_pandas()
    got = hist.groupby("poly_id")["n_cells"].sum().sort_index()
    exp = stats.set_index("poly_id")["n_cells"].sort_index()
    assert (got == exp).all()
    assert hist["bin"].between(0, 9).all()


def _star_layer(seed: int = 1, k: int = 6, nvert: int = 96, side: float = 100_000.0):
    """k x k overlapping stars of ``nvert`` vertices on a jittered grid."""
    from pygridmap_ray.geom.kernels import rings_area

    rng = np.random.default_rng(seed)
    pitch = side / k
    t = np.linspace(0.0, 2.0 * np.pi, nvert, endpoint=False)
    layer = []
    for i in range(k * k):
        cx, cy = (np.array([i % k, i // k]) + 0.5 + rng.uniform(-0.2, 0.2, 2)) * pitch
        r = pitch * rng.uniform(0.3, 0.6, nvert)
        ring = np.stack([cx + r * np.cos(t), cy + r * np.sin(t)], axis=1)
        layer.append({
            "poly_id": i, "nuts_id": f"S{i}", "pop": float(rng.integers(100, 10_000)),
            "rings": [ring], "bbox": (*ring.min(axis=0), *ring.max(axis=0)),
            "area": rings_area([ring]),
        })
    return layer


def _arrow(ds, *keys):
    import pyarrow as pa

    t = pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow", batch_size=None)))
    return t.sort_by([(k, "ascending") for k in keys])


@pytest.mark.parametrize("tile", [(16, 16), (2, 2)])
def test_overlay_does_not_depend_on_block_layout(ray_session, tile):
    """Fragments and interpolated sums are the same bits whichever cells
    share a batch: one cell per batch against whole blocks, and a grid of
    one block against sixteen, on a 9-tile and a 625-tile grid."""
    layer = _star_layer()
    bbox = (0.0, 0.0, 100_000.0, 100_000.0)
    spec = plan_grid(bbox, 2000.0, tile)
    grid = make_grid(layer, cellsize=2000.0, bbox=bbox, tile=tile).materialize()
    assert spec.nxtiles * spec.nytiles == {(16, 16): 16, (2, 2): 625}[tile]
    one = _arrow(overlay_fragments(grid, layer, spec, batch_size=1), "cell_id", "poly_id")
    whole = _arrow(overlay_fragments(grid, layer, spec), "cell_id", "poly_id")
    assert one.num_rows > grid.count()
    assert one.equals(whole)
    a = _arrow(area_interpolate(layer, grid.repartition(1), spec, ["pop"]), "cell_id")
    b = _arrow(area_interpolate(layer, grid.repartition(16), spec, ["pop"]), "cell_id")
    assert a.equals(b)


def test_overlay_batch_builds_only_its_tiles(monkeypatch):
    """A batch clips its polygons to the grid tiles its cells lie in, so
    a polygon of a million cells costs a four-cell batch one tile."""
    import pyarrow as pa

    from pygridmap_ray import overlay
    from pygridmap_ray.geom.kernels import rings_area

    side = 1000.0
    ring = np.array([[0.0, 0.0], [side, 0.0], [side, side], [0.0, side]])
    layer = [{
        "poly_id": 7, "nuts_id": "Q", "pop": 5.0, "rings": [ring],
        "bbox": (0.0, 0.0, side, side), "area": rings_area([ring]),
    }]
    seen = []

    def spy(polygons, x0, y0, w, h, nx, ny):
        seen.append(int(np.sum(np.asarray(nx) * np.asarray(ny))))
        return coverage_pairs(polygons, x0, y0, w, h, nx, ny)

    from pygridmap_ray.geom.kernels import coverage_pairs

    monkeypatch.setattr(overlay, "coverage_pairs", spy)
    kern = overlay.OverlayKernel(layer, (1.0, 1.0), (0.0, 0.0), "union", tilesize=(16, 16))
    assert seen == []
    batch = pa.table({"cell_id": [1, 2, 3, 4], "ix": [40, 41, 40, 41], "iy": [500, 500, 501, 501]})
    out = kern(batch)
    assert seen == [16 * 16]
    assert out["poly_id"].to_pylist() == [7] * 4
    assert out["area"].to_pylist() == [1.0] * 4
