"""Regressions for the code-review findings (each reproduced the bug
before its fix)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def test_knn_duplicated_points_exhausted_halving():
    """40 identical coordinates keep point-weighted occupancy high through
    every halving; the index keys must still match the query grid (stale
    keys previously made lookups miss and the ring loop spin)."""
    from pygridmap_ray.spatial import KnnJoinKernel

    n = 40
    ref = {
        "id": np.arange(n, dtype=np.int64),
        "x": np.full(n, 123.0),
        "y": np.full(n, 456.0),
    }
    kern = KnnJoinKernel(ref, 1000.0, k=4)
    out = kern(pa.table({"x": pa.array([123.0, 9999.0]), "y": pa.array([456.0, 9999.0])})).to_pandas()
    q0 = out[out.x == 123.0].sort_values("rank")
    assert q0["neighbor_id"].tolist() == [0, 1, 2, 3]  # distance ties -> id order
    assert (q0["distance"] == 0.0).all()
    q1 = out[out.x == 9999.0].sort_values("rank")
    assert q1["neighbor_id"].tolist() == [0, 1, 2, 3]  # far query still exact


def test_knn_far_query_needs_many_rings():
    """A query far outside the occupied region terminates via the
    occupied-extent bound and still returns the true nearest points."""
    from pygridmap_ray.spatial import KnnJoinKernel

    ref = {
        "id": np.arange(3, dtype=np.int64),
        "x": np.array([0.0, 10.0, 20.0]),
        "y": np.zeros(3),
    }
    kern = KnnJoinKernel(ref, 1.0, k=2)  # tiny cells -> query is ~1e6 rings away
    out = kern(pa.table({"x": pa.array([1_000_000.0]), "y": pa.array([0.0])})).to_pandas()
    assert out["neighbor_id"].tolist() == [2, 1]


def test_union_sum_keeps_remainder_only_cells(ray_session):
    """rule=sum over how=union with empty carry: cells outside every
    polygon must appear with sum 0 (previously silently dropped)."""
    import ray.data as rd

    from pygridmap_ray.gridding import make_grid
    from pygridmap_ray.overlay import grid_overlay
    from pygridmap_ray.planning import plan_grid
    from pygridmap_ray.synth import polygon_layer

    spec = plan_grid((0, 0, 500_000, 501_000), 50_000.0, tile=(8, 8))
    grid = make_grid(True, cellsize=50_000.0, bbox=spec.bbox, tile=(8, 8))
    out = grid_overlay(
        grid, polygon_layer(), spec, how="union", rule="sum", columns=["pop"]
    ).to_pandas()
    assert len(out) == spec.nrows * spec.ncols  # EVERY cell present
    uncovered = out[out["pop"] == 0.0]
    assert len(uncovered) > 0


def test_partition_values_with_separator_chars(ray_session, tmp_path):
    """String partition keys containing '|' '/' '=' stay distinct and
    recoverable (previously merged into a wrong truncated dir)."""
    import glob

    import ray.data as rd

    from pygridmap_ray.tiler import write_partitioned

    df = pd.DataFrame({"cat": ["a|b", "a|c", "x/y", "k=v"], "v": [1.0, 2.0, 3.0, 4.0]})
    n = write_partitioned(rd.from_pandas(df), str(tmp_path / "t"), ["cat"])
    assert n == 4
    dirs = sorted(p.split("/")[-1] for p in glob.glob(str(tmp_path / "t" / "cat=*")))
    assert len(dirs) == 4  # four distinct partitions
    from urllib.parse import unquote

    decoded = sorted(unquote(d[len("cat="):]) for d in dirs)
    assert decoded == sorted(df["cat"])


def test_single_rule_unrounded_matches_oracle(ray_session):
    """'single' values pass through unrounded on both sides."""
    import duckdb
    import ray.data as rd

    from pygridmap_ray.tiler import grid_aggregation, sql_grid_aggregation

    df = pd.DataFrame(
        {
            "x": [0.0, 1000.0],
            "y": [0.0, 0.0],
            "ix": [0, 1],
            "iy": [0, 0],
            "val": [1.005, 2.5],
        }
    )
    rules = {"val": "single"}
    got = (
        grid_aggregation(rd.from_pandas(df), resolution=1000.0, a=2, columns=rules, rounding=2)
        .to_pandas()
        .sort_values(["xa", "ya"])
    )
    con = duckdb.connect()
    con.register("cells", df)
    exp = con.sql(sql_grid_aggregation(1000.0, 2, rules, rounding=2)).df()
    assert got["val"].tolist() == exp["val"].tolist() == [1.005]


def test_grid_tiling_empty_input(ray_session, tmp_path):
    import ray.data as rd

    from pygridmap_ray.tiler import grid_tiling

    df = pd.DataFrame({"x": [1.0], "y": [1.0]}).iloc[:0]
    info = grid_tiling(
        rd.from_pandas(pd.DataFrame({"x": [1.0], "y": [1.0]})).filter(lambda r: False),
        str(tmp_path / "t"),
        resolution=1000.0,
    )
    assert info["tilingBounds"] is None and info["rows"] == 0


def test_overlay_string_attr_union(ray_session):
    """Union remainders with a non-'nuts_id' string attribute column keep
    consistent Arrow types (previously schema-mismatch crash)."""
    import ray.data as rd

    from pygridmap_ray.gridding import make_grid
    from pygridmap_ray.overlay import overlay_fragments
    from pygridmap_ray.planning import plan_grid
    from pygridmap_ray.synth import polygon_layer

    layer = [dict(p, region_name=f"R{p['poly_id']}") for p in polygon_layer()]
    spec = plan_grid((0, 0, 500_000, 501_000), 50_000.0, tile=(8, 8))
    grid = make_grid(True, cellsize=50_000.0, bbox=spec.bbox, tile=(8, 8))
    out = overlay_fragments(
        grid, layer, spec, how="union", attr_cols=("region_name", "pop")
    ).to_pandas()
    real = out[out["poly_id"].notna()]
    assert real["region_name"].str.startswith("R").all()
    assert out[out["poly_id"].isna()]["region_name"].isna().all()


def test_hash_join_notch_and_sliver_exactness(ray_session):
    """Hash-join path matches the broadcast join even for (a) a polygon
    covering a cell except a small notch (full-cell tolerance previously
    admitted points inside the notch) and (b) a thin sliver polygon whose
    cells fell under the emission threshold (points silently missing)."""
    import ray.data as rd

    from pygridmap_ray.geom.kernels import as_ring
    from pygridmap_ray.spatial import (
        join_points_to_polygons,
        join_points_via_cell_index,
    )

    notch = as_ring(
        [[0, 0], [10000, 0], [10000, 9980], [20, 9980], [20, 10000], [0, 10000]]
    )
    sliver = as_ring([[20000, 0], [30000.08, 0], [30000.08, 10000], [20000, 10000]])
    layer = [
        {"poly_id": 0, "nuts_id": "N", "rings": [notch], "bbox": (0, 0, 10000, 10000), "pop": 1.0, "area": 1.0},
        {"poly_id": 1, "nuts_id": "S", "rings": [sliver], "bbox": (20000, 0, 30000.08, 10000), "pop": 2.0, "area": 1.0},
    ]
    pts = pd.DataFrame(
        {
            "pid": [0, 1, 2],
            # inside the notch (NOT in poly 0), interior, inside the sliver cell
            "x": [5000.0, 5000.0, 30000.04],
            "y": [9990.0, 5000.0, 5000.0],
        }
    )
    ds = rd.from_pandas(pts)
    bc = (
        join_points_to_polygons(ds, layer, how="inner")
        .to_pandas()[["pid", "poly_id"]]
        .sort_values(["pid", "poly_id"])
        .reset_index(drop=True)
    )
    hj = (
        join_points_via_cell_index(ds, layer, resolution=10_000.0, num_partitions=2)
        .to_pandas()[["pid", "poly_id"]]
        .sort_values(["pid", "poly_id"])
        .reset_index(drop=True)
    )
    assert bc.equals(hj)
    assert set(bc["pid"]) == {1, 2}  # notch point matches nothing


def test_union_int_attr_no_schema_crash(ray_session):
    """Integer polygon attributes must not schema-clash with float64 nulls
    on union remainder rows."""
    import ray.data as rd

    from pygridmap_ray.gridding import make_grid
    from pygridmap_ray.overlay import overlay_fragments
    from pygridmap_ray.planning import plan_grid
    from pygridmap_ray.synth import polygon_layer

    layer = [dict(p, pop=int(p["pop"])) for p in polygon_layer()]
    spec = plan_grid((0, 0, 500_000, 501_000), 50_000.0, tile=(8, 8))
    grid = make_grid(True, cellsize=50_000.0, bbox=spec.bbox, tile=(8, 8))
    out = overlay_fragments(grid, layer, spec, how="union").to_pandas()
    assert out["pop"].dtype.kind == "f"
    assert out[out["poly_id"].isna()]["pop"].isna().all()


def test_union_argext_keeps_remainder_cells(ray_session):
    """how=union + rule=max must keep remainder-only cells (null attr),
    matching the sum path — the join argext is intersection-only."""
    import ray.data as rd

    from pygridmap_ray.gridding import make_grid
    from pygridmap_ray.overlay import grid_overlay
    from pygridmap_ray.planning import plan_grid
    from pygridmap_ray.synth import polygon_layer

    spec = plan_grid((0, 0, 500_000, 501_000), 50_000.0, tile=(8, 8))
    grid = make_grid(True, cellsize=50_000.0, bbox=spec.bbox, tile=(8, 8))
    out = grid_overlay(
        grid, polygon_layer(), spec, how="union", rule="max", columns=["pop"]
    ).to_pandas()
    assert len(out) == spec.nrows * spec.ncols
    assert out["pop"].isna().sum() > 0


def test_inprogress_tmp_files_invisible(ray_session, tmp_path):
    """A crash-leftover in-progress file must not break later reads or
    validate as part of the output."""
    import ray.data as rd

    from pygridmap_ray.state import validate_output
    from pygridmap_ray.tiler import read_tiles, write_partitioned

    df = pd.DataFrame({"xt": [0, 1], "v": [1.0, 2.0]})
    write_partitioned(rd.from_pandas(df), str(tmp_path / "t"), ["xt"])
    dead = tmp_path / "t" / "xt=0" / "part-dead.parquet.inprogress"
    dead.write_bytes(b"half written garbage")
    assert read_tiles(str(tmp_path / "t")).count() == 2  # read unaffected
    assert validate_output(str(tmp_path / "t"))  # not an orphan data file


def test_kmeans_quantize_tolerate_empty_blocks(ray_session):
    """r3 review: empty pyarrow blocks (filters/repartition leave them)
    must not crash the embedding partial stages."""
    import ray.data as rd

    from pygridmap_ray.ann import kmeans_embeddings, quantize_embeddings

    rng = np.random.default_rng(0)
    X = rng.normal(0, 1, (40, 8))
    t = pa.table(
        {
            "vec_id": np.arange(40, dtype=np.int64),
            "embedding": pa.array(list(X), pa.list_(pa.float64())),
        }
    )
    ds = rd.from_arrow(t).repartition(10).map_batches(
        lambda b: b.filter(pa.array(np.asarray(b["vec_id"]) % 7 != 5)),
        batch_format="pyarrow",
    )
    assert kmeans_embeddings(ds, k=4, iters=2).count() == 35
    assert quantize_embeddings(ds).count() == 35


def test_events_retention_pre_1970(ray_session, tmp_path):
    """r3 review: negative epoch weeks must pack (bias) AND follow
    DuckDB's truncate-toward-zero // law, not numpy's floor."""
    import duckdb
    import pyarrow.parquet as pq

    from pygridmap_ray.pipelines.relational import (
        events_retention, sql_events_retention,
    )

    ev = pa.table(
        {
            "user_id": pa.array([1, 1, 2, 2, 3], pa.int64()),
            "ts": pa.array(
                [
                    np.datetime64("1969-12-30T00:00:00", "us"),
                    np.datetime64("1970-01-15T00:00:00", "us"),
                    np.datetime64("1969-06-01T00:00:00", "us"),
                    np.datetime64("1969-06-20T00:00:00", "us"),
                    np.datetime64("1971-03-01T00:00:00", "us"),
                ],
                pa.timestamp("us"),
            ),
        }
    )
    pq.write_table(ev, str(tmp_path / "events.parquet"))
    got = (
        events_retention(str(tmp_path))
        .to_pandas()
        .sort_values(["cohort_week", "week"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW events AS SELECT * FROM"
        f" read_parquet('{tmp_path}/events.parquet')"
    )
    exp = (
        con.sql(sql_events_retention())
        .df()
        .sort_values(["cohort_week", "week"])
        .reset_index(drop=True)
    )
    assert got.astype(str).equals(exp.astype(str))
    assert int(got["cohort_week"].min()) < 0


def test_safe_join_survives_empty_first_block_schema_race(ray_session):
    """Ray 2.49 hash-shuffle join loses a side's schema broadcast when
    its FIRST-dispatched block is empty; row-less partitions then
    finalize column-less and Acero throws.  safe_join's compact guard
    must make the deterministic worst case (empty blocks first) pass."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from pygridmap_ray.cluster import safe_join

    def mk(n_keys, empty_first, name):
        tables = [
            pa.table({"k": pa.array([], pa.int64()),
                      name: pa.array([], pa.float64())})
        ] * empty_first
        tables.append(
            pa.table({"k": pa.array(np.arange(n_keys, dtype=np.int64)),
                      name: pa.array(np.ones(n_keys))})
        )
        return rd.from_arrow(tables)

    sch_l = pa.schema([("k", pa.int64()), ("x", pa.float64())])
    sch_r = pa.schema([("k", pa.int64()), ("y", pa.float64())])
    # width 4 > the right side's 3 keys, so row-less partitions still
    # occur; Ray sizes one aggregator per partition, and 16 of them ask
    # for more memory than a small host has, so the join never starts
    out = safe_join(
        mk(20, 8, "x"), mk(3, 8, "y"), "inner", num_partitions=4,
        on=("k",), left_schema=sch_l, right_schema=sch_r,
    ).to_pandas()
    assert sorted(out["k"].tolist()) == [0, 1, 2]

    # globally-empty side: the sentinel row keeps the shuffle schema-ful
    # and the inner join drops it
    empty = rd.from_arrow(
        [pa.table({"k": pa.array([], pa.int64()),
                   "y": pa.array([], pa.float64())})]
    )
    out = safe_join(
        mk(5, 0, "x"), empty, "inner", num_partitions=4, on=("k",),
        left_schema=sch_l, right_schema=sch_r,
    ).to_pandas()
    assert len(out) == 0
