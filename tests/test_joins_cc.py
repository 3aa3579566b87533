"""asof_join / interval_join (joins.py) and connected-components
clustering (dedup.py) — semantics beyond what the sf0.01 oracles cover:
forward direction, empty sides, direct-key grouping, interval overlap
guard, chain-graph transitivity vs a driver union-find ground truth."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from pygridmap_ray.joins import _IntervalKernel, asof_join, interval_join


def _mk(table):
    import ray.data as rd

    return rd.from_arrow(pa.table(table))


def _ts(us_list):
    return pa.array(np.asarray(us_list, dtype="int64")).cast(pa.timestamp("us"))


def test_asof_backward_and_forward(ray_session):
    left = _mk({"ts": _ts([100, 200, 300]), "user_id": [1, 1, 1], "v": [1.0, 2.0, 3.0]})
    right = _mk({"ts": _ts([150, 250]), "user_id": [1, 1], "w": [10.0, 20.0]})
    back = (
        asof_join(left, right, on="ts", by="user_id")
        .to_pandas()
        .sort_values("v")
        .reset_index(drop=True)
    )
    assert back["w_r"].tolist()[0] != back["w_r"].tolist()[0]  # NaN: no prior
    assert back["w_r"].tolist()[1:] == [10.0, 20.0]
    fwd = (
        asof_join(left, right, on="ts", by="user_id", direction="forward")
        .to_pandas()
        .sort_values("v")
        .reset_index(drop=True)
    )
    assert fwd["w_r"].tolist()[:2] == [10.0, 20.0]
    assert fwd["w_r"].isna().tolist() == [False, False, True]


def test_asof_exact_match_and_missing_key(ray_session):
    left = _mk({"ts": _ts([100, 100]), "user_id": [1, 2], "v": [1.0, 2.0]})
    right = _mk({"ts": _ts([100]), "user_id": [1], "w": [5.0]})
    out = (
        asof_join(left, right, on="ts", by="user_id")
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    # equality counts as "at or before" (DuckDB ASOF >= semantics)
    assert out["w_r"].tolist()[0] == 5.0
    assert out["w_r"].isna().tolist() == [False, True]
    # int columns survive null-extension without float promotion
    assert out["user_id"].dtype == np.int64


def test_asof_direct_key_grouping(ray_session):
    left = _mk({"ts": _ts([10, 20]), "user_id": [7, 8], "v": [1.0, 2.0]})
    right = _mk({"ts": _ts([5, 15]), "user_id": [7, 8], "w": [1.5, 2.5]})
    out = (
        asof_join(left, right, on="ts", by="user_id", num_buckets=None)
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    assert out["w_r"].tolist() == [1.5, 2.5]


def test_interval_join_left_and_inner(ray_session):
    iv = {
        "key": np.array([1, 1], dtype=np.int64),
        "start": np.array([100, 300], dtype=np.int64),
        "end": np.array([200, 400], dtype=np.int64),
        "iv_id": np.array([0, 1], dtype=np.int64),
    }
    pts = _mk({"ts": _ts([150, 250, 350, 50]), "user_id": [1, 1, 1, 2], "p": [1, 2, 3, 4]})
    inner = interval_join(pts, iv, how="inner").to_pandas().sort_values("p")
    assert inner["p"].tolist() == [1, 3]
    assert inner["iv_id"].tolist() == [0, 1]
    left = interval_join(pts, iv, how="left").to_pandas().sort_values("p")
    assert left["p"].tolist() == [1, 2, 3, 4]
    assert left["iv_id"].isna().tolist() == [False, True, False, True]
    # half-open: end boundary excluded, start included
    edge = _mk({"ts": _ts([100, 200]), "user_id": [1, 1], "p": [1, 2]})
    e = interval_join(edge, iv, how="inner").to_pandas()
    assert e["p"].tolist() == [1]


def test_interval_overlap_rejected():
    iv = {
        "key": np.array([1, 1], dtype=np.int64),
        "start": np.array([100, 150], dtype=np.int64),
        "end": np.array([200, 250], dtype=np.int64),
    }
    with pytest.raises(ValueError, match="overlap"):
        _IntervalKernel(iv, "ts", "user_id", "left")


def _union_find(n_edges):
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for a, b in n_edges:
        union(a, b)
    return {x: find(x) for x in parent}


@pytest.mark.parametrize("seed", [0])
def test_connected_components_vs_union_find(ray_session, seed):
    from pygridmap_ray.dedup import connected_components

    rng = np.random.default_rng(seed)
    # a long chain (worst-case diameter for label propagation) + random
    # extra edges + disjoint singleton pairs
    chain = [(i, i + 1) for i in range(0, 30)]
    rand = [tuple(sorted(e)) for e in rng.integers(100, 140, size=(25, 2)) if e[0] != e[1]]
    far = [(1000, 2000), (3000, 4000)]
    edges = chain + rand + far
    ds = _mk(
        {
            "id_a": np.array([a for a, _ in edges], dtype=np.int64),
            "id_b": np.array([b for _, b in edges], dtype=np.int64),
        }
    )
    got = (
        connected_components(ds, max_iter=50, num_partitions=4)
        .to_pandas()
        .set_index("node")["label"]
        .to_dict()
    )
    # min-reachable ground truth: union-find labels then min per root
    uf = _union_find(edges)
    roots = {}
    for node, r in uf.items():
        roots.setdefault(r, []).append(node)
    expect = {n: min(mem) for r, mem in roots.items() for n in mem}
    assert got == expect


def test_neardup_dedup_keeps_min_per_component(ray_session):
    from pygridmap_ray.dedup import neardup_dedup

    docs = _mk({"doc_id": np.arange(10, dtype=np.int64)})
    pairs = _mk(
        {
            "id_a": np.array([0, 1, 5], dtype=np.int64),
            "id_b": np.array([1, 2, 6], dtype=np.int64),
        }
    )
    kept = sorted(neardup_dedup(docs, pairs, num_partitions=4).to_pandas()["doc_id"].tolist())
    # {0,1,2} -> 0, {5,6} -> 5, singletons 3,4,7,8,9 survive
    assert kept == [0, 3, 4, 5, 7, 8, 9]


def test_asof_hot_key(ray_session):
    """A single hot key (one user owning all rows) degrades to that key's
    volume, not to failure: 20k left rows + 5k right rows in ONE bucket
    resolve through the single vectorized merge_asof."""
    rng = np.random.default_rng(11)
    l_ts = np.sort(rng.integers(0, 10_000_000, size=20_000))
    r_ts = np.sort(rng.integers(0, 10_000_000, size=5_000))
    left = _mk(
        {
            "ts": _ts(l_ts),
            "user_id": np.zeros(20_000, dtype=np.int64),
            "v": np.arange(20_000, dtype=np.float64),
        }
    )
    right = _mk(
        {
            "ts": _ts(r_ts),
            "user_id": np.zeros(5_000, dtype=np.int64),
            "w": np.arange(5_000, dtype=np.float64),
        }
    )
    out = asof_join(left, right, on="ts", by="user_id").to_pandas()
    assert len(out) == 20_000
    # ground truth by searchsorted: last right ts <= left ts
    idx = np.searchsorted(r_ts, l_ts, side="right") - 1
    exp = np.where(idx >= 0, idx.astype(float), np.nan)
    got = out.sort_values("v")["w_r"].to_numpy()
    np.testing.assert_array_equal(np.isnan(got), np.isnan(exp))
    np.testing.assert_array_equal(got[~np.isnan(got)], exp[~np.isnan(exp)])


def test_null_order_keys(ray_session):
    """Null timestamps never match: asof keeps them with null right
    columns, interval inner drops them, interval left nulls the payload."""
    left = _mk(
        {
            "ts": pa.array([100, None, 300], pa.timestamp("us")),
            "user_id": [1, 1, 1],
            "v": [1.0, 2.0, 3.0],
        }
    )
    right = _mk({"ts": _ts([50]), "user_id": [1], "w": [9.0]})
    out = asof_join(left, right, on="ts", by="user_id").to_pandas()
    assert len(out) == 3
    byv = out.set_index("v")
    assert byv.loc[1.0, "w_r"] == 9.0 and byv.loc[3.0, "w_r"] == 9.0
    assert pd.isna(byv.loc[2.0, "w_r"]) and pd.isna(byv.loc[2.0, "ts_r"])

    iv = {
        "key": np.array([1], dtype=np.int64),
        "start": np.array([0], dtype=np.int64),
        "end": np.array([1000], dtype=np.int64),
        "iv_id": np.array([7], dtype=np.int64),
    }
    inner = interval_join(left, iv, how="inner", by="user_id", on="ts").to_pandas()
    assert sorted(inner["v"]) == [1.0, 3.0]
    lj = interval_join(left, iv, how="left", by="user_id", on="ts").to_pandas()
    assert len(lj) == 3
    assert pd.isna(lj.set_index("v").loc[2.0, "iv_id"])


def test_nearest_polygon_interior_distance_zero(ray_session):
    from pygridmap_ray.spatial import join_points_to_polygons, nearest_polygon_join
    from pygridmap_ray.synth import polygon_layer

    rng = np.random.default_rng(9)
    pts = _mk(
        {
            "doc_id": np.arange(200, dtype=np.int64),
            "x": rng.uniform(-1e5, 6e5, 200),
            "y": rng.uniform(-1e5, 6e5, 200),
        }
    )
    layer = polygon_layer()
    a = nearest_polygon_join(pts, layer).to_pandas()
    assert sorted(a["doc_id"]) == list(range(200))
    # interior points have distance exactly 0 and match the PIP join
    inside = a[a["dist"] == 0.0]
    assert len(inside) > 0
    pip = join_points_to_polygons(pts, layer, how="inner").to_pandas()
    assert set(inside["doc_id"]) == set(pip["doc_id"])
    pairs = set(zip(pip["doc_id"], pip["poly_id"]))
    assert all(p in pairs for p in zip(inside["doc_id"], inside["nearest_poly_id"]))


def test_lookup_join_inner_left_and_dup_key(ray_session):
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from pygridmap_ray.joins import lookup_join

    dim = pa.table({"k": [1, 2, 3], "name": ["a", "b", "c"]})
    facts = rd.from_arrow(
        pa.table({"fk": [3, 1, 9, 2, 1], "v": [10, 20, 30, 40, 50]})
    ).repartition(2)

    inner = lookup_join(facts, dim, on="fk", key="k").to_pandas()
    inner = inner.sort_values("v").reset_index(drop=True)
    assert inner["name"].tolist() == ["c", "a", "b", "a"]  # fk=9 dropped

    left = lookup_join(facts, dim, on="fk", key="k", how="left").to_pandas()
    left = left.sort_values("v").reset_index(drop=True)
    assert left["name"].tolist()[:2] == ["c", "a"]
    assert left["name"].isna().tolist() == [False, False, True, False, False]

    dup = pa.table({"k": [1, 1], "name": ["x", "y"]})
    with pytest.raises(Exception, match="duplicate"):
        lookup_join(facts, dup, on="fk", key="k").to_pandas()


def test_semi_anti_partition_and_duckdb_parity(ray_session):
    """semi + anti partition the left side exactly; both match DuckDB
    IN / NOT IN on the same data; string keys probe via the same kernel."""
    import duckdb
    import ray.data as rd

    from pygridmap_ray.joins import semi_join

    rng = np.random.default_rng(11)
    left = pa.table(
        {
            "k": rng.integers(0, 50, 300),
            "v": rng.normal(size=300),
        }
    )
    right = pa.table({"rk": rng.integers(25, 60, 40)})
    lds = rd.from_arrow(left)
    rds = rd.from_arrow(right)
    got_s = semi_join(lds, rds, on="k", right_on="rk").to_pandas()
    got_a = semi_join(lds, rds, on="k", right_on="rk", anti=True).to_pandas()
    assert len(got_s) + len(got_a) == len(left)
    assert set(got_s["v"]).isdisjoint(set(got_a["v"]))
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    exp_s = con.sql("SELECT * FROM l WHERE k IN (SELECT rk FROM r)").df()
    exp_a = con.sql("SELECT * FROM l WHERE k NOT IN (SELECT rk FROM r)").df()
    for got, exp in ((got_s, exp_s), (got_a, exp_a)):
        g = got.sort_values(["k", "v"]).reset_index(drop=True)
        x = exp.sort_values(["k", "v"]).reset_index(drop=True)
        assert g.equals(x)
    # string keys + precollected array form
    lstr = rd.from_arrow(pa.table({"k": ["a", "b", "c", "d", "a"]}))
    out = semi_join(lstr, np.array(["a", "d"], dtype=object), on="k").to_pandas()
    assert sorted(out["k"]) == ["a", "a", "d"]


def test_broadcast_builds_once_per_process_and_evicts_fifo(ray_session):
    """Broadcast.get() runs ``build`` once per process (cached by content
    key) and the cache keeps at most ``_BUILT_MAX`` values, the least
    recently used out."""
    from pygridmap_ray import cluster

    calls = []

    def build(v):
        calls.append(v)
        return v * 2

    first = cluster.Broadcast(21, build)
    assert first.get() == 42 and first.get() == 42
    assert calls == [21]
    later = [cluster.Broadcast(i) for i in range(cluster._BUILT_MAX)]
    assert [b.get() for b in later] == list(range(cluster._BUILT_MAX))
    assert len(cluster._BUILT) == cluster._BUILT_MAX
    assert first.get() == 42
    assert calls == [21, 21]  # evicted first, rebuilt on the next get


def test_broadcast_equal_content_shares_one_put_and_one_build(ray_session):
    """Two Broadcasts of equal (not identical) values with the same
    ``build`` share one object ref, and the value is built once per
    process."""
    from pygridmap_ray import cluster

    calls = []

    def build(v):
        calls.append(1)
        return v["a"].sum()

    a = cluster.Broadcast({"a": np.arange(1000)}, build)
    b = cluster.Broadcast({"a": np.arange(1000)}, build)
    assert a.key == b.key and a.ref == b.ref
    assert a.get() == b.get() == 499500
    assert calls == [1]


def test_broadcast_key_follows_closure_and_value():
    """A different closure value or a mutated copy of the value gives a
    distinct content key, so a hit never returns another build's
    kernel."""
    from pygridmap_ray.cluster import _content_key

    def kernel(how):
        return lambda v: (v, how)

    arr = np.arange(96.0).reshape(48, 2)
    layer = [{"poly_id": 1, "rings": [arr]}]
    assert _content_key(layer, kernel("inner")) == _content_key(
        [{"poly_id": 1, "rings": [arr.copy()]}], kernel("inner")
    )
    assert _content_key(layer, kernel("inner")) != _content_key(layer, kernel("left"))
    moved = arr.copy()
    moved[3, 1] += 1e-9
    assert _content_key(layer, None) != _content_key(
        [{"poly_id": 1, "rings": [moved]}], None
    )
    # out-of-band buffer boundaries count: the same bytes split
    # differently (an identical pickle stream) give distinct keys
    from pickle import PickleBuffer

    assert _content_key((PickleBuffer(b"ab"), PickleBuffer(b"c")), None) != _content_key(
        (PickleBuffer(b"a"), PickleBuffer(b"bc")), None
    )


def test_broadcast_cache_is_lru(ray_session):
    """An entry read again between transient broadcasts outlives
    ``_BUILT_MAX`` of them: its build runs once."""
    from pygridmap_ray import cluster

    calls = []

    def build(v):
        calls.append(v)
        return v + 1

    hot = cluster.Broadcast(1000, build)
    assert hot.get() == 1001
    for i in range(2 * cluster._BUILT_MAX):
        assert cluster.Broadcast(("transient", i)).get() == ("transient", i)
        assert hot.get() == 1001
    assert len(cluster._BUILT) == cluster._BUILT_MAX
    assert calls == [1000]


_NEW_SESSION = """
import numpy as np
import ray

from pygridmap_ray import cluster


def start():
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")


@ray.remote(num_cpus=1)
def fetch(b):
    return b.get()


value = np.arange(5000.0)
start()
first = cluster.Broadcast(value)
assert ray.get(fetch.remote(first)).sum() == value.sum()
ray.shutdown()
start()
second = cluster.Broadcast(value)
assert second.key == first.key
got = ray.get(fetch.remote(second), timeout=60)
assert np.array_equal(got, value)
assert np.array_equal(ray.get(second.ref, timeout=60), value)
ray.shutdown()
print("ok")
"""


def test_broadcast_survives_a_new_session(tmp_path):
    """A ref put in a shut-down session is never reused: after
    ``ray.shutdown()`` and a new ``ray.init()`` an equal Broadcast puts
    the value again, and workers of the new session read it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    script = tmp_path / "new_session.py"
    script.write_text(_NEW_SESSION)
    env = {**os.environ, "PYTHONPATH": str(root)}
    out = subprocess.run(
        [sys.executable, str(script)], cwd=root, env=env, capture_output=True,
        text=True, timeout=240,
    )
    assert out.returncode == 0 and out.stdout.strip().endswith("ok"), out.stderr[-2000:]


def test_broadcast_reuse_across_jobs_keeps_outputs(ray_session, sf_dir, monkeypatch):
    """In one session, joins on one layer (inner, left, inner) and
    make_grid + area_interpolate run twice reuse the layer's broadcast,
    and every repeat is ``Table.equals`` its first run and matches the
    DuckDB twins."""
    import duckdb
    import ray
    import ray.data as rd

    from pygridmap_ray.gridding import make_grid
    from pygridmap_ray.overlay import area_interpolate, sql_grid_overlay_sum
    from pygridmap_ray.pipelines.queries import _sql_spatial_join
    from pygridmap_ray.planning import plan_grid
    from pygridmap_ray.spatial import join_points_to_polygons
    from pygridmap_ray.synth import DOMAIN, derive_xy, polygon_layer

    layer = polygon_layer()
    puts = []
    real_put = ray.put

    def counting_put(value, *args, **kwargs):
        if value is layer:
            puts.append(1)
        return real_put(value, *args, **kwargs)

    monkeypatch.setattr(ray, "put", counting_put)

    def add_xy(b: pa.Table) -> pa.Table:
        x, y = derive_xy(np.asarray(b["doc_id"]))
        return b.append_column("x", pa.array(x)).append_column("y", pa.array(y))

    pts = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"]).map_batches(
        add_xy, batch_format="pyarrow"
    )

    def run(ds, *keys):
        t = pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow", batch_size=None)))
        return t.sort_by([(k, "ascending") for k in keys])

    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf_dir}/documents.parquet')")
    joined = {}
    for how in ("inner", "left", "inner"):
        got = run(join_points_to_polygons(pts, layer, how=how), "doc_id", "poly_id")
        if how in joined:
            assert got.equals(joined[how])
        joined[how] = got
        exp = con.sql(_sql_spatial_join(how)).arrow().sort_by(
            [("doc_id", "ascending"), ("poly_id", "ascending")]
        )
        assert got["doc_id"].to_pylist() == exp["doc_id"].to_pylist()
        assert got["poly_id"].to_pylist() == exp["poly_id"].to_pylist()
    assert len(puts) == 2  # the second inner join reused the first's ref
    assert joined["left"].num_rows > joined["inner"].num_rows

    spec = plan_grid(DOMAIN, 50_000.0, tile=(8, 8))
    exp = con.sql(sql_grid_overlay_sum(spec, ["pop"])).df().sort_values("cell_id")
    first = None
    for _ in range(2):
        grid = make_grid(layer, cellsize=50_000.0, bbox=DOMAIN, tile=(8, 8), trim=False)
        got = run(area_interpolate(layer, grid, spec, ["pop"]), "cell_id")
        if first is not None:
            assert got.equals(first)
        first = got
        pop = got["pop"].to_numpy()
        pop = np.sign(pop) * np.floor(np.abs(pop) * 1e6 + 0.5) / 1e6
        assert got["cell_id"].to_pylist() == exp["cell_id"].tolist()
        assert np.abs(pop - exp["pop"].to_numpy()).max() <= 1e-6
        assert got["n_polys"].to_pylist() == exp["n_polys"].tolist()


def test_bloom_prefilter_superset_and_fp_rate(ray_session):
    """Bloom keeps EVERY true member (no false negatives) and the false
    positive fraction stays near the theoretical rate for the sizing."""
    import ray.data as rd

    from pygridmap_ray.joins import bloom_build, bloom_prefilter

    rng = np.random.default_rng(3)
    members = rng.choice(10**9, 2000, replace=False)
    non_members = np.setdiff1d(
        rng.choice(10**9, 20000, replace=False), members
    )
    build = rd.from_arrow(pa.table({"k": members})).repartition(4)
    bloom = bloom_build(build, "k", num_bits=1 << 15, num_hashes=4)
    probe = rd.from_arrow(
        pa.table({"k": np.concatenate([members, non_members])})
    ).repartition(3)
    kept = set(bloom_prefilter(probe, bloom, on="k").to_pandas()["k"])
    assert set(members) <= kept  # no false negatives, ever
    fp = (len(kept) - len(members)) / len(non_members)
    # m/n = 16.4 bits/key, k=4 -> p ~ (1-e^(-4/16.4))^4 ~ 0.0023
    assert fp < 0.01, fp


def test_connected_components_distributed_matches_local(ray_session):
    """Forced above the local gate the pointer-jumping Dataset path
    must reproduce the local solve exactly."""
    from pygridmap_ray.dedup import connected_components

    chain = [(i, i + 1) for i in range(0, 20)]
    far = [(1000, 2000), (2000, 3000)]
    edges = chain + far
    ds = _mk(
        {
            "id_a": np.array([a for a, _ in edges], dtype=np.int64),
            "id_b": np.array([b for _, b in edges], dtype=np.int64),
        }
    )
    loc = (
        connected_components(ds, max_iter=50, num_partitions=4)
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    dist = (
        connected_components(
            ds, max_iter=50, num_partitions=4, local_max_edges=0
        )
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    assert loc.equals(dist)
