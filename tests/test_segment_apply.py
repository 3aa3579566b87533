"""`cluster.segment_apply`: the one coarse-bucket keyed exchange.

Pins the contract every migrated site relies on: a key group is never
split across kernel calls, the bucket width changes nothing but
parallelism, ``order=`` breaks ties inside a group, and a zero-row
input still reports the declared schema."""
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SCHEMA = pa.schema(
    [("k", pa.int64()), ("s", pa.string()), ("n", pa.int64()),
     ("total", pa.float64()), ("first_v", pa.float64())]
)


def _input(n=3000, seed=7):
    r = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "k": r.integers(0, 400, n),
            "s": r.choice(["a", "b", "é", "zz"], n),
            "t": r.integers(0, 5, n),
            "v": np.round(r.normal(size=n), 3),
        }
    )


def _make_kernel():
    # nested, so Ray workers get it by value (tests/ is not importable there)
    def kernel(t: pa.Table, starts: np.ndarray) -> dict:
        v = np.asarray(t["v"])
        return {
            "k": np.asarray(t["k"])[starts],
            "s": np.asarray(t["s"])[starts],
            "n": np.diff(np.append(starts, t.num_rows)),
            "total": np.add.reduceat(v, starts),
            # with order=("t", "v") a group's first row is its (t, v) minimum
            "first_v": v[starts],
        }

    return kernel


def _run(ds, **kw):
    from pygridmap_ray.cluster import segment_apply

    out = segment_apply(ds, ["k", "s"], _make_kernel(), SCHEMA, order=("t", "v"), **kw)
    return out.to_pandas().sort_values(["k", "s"]).reset_index(drop=True)


def _reference(df: pd.DataFrame) -> pd.DataFrame:
    srt = df.sort_values(["k", "s", "t", "v"], kind="stable")
    g = srt.groupby(["k", "s"], sort=True)
    return pd.DataFrame(
        {
            "n": g.size(),
            "total": g["v"].sum(),
            "first_v": g["v"].first(),
        }
    ).reset_index()[["k", "s", "n", "total", "first_v"]]


@pytest.mark.parametrize("num_buckets", [1, 3, None])
def test_widths_agree_with_pandas_groupby(ray_session, num_buckets):
    import ray.data as rd

    df = _input()
    got = _run(rd.from_pandas(df).repartition(6), num_buckets=num_buckets)
    exp = _reference(df)
    assert len(got) == len(exp) == df.groupby(["k", "s"]).ngroups
    pd.testing.assert_frame_equal(got[["k", "s", "n", "first_v"]],
                                  exp[["k", "s", "n", "first_v"]],
                                  check_dtype=False)
    np.testing.assert_allclose(got["total"], exp["total"], rtol=1e-12)


def test_key_never_split_across_kernel_calls(ray_session):
    """Every key appears in exactly one output row even when the input
    has many blocks and every block holds every key."""
    import ray.data as rd

    df = _input(n=4000, seed=3)
    got = _run(rd.from_pandas(df).repartition(16), num_buckets=3)
    assert not got.duplicated(["k", "s"]).any()
    assert got["n"].sum() == len(df)


def test_order_breaks_ties_within_a_group(ray_session):
    """``order=`` sorts inside a key group: the kernel sees each group's
    rows in (t, v) order, whatever the input order."""
    import ray.data as rd
    from pygridmap_ray.cluster import segment_apply

    df = pd.DataFrame({"k": [5, 5, 5, 2, 2], "t": [3, 1, 2, 9, 0],
                       "v": [0.3, 0.1, 0.2, 0.9, 0.0]})
    schema = pa.schema([("k", pa.int64()), ("seq", pa.list_(pa.float64()))])

    def kern(t, starts):
        v = np.asarray(t["v"])
        ends = np.append(starts[1:], t.num_rows)
        return {"k": np.asarray(t["k"])[starts],
                "seq": [v[a:b].tolist() for a, b in zip(starts, ends)]}

    out = segment_apply(rd.from_pandas(df), "k", kern, schema, order=("t",))
    got = {r["k"]: list(r["seq"]) for r in out.take_all()}
    assert got == {2: [0.0, 0.9], 5: [0.1, 0.2, 0.3]}


def test_zero_row_input_has_declared_schema(ray_session):
    import ray.data as rd
    from pygridmap_ray.cluster import segment_apply

    df = _input(n=50)
    empty = rd.from_pandas(df).filter(lambda r: r["k"] < 0)
    out = segment_apply(empty, ["k", "s"], _make_kernel(), SCHEMA, order=("t",))
    assert out.count() == 0
    assert out.schema().base_schema == SCHEMA


def test_passthrough_kernel_runs_a_lazy_upstream_once(ray_session, tmp_path):
    """A pass-through kernel (``grouped_topk``) on a lazy join input
    executes the upstream plan once: declaring its output schema must
    not run the join a second time just to learn the input columns."""
    import ray.data as rd

    from pygridmap_ray.stats import grouped_topk

    marks = str(tmp_path)

    def mark(t: pa.Table) -> pa.Table:
        import os
        import uuid

        open(os.path.join(marks, uuid.uuid4().hex), "w").close()
        return t.append_column("g", pa.array(np.asarray(t["id"]) % 5))

    left = rd.range(200, override_num_blocks=4).map_batches(
        mark, batch_format="pyarrow", batch_size=None
    )
    right = rd.from_arrow(pa.table({
        "id": pa.array(np.arange(200), pa.int64()),
        "score": pa.array(np.arange(200) * 7 % 31, pa.int64()),
    }))
    j = left.join(right, "inner", num_partitions=2, on=("id",))
    out = grouped_topk(j, group_col="g", order_col="score",
                       tiebreak_col="id", k=2).to_pandas()
    assert len(out) == 10
    import os

    assert len(os.listdir(marks)) == 4


def test_bucket_of_is_the_persisted_law():
    """The one bucket hash keeps the law the bucketed layout and
    ``asof_join`` were written with."""
    from pygridmap_ray.cluster import bucket_of

    k = np.array([0, 1, 7, -3, 2**40 + 5, -(2**62)], np.int64)
    exp = ((k * 2654435761) & 0x7FFFFFFF) % 13
    np.testing.assert_array_equal(bucket_of(k, 13), exp)
    assert (bucket_of(k, 13) >= 0).all()


WINNOW_SCHEMA = pa.schema(
    [("id_a", pa.int64()), ("id_b", pa.int64()), ("n_shared", pa.int64())]
)


def test_winnow_dup_pairs_no_pairs_keeps_declared_schema(ray_session):
    """An all-unique corpus and an empty input both yield zero pairs
    WITH the (id_a, id_b, n_shared) schema, not a column-less dataset."""
    import ray.data as rd

    from pygridmap_ray.text import winnow_dup_pairs

    unique = rd.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(6), pa.int64()),
        "text": pa.array(
            [" ".join(f"d{d}w{i}" for i in range(12)) for d in range(6)],
            pa.string(),
        ),
    })).repartition(3)
    empty = rd.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string()),
    }))
    for ds in (unique, empty):
        out = winnow_dup_pairs(ds)
        assert out.count() == 0
        assert out.schema().base_schema == WINNOW_SCHEMA


def test_media_dup_groups_empty_schema_and_negative_ids(ray_session):
    """Empty input -> zero rows with the declared schema; a negative
    doc_id (which would borrow from the cfp field of the pack) raises."""
    import ray.data as rd

    from pygridmap_ray.multimodal import media_dup_groups
    from pygridmap_ray.synth import build_spans_array

    none = np.array([], np.int64)
    empty = rd.from_arrow(pa.table({
        "doc_id": pa.array(none), "spans": build_spans_array(none),
    }))
    out = media_dup_groups(empty)
    assert out.count() == 0
    assert out.schema().names == [
        "cfp", "n_refs", "n_docs", "keep_doc", "keep_span"
    ]
    assert all(t == pa.int64() for t in out.schema().types)

    neg = np.array([-5, 3], np.int64)
    bad = rd.from_arrow(pa.table({
        "doc_id": pa.array(neg), "spans": build_spans_array(np.abs(neg)),
    }))
    with pytest.raises(Exception, match="remap ids"):
        media_dup_groups(bad).to_pandas()


def test_grouped_value_hist_domain_gate(ray_session, monkeypatch):
    """More distinct (key, value) pairs than the domain gate raise
    before anything is gathered; within the gate the histogram is
    exact."""
    import ray.data as rd

    from pygridmap_ray import stats

    df = pd.DataFrame({"k": ["a", "b"] * 20, "v": np.arange(40) % 13})
    ds = rd.from_pandas(df).repartition(4)
    monkeypatch.setattr(stats, "_HIST_DOMAIN_LIMIT", 10)
    with pytest.raises(ValueError, match=r"distinct \(k, v\) pairs exceed"):
        stats._grouped_value_hist(ds, key="k", value="v")
    monkeypatch.setattr(stats, "_HIST_DOMAIN_LIMIT", 26)
    hist = stats._grouped_value_hist(ds, key="k", value="v")
    exp = df.groupby(["k", "v"]).size()
    got = hist.set_index(["k", "v"])["count()"].sort_index()
    assert got.to_dict() == exp.to_dict()


def test_segment_pairs_matches_combinations(monkeypatch):
    """``cluster.segment_pairs`` yields every within-segment pair once,
    in the order the pair kernels concatenate: segment sizes
    ascending, segments ascending, ``itertools.combinations`` order
    within a segment; a chunk never splits a segment and stops at
    ``PAIR_CHUNK`` pairs."""
    from itertools import combinations

    from pygridmap_ray import cluster

    sizes = np.array([3, 1, 4, 2, 3, 0, 4, 1, 5, 3, 2], np.int64)
    sizes = sizes[sizes > 0]
    starts = np.cumsum(sizes) - sizes
    n = int(sizes.sum())
    expect = [
        (s + a, s + b)
        for sz in sorted(set(sizes.tolist()))
        for s in starts[sizes == sz].tolist()
        for a, b in combinations(range(sz), 2)
    ]
    for chunk in (cluster.PAIR_CHUNK, 7, 1):
        monkeypatch.setattr(cluster, "PAIR_CHUNK", chunk)
        chunks = list(cluster.segment_pairs(starts, n))
        got = [(a, b) for ga, gb in chunks for a, b in zip(ga.tolist(), gb.tolist())]
        assert got == expect
        for ga, gb in chunks:
            assert len(ga) == len(gb)
            seg = np.searchsorted(starts, ga, side="right")
            assert (seg == np.searchsorted(starts, gb, side="right")).all()
            # whole segments: every segment in the chunk contributes all
            # of its pairs
            for s, k in zip(*np.unique(seg, return_counts=True)):
                assert k == sizes[s - 1] * (sizes[s - 1] - 1) // 2
            assert len(ga) <= max(chunk, int(sizes.max() * (sizes.max() - 1) // 2))
        if chunk == 7:
            assert len(chunks) > len(np.unique(sizes[sizes >= 2]))
    assert list(cluster.segment_pairs(np.array([0, 1, 2], np.int64), 3)) == []
    assert list(cluster.segment_pairs(np.array([], np.int64), 0)) == []


def test_map_batches_never_calls_udf_on_zero_row_blocks(ray_session, tmp_path):
    """The Ray Data contract the stage UDFs rely on: ``map_batches``
    passes a zero-row block through without calling the UDF, for every
    batch format and for an actor UDF, whether the zero rows come from
    an empty ``from_arrow`` input, a zero-row aggregate output or a
    filter that emptied every block.  This is why no ``map_batches``
    UDF in the package guards ``num_rows == 0`` (see
    ``test_entry_contract.py::test_no_zero_row_guard_in_map_udfs``);
    zero-row schemas come from ``cluster.declare_schema``/``to_frame``/
    ``safe_join`` instead.  If a Ray upgrade starts calling UDFs on empty
    batches, this test fails first."""
    import os
    import uuid

    import ray.data as rd

    marks = str(tmp_path)

    def record(batch):
        open(os.path.join(marks, uuid.uuid4().hex), "w").close()
        return batch

    class Record:
        def __call__(self, batch):
            return record(batch)

    empty = pa.table({"k": pa.array([], pa.int64()), "v": pa.array([], pa.float64())})
    inputs = {
        "from_arrow": lambda: rd.from_arrow(empty),
        "aggregate": lambda: rd.from_arrow(empty).groupby("k").count(),
        "filter": lambda: rd.range(64, override_num_blocks=4).filter(
            expr="id < 0"
        ),
    }
    for name, make in inputs.items():
        runs = [
            (fmt, make().map_batches(record, batch_format=fmt))
            for fmt in ("pyarrow", "pandas", "numpy", "default")
        ]
        runs.append(
            ("actor", make().map_batches(Record, batch_format="pyarrow", concurrency=1))
        )
        for fmt, ds in runs:
            assert ds.take_all() == [], (name, fmt)
            assert os.listdir(marks) == [], (name, fmt)
    # control: a non-empty input does reach the UDF
    assert len(rd.range(8).map_batches(record, batch_format="pyarrow").take_all()) == 8
    assert os.listdir(marks)
