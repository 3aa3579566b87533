"""Driver folds over a zero-row input return zero rows with their
declared columns (Ray 2.49's ``to_pandas`` drops zero-row blocks, so a
fold that indexes the frame's columns must not rely on it)."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

I, F, S = pa.int64(), pa.float64(), pa.string()
FOLDS = {
    "events_retention": [("cohort_week", I), ("week", I), ("n_users", I)],
    "events_ltv": [
        ("cohort_week", I),
        ("offset_weeks", I),
        ("n_users", I),
        ("cum_rev", F),
        ("arpu", F),
    ],
    "events_watermark": [("win_us", I), ("n_total", I), ("n_late", I)],
    "q4_priority": [("o_orderpriority", S), ("order_count", I)],
}
#: folds to scalars: one all-zero row per check, not zero rows
SCALAR_FOLDS = {
    "q_token_js": ([("n_tok_a", I), ("n_tok_b", I), ("vocab", I), ("js", F)], 1),
    "q_fd_check": ([("fd", S), ("n_keys", I), ("n_violating", I)], 3),
}


@pytest.fixture(scope="module")
def empty_sf(tmp_path_factory, sf_dir):
    """Zero-row copies of the tables the folds read, schemas intact."""
    d = tmp_path_factory.mktemp("empty_sf")
    for t in ("documents", "events", "lineitem", "orders"):
        pq.write_table(pq.read_table(f"{sf_dir}/{t}.parquet").slice(0, 0), d / f"{t}.parquet")
    return str(d)


@pytest.mark.parametrize("name", sorted(FOLDS))
def test_zero_row_input_gives_zero_typed_rows(ray_session, empty_sf, name):
    from pygridmap_ray.pipelines import relational, tpch

    fn = getattr(relational, name, None) or getattr(tpch, name)
    out = fn(empty_sf)
    assert out.num_rows == 0
    assert out.schema == pa.schema(FOLDS[name])


@pytest.mark.parametrize("name", sorted(SCALAR_FOLDS))
def test_zero_row_input_gives_zero_scalars(ray_session, empty_sf, name):
    from pygridmap_ray.pipelines import queries

    out = getattr(queries, name)(empty_sf)
    schema, rows = SCALAR_FOLDS[name]
    assert out.schema == pa.schema(schema)
    assert out.num_rows == rows
    assert all(v == 0 for c, t in schema if t != S for v in out[c].to_pylist())
