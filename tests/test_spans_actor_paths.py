"""Byte-level span invariance through every stage."""

import numpy as np
import pyarrow as pa
import pytest

from pygridmap_ray.synth import build_spans_array, derive_xy, polygon_layer


@pytest.fixture(scope="module")
def span_docs(ray_session):
    import ray.data as rd

    ds = rd.read_parquet("/root/testdata/sf0.001/documents.parquet", columns=["doc_id"])

    def add(b: pa.Table) -> pa.Table:
        did = np.asarray(b["doc_id"])
        x, y = derive_xy(did)
        return (
            b.append_column("x", pa.array(x))
            .append_column("y", pa.array(y))
            .append_column("spans", build_spans_array(did))
        )

    return ds.map_batches(add, batch_format="pyarrow")


def _spans_by_doc(df):
    return {
        int(d): [tuple(s.values()) for s in row]
        for d, row in zip(df["doc_id"], df["spans"])
    }


def test_spans_byte_identical_through_stages(span_docs, tmp_path):
    """The per-row (kind, text, media_ref, offset) sequence survives
    cell-encode -> spatial join -> partitioned write -> read back, element
    for element (golden property 6, FIXTURES.md)."""
    import ray.data as rd

    from pygridmap_ray.spatial import join_points_to_polygons
    from pygridmap_ray.tiler import with_cell_columns, write_partitioned

    before = _spans_by_doc(span_docs.to_pandas())
    ds = with_cell_columns(span_docs, resolution=1000.0, tile_size_cell=128)
    ds = join_points_to_polygons(ds, polygon_layer(), how="left")
    write_partitioned(ds, str(tmp_path / "out"), ["xt"])
    back = rd.read_parquet(str(tmp_path / "out"), file_extensions=["parquet"]).to_pandas()
    after = _spans_by_doc(back.drop_duplicates("doc_id"))
    assert set(before) == set(after)
    for d in before:
        assert before[d] == after[d], f"doc {d} spans changed"
