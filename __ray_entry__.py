"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; nothing
here (or in pygridmap_ray) calls ``ray.init`` / ``ray.shutdown``.

- ``entry()``            — flagship pipeline on sf0.001: interleaved-span
  corpus -> cell-encode -> spatial join -> per-polygon aggregate.
- ``queries()``          — named pipelines over ``sf_dir`` (SURVEY.md §2).
- ``oracle_sql()``       — DuckDB twins, column-name-identical.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from pathlib import Path
from typing import Any

# this checkout's package, whatever directory it was cloned into
sys.path.insert(0, str(Path(__file__).resolve().parent))

from pygridmap_ray.pipelines import queries as _q  # noqa: E402
from pygridmap_ray.pipelines.registry import entries  # noqa: E402


def entry() -> Any:
    """Flagship: sf0.001 docs with interleaved spans -> cell assignment ->
    spatial join against the polygon layer -> joined rows (span column
    intact).  The driver smoke-checks rows >= 0 and schema stability."""
    import numpy as np
    import pyarrow as pa

    from pygridmap_ray.spatial import join_points_to_polygons
    from pygridmap_ray.synth import build_spans_array, polygon_layer
    from pygridmap_ray.tiler import with_cell_columns

    sf_dir = "/root/testdata/sf0.001"
    ds = _q.docs_points(sf_dir)

    def add_spans(b: pa.Table) -> pa.Table:
        return b.append_column("spans", build_spans_array(np.asarray(b["doc_id"])))

    ds = ds.map_batches(add_spans, batch_format="pyarrow")
    ds = with_cell_columns(ds, resolution=1000.0, tile_size_cell=128)
    return join_points_to_polygons(ds, polygon_layer(), how="left")


def queries() -> dict[str, Callable[[str], Any]]:
    return {name: e.run for name, e in entries().items()}


def oracle_sql() -> dict[str, str]:
    return {name: e.sql() for name, e in entries().items()}
