"""pygridmap_ray — a Ray-Data-native spatial gridding + overlay engine.

From-scratch re-expression of the query/data-processing capabilities of
eurostat/pygridmap (reference at /root/reference) on top of
``ray.data.Dataset`` pipelines: zero-copy Arrow batches, broadcast
layers built once per worker (polygon indexes; actor pools for raster
handles), explicit shuffles only
where semantics demand (groupby/sort/partitioned write).

Public surface (mirrors SURVEY.md §2):

- :mod:`pygridmap_ray.planning`   — grid/tile planning math (base.py)
- :mod:`pygridmap_ray.gridding`   — ``make_grid`` (GridMaker)
- :mod:`pygridmap_ray.overlay`    — ``grid_overlay`` / ``area_interpolate``
- :mod:`pygridmap_ray.tiler`      — ``grid_tiling`` / ``grid_transformation``
                                     / ``grid_aggregation`` (gridtiler.py)
- :mod:`pygridmap_ray.raster`     — raster→vector tiling (gridtiler_raster.py)
- :mod:`pygridmap_ray.geom`       — numpy geometry kernels + bbox index
- :mod:`pygridmap_ray.synth`      — deterministic geo fixtures (+ SQL twins)
- :mod:`pygridmap_ray.text`       — language-ID / quality / tokens / fingerprint
- :mod:`pygridmap_ray.dedup`      — exact / MinHash-LSH / SimHash / embedding dedup
- :mod:`pygridmap_ray.ann`        — similarity search over embeddings
- :mod:`pygridmap_ray.frame`     — generic batch/row UDF apply (FrameProcessor)
- :mod:`pygridmap_ray.joins`      — as-of / interval joins (order-aware)
- :mod:`pygridmap_ray.stats`      — histogram-exact grouped quantiles
- :mod:`pygridmap_ray.geom.proj`  — closed-form CRS reprojection
- :mod:`pygridmap_ray.hier`       — S2-style hierarchical cell index (Morton/quadkey, Z-range scans)
- :mod:`pygridmap_ray.hex`        — H3-style hexagonal lattice (assign/density/focal/zscore)
- :mod:`pygridmap_ray.geodesic`   — haversine kernels + broadcast nearest-hub
- :mod:`pygridmap_ray.pack`       — global prefix-sum + training-sequence packing

No module in this package calls ``ray.init`` — sessions are owned by the
caller (driver, bench.py, or the test fixture).
"""

__version__ = "0.1.0"


def __getattr__(name):
    """Lazy root-level exports of the headline operators (keeps ``import
    pygridmap_ray`` light — no Ray import until an operator is touched)."""
    _EXPORTS = {
        "make_grid": ("pygridmap_ray.gridding", "make_grid"),
        "grid_overlay": ("pygridmap_ray.overlay", "grid_overlay"),
        "overlay_fragments": ("pygridmap_ray.overlay", "overlay_fragments"),
        "area_interpolate": ("pygridmap_ray.overlay", "area_interpolate"),
        "grid_tiling": ("pygridmap_ray.tiler", "grid_tiling"),
        "grid_aggregation": ("pygridmap_ray.tiler", "grid_aggregation"),
        "grid_transformation": ("pygridmap_ray.tiler", "grid_transformation"),
        "with_cell_columns": ("pygridmap_ray.tiler", "with_cell_columns"),
        "write_partitioned": ("pygridmap_ray.tiler", "write_partitioned"),
        "join_points_to_polygons": ("pygridmap_ray.spatial", "join_points_to_polygons"),
        "knn_join": ("pygridmap_ray.spatial", "knn_join"),
        "tiling_raster": ("pygridmap_ray.raster", "tiling_raster"),
        "resample_raster": ("pygridmap_ray.raster", "resample_raster"),
        "FrameProcessor": ("pygridmap_ray.frame", "FrameProcessor"),
        "plan_grid": ("pygridmap_ray.planning", "plan_grid"),
        "polygon_layer": ("pygridmap_ray.synth", "polygon_layer"),
        "read_geojson_layer": ("pygridmap_ray.sources.geojson", "read_geojson_layer"),
        "checkpointed_write": ("pygridmap_ray.state", "checkpointed_write"),
        "asof_join": ("pygridmap_ray.joins", "asof_join"),
        "interval_join": ("pygridmap_ray.joins", "interval_join"),
        "lookup_join": ("pygridmap_ray.joins", "lookup_join"),
        "semi_join": ("pygridmap_ray.joins", "semi_join"),
        "bloom_build": ("pygridmap_ray.joins", "bloom_build"),
        "bloom_prefilter": ("pygridmap_ray.joins", "bloom_prefilter"),
        "stratified_sample": ("pygridmap_ray.stats", "stratified_sample"),
        "connected_components": ("pygridmap_ray.dedup", "connected_components"),
        "neardup_dedup": ("pygridmap_ray.dedup", "neardup_dedup"),
        "top_ngrams": ("pygridmap_ray.text", "top_ngrams"),
        "grouped_quantiles": ("pygridmap_ray.stats", "grouped_quantiles"),
        "rolling_aggregate": ("pygridmap_ray.stats", "rolling_aggregate"),
        "grouped_moments": ("pygridmap_ray.stats", "grouped_moments"),
        "grouped_topk": ("pygridmap_ray.stats", "grouped_topk"),
        "hll_distinct": ("pygridmap_ray.stats", "hll_distinct"),
        "tfidf_pairs": ("pygridmap_ray.tfidf", "tfidf_pairs"),
        "pagerank": ("pygridmap_ray.graph", "pagerank"),
        "reproject": ("pygridmap_ray.geom.proj", "reproject"),
        "set_ref_crs": ("pygridmap_ray.geom.proj", "set_ref_crs"),
        "with_hier_cells": ("pygridmap_ray.hier", "with_hier_cells"),
        "hier_rollup": ("pygridmap_ray.hier", "hier_rollup"),
        "morton_encode": ("pygridmap_ray.hier", "morton_encode"),
        "morton_decode": ("pygridmap_ray.hier", "morton_decode"),
        "zrange_cover": ("pygridmap_ray.hier", "zrange_cover"),
        "zrange_filter": ("pygridmap_ray.hier", "zrange_filter"),
        "with_hex_cells": ("pygridmap_ray.hex", "with_hex_cells"),
        "hex_axial": ("pygridmap_ray.hex", "hex_axial"),
        "hex_density": ("pygridmap_ray.hex", "hex_density"),
        "hex_rollup": ("pygridmap_ray.hex", "hex_rollup"),
        "hex_focal": ("pygridmap_ray.hex", "hex_focal"),
        "hex_zscore": ("pygridmap_ray.hex", "hex_zscore"),
        "haversine_km": ("pygridmap_ray.geodesic", "haversine_km"),
        "nearest_hub": ("pygridmap_ray.geodesic", "nearest_hub"),
        "join_points_via_hex_cover": (
            "pygridmap_ray.spatial",
            "join_points_via_hex_cover",
        ),
    }
    if name in _EXPORTS:
        import importlib

        mod, attr = _EXPORTS[name]
        return getattr(importlib.import_module(mod), attr)
    raise AttributeError(f"module 'pygridmap_ray' has no attribute {name!r}")
