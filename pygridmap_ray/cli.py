"""Job entrypoint for ``ray job submit`` — the north-rule submission path.

On a real cluster:

    ray job submit --working-dir . -- \\
        python -m pygridmap_ray.cli flagship \\
            --input  /data/corpus            \\
            --layer  /data/nuts.geojson      \\
            --output /data/tiles             \\
            --resolution 1000 --level 9

Locally (this sandbox) the same command runs against a local session.
This module is the ONE library-adjacent place allowed to own a Ray
session (guarded — inside a `ray job submit` driver Ray is already
initialised and the guard is a no-op); library modules never init.

Subcommands:

* ``flagship`` — the north-rule pipeline: read interleaved-document
  table (Lance or parquet) -> hierarchical cell-encode -> spatial join
  vs a polygon layer -> checkpoint-resumable partitioned tile write.
  Prints one JSON metrics line (rows, docs/sec, skipped-on-resume).
* ``rollup``   — hierarchical per-parent rollup of an encoded corpus.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _ensure_ray():
    """Init a local session iff none exists; returns (ray, owned) where
    `owned` says whether THIS process created (and must shut down) the
    session — inside `ray job submit` or a test fixture the session
    belongs to the caller and must survive us."""
    import ray

    if ray.is_initialized():
        return ray, False
    ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    return ray, True


def _load_layer(path: str | None, n_polys: int):
    """Polygon layer from GeoJSON, or the deterministic synthetic layer
    when no path is given (sandbox / smoke runs)."""
    if path:
        from .sources.geojson import read_geojson_layer

        return read_geojson_layer(path)
    from .synth import bench_polygon_layer

    return bench_polygon_layer(n_polys)


def cmd_flagship(args) -> dict:
    from .hier import with_hier_cells
    from .sources.documents import read_document_table
    from .spatial import join_points_to_polygons
    from .state.manifest import checkpointed_write, stage_fingerprint
    from .tiler import with_cell_columns

    t0 = time.time()

    def build():
        ds = read_document_table(args.input, validate=args.validate)
        ds = with_cell_columns(
            ds, resolution=args.resolution, tile_size_cell=args.tile_size
        )
        if args.level:
            ds = with_hier_cells(ds, resolution=args.resolution, level=args.level)
        return join_points_to_polygons(
            ds, _load_layer(args.layer, args.n_polys), how="left"
        )

    fp = stage_fingerprint(
        input=args.input,
        layer=args.layer or f"synth:{args.n_polys}",
        resolution=args.resolution,
        level=args.level,
        tile_size=args.tile_size,
    )
    res = checkpointed_write(build, args.output, ["xt"], fp)
    sec = time.time() - t0
    return {
        "job": "flagship",
        "rows": res["rows"],
        "skipped": res["skipped"],
        "sec": round(sec, 3),
        "docs_per_sec": round(res["rows"] / sec, 1) if sec > 0 else None,
        "output": args.output,
        "fingerprint": fp,
    }


def cmd_rollup(args) -> dict:
    from .hier import hier_rollup, with_hier_cells
    from .sources.documents import read_document_table
    from .tiler import write_partitioned

    t0 = time.time()
    ds = read_document_table(args.input, columns=[args.x_col, args.y_col])
    ds = with_hier_cells(
        ds,
        resolution=args.resolution,
        level=args.level,
        x_col=args.x_col,
        y_col=args.y_col,
    )
    out = hier_rollup(ds, parent_level=args.parent_level, level=args.level)

    def add_prefix(batch):
        import numpy as np
        import pyarrow as pa

        codes = np.asarray(batch["parent_code"], dtype=np.int64)
        # coarse shard key for the partitioned sink (bounded dir count)
        return batch.append_column(
            "shard", pa.array(codes >> max(0, 2 * args.parent_level - 6))
        )

    out = out.map_batches(add_prefix, batch_format="pyarrow")
    rows = write_partitioned(out, args.output, ["shard"], mode="overwrite")
    sec = time.time() - t0
    return {"job": "rollup", "rows": rows, "sec": round(sec, 3), "output": args.output}


def cmd_incr_agg(args) -> dict:
    from .state.incremental import incremental_aggregate

    t0 = time.time()
    out, stats = incremental_aggregate(
        args.input,
        args.cache,
        key_cols=args.keys.split(","),
        value_col=args.value,
    )
    rows = out.count()
    return {
        "job": "incr-agg",
        "rows": rows,
        "sec": round(time.time() - t0, 3),
        **stats,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="pygridmap_ray.cli", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    f = sub.add_parser("flagship", help="north-rule pipeline (resumable)")
    f.add_argument("--input", required=True, help="document table (Lance dir or parquet dir)")
    f.add_argument("--output", required=True, help="tile-tree output dir")
    f.add_argument("--layer", default=None, help="GeoJSON polygon layer (synthetic if omitted)")
    f.add_argument("--n-polys", type=int, default=1200)
    f.add_argument("--resolution", type=float, default=1000.0)
    f.add_argument("--tile-size", type=int, default=128)
    f.add_argument("--level", type=int, default=0, help="hierarchical cell level (0 = off)")
    f.add_argument("--validate", action="store_true", help="assert the span-schema contract")
    f.set_defaults(fn=cmd_flagship)

    r = sub.add_parser("rollup", help="hierarchical per-parent rollup")
    r.add_argument("--input", required=True)
    r.add_argument("--output", required=True)
    r.add_argument("--resolution", type=float, default=1000.0)
    r.add_argument("--level", type=int, default=9)
    r.add_argument("--parent-level", type=int, default=4)
    r.add_argument("--x-col", default="x")
    r.add_argument("--y-col", default="y")
    r.set_defaults(fn=cmd_rollup)

    i = sub.add_parser(
        "incr-agg",
        help="incremental partition-wise aggregation (stale-only recompute)",
    )
    i.add_argument("--input", required=True, help="hive-partitioned tree")
    i.add_argument("--cache", required=True, help="partial-cache dir")
    i.add_argument("--keys", required=True, help="comma-separated key cols")
    i.add_argument("--value", required=True, help="value column to sum")
    i.set_defaults(fn=cmd_incr_agg)

    args = p.parse_args(argv)
    ray, owned = _ensure_ray()
    try:
        print(json.dumps(args.fn(args)))
    finally:
        if owned:
            ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
