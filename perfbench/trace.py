"""Traced mode: time each layer on its own and report per-layer metrics.

The traced run never feeds the end-to-end metrics.  After one warm-up job
and one plain timed job (``job_s`` of this run), it repeats a *staged pass*
until ``--seconds`` have passed: each stage of the workload's pipeline is
materialised and timed on its own, and Ray's own per-operator statistics
(the structured form of ``Dataset.stats()``) are read for it.  Then it runs
single-core calls of each kernel in this process, on blocks of the sizes
Ray actually produced.

Every per-layer metric is printed on every workload.  Stages that the
workload's own pipeline lacks are timed on a *probe*: the grid pipeline of
``grid_overlay`` on the point workloads, the point pipeline of
``tile_write`` (at ``PROBE_POINTS``) on ``grid_overlay``, and the tile
write of the join output on ``pip_join``.  The trace record on stderr marks
each span's source, lists block row counts and per-operator rows, bytes,
blocks and times, and reports how far the stage sum is from ``job_s``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

import numpy as np

from perfbench import workloads as W

#: corpus points of the point-pipeline probe on grid_overlay
PROBE_POINTS = 50_000
#: rows of the single-batch join probe
JOIN_BATCH_ROWS = 65_536
#: repeats of each single-core call; the median is reported
REPEATS = 5

#: per-layer metric -> unit; see README.md for the end-to-end metric and
#: workload each one should move
PER_LAYER = {
    "read.s": "s",
    "tiler.assign_cells.s": "s",
    "tiler.assign_cells.ns_per_row": "ns",
    "spatial.join.s": "s",
    "spatial.join.batch_ms": "ms",
    "spatial.join.ns_per_point": "ns",
    "spatial.join.build_ms": "ms",
    "tiler.write.s": "s",
    "gridding.make_grid.s": "s",
    "gridding.tile_ms": "ms",
    "geom.cells_coverage.ms_per_call": "ms",
    "geom.clip_area_rect.us_per_call": "us",
    "geom.points_in_rings.ns_per_point": "ns",
    "overlay.fragments.s": "s",
    "overlay.kernel.batch_ms": "ms",
    "overlay.aggregate.s": "s",
    "ray.task_wall_s": "s",
    "ray.idle_cpu_s": "s",
}


class Tracer:
    """Spans around calls into each layer, kept in memory until the end."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.samples: dict[str, list[float]] = {}

    def stage(self, name: str, fn, *, upstream=None, probe: bool = False, pass_no: int = 0):
        """Time ``fn()``; a materialised result also records the Ray
        operators it ran beyond those of ``upstream``, the dataset it read."""
        start = time.perf_counter()
        out = fn()
        end = time.perf_counter()
        span = {
            "name": name,
            "pass": pass_no,
            "source": "probe" if probe else "pipeline",
            "start_s": round(start - self.t0, 6),
            "end_s": round(end - self.t0, 6),
            "s": end - start,
        }
        if hasattr(out, "_get_stats_summary"):
            span.update(_ray_stats(out, upstream))
        self.spans.append(span)
        self.add(f"{name}.s", end - start)
        return out

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def pass_spans(self, pass_no: int) -> list[dict]:
        return [
            s for s in self.spans if s["pass"] == pass_no and s["source"] == "pipeline"
        ]


def _operators(ds) -> list[dict]:
    """Per-operator wall/CPU/UDF time, rows, bytes and tasks of every
    execution behind a materialised dataset (its whole lineage)."""
    ops, todo = [], [ds._get_stats_summary()]
    while todo:
        node = todo.pop()
        todo += node.parents
        for op in node.operators_stats:
            ops.append(
                {
                    "operator": op.operator_name,
                    "wall_s": (op.wall_time or {}).get("sum", 0.0),
                    "cpu_s": (op.cpu_time or {}).get("sum", 0.0),
                    "udf_s": (op.udf_time or {}).get("sum", 0.0),
                    "rows": (op.output_num_rows or {}).get("sum", 0),
                    "bytes": (op.output_size_bytes or {}).get("sum", 0),
                    "tasks": (op.task_rows or {}).get("count", None),
                }
            )
    return ops


def _ray_stats(ds, upstream) -> dict:
    """The operators that materialised ``ds`` but not its already
    materialised input ``upstream``, and the output block row counts."""
    ops = _operators(ds)
    for done in _operators(upstream) if upstream is not None else []:
        if done in ops:
            ops.remove(done)
    rows = [m.num_rows for b in ds.iter_internal_ref_bundles() for m in b.metadata]
    return {"operators": ops, "task_wall_s": sum(o["wall_s"] for o in ops), "block_rows": rows}


def _median_call(fn, repeats: int = REPEATS) -> float:
    """Median wall seconds of ``repeats`` single-core calls of ``fn``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _typical_block(ds):
    """The block whose row count is the median of the dataset's blocks."""
    import ray

    pairs = [
        (m.num_rows, ref)
        for b in ds.iter_internal_ref_bundles()
        for ref, m in zip(b.block_refs, b.metadata)
        if m.num_rows
    ]
    pairs.sort(key=lambda p: p[0])
    return ray.get(pairs[len(pairs) // 2][1])


# ---------------------------------------------------------------------------
# point pipeline
# ---------------------------------------------------------------------------


def point_stages(tr: Tracer, wl, *, how: str, columns, write: bool, probe: bool, pass_no: int):
    """read -> assign_cells -> join (-> write), each materialised and timed."""
    from pygridmap_ray.spatial import join_points_to_polygons
    from pygridmap_ray.tiler import with_cell_columns, write_partitioned

    read = tr.stage("read", lambda: wl.read(columns).materialize(), probe=probe, pass_no=pass_no)
    cells = tr.stage(
        "tiler.assign_cells",
        lambda: with_cell_columns(
            read, resolution=W.RESOLUTION, tile_size_cell=W.TILE_SIZE_CELL
        ).materialize(),
        upstream=read,
        probe=probe,
        pass_no=pass_no,
    )
    joined = tr.stage(
        "spatial.join",
        lambda: join_points_to_polygons(cells, wl.layer, how=how).materialize(),
        upstream=cells,
        probe=probe,
        pass_no=pass_no,
    )
    rows = None
    if write:
        rows = tr.stage(
            "tiler.write",
            lambda: write_partitioned(joined, wl.out, ["xt"], mode="overwrite"),
            probe=probe,
            pass_no=pass_no,
        )
        with open(os.path.join(wl.out, "_manifest.json")) as f:
            parts = json.load(f)["partitions"].values()
        # write tasks time their own filter + encode + write per partition
        tr.spans[-1]["task_wall_s"] = sum(p["write_ms"] for p in parts) / 1000.0
    return read, cells, joined, rows


def point_kernels(tr: Tracer, read, cells, layer: list[dict], how: str, probe: bool) -> None:
    """Single-core calls of assign_cells, the join kernel and its build,
    and (unless probing) points_in_rings, on blocks Ray produced."""
    import pyarrow as pa
    import ray

    from pygridmap_ray.spatial import PointJoinKernel
    from pygridmap_ray.tiler import assign_cells

    block = _typical_block(read)
    dt = _median_call(
        lambda: assign_cells(block, resolution=W.RESOLUTION, tile_size_cell=W.TILE_SIZE_CELL)
    )
    tr.add("tiler.assign_cells.ns_per_row", dt / block.num_rows * 1e9)

    ref = ray.put(layer)
    attrs = ("nuts_id", "pop")
    tr.add(
        "spatial.join.build_ms",
        _median_call(lambda: PointJoinKernel(ray.get(ref), attrs, how)) * 1e3,
    )
    kern = PointJoinKernel(layer, attrs, how)
    block = _typical_block(cells)
    tr.add("spatial.join.batch_ms", _median_call(lambda: kern(block)) * 1e3)

    blocks, n = [], 0
    for b in cells.iter_batches(batch_format="pyarrow", batch_size=JOIN_BATCH_ROWS):
        blocks.append(b)
        n += b.num_rows
        if n >= JOIN_BATCH_ROWS:
            break
    batch = pa.concat_tables(blocks).slice(0, JOIN_BATCH_ROWS).combine_chunks()
    tr.add(
        "spatial.join.ns_per_point",
        _median_call(lambda: kern(batch)) / batch.num_rows * 1e9,
    )
    if not probe:
        px = np.asarray(batch["x"])
        py = np.asarray(batch["y"])
        tr.add("geom.points_in_rings.ns_per_point", _pip_ns_per_point(px, py, layer))


def _pip_ns_per_point(px: np.ndarray, py: np.ndarray, layer: list[dict]) -> float:
    """points_in_rings over each polygon's bbox candidates (as the join and
    cells_coverage call it): median over repeats of total time / points."""
    from pygridmap_ray.geom.kernels import points_in_rings

    cands = []
    for p in layer:
        bx0, by0, bx1, by1 = p["bbox"]
        sel = (px >= bx0) & (px < bx1) & (py >= by0) & (py < by1)
        if sel.any():
            cands.append((px[sel], py[sel], p["rings"]))
    total = sum(len(c[0]) for c in cands)

    def run():
        for x, y, rings in cands:
            points_in_rings(x, y, rings)

    return _median_call(run) / max(total, 1) * 1e9


# ---------------------------------------------------------------------------
# grid pipeline
# ---------------------------------------------------------------------------


def grid_stages(tr: Tracer, wl, *, probe: bool, pass_no: int):
    """make_grid, then fragments alone, then the whole area_interpolate;
    the Sum exchange is area_interpolate minus fragments."""
    from pygridmap_ray.overlay import area_interpolate, overlay_fragments

    grid = tr.stage(
        "gridding.make_grid", lambda: wl.make_grid().materialize(), probe=probe, pass_no=pass_no
    )
    frags = tr.stage(
        "overlay.fragments",
        lambda: overlay_fragments(grid, wl.layer, wl.spec).materialize(),
        upstream=grid,
        probe=probe,
        pass_no=pass_no,
    )
    tr.spans[-1]["in_pipeline_sum"] = False  # area_interpolate repeats it
    interp = tr.stage(
        "overlay.area_interpolate",
        lambda: area_interpolate(wl.layer, grid, wl.spec, ["pop"]).materialize(),
        upstream=grid,
        probe=probe,
        pass_no=pass_no,
    )
    agg = tr.samples["overlay.area_interpolate.s"][-1] - tr.samples["overlay.fragments.s"][-1]
    tr.add("overlay.aggregate.s", agg)
    return grid, frags, interp


def fragment_area_fails(wl, frags) -> list[str]:
    """Per polygon: fragment areas sum to its shoelace area, up to what
    make_grid's trimming of sliver cells may drop."""
    sums = np.zeros(len(wl.layer))
    for b in frags.select_columns(["poly_id", "area"]).iter_batches(
        batch_format="numpy", batch_size=None
    ):
        np.add.at(sums, b["poly_id"], b["area"])
    bad = [
        p["poly_id"]
        for p in wl.layer
        if abs(sums[p["poly_id"]] - p["area"]) > wl.loss_bound(p) + 1e-12 * p["area"]
    ]
    return [f"fragment areas off the shoelace area for polygons {bad[:8]}"] if bad else []


def grid_kernels(tr: Tracer, wl, grid, probe: bool) -> None:
    """Single-core emit_tile_cells, cells_coverage, clip_area_rect, (unless
    probing) points_in_rings on cell centres, and the overlay kernel on one
    block."""
    from pygridmap_ray.geom.kernels import cells_coverage, clip_area_rect, clip_rings_rect
    from pygridmap_ray.gridding import emit_tile_cells
    from pygridmap_ray.overlay import OverlayKernel

    spec = wl.spec
    w, h = spec.cellsize
    tiles = []  # (tiy, tix, x0, y0, nx, ny, polygons whose bbox meets the tile)
    for tiy in range(spec.nytiles):
        for tix in range(spec.nxtiles):
            r0, c0 = tiy * spec.tilesize[0], tix * spec.tilesize[1]
            ny = min(spec.tilesize[0], spec.nrows - r0)
            nx = min(spec.tilesize[1], spec.ncols - c0)
            x0, y0 = spec.bbox[0] + c0 * w, spec.bbox[1] + r0 * h
            x1, y1 = x0 + nx * w, y0 + ny * h
            polys = [
                p
                for p in wl.layer
                if p["bbox"][0] < x1 and p["bbox"][2] > x0 and p["bbox"][1] < y1 and p["bbox"][3] > y0
            ]
            if polys:
                tiles.append((tiy, tix, x0, y0, nx, ny, polys))
    picks = tiles[:: max(1, len(tiles) // 8)][:8]
    tr.add(
        "gridding.tile_ms",
        statistics.median(
            _median_call(lambda t=t: emit_tile_cells(spec, t[0], t[1], wl.layer, True, False), 3)
            for t in picks
        )
        * 1e3,
    )
    # (tile, polygon, polygon part inside the tile) for polygons that
    # really cross the tile, not only its bbox
    pairs = [
        (t, p, r)
        for t in picks
        for p in t[6]
        if (r := clip_rings_rect(p["rings"], t[2], t[3], t[2] + t[4] * w, t[3] + t[5] * h))
    ][:16]
    tr.add(
        "geom.cells_coverage.ms_per_call",
        statistics.median(
            _median_call(lambda t=t, p=p: cells_coverage(p["rings"], t[2], t[3], w, h, t[4], t[5]), 3)
            for t, p, _ in pairs
        )
        * 1e3,
    )
    # clip a polygon's tile part to the cells under its vertices, as
    # cells_coverage does for every boundary cell
    t, _, rings = pairs[len(pairs) // 2]
    ring = np.concatenate(rings)
    ix = np.clip(((ring[:, 0] - t[2]) // w).astype(int), 0, t[4] - 1)
    iy = np.clip(((ring[:, 1] - t[3]) // h).astype(int), 0, t[5] - 1)
    cells = sorted(set(zip(ix.tolist(), iy.tolist())))[:64]

    def clip_all():
        for cx, cy in cells:
            x0, y0 = t[2] + cx * w, t[3] + cy * h
            clip_area_rect(rings, x0, y0, x0 + w, y0 + h)

    tr.add("geom.clip_area_rect.us_per_call", _median_call(clip_all) / len(cells) * 1e6)

    if not probe:
        # centres of the grid cells under each polygon's bbox, as
        # cells_coverage tests a tile's interior cells
        x0, y0 = spec.bbox[0], spec.bbox[1]
        cx, cy = [], []
        for p in wl.layer:
            bx0, by0, bx1, by1 = p["bbox"]
            ix = np.arange((bx0 - x0) // w, (bx1 - x0) // w + 1)
            iy = np.arange((by0 - y0) // h, (by1 - y0) // h + 1)
            gx, gy = np.meshgrid(x0 + (ix + 0.5) * w, y0 + (iy + 0.5) * h)
            cx.append(gx.ravel())
            cy.append(gy.ravel())
        tr.add(
            "geom.points_in_rings.ns_per_point",
            _pip_ns_per_point(np.concatenate(cx), np.concatenate(cy), wl.layer),
        )

    kern = OverlayKernel(wl.layer, spec.cellsize, spec.bbox[:2])
    block = _typical_block(grid)
    tr.add("overlay.kernel.batch_ms", _median_call(lambda: kern(block)) * 1e3)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _checked(res_fails: list[str], counts: dict) -> None:
    counts["attempted"] += 1
    if res_fails:
        counts["failed"] += 1
        print(f"traced operation failed: {res_fails}", file=sys.stderr)


def run_trace(wl, seconds: float, cpus: int) -> dict:
    counts = {"attempted": 0, "failed": 0}
    tr = Tracer()
    # warm-up job, then one plain job for job_s
    _checked(wl.check(wl.job()), counts)
    t0 = time.perf_counter()
    res = wl.job()
    job_s = time.perf_counter() - t0
    _checked(wl.check(res), counts)

    is_grid = isinstance(wl, W.GridOverlay)
    t_end = time.monotonic() + seconds
    pass_no = 0
    while True:
        pass_no += 1
        if is_grid:
            grid, frags, interp = grid_stages(tr, wl, probe=False, pass_no=pass_no)
            table = W.collect(interp)
            fails = fragment_area_fails(wl, frags) + wl.check(
                W.JobResult(grid.count(), table.nbytes, {"cells": table, "grid": grid})
            )
        elif isinstance(wl, W.TileWrite):
            read, cells, joined, rows = point_stages(
                tr, wl, how="left", columns=None, write=True, probe=False, pass_no=pass_no
            )
            fails = wl.check(W.JobResult(wl.n_points, 0, {"rows": rows}))
        else:
            read, cells, joined, _ = point_stages(
                tr,
                wl,
                how="inner",
                columns=["doc_id", "x", "y"],
                write=False,
                probe=False,
                pass_no=pass_no,
            )
            res = tr.stage("client.consume", lambda: wl.consume(joined), pass_no=pass_no)
            fails = wl.check(res)
        _checked(fails, counts)
        spans = [s for s in tr.pass_spans(pass_no) if s.get("in_pipeline_sum", True)]
        tr.add("stage_sum_s", sum(s["s"] for s in spans))
        tr.add("ray.task_wall_s", sum(s.get("task_wall_s", 0.0) for s in spans))
        if time.monotonic() >= t_end:
            break

    # single-core kernel calls and probes of the layers this pipeline lacks
    if is_grid:
        grid_kernels(tr, wl, grid, probe=False)
        probe = W.TileWrite(wl.seed, os.path.join(wl.workdir, "probe"))
        probe.n_points = PROBE_POINTS
        probe.setup()
        p_read, p_cells, _, rows = point_stages(
            tr, probe, how="left", columns=None, write=True, probe=True, pass_no=0
        )
        _checked(probe.check(W.JobResult(probe.n_points, 0, {"rows": rows})), counts)
        point_kernels(tr, p_read, p_cells, probe.layer, "left", probe=True)
    else:
        how = "left" if isinstance(wl, W.TileWrite) else "inner"
        point_kernels(tr, read, cells, wl.layer, how, probe=False)
        if not isinstance(wl, W.TileWrite):
            from pygridmap_ray.tiler import write_partitioned

            tr.stage(
                "tiler.write",
                lambda: write_partitioned(joined, wl.out, ["xt"], mode="overwrite"),
                probe=True,
            )
        probe = W.GridOverlay(wl.seed, os.path.join(wl.workdir, "probe"))
        probe.setup()
        grid, frags, _ = grid_stages(tr, probe, probe=True, pass_no=0)
        _checked(fragment_area_fails(probe, frags), counts)
        grid_kernels(tr, probe, grid, probe=True)

    task_wall = statistics.median(tr.samples["ray.task_wall_s"])
    stage_sum = statistics.median(tr.samples["stage_sum_s"])
    tr.add("ray.idle_cpu_s", cpus * job_s - task_wall)
    metrics = {
        name: (statistics.median(tr.samples[name]), unit) for name, unit in PER_LAYER.items()
    }
    record = {
        "job_s": job_s,
        "stage_sum_s": stage_sum,
        "stage_gap_s": stage_sum - job_s,
        "stage_gap_share": (stage_sum - job_s) / job_s,
        "passes": pass_no,
        "cpus": cpus,
        "samples": tr.samples,
        "spans": tr.spans,
    }
    print("trace-record: " + json.dumps(record, default=float), file=sys.stderr)
    return {**counts, "metrics": metrics}
