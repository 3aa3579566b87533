"""Cell/tile assignment, tiled writes, transforms, coarse re-aggregation.

Ray-Data-native re-expression of the reference's ``gridtiler.py``:

- :func:`with_cell_columns`   — T1/T2 tile + within-tile coordinate math
  (reference gridtiler.py:101-118, the v1 ``y_origin`` semantics — NOT the
  v2 bug at gridtiler.py:236) as one vectorized Arrow ``map_batches``.
- :func:`grid_tiling`         — partitioned parquet tile tree + ``info.json``
  (reference gridtiler.py:124-166); the filesystem-append "shuffle" of the
  reference becomes ``write_parquet(partition_cols=["xt","yt"])``.
- :func:`grid_transformation` — batch UDF with row-drop semantics
  (reference gridtiler.py:331-334: UDF returning False drops the row).
- :func:`grid_aggregation`    — grouped re-aggregation to a coarser
  resolution (reference gridtiler.py:392-437) via ``groupby().aggregate``
  with the reference's exact null rules (gridtiler.py:458-534).

Every numeric kernel has a paired SQL builder (``sql_*``) generating the
bit-identical DuckDB expression for the driver's oracle gate.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# ---------------------------------------------------------------------------
# T1 cell/tile assignment
# ---------------------------------------------------------------------------


def _floor_i64(arr: pa.Array) -> pa.Array:
    return pc.cast(pc.floor(arr), pa.int64())


def assign_cells(
    batch: pa.Table,
    *,
    resolution: float,
    tile_size_cell: int,
    x_origin: float = 0.0,
    y_origin: float = 0.0,
    x_col: str = "x",
    y_col: str = "y",
) -> pa.Table:
    """Add ``ix iy xt yt local_x local_y cell_key`` to an Arrow batch.

    Exact v1 reference math (gridtiler.py:101-118):
      xt      = floor((x - x0) / (resolution * tile_size_cell))
      local_x = floor((x - x0) / resolution - xt * tile_size_cell)
    ``cell_key = iy * 2**32 + ix`` is the engine's global cell id (the
    reference's implicit (x, y) cell identity as one int64 join key).

    Precision note (hypothesis-found): for x a float-epsilon below a tile
    boundary the formula itself can yield local == tile_size_cell; the
    reference only prints a warning there (gridtiler.py:111-118) and the
    SQL twin computes the identical value, so the engine reproduces the
    formula rather than clamping.
    """
    tile_m = resolution * tile_size_cell
    x = pc.cast(batch[x_col], pa.float64())
    y = pc.cast(batch[y_col], pa.float64())
    dx = pc.subtract(x, pa.scalar(x_origin))
    dy = pc.subtract(y, pa.scalar(y_origin))
    ix = _floor_i64(pc.divide(dx, pa.scalar(resolution)))
    iy = _floor_i64(pc.divide(dy, pa.scalar(resolution)))
    xt = _floor_i64(pc.divide(dx, pa.scalar(tile_m)))
    yt = _floor_i64(pc.divide(dy, pa.scalar(tile_m)))
    local_x = _floor_i64(
        pc.subtract(
            pc.divide(dx, pa.scalar(resolution)),
            pc.multiply(pc.cast(xt, pa.float64()), pa.scalar(float(tile_size_cell))),
        )
    )
    local_y = _floor_i64(
        pc.subtract(
            pc.divide(dy, pa.scalar(resolution)),
            pc.multiply(pc.cast(yt, pa.float64()), pa.scalar(float(tile_size_cell))),
        )
    )
    cell_key = pc.add(pc.multiply(iy, pa.scalar(2**32)), ix)
    out = batch
    for name, col in [
        ("ix", ix),
        ("iy", iy),
        ("xt", xt),
        ("yt", yt),
        ("local_x", local_x),
        ("local_y", local_y),
        ("cell_key", cell_key),
    ]:
        i = out.schema.get_field_index(name)
        # overwrite pre-existing cell columns (e.g. re-tiling read_tiles
        # output) instead of appending duplicates
        out = out.set_column(i, name, col) if i >= 0 else out.append_column(name, col)
    return out


def sql_cell_columns(
    resolution: float,
    tile_size_cell: int,
    x_origin: float = 0.0,
    y_origin: float = 0.0,
    x: str = "x",
    y: str = "y",
) -> dict[str, str]:
    """DuckDB twins of :func:`assign_cells` (same literals, same op order)."""
    res = repr(float(resolution))
    tm = repr(float(resolution * tile_size_cell))
    tsc = repr(float(tile_size_cell))
    x0 = repr(float(x_origin))
    y0 = repr(float(y_origin))
    ix = f"CAST(FLOOR(({x} - {x0}) / {res}) AS BIGINT)"
    iy = f"CAST(FLOOR(({y} - {y0}) / {res}) AS BIGINT)"
    xt = f"CAST(FLOOR(({x} - {x0}) / {tm}) AS BIGINT)"
    yt = f"CAST(FLOOR(({y} - {y0}) / {tm}) AS BIGINT)"
    return {
        "ix": ix,
        "iy": iy,
        "xt": xt,
        "yt": yt,
        "local_x": f"CAST(FLOOR(({x} - {x0}) / {res} - {xt} * {tsc}) AS BIGINT)",
        "local_y": f"CAST(FLOOR(({y} - {y0}) / {res} - {yt} * {tsc}) AS BIGINT)",
        "cell_key": f"({iy} * 4294967296 + {ix})",
    }


def with_cell_columns(
    ds,
    *,
    resolution: float,
    tile_size_cell: int = 128,
    x_origin: float = 0.0,
    y_origin: float = 0.0,
    x_col: str = "x",
    y_col: str = "y",
    batch_size: int | None = None,
):
    """Dataset -> Dataset with cell/tile columns (stateless Arrow stage)."""
    return ds.map_batches(
        assign_cells,
        batch_format="pyarrow",
        batch_size=batch_size,
        fn_kwargs=dict(
            resolution=resolution,
            tile_size_cell=tile_size_cell,
            x_origin=x_origin,
            y_origin=y_origin,
            x_col=x_col,
            y_col=y_col,
        ),
    )


# ---------------------------------------------------------------------------
# T1 sink: tile tree + info.json
# ---------------------------------------------------------------------------


def write_partitioned(
    ds,
    output_dir: str,
    partition_cols: list[str],
    *,
    mode: str = "overwrite",
    compression: str = "snappy",
    file_format: str = "parquet",
):
    """Scalable hive-layout parquet sink: ``out/{col}={v}/part-*.parquet``.

    Replaces ``Dataset.write_parquet(partition_cols=...)``, which degrades
    badly under many concurrent writers with list<struct> columns (its
    grouping path leaves Arrow).  Here each task groups its block with
    pure-Arrow dictionary encoding + filter and writes directly via
    ``pyarrow.parquet.write_table`` with write-temp-then-rename atomicity,
    so a killed run never leaves a half-written visible file (the
    checkpoint/resume contract, SURVEY.md §7.5.7).

    Returns total rows written.
    """
    import shutil as _shutil
    import uuid

    import pyarrow.parquet as pq

    if mode == "overwrite":
        _shutil.rmtree(output_dir, ignore_errors=True)
    os.makedirs(output_dir, exist_ok=True)

    # Part-file names must be DETERMINISTIC per (task, batch): Ray retries a
    # failed task under the SAME task id, and the retry replays the same
    # blocks in the same order — so a stable (task_id, seq) name makes the
    # retry rename over its own earlier output instead of leaving an orphan
    # uuid file that readers would see as duplicate rows (ADVICE r1 #4).
    _seq_by_task: dict = {}

    def _part_stem() -> str:
        try:
            import ray as _ray

            tid = _ray.get_runtime_context().get_task_id()
        except Exception:
            tid = None
        if not tid:
            return f"part-{uuid.uuid4().hex}"
        n = _seq_by_task.get(tid, 0)
        _seq_by_task[tid] = n + 1
        return f"part-{tid[:24]}-{n:05d}"

    def write_block(batch: pa.Table) -> pa.Table:
        from urllib.parse import quote

        key_strs = [
            pc.fill_null(pc.cast(batch[c], pa.string()), "__HIVE_DEFAULT_PARTITION__")
            for c in partition_cols
        ]
        # null keys map to the hive sentinel partition — a null must never
        # silently drop rows (it would under the equal/filter chain).
        # values are percent-encoded BEFORE joining so separator/path chars
        # ('|', '/', '=') in string keys cannot corrupt the combo or the
        # dir; encoding runs over the DICTIONARY of unique values only, not
        # per row (hot write path stays O(uniques) Python)
        encoded = []
        for k in key_strs:
            d = pc.dictionary_encode(k.combine_chunks() if isinstance(k, pa.ChunkedArray) else k)
            d = d.combine_chunks() if isinstance(d, pa.ChunkedArray) else d
            qdict = pa.array([quote(v, safe="") for v in d.dictionary.to_pylist()])
            encoded.append(qdict.take(d.indices))
        combo = pc.binary_join_element_wise(*encoded, "|")
        paths, rows, sizes, times = [], [], [], []
        data = batch.drop_columns(partition_cols)
        stem = _part_stem()  # one stem per batch; partition dirs disambiguate
        for v in pc.unique(combo).to_pylist():
            t0 = time.monotonic()
            mask = pc.equal(combo, pa.scalar(v))
            part = data.filter(mask)
            vals = str(v).split("|")
            d = os.path.join(
                output_dir, *(f"{c}={v}" for c, v in zip(partition_cols, vals))
            )
            os.makedirs(d, exist_ok=True)
            name = f"{stem}.{file_format}"
            # temp name carries NO data-file extension: Ray's extension
            # filter and the manifest orphan check must never match a
            # crash-leftover in-progress file
            tmp = os.path.join(d, f"{name}.inprogress")
            if file_format == "csv":
                # CSV tile tree with x,y first (reference layout,
                # gridtiler.py:124-144,543-563)
                import pyarrow.csv as pcsv

                pcsv.write_csv(order_columns_xy_first(part), tmp)
            else:
                pq.write_table(part, tmp, compression=compression)
            final = os.path.join(d, name)
            os.rename(tmp, final)
            paths.append(final)
            rows.append(part.num_rows)
            sizes.append(os.path.getsize(final))
            times.append((time.monotonic() - t0) * 1000.0)
        return pa.table(
            {
                "path": pa.array(paths),
                "rows": pa.array(rows, pa.int64()),
                "bytes": pa.array(sizes, pa.int64()),
                "write_ms": pa.array(times, pa.float64()),
            }
        )

    manifest = ds.map_batches(write_block, batch_format="pyarrow", batch_size=None)
    import pandas as _pd

    mdf = manifest.to_pandas()
    if "path" not in mdf.columns:  # zero-block input loses the schema
        mdf = _pd.DataFrame({"path": [], "rows": [], "bytes": [], "write_ms": []})
    # per-run manifest: file lineage (path, rows, bytes, write time) plus a
    # per-PARTITION rollup — the north rule's per-partition lineage+metrics
    # record, read back by resume/validate and by operators (compaction)
    rels = [os.path.relpath(p, output_dir) for p in mdf["path"]]
    parts: dict[str, dict] = {}
    for rel, r, b, ms in zip(rels, mdf["rows"], mdf["bytes"], mdf["write_ms"]):
        key = os.path.dirname(rel) or "."
        agg = parts.setdefault(key, {"files": 0, "rows": 0, "bytes": 0, "write_ms": 0.0})
        agg["files"] += 1
        agg["rows"] += int(r)
        agg["bytes"] += int(b)
        agg["write_ms"] += float(ms)
    mpath = os.path.join(output_dir, "_manifest.json")
    tmp = mpath + ".tmp"
    with open(tmp, "w") as f:
        json.dump(
            {
                "files": [
                    {"path": rel, "rows": int(r), "bytes": int(b)}
                    for rel, r, b in zip(rels, mdf["rows"], mdf["bytes"])
                ],
                "partitions": {
                    k: {**v, "write_ms": round(v["write_ms"], 3)}
                    for k, v in sorted(parts.items())
                },
                "total_rows": int(mdf["rows"].sum()) if len(mdf) else 0,
                "partition_cols": partition_cols,
            },
            f,
        )
    os.rename(tmp, mpath)
    return int(mdf["rows"].sum()) if len(mdf) else 0


def grid_tiling(
    ds,
    output_dir: str,
    *,
    resolution: float,
    tile_size_cell: int = 128,
    x_origin: float = 0.0,
    y_origin: float = 0.0,
    crs: str = "EPSG:3035",
    transform_fun: Callable[[pa.Table], pa.Table] | None = None,
    x_col: str = "x",
    y_col: str = "y",
):
    """Assign tiles and write a partitioned tile tree (reference
    gridtiler.py:33-171).

    Output layout: ``{output_dir}/xt={v}/yt={v}/*.parquet`` — one directory
    per tile so a rerun can skip finished partitions — plus ``info.json``
    with the reference's metadata fields (gridtiler.py:147-166).
    Tiling bounds come from a small grouped count (also returned), not a
    driver-side row loop.
    """
    if transform_fun is not None:
        ds = ds.map_batches(transform_fun, batch_format="pyarrow")

    def _drop_null_coords(b: pa.Table) -> pa.Table:
        # null coordinates cannot be tiled; mixing the null-sentinel
        # partition with numeric xt dirs also breaks the bounds read-back
        return b.filter(
            pc.and_(pc.is_valid(b[x_col]), pc.is_valid(b[y_col]))
        )

    ds = ds.map_batches(_drop_null_coords, batch_format="pyarrow")
    ds = with_cell_columns(
        ds,
        resolution=resolution,
        tile_size_cell=tile_size_cell,
        x_origin=x_origin,
        y_origin=y_origin,
        x_col=x_col,
        y_col=y_col,
    )
    n_rows = write_partitioned(ds, output_dir, ["xt", "yt"], mode="overwrite")
    if n_rows == 0:
        # empty input: a valid tree with empty bounds, not a crash deep in
        # the bounds read
        info = {
            "dims": [],
            "crs": crs,
            "tileSizeCell": int(tile_size_cell),
            "originPoint": {"x": float(x_origin), "y": float(y_origin)},
            "resolutionGeo": float(resolution),
            "tilingBounds": None,
            "rows": 0,
        }
        with open(os.path.join(output_dir, "info.json"), "w") as f:
            json.dump(info, f, indent=2)
        return info
    # bounds: tiny aggregate over what we just wrote (reads only 2 columns).
    # hive partition values come back as strings -> cast before min/max.
    tiles = (
        read_tiles(output_dir, columns=["xt", "yt"])
        .groupby(["xt", "yt"])
        .count()
        .to_pandas()
        .astype({"xt": np.int64, "yt": np.int64})
    )
    info = {
        "dims": [],
        "crs": crs,
        "tileSizeCell": int(tile_size_cell),
        "originPoint": {"x": float(x_origin), "y": float(y_origin)},
        "resolutionGeo": float(resolution),
        "tilingBounds": {
            "yMin": int(tiles["yt"].min()),
            "yMax": int(tiles["yt"].max()),
            "xMin": int(tiles["xt"].min()),
            "xMax": int(tiles["xt"].max()),
        },
        "rows": int(n_rows),
    }
    with open(os.path.join(output_dir, "info.json"), "w") as f:
        json.dump(info, f, indent=2)
    return info


def read_cells_csv(path: str, **kwargs):
    """CSV cell-record source (reference DictReader input,
    gridtiler.py:87-92) — mandatory x,y columns, dynamic extra columns."""
    import ray.data as rd

    return rd.read_csv(path, **kwargs)


def csv_to_parquet(input_path: str, output_dir: str, **kwargs):
    """Format conversion (reference csv_to_parquet, gridtiler.py:279-300):
    read_csv -> int-downcast -> write_parquet."""
    import ray.data as rd

    ds = read_cells_csv(input_path, **kwargs)
    ds = ds.map_batches(round_floats_to_ints, batch_format="pyarrow")
    ds.write_parquet(output_dir, mode="overwrite")
    return ds


def order_columns_xy_first(batch: pa.Table) -> pa.Table:
    """x,y first, then the attribute columns (reference get_csv_header
    column-ordering contract, gridtiler.py:543-563)."""
    names = batch.column_names
    first = [c for c in ("x", "y") if c in names]
    rest = [c for c in names if c not in ("x", "y")]
    return batch.select(first + rest)


def check_ref_crs(crs1: str, crs2: str | None) -> str:
    """Assert two layers share a CRS (reference check_ref_proj,
    base.py:205-212).  For the reference's coercion path (set_ref_proj,
    base.py:215-220) use :func:`pygridmap_ray.geom.proj.set_ref_crs`,
    which reprojects between EPSG:4326/3035/3857 with closed-form numpy
    kernels (no pyproj needed); this checker raises for any OTHER
    mismatched CRS pair."""
    if crs2 is not None and crs1 != crs2:
        raise ValueError(
            f"CRS mismatch: {crs1!r} vs {crs2!r} — reproject inputs to a "
            "common planar CRS before building the pipeline"
        )
    return crs1


def list_tile_files(output_dir: str, pred=None) -> list[str]:
    """Manifest-listed data files of a tile tree, optionally pruned by a
    predicate over the hive partition values (dict of column -> string).
    This is the pruning applied by :func:`read_tiles` — files rejected
    here are never opened."""
    with open(os.path.join(output_dir, "_manifest.json")) as f:
        m = json.load(f)
    paths = []
    for entry in m.get("files", []):
        rel = entry["path"]
        parts = dict(
            seg.split("=", 1) for seg in rel.split(os.sep)[:-1] if "=" in seg
        )
        if pred is None or pred(parts):
            paths.append(os.path.join(output_dir, rel))
    return paths


def read_tiles(
    output_dir: str,
    tile_pred=None,
    xt_range: tuple[int, int] | None = None,
    yt_range: tuple[int, int] | None = None,
    manifest_only: bool | None = None,
    **kwargs,
):
    """Read a tile tree written by :func:`grid_tiling` (skips info.json).

    Partition push-down: ``tile_pred`` (a callable over the hive partition
    values, e.g. ``lambda p: int(p["xt"]) < 4``) and/or ``xt_range`` /
    ``yt_range`` inclusive bounds PRUNE DIRECTORIES AT THE READ — pruned
    files never leave storage (Ray reports them as "Filtered out N
    paths"), instead of being read then filtered.

    ``manifest_only`` (default: auto — on when ``_manifest.json`` exists)
    restricts the read to manifest-listed files, so orphan part files left
    by a task retried after its rename cannot duplicate rows.

    Hive partition values materialize as STRING columns; cast xt/yt back to
    int64 so tile keys compare numerically downstream."""
    import ray.data as rd

    def _pred(parts: dict) -> bool:
        try:
            if xt_range is not None:
                v = int(parts.get("xt"))
                if not (xt_range[0] <= v <= xt_range[1]):
                    return False
            if yt_range is not None:
                v = int(parts.get("yt"))
                if not (yt_range[0] <= v <= yt_range[1]):
                    return False
        except (TypeError, ValueError):
            return False
        return tile_pred(parts) if tile_pred is not None else True

    mpath = os.path.join(output_dir, "_manifest.json")
    if manifest_only is None:
        manifest_only = os.path.exists(mpath)
    prune = tile_pred is not None or xt_range is not None or yt_range is not None
    if manifest_only and os.path.exists(mpath):
        # exact file list from the writer's manifest (+ dir-level pruning)
        paths = list_tile_files(
            output_dir, _pred if prune else None
        )
        if not paths:  # keep the schema: read the tree, emit zero rows
            return rd.read_parquet(
                output_dir, file_extensions=["parquet"], **kwargs
            ).limit(0)
        # partition values live in the directory names: parse them back
        # into columns (explicit file lists skip hive inference)
        from ray.data.datasource.partitioning import Partitioning

        kwargs.setdefault(
            "partitioning", Partitioning("hive", base_dir=output_dir)
        )
        ds = rd.read_parquet(paths, **kwargs)
    else:
        if prune:
            from ray.data.datasource.partitioning import PathPartitionFilter

            kwargs.setdefault(
                "partition_filter",
                PathPartitionFilter.of(_pred, base_dir=output_dir),
            )
        ds = rd.read_parquet(output_dir, file_extensions=["parquet"], **kwargs)

    def fix_types(batch: pa.Table) -> pa.Table:
        for name in ("xt", "yt"):
            i = batch.schema.get_field_index(name)
            if i >= 0 and pa.types.is_string(batch.schema.field(i).type):
                try:
                    batch = batch.set_column(
                        i, name, pc.cast(batch.column(i), pa.int64())
                    )
                except pa.ArrowInvalid:
                    pass  # non-numeric partition values (e.g. null sentinel)
        return batch

    return ds.map_batches(fix_types, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# T4 transform with drop semantics
# ---------------------------------------------------------------------------


def grid_transformation(
    ds,
    function: Callable,
    *,
    batch_format: str = "pyarrow",
    batch_size: int | None = None,
):
    """Per-batch transform where the UDF may drop rows (reference
    gridtiler.py:331-334: row-UDF returning False removes the cell).

    The vectorized contract: ``function(batch) -> batch | (batch, keep_mask)``.
    A returned boolean array/Array filters the batch — the engine's
    replacement for the row-at-a-time False check.
    """

    def apply(batch):
        out = function(batch)
        if isinstance(out, tuple):
            out, keep = out
            if isinstance(out, pa.Table):
                keep = keep if isinstance(keep, pa.Array) else pa.array(np.asarray(keep, bool))
                out = out.filter(keep)
            else:
                out = out[np.asarray(keep, bool)]
        return out

    return ds.map_batches(apply, batch_format=batch_format, batch_size=batch_size)


def row_udf_transform(ds, row_fun: Callable[[dict], dict | bool]):
    """Compatibility shim for the reference's per-row dict UDFs
    (gridtiler.py:95, base.py:88-95).  Runs the row function inside
    map_batches (never ``ds.map`` per row); prefer the vectorized
    :func:`grid_transformation` for hot paths."""

    def apply(batch: pa.Table) -> pa.Table:
        rows = batch.to_pylist()
        out = []
        for r in rows:
            res = row_fun(dict(r))
            if res is False:
                continue
            out.append(res if isinstance(res, dict) else r)
        if not out:
            return batch.slice(0, 0)
        return pa.Table.from_pylist(out, schema=batch.schema)

    return ds.map_batches(apply, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# T5/T6 coarse aggregation with reference null rules
# ---------------------------------------------------------------------------

#: named aggregation rules, matching reference gridtiler.py:458-534:
#:   sum       — null-skipping sum, 0 for all-null groups (aggregation_sum)
#:   average   — null-skipping sum / count of ALL rows     (aggregation_average)
#:   average2  — null-skipping sum / (a*a)                 (aggregation_average_2)
#:   average3  — mean of non-null values, null if none     (aggregation_average_3)
#:   single    — deterministic "first": value at min (iy,ix) in the group
#:               (aggregation_single_value takes file order; Ray blocks are
#:               unordered, so the engine pins "first" to the lowest original
#:               cell coordinate — documented divergence, same fixed point as
#:               the SQL oracle's arg_min)
AGG_RULES = ("sum", "average", "average2", "average3", "single")


def grid_aggregation(
    ds,
    *,
    resolution: float,
    a: int,
    columns: dict[str, str],
    rounding: int | None = None,
    x_col: str = "x",
    y_col: str = "y",
    combine: str = "tree",
):
    """Aggregate cells to an ``a``-times coarser grid (reference
    gridtiler.py:357-453).

    Keys (reference gridtiler.py:392-393, coordinates not indices):
      xa = (a*resolution) * floor(x / (a*resolution))

    ``columns`` maps column name -> rule in :data:`AGG_RULES`.  The whole
    dataset never sits in driver memory (the reference builds an in-RAM
    dict index, gridtiler.py:399-410); per-batch combiner partials are
    merged either by a repartition tree (``combine="tree"``, default —
    the coarse output is a^2 x smaller than the input) or a hash-shuffle
    groupby (``combine="shuffle"`` for enormous coarse grids).
    """
    for col, rule in columns.items():
        if rule not in AGG_RULES:
            raise ValueError(f"unknown rule {rule!r} for {col!r}")
    if combine not in ("tree", "shuffle"):
        raise ValueError(f"combine must be 'tree' or 'shuffle', got {combine!r}")
    tr = float(resolution * a)

    def key_batch(batch: pa.Table) -> pa.Table:
        xa = pc.multiply(
            pc.floor(pc.divide(pc.cast(batch[x_col], pa.float64()), pa.scalar(tr))),
            pa.scalar(tr),
        )
        ya = pc.multiply(
            pc.floor(pc.divide(pc.cast(batch[y_col], pa.float64()), pa.scalar(tr))),
            pa.scalar(tr),
        )
        keep = [c for c in batch.column_names if c in columns or c in ("ix", "iy")]
        out = batch.select(keep)
        return out.append_column("xa", xa).append_column("ya", ya)

    keyed = ds.map_batches(key_batch, batch_format="pyarrow")

    # pre-aggregate inside each batch (combiner) so the shuffle moves one
    # row per (key, batch) instead of every cell.
    # NOTE: never call ds.schema() here — it EXECUTES a probe slice of the
    # pipeline (read + upstream transforms on one block, ~1s of pure
    # overhead per call); column presence is checked lazily per batch.
    singles = [c for c, r in columns.items() if r == "single"]

    def partial(batch: pa.Table) -> pa.Table:
        if singles and not {"ix", "iy"} <= set(batch.column_names):
            # without stable cell coords the "first" value would depend on
            # block arrival order — refuse instead of silent nondeterminism
            raise ValueError(
                "rule='single' requires ix/iy columns for a deterministic "
                f"'first' (missing for {singles}); add cell coordinates or "
                "an explicit order column"
            )
        n = batch.num_rows
        if n == 0:
            cols0: dict[str, pa.Array] = {
                "xa": pa.array([], pa.float64()),
                "ya": pa.array([], pa.float64()),
            }
            for col, rule in columns.items():
                if rule == "single":
                    cols0[f"{col}__sv"] = batch[col].combine_chunks().slice(0, 0)
                    cols0[f"{col}__so"] = pa.array([], pa.int64())
                else:
                    cols0[f"{col}__sum"] = pa.array([], pa.float64())
                    cols0[f"{col}__cnt"] = pa.array([], pa.int64())
                    cols0[f"{col}__vld"] = pa.array([], pa.int64())
            return pa.table(cols0)
        # one lexsort + segmented reduceat replaces 3 pandas groupbys per
        # column (the previous combiner's hot cost).  Group keys are the
        # xa/ya BIT PATTERNS (identical formula -> identical bits; only
        # -0.0 needs normalizing), so no float->int boundary arithmetic.
        xa = np.asarray(batch["xa"], dtype=np.float64)
        ya = np.asarray(batch["ya"], dtype=np.float64)
        xa = np.where(xa == 0.0, 0.0, xa)
        ya = np.where(ya == 0.0, 0.0, ya)
        ixa = xa.view(np.int64)
        iya = ya.view(np.int64)
        order = np.lexsort((ixa, iya))
        ixo, iyo = ixa[order], iya[order]
        newg = np.empty(n, dtype=bool)
        newg[0] = True
        newg[1:] = (ixo[1:] != ixo[:-1]) | (iyo[1:] != iyo[:-1])
        starts = np.nonzero(newg)[0]
        sizes = np.diff(np.append(starts, n))
        cols: dict[str, pa.Array] = {
            "xa": pa.array(xa[order][starts]),
            "ya": pa.array(ya[order][starts]),
        }
        if singles:
            ordk = np.asarray(batch["iy"], dtype=np.int64) * 2**32 + np.asarray(
                batch["ix"], dtype=np.int64
            )
            # sort by (group, order key): first row per group = arg-min key
            order_s = np.lexsort((ordk, ixa, iya))
            first = order_s[starts]
        for col, rule in columns.items():
            if rule == "single":
                cols[f"{col}__sv"] = batch[col].combine_chunks().take(
                    pa.array(first)
                )
                cols[f"{col}__so"] = pa.array(ordk[first])
                continue
            try:
                v = np.asarray(
                    pc.cast(batch[col], pa.float64()), dtype=np.float64
                )
            except pa.ArrowInvalid:  # non-numeric -> all-null (pandas
                v = np.full(n, np.nan)  # to_numeric(errors="coerce") parity)
            vo = v[order]
            valid = ~np.isnan(vo)
            sums = np.add.reduceat(np.where(valid, vo, 0.0), starts)
            vld = np.add.reduceat(valid.astype(np.int64), starts)
            cols[f"{col}__sum"] = pa.array(sums, mask=vld == 0)
            cols[f"{col}__cnt"] = pa.array(sizes.astype(np.int64))
            cols[f"{col}__vld"] = pa.array(vld)
        return pa.table(cols)

    partials = keyed.map_batches(partial, batch_format="pyarrow")

    def _finish_vals(rule, s, cnt, vld):
        mask = None
        if rule == "sum":
            val = s
        elif rule == "average":
            val = s / np.maximum(cnt, 1.0)
            mask = cnt == 0  # unreachable (groups have rows); parity
        elif rule == "average2":
            val = s / float(a * a)
        else:  # average3: null when no valid values
            val = s / np.maximum(vld, 1.0)
            mask = vld == 0
        if rounding is not None:
            tol = 10.0**rounding
            # half-away-from-zero to match SQL ROUND (the reference uses
            # Python banker's round, gridtiler.py:416 — documented delta)
            val = np.sign(val) * np.floor(np.abs(val) * tol + 0.5) / tol
        return val, mask

    others = {c: r for c, r in columns.items() if r != "single"}
    ordered = ["xa", "ya", *columns]

    if combine == "tree":
        # the a^2 coarsening makes the output grid ~a^2 x smaller than the
        # input, so the combined partials fit one block by construction for
        # any sane `a`; a simple repartition-merge beats the groupby
        # shuffle's fixed sort-aggregate latency by >4x.  Pass
        # combine="shuffle" when the coarse grid itself is huge.
        def merge_finish(b: pa.Table) -> pa.Table:
            n = b.num_rows
            if n == 0:
                out0 = {
                    "xa": pa.array([], pa.float64()),
                    "ya": pa.array([], pa.float64()),
                }
                for col, rule in columns.items():
                    out0[col] = (
                        b[f"{col}__sv"].combine_chunks().slice(0, 0)
                        if rule == "single"
                        else pa.array([], pa.float64())
                    )
                return pa.table(out0)
            xa = np.asarray(b["xa"], dtype=np.float64)
            ya = np.asarray(b["ya"], dtype=np.float64)
            ixa = xa.view(np.int64)
            iya = ya.view(np.int64)
            order = np.lexsort((ixa, iya))
            ixo, iyo = ixa[order], iya[order]
            newg = np.empty(n, dtype=bool)
            newg[0] = True
            newg[1:] = (ixo[1:] != ixo[:-1]) | (iyo[1:] != iyo[:-1])
            starts = np.nonzero(newg)[0]
            out_cols = {
                "xa": pa.array(xa[order][starts]),
                "ya": pa.array(ya[order][starts]),
            }
            for col, rule in columns.items():
                if rule == "single":
                    so = np.asarray(b[f"{col}__so"], dtype=np.int64)
                    order_s = np.lexsort((so, ixa, iya))
                    first = order_s[starts]
                    out_cols[col] = (
                        b[f"{col}__sv"].combine_chunks().take(pa.array(first))
                    )
                    continue
                s_np = np.asarray(
                    pc.fill_null(pc.cast(b[f"{col}__sum"], pa.float64()), np.nan),
                    dtype=np.float64,
                )[order]
                valid = ~np.isnan(s_np)
                s = np.add.reduceat(np.where(valid, s_np, 0.0), starts)
                cnt = np.add.reduceat(
                    np.asarray(b[f"{col}__cnt"], dtype=np.float64)[order], starts
                )
                vld = np.add.reduceat(
                    np.asarray(b[f"{col}__vld"], dtype=np.float64)[order], starts
                )
                val, mask = _finish_vals(rule, s, cnt, vld)
                out_cols[col] = pa.array(val, mask=mask)
            return pa.table(out_cols)

        return partials.repartition(1).map_batches(
            merge_finish, batch_format="pyarrow", batch_size=None
        )

    # combine == "shuffle": built-in Sum aggregates over the partial
    # columns + ONE vectorized finish batch — never a per-group Python row
    # builder (at ~1ms/group that path costs hours on a 1km national
    # grid).  'single' goes through the arg-min join below.
    import ray
    from ray.data.aggregate import Min, Sum

    out = None
    if others:
        aggs = []
        for col in others:
            aggs.append(Sum(f"{col}__sum", alias_name=f"{col}__sum"))
            aggs.append(Sum(f"{col}__cnt", alias_name=f"{col}__cnt"))
            aggs.append(Sum(f"{col}__vld", alias_name=f"{col}__vld"))
        base = partials.groupby(["xa", "ya"]).aggregate(*aggs)

        def finish(b: pa.Table) -> pa.Table:
            out_b = b.select(["xa", "ya"])
            for col, rule in others.items():
                s_col = b[f"{col}__sum"]
                null_s = np.asarray(pc.is_null(s_col).combine_chunks())
                s = np.where(null_s, 0.0, np.asarray(s_col, dtype=np.float64))
                cnt = np.asarray(b[f"{col}__cnt"], dtype=np.float64)
                vld = np.asarray(b[f"{col}__vld"], dtype=np.float64)
                val, mask = _finish_vals(rule, s, cnt, vld)
                out_b = out_b.append_column(col, pa.array(val, mask=mask))
            return out_b

        out = base.map_batches(finish, batch_format="pyarrow")

    nparts = max(2, int(ray.cluster_resources().get("CPU", 4)) // 2)
    for col in singles:
        # arg-min join: per-key min order key, join back, filter equal,
        # dedupe ties by min value (deterministic; ties cannot occur when
        # (ix, iy) identify input cells uniquely)
        sel = partials.select_columns(["xa", "ya", f"{col}__sv", f"{col}__so"])
        best = sel.groupby(["xa", "ya"]).aggregate(
            Min(f"{col}__so", alias_name="__bso")
        )
        # balanced repartition of the aggregate output: schema-race
        # guard without pinning (cluster.compact_blocks docstring)
        j = sel.join(
            best.repartition(nparts), "inner", num_partitions=nparts,
            on=("xa", "ya"),
        )
        hit = j.map_batches(
            lambda b, _c=col: b.filter(
                pc.equal(b[f"{_c}__so"], b["__bso"])
            ).select(["xa", "ya", f"{_c}__sv"]),
            batch_format="pyarrow",
        )
        # 'single' values pass through unrounded on BOTH sides (the SQL
        # twin's ARG_MIN cannot round type-generically; documented
        # divergence from the reference, which rounds numerics there too)
        single_out = (
            hit.groupby(["xa", "ya"])
            .aggregate(Min(f"{col}__sv", alias_name=col))
        )
        out = (
            single_out
            if out is None
            else out.repartition(nparts).join(
                single_out.repartition(nparts), "inner",
                num_partitions=nparts, on=("xa", "ya"),
            )
        )

    return out.map_batches(
        lambda b: b.select([c for c in ordered if c in b.column_names]),
        batch_format="pyarrow",
    )


def sql_grid_aggregation(
    resolution: float,
    a: int,
    columns: dict[str, str],
    rounding: int | None = None,
    source: str = "cells",
    x: str = "x",
    y: str = "y",
) -> str:
    """DuckDB twin of :func:`grid_aggregation` over a CTE named ``source``."""
    tr = repr(float(resolution * a))
    sel = [
        f"{tr} * FLOOR({x} / {tr}) AS xa",
        f"{tr} * FLOOR({y} / {tr}) AS ya",
    ]
    exprs = []
    for col, rule in columns.items():
        if rule == "sum":
            e = f"COALESCE(SUM({col}), 0)"
        elif rule == "average":
            e = f"COALESCE(SUM({col}), 0) / COUNT(*)"
        elif rule == "average2":
            e = f"COALESCE(SUM({col}), 0) / {float(a * a)!r}"
        elif rule == "average3":
            e = f"AVG({col})"
        elif rule == "single":
            e = f"ARG_MIN({col}, iy * 4294967296 + ix)"
        else:
            raise ValueError(rule)
        if rounding is not None and rule != "single":
            e = f"ROUND(({e}) * {10.0 ** rounding!r}) / {10.0 ** rounding!r}"
        exprs.append(f"{e} AS {col}")
    return (
        f"SELECT xa, ya, {', '.join(exprs)} FROM "
        f"(SELECT {source}.*, {sel[0]}, {sel[1]} FROM {source}) GROUP BY xa, ya"
    )


# ---------------------------------------------------------------------------
# T8 write-side casts
# ---------------------------------------------------------------------------


def round_floats_to_ints(batch: pa.Table) -> pa.Table:
    """Cast a float column to int64 when EVERY value is integral (column-
    level version of the reference's per-value downcast, gridtiler.py:567-576
    — Arrow columns are homogeneous, so value-level mixing is impossible;
    documented divergence)."""
    out = batch
    for i, field in enumerate(batch.schema):
        if pa.types.is_floating(field.type):
            col = batch.column(i)
            if col.null_count == 0 and pc.all(
                pc.equal(col, pc.floor(col))
            ).as_py():
                out = out.set_column(i, field.name, pc.cast(col, pa.int64()))
    return out


def compact_tiles(
    input_dir: str,
    output_dir: str,
    *,
    partition_cols: list[str] | None = None,
    target_rows_per_block: int = 500_000,
    **read_kwargs,
):
    """Small-file compaction of a tile tree (store maintenance).

    Long-lived tile stores accumulate small part files — one per (task,
    batch, partition) write, plus incremental appends — and read cost
    grows with file count, not bytes.  Compaction: manifest-listed read
    (:func:`read_tiles`) -> sort by the partition key so each partition's
    rows are contiguous -> merge into ~``target_rows_per_block`` blocks ->
    rewrite the SAME hive layout + fresh ``_manifest.json`` under
    ``output_dir``.  Writes a NEW tree; promote it with one directory
    rename (atomic on POSIX), so readers never see a half-compacted
    store.  Returns total rows written (equals the input's manifest
    total — checked)."""
    import math

    with open(os.path.join(input_dir, "_manifest.json")) as f:
        man = json.load(f)
    if partition_cols is None:
        partition_cols = man["partition_cols"]
    ds = read_tiles(input_dir, **read_kwargs)
    total = ds.count()
    if total != man["total_rows"]:
        raise ValueError(
            f"tree/manifest mismatch: read {total} rows, manifest says "
            f"{man['total_rows']} — repair with validate_output first"
        )
    nblocks = max(1, math.ceil(total / target_rows_per_block))
    ds = ds.sort(partition_cols).repartition(nblocks)
    written = write_partitioned(ds, output_dir, partition_cols, mode="overwrite")
    if written != total:
        raise RuntimeError(f"compaction wrote {written} of {total} rows")
    return written
