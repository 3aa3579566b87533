"""The three benchmark workloads: set-up, one timed job, output checks.

Each workload owns its generated inputs under the run's scratch directory.
``job()`` is the timed unit a user would run; ``check()`` verifies its
output against the references in :mod:`perfbench.inputs` and returns a
list of failure messages (empty when the output is correct).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from perfbench import inputs

#: cell size and tile width of the point workloads' cell encoding
RESOLUTION = 1000.0
TILE_SIZE_CELL = 128
#: polygons of the point workloads' NUTS-scale layer
N_POLYGONS = 1200
#: corpus files (read tasks) per point workload
N_FILES = 16
#: doc ids sampled per check
N_SAMPLE = 256


@dataclass
class JobResult:
    items: int  # corpus points, or grid cells emitted
    result_bytes: int  # tile tree on disk, or Arrow bytes pulled to the client
    payload: dict = field(default_factory=dict)


def _tree_bytes(root: str) -> int:
    total = 0
    for d, _, files in os.walk(root):
        total += sum(os.path.getsize(os.path.join(d, f)) for f in files)
    return total


def collect(ds):
    """The whole dataset as one Arrow table in the client."""
    import pyarrow as pa

    batches = ds.iter_batches(batch_format="pyarrow", batch_size=None)
    return pa.concat_tables(list(batches), promote_options="default")


class PointWorkload:
    """Shared set-up of the point workloads: a seeded parquet corpus with
    the spans payload, and a seeded star layer of ``N_POLYGONS``."""

    n_points: int
    nvert: int

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.corpus = os.path.join(workdir, "corpus")
        self.out = os.path.join(workdir, "tiles")

    def setup(self) -> None:
        import ray

        os.makedirs(self.corpus, exist_ok=True)
        self.ids = inputs.doc_ids(self.seed, self.n_points)
        write = ray.remote(num_cpus=1)(inputs.write_corpus_part)
        parts = np.array_split(self.ids, N_FILES)
        ray.get(
            [
                write.remote(os.path.join(self.corpus, f"part-{k:03d}.parquet"), p)
                for k, p in enumerate(parts)
            ]
        )
        self.layer = inputs.star_layer(self.seed, N_POLYGONS, self.nvert, inputs.DOMAIN)
        self.sample = inputs.sample_ids(self.seed, self.ids, N_SAMPLE)
        sx, sy = inputs.point_xy(self.sample)
        self.expected_sets = inputs.reference_polygon_sets(sx, sy, self.layer)

    def read(self, columns=None):
        import ray.data as rd

        return rd.read_parquet(self.corpus, file_extensions=["parquet"], columns=columns)

    def encode_and_join(self, ds, how: str):
        from pygridmap_ray.spatial import join_points_to_polygons
        from pygridmap_ray.tiler import with_cell_columns

        ds = with_cell_columns(ds, resolution=RESOLUTION, tile_size_cell=TILE_SIZE_CELL)
        return join_points_to_polygons(ds, self.layer, how=how)


class TileWrite(PointWorkload):
    """read (with spans) -> cell-encode -> left PIP join -> tile write by xt."""

    name = "tile_write"
    n_points = 60_000
    nvert = 96

    def job(self) -> JobResult:
        from pygridmap_ray.tiler import write_partitioned

        ds = self.encode_and_join(self.read(), how="left")
        rows = write_partitioned(ds, self.out, ["xt"], mode="overwrite")
        return JobResult(self.n_points, _tree_bytes(self.out), {"rows": rows})

    def check(self, res: JobResult) -> list[str]:
        import ray

        task = ray.remote(num_cpus=1)(check_tile_tree)
        return ray.get(
            task.remote(
                self.out,
                self.ids,
                self.sample,
                self.expected_sets,
                res.payload["rows"],
            )
        )


def check_tile_tree(out_dir, ids, sample, expected_sets, rows_written) -> list[str]:
    """Read the tile tree back and compare it with the generated corpus.
    Runs as a Ray task so that the client process never holds the tree."""
    import json

    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    fails = []
    tree = pads.dataset(out_dir, format="parquet", partitioning="hive")
    t = tree.to_table(columns=["doc_id", "x", "xt", "poly_id"])
    with open(os.path.join(out_dir, "_manifest.json")) as f:
        manifest = json.load(f)
    if manifest["total_rows"] != t.num_rows or rows_written != t.num_rows:
        fails.append(
            f"manifest total_rows {manifest['total_rows']} / returned {rows_written}"
            f" != {t.num_rows} rows read back"
        )
    doc = np.asarray(t["doc_id"])
    if not np.array_equal(np.unique(doc), ids):
        fails.append("doc_id set read back differs from the corpus")
    x = np.asarray(t["x"])
    xt = np.asarray(pc.cast(t["xt"], "int64"))
    bad = np.count_nonzero(xt != np.floor(x / (RESOLUTION * TILE_SIZE_CELL)))
    if bad:
        fails.append(f"{bad} rows with xt != floor(x / 128000)")
    pid = t["poly_id"].to_numpy(zero_copy_only=False)
    got = _polygon_sets(doc, pid, sample)
    wrong = sum(g != e for g, e in zip(got, expected_sets))
    if wrong:
        fails.append(f"{wrong}/{len(sample)} sampled docs with wrong polygon sets")
    spans = tree.to_table(
        columns=["doc_id", "spans"], filter=pc.field("doc_id").isin(sample)
    )
    seen = {}
    for d, s in zip(spans["doc_id"].to_pylist(), spans["spans"].to_pylist()):
        if seen.setdefault(d, s) != s or s != inputs.spans_reference(d):
            fails.append(f"doc {d}: spans differ from the generator's")
            break
    if len(seen) != len(sample):
        fails.append(f"{len(sample) - len(seen)} sampled docs missing their spans")
    return fails


def _polygon_sets(doc: np.ndarray, pid: np.ndarray, sample: np.ndarray) -> list[set]:
    """Polygon-id set per sampled doc from (doc_id, poly_id) rows; a null
    (NaN) poly_id from a left join contributes nothing."""
    pos = {int(d): k for k, d in enumerate(sample)}
    sets: list[set] = [set() for _ in sample]
    keep = np.isin(doc, sample)
    for d, p in zip(doc[keep].tolist(), pid[keep].tolist()):
        if p is not None and p == p:
            sets[pos[d]].add(int(p))
    return sets


class PipJoin(PointWorkload):
    """column-pruned read -> cell-encode -> inner PIP join -> client counts."""

    name = "pip_join"
    n_points = 100_000
    nvert = 256

    def job(self) -> JobResult:
        return self.consume(
            self.encode_and_join(self.read(columns=["doc_id", "x", "y"]), how="inner")
        )

    def consume(self, ds) -> JobResult:
        """Pull (doc_id, poly_id) into per-polygon counts, keeping the
        pairs of the sampled docs for the check."""
        counts = np.zeros(N_POLYGONS, dtype=np.int64)
        pulled = 0
        docs, pids = [], []
        for b in ds.select_columns(["doc_id", "poly_id"]).iter_batches(
            batch_format="pyarrow", batch_size=None
        ):
            pulled += b.nbytes
            pid = np.asarray(b["poly_id"])
            counts += np.bincount(pid, minlength=N_POLYGONS)
            doc = np.asarray(b["doc_id"])
            keep = np.isin(doc, self.sample)
            docs.append(doc[keep])
            pids.append(pid[keep])
        return JobResult(
            self.n_points,
            pulled,
            {"counts": counts, "docs": np.concatenate(docs), "pids": np.concatenate(pids)},
        )

    def check(self, res: JobResult) -> list[str]:
        fails = []
        got = _polygon_sets(res.payload["docs"], res.payload["pids"], self.sample)
        want = np.zeros(N_POLYGONS, dtype=np.int64)
        for s in self.expected_sets:
            for p in s:
                want[p] += 1
        have = np.bincount(
            [p for s in got for p in s], minlength=N_POLYGONS
        ).astype(np.int64)
        if not np.array_equal(have, want):
            fails.append(
                f"sample per-polygon counts differ on {np.count_nonzero(have != want)} polygons"
            )
        if len(res.payload["docs"]) != sum(len(s) for s in got):
            fails.append("a sampled (doc, polygon) pair appears more than once")
        return fails


class GridOverlay:
    """make_grid over the layer as mask -> area_interpolate of ``pop``."""

    name = "grid_overlay"
    n_polygons = 36
    nvert = 96
    side = 90_000.0
    cellsize = 2000.0
    tile = (16, 16)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        from pygridmap_ray.planning import plan_grid

        self.layer = inputs.star_layer(
            self.seed, self.n_polygons, self.nvert, (0.0, 0.0, self.side, self.side)
        )
        bb = np.array([p["bbox"] for p in self.layer])
        self.bbox = (bb[:, 0].min(), bb[:, 1].min(), bb[:, 2].max(), bb[:, 3].max())
        self.spec = plan_grid(self.bbox, self.cellsize, self.tile)
        self.expected_cover = self._centre_cover()

    def _centre_cover(self) -> dict[int, set[int]]:
        """cell_id -> polygons containing the cell's centre (winding test)."""
        w = h = self.cellsize
        x0, y0 = self.bbox[0], self.bbox[1]
        ncols = self.spec.ncols
        cover: dict[int, set[int]] = {}
        for p in self.layer:
            bx0, by0, bx1, by1 = p["bbox"]
            ix = np.arange(int((bx0 - x0) // w), int((bx1 - x0) // w) + 1)
            iy = np.arange(int((by0 - y0) // h), int((by1 - y0) // h) + 1)
            gx, gy = np.meshgrid(ix, iy)
            gx, gy = gx.ravel(), gy.ravel()
            inside = inputs.winding_inside(x0 + (gx + 0.5) * w, y0 + (gy + 0.5) * h, p["rings"][0])
            for cid in (gy[inside] * ncols + gx[inside]).tolist():
                cover.setdefault(cid, set()).add(p["poly_id"])
        return cover

    def make_grid(self):
        from pygridmap_ray.gridding import make_grid

        return make_grid(self.layer, cellsize=self.cellsize, bbox=self.bbox, tile=self.tile)

    def job(self) -> JobResult:
        from pygridmap_ray.overlay import area_interpolate

        grid = self.make_grid().materialize()
        n_cells = grid.count()
        table = collect(area_interpolate(self.layer, grid, self.spec, ["pop"]))
        return JobResult(n_cells, table.nbytes, {"cells": table, "grid": grid})

    def loss_bound(self, p: dict) -> float:
        """Most area a polygon may lose to make_grid's trimming: each
        boundary cell whose overlap is at most TOL_EPS of a cell is dropped,
        and the boundary cells lie on the ring of its bbox's cells."""
        from pygridmap_ray.geom.kernels import TOL_EPS

        bx0, by0, bx1, by1 = p["bbox"]
        w = self.cellsize
        ring_cells = 2 * (math.ceil((bx1 - bx0) / w) + math.ceil((by1 - by0) / w) + 2)
        return TOL_EPS * w * w * ring_cells

    def check(self, res: JobResult) -> list[str]:
        fails = []
        t = res.payload["cells"]
        grid_ids = np.concatenate(
            [
                np.asarray(b["cell_id"])
                for b in res.payload["grid"].iter_batches(batch_format="pyarrow", batch_size=None)
            ]
        )
        if len(np.unique(grid_ids)) != len(grid_ids):
            fails.append("make_grid emitted duplicate cell ids")
        ids = np.asarray(t["cell_id"])
        if len(np.unique(ids)) != len(ids):
            fails.append("area_interpolate returned duplicate cell ids")
        missing = np.setdiff1d(np.fromiter(self.expected_cover, np.int64), grid_ids)
        if len(missing):
            fails.append(f"{len(missing)} cells with centre inside a polygon not emitted")
        cover = dict(zip(ids.tolist(), t["cover"].to_pylist()))
        short = 0
        for cid, want in self.expected_cover.items():
            got = cover.get(cid)
            if got is None or not want <= {int(v) for v in got.split(",")}:
                short += 1
        if short:
            fails.append(f"{short} cells whose cover lacks a polygon containing the centre")
        total = float(np.sum(np.asarray(t["pop"])))
        want = sum(p["pop"] for p in self.layer)
        tol = sum(p["pop"] * self.loss_bound(p) / p["area"] for p in self.layer)
        if abs(total - want) > tol + 1e-12 * want:
            fails.append(f"interpolated pop total {total!r} != layer total {want!r}")
        return fails


WORKLOADS = {w.name: w for w in (TileWrite, PipJoin, GridOverlay)}
