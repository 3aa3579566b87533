"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload tile_write --seed 1 --seconds 30 --trace 0

Each run starts its own local Ray session with ``CPUS`` CPUs (never an
existing cluster), generates its inputs from ``--seed`` under a scratch
directory inside the checkout, and removes that directory at exit.  Set-up
is repeated ``SETUPS`` times on fresh sessions and its median reported
(once in a traced run, which reports no ``setup_s``); then whole rounds
(one timed job plus its output checks) repeat until ``--seconds`` have
passed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` times each layer
on its own (see ``perfbench/trace.py``) and prints the per-layer metrics,
with the full trace record on stderr.  Standard output carries only the
final JSON line: everything else, Ray's log lines included, goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Ray CPUs of every run (the reference machine has 4 cores)
CPUS = 4
#: fresh-session set-ups per run; setup_s is their median
SETUPS = 3
OBJECT_STORE_BYTES = 768 * 1024**2
#: longest AF_UNIX socket path Ray may create under its temp dir
_SOCKET_PATH_MAX = 107
_SESSION_SUFFIX = len("/session_2026-01-01_00-00-00_000000_0000000/sockets/plasma_store")
#: prctl option that makes a process adopt its orphaned descendants
_PR_SET_CHILD_SUBREAPER = 36
#: seconds stray children get between SIGTERM and SIGKILL, and in all
_STOP_GRACE_S = 5.0
_STOP_GIVE_UP_S = 30.0


def _become_subreaper() -> None:
    """Adopt every orphaned descendant (Linux), so that Ray workers and
    agents that outlive their raylet are still this process's children
    and can be stopped and reaped by :func:`_stop_children`."""
    import ctypes

    try:
        libc = ctypes.CDLL(None, use_errno=True)
        if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
            print("prctl(PR_SET_CHILD_SUBREAPER) failed", file=sys.stderr)
    except (OSError, AttributeError):
        print("prctl unavailable: orphaned Ray processes are not adopted", file=sys.stderr)


def _children() -> list[int]:
    """Pids of this process's children, zombies included (from /proc)."""
    me = os.getpid()
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as f:
                stat = f.read()
        except OSError:
            continue  # exited while listing
        # after "pid (comm) " come state, then ppid
        if int(stat[stat.rindex(b")") + 2 :].split()[1]) == me:
            kids.append(int(entry))
    return kids


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _stop_children() -> None:
    """Stop and reap every child left after ``ray.shutdown()``: the Ray
    daemons themselves and, as this process is a subreaper, any worker or
    agent orphaned by them.  Returns when none is left (SIGTERM first,
    SIGKILL after ``_STOP_GRACE_S``), or raises after ``_STOP_GIVE_UP_S``."""
    t0 = time.monotonic()
    termed: set[int] = set()
    while True:
        _reap()
        kids = _children()
        if not kids:
            return
        waited = time.monotonic() - t0
        if waited > _STOP_GIVE_UP_S:
            raise RuntimeError(f"processes {sorted(kids)} did not stop")
        late = waited > _STOP_GRACE_S
        new = [pid for pid in kids if pid not in termed]
        if new:
            print(f"stopping leftover processes {new}", file=sys.stderr)
        for pid in kids if late else new:
            try:
                os.kill(pid, signal.SIGKILL if late else signal.SIGTERM)
            except ProcessLookupError:
                pass
            termed.add(pid)
        time.sleep(0.05)


def _shutdown_ray() -> None:
    """``ray.shutdown()``, then stop whatever it left running, and remove
    the session directory if Ray had to put it outside the checkout."""
    import ray

    session_dir = None
    try:
        node = ray._private.worker._global_node
        if node is not None:
            session_dir = node.get_session_dir_path()
    except AttributeError:
        pass
    ray.shutdown()
    _stop_children()
    if session_dir and not os.path.abspath(session_dir).startswith(ROOT + os.sep):
        shutil.rmtree(session_dir, ignore_errors=True)


def _on_sigterm(signum, frame):
    sys.exit(128 + signum)  # unwinds through main's cleanup


def _start_ray(scratch: str) -> None:
    import ray

    temp_dir = os.path.join(scratch, "ray")
    kwargs = {}
    # Ray's sockets live under its temp dir; keep it in the checkout unless
    # the checkout path is too long for a socket path (the session directory
    # is then removed at shutdown)
    if len(temp_dir) + _SESSION_SUFFIX <= _SOCKET_PATH_MAX:
        kwargs["_temp_dir"] = temp_dir
    ray.init(
        address="local",
        num_cpus=CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        log_to_driver=False,
        logging_level="ERROR",
        **kwargs,
    )
    # ray.init installs SIGTERM handlers that exit without running main's
    # cleanup; put ours back so that a terminated run still stops Ray
    signal.signal(signal.SIGTERM, _on_sigterm)
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False


def _warm_task() -> int:
    import time as _time

    import pandas  # noqa: F401
    import pyarrow.dataset  # noqa: F401
    import pyarrow.parquet  # noqa: F401
    import ray.data  # noqa: F401

    import pygridmap_ray.gridding  # noqa: F401
    import pygridmap_ray.overlay  # noqa: F401
    import pygridmap_ray.spatial  # noqa: F401
    import pygridmap_ray.tiler  # noqa: F401

    _time.sleep(0.2)  # hold the worker so that each task lands on its own
    return os.getpid()


def _setup(workload_cls, seed: int, workdir: str):
    """Ray session start, worker warm-up, input generation, layer build."""
    import ray

    _start_ray(os.path.dirname(workdir))
    warm = ray.remote(num_cpus=1)(_warm_task)
    ray.get([warm.remote() for _ in range(CPUS)])
    wl = workload_cls(seed, workdir)
    wl.setup()
    return wl


def _measure(wl, seconds: float) -> dict:
    """Whole rounds until ``seconds`` have passed.  Round 1 warms caches
    and lazy set-up: it is checked and counted, but left out of the
    medians."""
    jobs, items, sizes = [], [], []
    attempted = failed = 0
    t_end = time.monotonic() + seconds
    while True:
        attempted += 1
        dt = float("nan")
        try:
            t0 = time.perf_counter()
            res = wl.job()
            dt = time.perf_counter() - t0
            fails = wl.check(res)
        except Exception:  # a job that raises is a failed operation
            fails = [traceback.format_exc()]
        if fails:
            failed += 1
            print(f"round {attempted} failed: {fails}", file=sys.stderr)
        elif attempted > 1:
            jobs.append(dt)
            items.append(res.items / dt)
            sizes.append(res.result_bytes)
        print(f"round {attempted}: job {dt:.3f} s", file=sys.stderr)
        if attempted > 1 and time.monotonic() >= t_end:
            break
    metrics = {}
    if jobs:
        metrics = {
            "job_s": (statistics.median(jobs), "s"),
            "items_per_s": (statistics.median(items), "items/s"),
            "result_bytes": (statistics.median(sizes), "bytes"),
        }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # stdout is reserved for the result line; route everything else
    # (Ray, Ray Data, warnings, our own notes) to stderr
    result_fd = os.dup(1)
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    os.environ.pop("RAY_ADDRESS", None)
    # a terminated run still shuts Ray down and stops its processes
    signal.signal(signal.SIGTERM, _on_sigterm)
    _become_subreaper()
    import pygridmap_ray  # noqa: F401  (fail before any set-up without the package)

    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]

    scratch_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="r", dir=scratch_root)
    try:
        setups = []
        # setup_s is an end-to-end metric; the traced run sets up once
        n_setups = 1 if args.trace else SETUPS
        for k in range(n_setups):
            t0 = time.perf_counter()
            wl = _setup(workload_cls, args.seed, os.path.join(scratch, f"s{k}"))
            setups.append(time.perf_counter() - t0)
            if k < n_setups - 1:
                _shutdown_ray()
                shutil.rmtree(os.path.join(scratch, f"s{k}"), ignore_errors=True)
        print(f"setup times: {[round(s, 3) for s in setups]}", file=sys.stderr)
        if args.trace:
            from perfbench.trace import run_trace

            out = run_trace(wl, args.seconds, CPUS)
        else:
            out = _measure(wl, args.seconds)
            out["metrics"]["setup_s"] = (statistics.median(setups), "s")
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            out["metrics"]["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    finally:
        _shutdown_ray()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass  # another run's scratch is still there
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }
    os.write(result_fd, (json.dumps(result) + "\n").encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
