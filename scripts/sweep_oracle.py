"""Every registered pipeline against its DuckDB twin (driver-style compare).

Usage: python scripts/sweep_oracle.py [--sf DIR] [--rows-only-quadratic] [name ...]

With names: run only those pipelines.  Without: run all.  ``--sf`` picks
the scale-factor directory (default sf0.01).  ``--rows-only-quadratic``
is the large-scale mode (sf0.1): pipelines whose twin is registered
``quadratic`` run engine-side only and report their row count, and any
other twin that runs past 90 s is interrupted and recorded rows-only.
Ray gets ``SWEEP_CPUS`` CPUs (default 32).  Writes
/tmp/sweep_<sf dir name>.json; exits 1 if any pipeline mismatches.
"""
import argparse
import json
import os
import sys
import threading
import time
from pathlib import Path

# before ray.init: workers inherit the driver's sys.path
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import numpy as np
import pandas as pd

import ray

ap = argparse.ArgumentParser()
ap.add_argument("--sf", default="/root/testdata/sf0.01")
ap.add_argument("--rows-only-quadratic", action="store_true")
ap.add_argument("names", nargs="*")
args = ap.parse_args()

ray.init(address="local", num_cpus=int(os.environ.get("SWEEP_CPUS", 32)),
         include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext  # noqa: E402

DataContext.get_current().enable_progress_bars = False

import duckdb  # noqa: E402

from pygridmap_ray.pipelines.registry import entries  # noqa: E402

SF = args.sf
con = duckdb.connect()
for t in ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]:
    con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{SF}/{t}.parquet')")

reg = entries()
names = args.names or list(reg)


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    # list columns are unsortable; stringify for the sort key only
    key = pd.DataFrame(index=df.index)
    for c in df.columns:
        col = df[c]
        if col.dtype == object and len(col) and isinstance(
            col.iloc[0], (list, np.ndarray)
        ):
            key[c] = col.map(lambda v: json.dumps(
                np.asarray(v).tolist()))
        else:
            key[c] = col
    order = key.sort_values(list(df.columns), kind="stable").index
    return df.loc[order].reset_index(drop=True)


def values_equal(a: pd.DataFrame, b: pd.DataFrame) -> bool:
    for c in a.columns:
        x, y = a[c], b[c]
        if x.dtype == object and len(x) and isinstance(
            x.iloc[0], (list, np.ndarray)
        ):
            xs = x.map(lambda v: json.dumps(np.asarray(v).tolist()))
            ys = y.map(lambda v: json.dumps(np.asarray(v).tolist()))
            if not (xs.to_numpy() == ys.to_numpy()).all():
                return False
        elif x.dtype.kind == "f" or (hasattr(y, "dtype")
                                     and y.dtype.kind == "f"):
            xv = x.to_numpy(dtype=float)
            yv = y.to_numpy(dtype=float)
            same = (np.isnan(xv) & np.isnan(yv)) | (xv == yv)
            if not same.all():
                return False
        else:
            if not (x.astype(str).to_numpy()
                    == y.astype(str).to_numpy()).all():
                return False
    return True


def oracle(sql: str):
    """The twin's rows, or None when the large-scale mode's 90 s
    timeout interrupts it."""
    if not args.rows_only_quadratic:
        return con.sql(sql).df()
    timer = threading.Timer(90.0, con.interrupt)
    timer.start()
    try:
        return con.sql(sql).df()
    except Exception as ex:  # noqa: BLE001
        if "interrupt" in repr(ex).lower():
            return None
        raise
    finally:
        timer.cancel()


results, bad = {}, []
n_oracle = 0
t_all = time.time()
for i, name in enumerate(names):
    t0 = time.time()
    tag = f"[{i+1}/{len(names)}] {name}:"
    try:
        got = reg[name].run(SF)
        got = got.to_pandas() if hasattr(got, "to_pandas") else got
        if args.rows_only_quadratic and reg[name].quadratic:
            exp, why = None, "quadratic"
        else:
            exp, why = oracle(reg[name].sql()), "timeout-90s"
        if exp is None:
            results[name] = {"ok": True, "rows": len(got), "oracle": why}
            print(f"{tag} rows-only ({why}) {len(got)}", flush=True)
            continue
        g, x = canon(got), canon(exp)
        ok_rows = len(g) == len(x)
        ok_schema = list(g.columns) == list(x.columns)
        ok = ok_rows and ok_schema and values_equal(g, x)
        n_oracle += 1
        results[name] = {"ok": bool(ok), "rows": len(g),
                         "oracle_rows": len(x),
                         "schema": bool(ok_schema),
                         "sec": round(time.time() - t0, 2)}
        if not ok:
            bad.append(name)
            print(f"{tag} MISMATCH "
                  f"rows {len(g)}/{len(x)} schema {ok_schema} "
                  f"cols {list(g.columns)[:6]} vs {list(x.columns)[:6]}",
                  flush=True)
        else:
            print(f"{tag} OK {len(g)} rows "
                  f"{results[name]['sec']}s", flush=True)
    except Exception as ex:  # noqa: BLE001
        bad.append(name)
        results[name] = {"ok": False, "err": repr(ex)[:300]}
        print(f"{tag} ERROR {ex!r}", flush=True)

out = f"/tmp/sweep_{Path(SF).name}.json"
with open(out, "w") as f:
    json.dump(results, f, indent=1)
n_ok = sum(1 for r in results.values() if r["ok"])
print(f"TOTAL {n_ok}/{len(names)} ok ({n_oracle} oracle-compared) "
      f"in {time.time()-t_all:.0f}s; bad={bad}; results in {out}", flush=True)
ray.shutdown()
sys.exit(1 if bad else 0)
