"""Named pipelines + their DuckDB oracle SQL (the driver correctness gate).

Every entry here is one operator/pipeline from SURVEY.md §2 expressed as a
Ray Data pipeline over the testdata tables (with deterministically derived
geo columns, see :mod:`pygridmap_ray.synth`), paired with ANSI SQL DuckDB
runs on the same tables.  Column names match exactly; float outputs are
rounded half-away-from-zero to 6 decimals on BOTH sides to absorb
summation-order ulp differences.
"""

from __future__ import annotations

import atexit
import shutil
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import (
    ann,
    dedup,
    graph,
    joins,
    multimodal,
    pack,
    raster,
    spatial,
    stats,
    text,
    tfidf,
)
from ..gridding import make_grid, sql_make_grid
from ..overlay import (
    area_interpolate,
    overlay_fragments,
    sql_grid_overlay_sum,
    sql_overlay_fragments,
)
from ..planning import plan_grid
from ..spatial import join_points_to_polygons, knn_join, sql_point_join
from ..geom.proj import reproject, sql_laea_forward
from ..stats import sql_grouped_quantiles
from ..text import BPE_PATTERN, sql_fuzzy_vocab, sql_pmi_bigrams, sql_top_ngrams
from ..synth import (
    DOMAIN,
    SQL_X,
    SQL_Y,
    build_spans_array,
    derive_lonlat,
    derive_xy,
    polygon_layer,
    span_summary_from_column,
    sql_lonlat_cte,
    sql_points_cte,
    sql_span_summary_cte,
)
from ..tiler import (
    grid_aggregation,
    sql_cell_columns,
    sql_grid_aggregation,
    with_cell_columns,
)
from pygridmap_ray.cluster import (
    Broadcast,
    resolve_num_buckets as _resolve_buckets,
    segment_apply,
    to_frame,
)

from . import relational
from .registry import query

RES, TSC = 1000.0, 128
GRID_CELL = 10_000.0
OVL_CELL = 50_000.0


def round_half_away(batch: pa.Table, cols: list[str], decimals: int) -> pa.Table:
    """Half-away-from-zero rounding (matches SQL ROUND).  Pick ``decimals``
    so the rounding step dwarfs summation-order ulp noise (~ulp(sum) x
    addend count) — money sums use 2, small ratios 6."""
    tol = 10.0**decimals
    for c in cols:
        i = batch.schema.get_field_index(c)
        if i < 0:
            continue
        col = batch.column(i)
        null_mask = np.asarray(pc.is_null(col).combine_chunks())
        v = np.asarray(col, dtype=np.float64)
        r = np.sign(v) * np.floor(np.abs(v) * tol + 0.5) / tol
        # preserve NULLs: np.asarray turns them into NaN, which is a
        # different Arrow value than null
        batch = batch.set_column(i, c, pa.array(r, mask=null_mask))
    return batch


def round6(batch: pa.Table, cols: list[str]) -> pa.Table:
    return round_half_away(batch, cols, 6)


def _scratch_dir(prefix: str) -> str:
    """A fresh private directory for a pipeline's staged files.  Each
    call gets its own, so reruns and concurrent processes never read each
    other's (or stale) parts; it is removed when the driver exits, since
    the returned Dataset may read it lazily until then."""
    path = tempfile.mkdtemp(prefix=prefix)
    atexit.register(shutil.rmtree, path, ignore_errors=True)
    return path


def docs_points(sf_dir: str, extra_cols: tuple[str, ...] = ()):
    """documents -> Dataset(doc_id, x, y, *extra) with derived locations."""
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", *extra_cols]
    )

    def add_xy(b: pa.Table) -> pa.Table:
        x, y = derive_xy(np.asarray(b["doc_id"]))
        return b.append_column("x", pa.array(x)).append_column("y", pa.array(y))

    return ds.map_batches(add_xy, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def _sql_cell_assign() -> str:
    cols = sql_cell_columns(RES, TSC)
    sel = ", ".join(f"{e} AS {n}" for n, e in cols.items())
    return (
        f"WITH points AS ({sql_points_cte()}) "
        f"SELECT doc_id, ROUND(x * 1e6) / 1e6 AS x, ROUND(y * 1e6) / 1e6 AS y, "
        f"{sel} FROM points"
    )


@query("cell_assign", sql=_sql_cell_assign, bench=True)
def q_cell_assign(sf_dir: str):
    return with_cell_columns(
        docs_points(sf_dir), resolution=RES, tile_size_cell=TSC
    ).map_batches(lambda b: round6(b, ["x", "y"]), batch_format="pyarrow")


def _sql_cell_assign_offset() -> str:
    cols = sql_cell_columns(RES, TSC, 2500.0, 7300.0)
    sel = ", ".join(f"{e} AS {n}" for n, e in cols.items())
    return f"WITH points AS ({sql_points_cte()}) SELECT doc_id, {sel} FROM points"


@query("cell_assign_offset", sql=_sql_cell_assign_offset)
def q_cell_assign_offset(sf_dir: str):
    ds = with_cell_columns(
        docs_points(sf_dir),
        resolution=RES,
        tile_size_cell=TSC,
        x_origin=2500.0,
        y_origin=7300.0,
    )
    return ds.select_columns(
        ["doc_id", "ix", "iy", "xt", "yt", "local_x", "local_y", "cell_key"]
    )


#: hierarchical (Morton/quadkey) index level: the synth domain spans
#: ~500 km at 1 km cells -> 512-cell axis -> level 9; rollup at level 4
HIER_LEVEL, HIER_PARENT = 9, 4


@query("cell_hier", sql=lambda: _sql_cell_hier())
def q_cell_hier(sf_dir: str):
    """Batched S2/H3-style hierarchical cell indexing (hier.with_hier_cells):
    one Z-order int64 code + quadkey string per doc at level 9."""
    from ..hier import with_hier_cells

    ds = with_hier_cells(docs_points(sf_dir), resolution=RES, level=HIER_LEVEL)
    return ds.select_columns(["doc_id", "cell_code", "quadkey"])


@query("hier_rollup", sql=lambda: _sql_hier_rollup())
def q_hier_rollup(sf_dir: str):
    """Two-phase hierarchical rollup: fine-cell partials -> parent-prefix
    shift (never a re-join) -> (n_docs, n_cells) per level-4 ancestor."""
    from ..hier import hier_rollup, with_hier_cells

    ds = with_hier_cells(docs_points(sf_dir), resolution=RES, level=HIER_LEVEL)
    return hier_rollup(ds, parent_level=HIER_PARENT, level=HIER_LEVEL)


#: H3-style hex lattice circumradius: ~25 km hexes over the ~500 km domain
HEX_SIZE = 25_000.0


@query("hex_assign", sql=lambda: _sql_hex_assign())
def q_hex_assign(sf_dir: str):
    """H3-style hexagonal cell assignment (hex.with_hex_cells): axial
    (hq, hr) + hex_key per doc via the batched cube-rounding kernel."""
    from ..hex import with_hex_cells

    ds = with_hex_cells(docs_points(sf_dir), size=HEX_SIZE)
    return ds.select_columns(["doc_id", "hq", "hr", "hex_key"])


@query("geohash_assign", sql=lambda: _sql_geohash_assign(), bench=True)
def q_geohash_assign(sf_dir: str):
    """Public-spec base-32 geohash cell assignment (hier.with_geohash):
    the Morton interleave over quantized lon/lat, 8 chars per doc plus the
    4-char parent prefix (coarsening is substr, never a re-encode)."""
    import ray.data as rd

    from ..hier import with_geohash

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def add_lonlat(b: pa.Table) -> pa.Table:
        lon, lat = derive_lonlat(np.asarray(b["doc_id"]))
        return b.append_column("lon", pa.array(lon)).append_column(
            "lat", pa.array(lat)
        )

    ds = with_geohash(
        ds.map_batches(add_lonlat, batch_format="pyarrow"), nchars=8
    )

    def finish(b: pa.Table) -> pa.Table:
        gh = b["geohash"]
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "geohash": gh,
                "gh4": pc.utf8_slice_codeunits(gh, 0, 4),
            }
        )

    return ds.map_batches(finish, batch_format="pyarrow")


S2_LEVEL = 12


@query("s2_assign", sql=lambda: _sql_s2_assign(), bench=True)
def q_s2_assign(sf_dir: str):
    """S2-style sphere cell assignment (s2.with_s2_cells): cube-face +
    quadratic-ST + Morton position per doc, plus the level-8 ancestor via
    prefix shift (north-star 'batched H3/S2 indexing' — the H3 half is
    hex_assign).  Trig-free law, so the DuckDB twin is bit-identical."""
    import ray.data as rd

    from ..s2 import s2_parent, with_s2_cells
    from ..synth import derive_xyz

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def add_xyz(b: pa.Table) -> pa.Table:
        px, py, pz = derive_xyz(np.asarray(b["doc_id"]))
        return (
            b.append_column("px", pa.array(px))
            .append_column("py", pa.array(py))
            .append_column("pz", pa.array(pz))
        )

    ds = with_s2_cells(
        ds.map_batches(add_xyz, batch_format="pyarrow"), level=S2_LEVEL
    )

    def finish(b: pa.Table) -> pa.Table:
        cell = np.asarray(b["s2_cell"])
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "face": b["s2_face"],
                "si": b["s2_si"],
                "ti": b["s2_ti"],
                "s2_cell": b["s2_cell"],
                "s2_parent": pa.array(s2_parent(cell, 4)),
            }
        )

    return ds.map_batches(finish, batch_format="pyarrow")


@query("s2_density", sql=lambda: _sql_s2_density())
def q_s2_density(sf_dir: str):
    """Per-cell doc counts at a COARSE S2 level reached by prefix shift
    (never a re-encode): encode once at level 12, roll up at level 6 with
    per-batch value_counts partials -> one small hash aggregate."""
    import ray.data as rd

    from ..s2 import with_s2_cells
    from ..synth import derive_xyz

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def add_xyz(b: pa.Table) -> pa.Table:
        px, py, pz = derive_xyz(np.asarray(b["doc_id"]))
        return (
            b.append_column("px", pa.array(px))
            .append_column("py", pa.array(py))
            .append_column("pz", pa.array(pz))
        )

    ds = with_s2_cells(
        ds.map_batches(add_xyz, batch_format="pyarrow"), level=S2_LEVEL
    )

    def partial(b: pa.Table) -> pa.Table:
        parent = np.asarray(b["s2_cell"]) >> np.int64(2 * (S2_LEVEL - 6))
        keys, counts = np.unique(parent, return_counts=True)
        return pa.table({"s2_cell6": keys, "n": counts.astype(np.int64)})

    ds = ds.map_batches(partial, batch_format="pyarrow")
    ds = ds.groupby("s2_cell6").sum("n")

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {"s2_cell6": b["s2_cell6"], "n_docs": b["sum(n)"]}
        )

    return ds.map_batches(finish, batch_format="pyarrow")


@query("idw_interpolate", sql=lambda: _sql_idw_interpolate(), bench=True)
def q_idw_interpolate(sf_dir: str):
    """Inverse-distance-weighted interpolation of the doc n_chars field at
    occupied hex centers (hex.hex_idw): k-ring-bounded scatter with
    per-batch packed-key combiners and a single marker-row hash aggregate
    — the classic IDW surface without any all-pairs distance matrix."""
    from ..hex import hex_idw, with_hex_cells

    ds = docs_points(sf_dir, extra_cols=("n_chars",))
    ds = with_hex_cells(ds, size=HEX_SIZE)

    def as_val(b: pa.Table) -> pa.Table:
        return b.append_column(
            "val", pc.cast(b["n_chars"], pa.float64())
        )

    ds = ds.map_batches(as_val, batch_format="pyarrow")
    return hex_idw(ds, size=HEX_SIZE, k=1, val_col="val")


@query("hex_spatial_lag", sql=lambda: _sql_hex_spatial_lag())
def q_hex_spatial_lag(sf_dir: str):
    """Spatial-lag OLS regression of per-hex density on the neighbor-mean
    density (hex.hex_spatial_lag): scatter + marker-row aggregate for the
    lag field, then six-scalar sum partials and a closed-form fit — the
    autoregressive companion to morans_i."""
    from ..hex import hex_spatial_lag, with_hex_cells

    ds = with_hex_cells(docs_points(sf_dir), size=HEX_SIZE)
    return hex_spatial_lag(ds, size=HEX_SIZE)


@query("general_g", sql=lambda: _sql_general_g())
def q_general_g(sf_dir: str):
    """Getis-Ord General G over the hex density field (hex.general_g):
    global spatial clustering of high values with binary ring-1 weights —
    completes the ESDA suite (morans_i, local_moran, gi_star)."""
    from ..hex import general_g, with_hex_cells

    ds = with_hex_cells(docs_points(sf_dir), size=HEX_SIZE)
    return general_g(ds, size=HEX_SIZE)


def _sql_general_g() -> str:
    from ..hex import kring_offsets, sql_hex_cte
    from ..synth import sql_points_cte

    vals = ", ".join(
        f"({dq}, {dr})" for dq, dr in kring_offsets(1) if (dq, dr) != (0, 0)
    )
    rnd = lambda e: f"(ROUND(({e}) * 1000000.0) / 1000000.0)"
    return (
        f"WITH pts AS ({sql_points_cte()}), {sql_hex_cte(HEX_SIZE)}, "
        f"cells AS (SELECT hq, hr, COUNT(*)::BIGINT AS n FROM hexed"
        f" GROUP BY hq, hr), "
        f"offs(dq, dr) AS (VALUES {vals}), "
        f"pairs AS (SELECT a.n AS xi, b.n AS xj FROM cells a"
        f" CROSS JOIN offs o JOIN cells b"
        f" ON b.hq = a.hq + o.dq AND b.hr = a.hr + o.dr), "
        f"s AS (SELECT (SELECT COUNT(*) FROM cells)::BIGINT AS nn,"
        f" (SELECT SUM(xi * xj) FROM pairs)::BIGINT AS num,"
        f" (SELECT COUNT(*) FROM pairs)::BIGINT AS w,"
        f" (SELECT SUM(n) FROM cells)::BIGINT AS sx,"
        f" (SELECT SUM(n * n) FROM cells)::BIGINT AS sxx) "
        f"SELECT nn AS n_cells, w AS w_sum,"
        f" {rnd('CAST(num AS DOUBLE) / (CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE) - CAST(sxx AS DOUBLE))')} AS g,"
        f" {rnd('CAST(w AS DOUBLE) / (CAST(nn AS DOUBLE) * (CAST(nn AS DOUBLE) - 1.0))')} AS e_g"
        f" FROM s"
    )


RIPLEY_RADII = (25_000.0, 50_000.0, 100_000.0)
RIPLEY_AREA = 500_000.0 * 501_000.0


@query("ripley_k", sql=lambda: _sql_ripley_k(), bench=True, quadratic=True)
def q_ripley_k(sf_dir: str):
    """Ripley's K point-pattern statistic (spatial.ripley_k) at three
    radii over the doc point field: 3x3 ghost-cell pair counting, one
    coarse bucket shuffle, one count per radius on the driver."""
    from ..spatial import ripley_k

    return ripley_k(
        docs_points(sf_dir), radii=list(RIPLEY_RADII), area=RIPLEY_AREA
    )


def _sql_ripley_k() -> str:
    from ..synth import sql_points_cte

    vals = ", ".join(
        f"({i}, {r!r}::DOUBLE)" for i, r in enumerate(RIPLEY_RADII)
    )
    d2 = (
        "((a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y))"
    )
    return (
        f"WITH pts AS ({sql_points_cte()}), "
        f"radii(ri, r) AS (VALUES {vals}), "
        f"c AS (SELECT ri, r,"
        f" (SELECT COUNT(*) FROM pts a, pts b"
        f"  WHERE a.doc_id != b.doc_id AND {d2} <= rr.r * rr.r)::BIGINT"
        f" AS n_pairs FROM radii rr(ri, r)), "
        f"n AS (SELECT COUNT(*)::DOUBLE AS nn FROM pts) "
        f"SELECT r, n_pairs,"
        f" ROUND((({RIPLEY_AREA!r} * CAST(n_pairs AS DOUBLE)) / (nn * nn))"
        f" * 1e6) / 1e6 AS k FROM c, n"
    )


@query("clark_evans", sql=lambda: _sql_clark_evans(), quadratic=True)
def q_clark_evans(sf_dir: str):
    """Clark-Evans nearest-neighbor index over the doc point field:
    ``R = mean_nn_dist / (0.5 / sqrt(n / A))`` with the standard normal
    statistic ``z = (mean - E) / (0.26136 / sqrt(n * rho))`` — R < 1
    clustered, > 1 dispersed.  NN distances come from the exact
    ring-bounded knn kernel (k=2 self-join, self excluded); the driver
    reduces two scalars."""
    import pyarrow.parquet as pq

    from ..spatial import knn_join

    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    did = np.asarray(t["doc_id"], dtype=np.int64)
    x, y = derive_xy(did)
    ref = {"id": did, "x": x, "y": y}
    out = knn_join(docs_points(sf_dir), ref, resolution=25_000.0, k=2)

    def nn_partial(b: pa.Table) -> pa.Table:
        doc = np.asarray(b["doc_id"], np.int64)
        nid = np.asarray(b["neighbor_id"], np.int64)
        d = np.asarray(b["distance"], np.float64)
        keep = nid != doc
        doc, d = doc[keep], d[keep]
        # a doc's k rows are contiguous within one batch: segment min
        order = np.argsort(doc, kind="stable")
        doc, d = doc[order], d[order]
        starts = np.flatnonzero(
            np.concatenate([[True], doc[1:] != doc[:-1]])
        )
        mins = np.minimum.reduceat(d, starts)
        return pa.table(
            {
                "cnt": np.array([len(starts)], np.int64),
                "sd": np.array([mins.sum()]),
            }
        )

    tot = out.map_batches(nn_partial, batch_format="pyarrow").sum(
        ["cnt", "sd"]
    )
    import ray.data as rd

    nn = float(tot["sum(cnt)"])
    mean = tot["sum(sd)"] / nn
    rho = nn / RIPLEY_AREA
    expect = 0.5 / np.sqrt(rho)
    r_index = mean / expect
    z = (mean - expect) / (0.26136 / np.sqrt(nn * rho))
    rnd = lambda v: float(np.sign(v) * np.floor(np.abs(v) * 1e6 + 0.5) / 1e6)
    return rd.from_arrow(
        pa.table(
            {
                "n": pa.array([int(nn)], pa.int64()),
                "mean_nn": pa.array([rnd(mean)]),
                "r_index": pa.array([rnd(r_index)]),
                "z": pa.array([rnd(z)]),
            }
        )
    )


def _sql_clark_evans() -> str:
    from ..synth import sql_points_cte

    d2 = "((a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y))"
    rnd = lambda e: f"(ROUND(({e}) * 1000000.0) / 1000000.0)"
    return (
        f"WITH pts AS ({sql_points_cte()}), "
        f"nnd AS (SELECT a.doc_id, MIN(sqrt({d2})) AS d"
        f" FROM pts a JOIN pts b ON a.doc_id != b.doc_id"
        f" GROUP BY a.doc_id), "
        f"s AS (SELECT COUNT(*)::DOUBLE AS nn, SUM(d) AS sd FROM nnd) "
        f"SELECT CAST(nn AS BIGINT) AS n,"
        f" {rnd('sd / nn')} AS mean_nn,"
        f" {rnd(f'(sd / nn) / (0.5 / sqrt(nn / {RIPLEY_AREA!r}))')} AS r_index,"
        f" {rnd(f'((sd / nn) - (0.5 / sqrt(nn / {RIPLEY_AREA!r}))) / (0.26136 / sqrt(nn * (nn / {RIPLEY_AREA!r})))')} AS z"
        f" FROM s"
    )


QUADRAT_NX, QUADRAT_NY = 10, 10
QUADRAT_W, QUADRAT_H = 500_000.0, 501_000.0


GFUNC_RADII = (10_000.0, 25_000.0, 60_000.0)


@query("g_function", sql=lambda: _sql_g_function(), quadratic=True)
def q_g_function(sf_dir: str):
    """Point-pattern G function: the CDF of nearest-neighbor distances
    at fixed radii — G(r) above 1 - exp(-rho pi r^2) means clustering.
    Rows (r, n_within, g) with g = share of points whose exact NN lies
    within r, 6dp.

    Scale shape: the knn kernel (k=2, self excluded) + per-batch
    per-radius counters -> one tiny reduce."""
    import pyarrow.parquet as pq

    from ..spatial import knn_join

    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    did = np.asarray(t["doc_id"], dtype=np.int64)
    x, y = derive_xy(did)
    ref = {"id": did, "x": x, "y": y}
    out = knn_join(docs_points(sf_dir), ref, resolution=25_000.0, k=2)

    def partial(b: pa.Table) -> pa.Table:
        doc = np.asarray(b["doc_id"], np.int64)
        nid = np.asarray(b["neighbor_id"], np.int64)
        dist = np.asarray(b["distance"], np.float64)
        keep = nid != doc
        doc, dist = doc[keep], dist[keep]
        o = np.lexsort((dist, doc))
        doc, dist = doc[o], dist[o]
        first = np.concatenate([[True], doc[1:] != doc[:-1]])
        nn = dist[first]
        cols = {"n": np.array([len(nn)], np.int64)}
        for i, rr in enumerate(GFUNC_RADII):
            cols[f"w{i}"] = np.array([int((nn <= rr).sum())], np.int64)
        return pa.table(cols)

    names = ["n"] + [f"w{i}" for i in range(len(GFUNC_RADII))]
    tot = out.map_batches(partial, batch_format="pyarrow").sum(names)
    import ray.data as rd

    n = float(tot["sum(n)"])
    rnd = lambda v: float(np.sign(v) * np.floor(np.abs(v) * 1e6 + 0.5) / 1e6)
    rows = {"r": [], "n_within": [], "g": []}
    for i, rr in enumerate(GFUNC_RADII):
        w = int(tot[f"sum(w{i})"])
        rows["r"].append(float(rr))
        rows["n_within"].append(w)
        rows["g"].append(rnd(float(w) / n))
    return rd.from_arrow(
        pa.table(
            {
                "r": pa.array(rows["r"], pa.float64()),
                "n_within": pa.array(rows["n_within"], pa.int64()),
                "g": pa.array(rows["g"], pa.float64()),
            }
        )
    )


def _sql_g_function() -> str:
    from ..synth import sql_points_cte

    d2 = "((a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y))"
    vals = ", ".join(f"({r!r}::DOUBLE)" for r in GFUNC_RADII)
    return (
        f"WITH pts AS ({sql_points_cte()}), "
        f"nnd AS (SELECT a.doc_id, MIN(sqrt({d2})) AS d FROM pts a"
        f" JOIN pts b ON a.doc_id != b.doc_id GROUP BY a.doc_id), "
        f"radii(r) AS (VALUES {vals}), "
        f"n AS (SELECT COUNT(*)::DOUBLE AS nt FROM nnd) "
        f"SELECT rr.r,"
        f" (SELECT COUNT(*) FROM nnd WHERE d <= rr.r)::BIGINT AS n_within,"
        f" ROUND((CAST((SELECT COUNT(*) FROM nnd WHERE d <= rr.r) AS DOUBLE)"
        f" / n.nt) * 1000000.0) / 1000000.0 AS g"
        f" FROM radii rr CROSS JOIN n"
    )


FFUNC_GRID = 20  # probe lattice per axis


@query("f_function", sql=lambda: _sql_f_function(), quadratic=True)
def q_f_function(sf_dir: str):
    """Point-pattern F function (empty-space function): the CDF of the
    distance from a regular probe lattice to the nearest doc point, at
    the same radii as G — F below the CSR curve alongside G above it is
    the clustering signature.  Rows (r, n_within, f), 6dp.

    Scale shape: probe cells are a tiny from_items Dataset; each batch
    measures its probes against the broadcast point index (the exact
    ring-bounded knn kernel, k=1); per-radius counters reduce once."""
    import pyarrow.parquet as pq

    import ray.data as rd

    from ..spatial import knn_join

    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    did = np.asarray(t["doc_id"], dtype=np.int64)
    x, y = derive_xy(did)
    ref = {"id": did, "x": x, "y": y}

    gx = (np.arange(FFUNC_GRID, dtype=np.float64) + 0.5) * (
        500_000.0 / FFUNC_GRID
    )
    gy = (np.arange(FFUNC_GRID, dtype=np.float64) + 0.5) * (
        501_000.0 / FFUNC_GRID
    )
    mx, my = np.meshgrid(gx, gy, indexing="ij")
    probes = rd.from_arrow(
        pa.table(
            {
                "probe_id": np.arange(FFUNC_GRID * FFUNC_GRID, dtype=np.int64),
                "x": mx.ravel(),
                "y": my.ravel(),
            }
        )
    ).repartition(4)

    out = knn_join(probes, ref, resolution=25_000.0, k=1)

    def partial(b: pa.Table) -> pa.Table:
        dist = np.asarray(b["distance"], np.float64)
        cols = {"n": np.array([len(dist)], np.int64)}
        for i, rr in enumerate(GFUNC_RADII):
            cols[f"w{i}"] = np.array([int((dist <= rr).sum())], np.int64)
        return pa.table(cols)

    names = ["n"] + [f"w{i}" for i in range(len(GFUNC_RADII))]
    tot = out.map_batches(partial, batch_format="pyarrow").sum(names)
    n = float(tot["sum(n)"])
    rnd = lambda v: float(np.sign(v) * np.floor(np.abs(v) * 1e6 + 0.5) / 1e6)
    rows = {"r": [], "n_within": [], "f": []}
    for i, rr in enumerate(GFUNC_RADII):
        w = int(tot[f"sum(w{i})"])
        rows["r"].append(float(rr))
        rows["n_within"].append(w)
        rows["f"].append(rnd(float(w) / n))
    return rd.from_arrow(
        pa.table(
            {
                "r": pa.array(rows["r"], pa.float64()),
                "n_within": pa.array(rows["n_within"], pa.int64()),
                "f": pa.array(rows["f"], pa.float64()),
            }
        )
    )


def _sql_f_function() -> str:
    from ..synth import sql_points_cte

    g = FFUNC_GRID
    px = f"((gx.i + 0.5) * ({500_000.0!r} / {float(g)!r}))"
    py = f"((gy.i + 0.5) * ({501_000.0!r} / {float(g)!r}))"
    d2 = f"(({px} - p.x) * ({px} - p.x) + ({py} - p.y) * ({py} - p.y))"
    vals = ", ".join(f"({r!r}::DOUBLE)" for r in GFUNC_RADII)
    return (
        f"WITH pts AS ({sql_points_cte()}), "
        f"probes AS (SELECT {px} AS qx, {py} AS qy,"
        f" (SELECT MIN(sqrt({d2})) FROM pts p) AS d"
        f" FROM (SELECT UNNEST(generate_series(0, {g - 1})) AS i) gx,"
        f" (SELECT UNNEST(generate_series(0, {g - 1})) AS i) gy), "
        f"radii(r) AS (VALUES {vals}), "
        f"n AS (SELECT COUNT(*)::DOUBLE AS nt FROM probes) "
        f"SELECT rr.r,"
        f" (SELECT COUNT(*) FROM probes WHERE d <= rr.r)::BIGINT AS n_within,"
        f" ROUND((CAST((SELECT COUNT(*) FROM probes WHERE d <= rr.r)"
        f" AS DOUBLE) / n.nt) * 1000000.0) / 1000000.0 AS f"
        f" FROM radii rr CROSS JOIN n"
    )


@query("quadrat_test", sql=lambda: _sql_quadrat_test())
def q_quadrat_test(sf_dir: str):
    """Chi-square quadrat-count test for complete spatial randomness:
    a fixed 10x10 grid over the point domain, observed vs uniform
    expected counts INCLUDING empty quadrats — one row (n, chi2, df).
    chi2 far above df rejects CSR (the doc field is clustered by law).

    Scale shape: per-batch bincount partials over the fixed 100-cell
    grid -> one tiny vector sum; the driver sees 100 integers."""
    ds = docs_points(sf_dir)
    ncell = QUADRAT_NX * QUADRAT_NY

    def partial(b: pa.Table) -> pa.Table:
        x = np.asarray(b["x"], np.float64)
        y = np.asarray(b["y"], np.float64)
        ix = np.minimum(
            np.floor(x / (QUADRAT_W / QUADRAT_NX)).astype(np.int64),
            QUADRAT_NX - 1,
        )
        iy = np.minimum(
            np.floor(y / (QUADRAT_H / QUADRAT_NY)).astype(np.int64),
            QUADRAT_NY - 1,
        )
        cell = iy * QUADRAT_NX + ix
        cnt = np.bincount(cell, minlength=ncell).astype(np.int64)
        return pa.table(
            {"cell": np.arange(ncell, dtype=np.int64), "n": cnt}
        )

    from ray.data.aggregate import Sum

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("cell")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
        .sort_values("cell")
    )
    import ray.data as rd

    obs = np.zeros(ncell)
    obs[agg["cell"].to_numpy(np.int64)] = agg["n"].to_numpy(np.float64)
    n = float(obs.sum())
    exp = n / float(ncell)
    chi2 = (((obs - exp) * (obs - exp)) / exp).sum()
    rnd = lambda v: float(np.sign(v) * np.floor(np.abs(v) * 1e6 + 0.5) / 1e6)
    return rd.from_arrow(
        pa.table(
            {
                "n": pa.array([int(n)], pa.int64()),
                "chi2": pa.array([rnd(chi2)]),
                "df": pa.array([ncell - 1], pa.int64()),
            }
        )
    )


def _sql_quadrat_test() -> str:
    from ..synth import sql_points_cte

    nx, ny = QUADRAT_NX, QUADRAT_NY
    ncell = nx * ny
    dx = repr(QUADRAT_W / nx)
    dy = repr(QUADRAT_H / ny)
    ix = f"LEAST(CAST(floor(x / {dx}) AS BIGINT), {nx - 1})"
    iy = f"LEAST(CAST(floor(y / {dy}) AS BIGINT), {ny - 1})"
    return (
        f"WITH pts AS ({sql_points_cte()}), "
        f"counts AS (SELECT ({iy}) * {nx} + ({ix}) AS cell,"
        f" COUNT(*)::DOUBLE AS n FROM pts GROUP BY 1), "
        f"grid AS (SELECT UNNEST(generate_series(0, {ncell - 1})) AS cell), "
        f"obs AS (SELECT g.cell, COALESCE(c.n, 0.0) AS n"
        f" FROM grid g LEFT JOIN counts c ON c.cell = g.cell), "
        f"s AS (SELECT SUM(n) AS total FROM obs) "
        f"SELECT CAST(total AS BIGINT) AS n,"
        f" ROUND((SELECT SUM(((n - total / {float(ncell)!r})"
        f" * (n - total / {float(ncell)!r})) / (total / {float(ncell)!r}))"
        f" FROM obs) * 1000000.0) / 1000000.0 AS chi2,"
        f" {ncell - 1} AS df FROM s"
    )


@query("hex_gini", sql=lambda: _sql_hex_gini())
def q_hex_gini(sf_dir: str):
    """Gini coefficient of the hex density field (spatial inequality of
    activity): ``G = 2*sum(i*x_(i)) / (n*sum(x)) - (n+1)/n`` over
    rank-sorted cell counts — tie-order-invariant closed form, rounded
    6dp.  One row (n_cells, gini).

    Scale shape: packed-key density partials -> one hash aggregate; the
    rank sort runs on the lattice-bounded cell vector (same documented
    bound as hex_clusters)."""
    from ray.data.aggregate import Sum

    import ray.data as rd

    from ..hex import _pack, with_hex_cells

    ds = with_hex_cells(docs_points(sf_dir), size=HEX_SIZE)

    def partial(b: pa.Table) -> pa.Table:
        key = _pack(np.asarray(b["hq"], np.int64), np.asarray(b["hr"], np.int64))
        u, c = np.unique(key, return_counts=True)
        return pa.table({"hkey": u, "docs": c.astype(np.int64)})

    occ = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("hkey")
        .aggregate(Sum("docs", alias_name="n"))
        .to_pandas()  # lattice-bounded (see docstring)
    )
    x = np.sort(occ["n"].to_numpy(np.int64))
    n = float(len(x))
    tot = float(x.sum())
    ranks = np.arange(1, len(x) + 1, dtype=np.float64)
    g = 2.0 * float((ranks * x).sum()) / (n * tot) - (n + 1.0) / n
    rnd = lambda v: float(np.sign(v) * np.floor(np.abs(v) * 1e6 + 0.5) / 1e6)
    return rd.from_arrow(
        pa.table(
            {
                "n_cells": pa.array([len(x)], pa.int64()),
                "gini": pa.array([rnd(g)]),
            }
        )
    )


def _sql_hex_gini() -> str:
    from ..hex import sql_hex_cte
    from ..synth import sql_points_cte

    return (
        f"WITH pts AS ({sql_points_cte()}), {sql_hex_cte(HEX_SIZE)}, "
        f"cells AS (SELECT hq, hr, COUNT(*)::BIGINT AS n FROM hexed"
        f" GROUP BY hq, hr), "
        f"ranked AS (SELECT n, ROW_NUMBER() OVER (ORDER BY n, hq, hr)"
        f" AS i FROM cells), "
        f"s AS (SELECT COUNT(*)::DOUBLE AS nn, SUM(n)::DOUBLE AS tot,"
        f" SUM(CAST(i AS DOUBLE) * CAST(n AS DOUBLE)) AS rs FROM ranked) "
        f"SELECT CAST(nn AS BIGINT) AS n_cells,"
        f" ROUND((2.0 * rs / (nn * tot) - (nn + 1.0) / nn) * 1000000.0)"
        f" / 1000000.0 AS gini FROM s"
    )


VARIO_BINS = ((0.0, 25_000.0), (25_000.0, 50_000.0), (50_000.0, 100_000.0))


@query("variogram", sql=lambda: _sql_variogram(), bench=True, quadratic=True)
def q_variogram(sf_dir: str):
    """Empirical semivariogram of the n_chars field over doc points
    (spatial.variogram): ghost-cell pair sweep, per-bin (count, sum-sq)
    partials — the kriging-precursor spatial-continuity curve."""
    from ..spatial import variogram

    ds = docs_points(sf_dir, extra_cols=("n_chars",))

    def as_val(b: pa.Table) -> pa.Table:
        return b.append_column("val", pc.cast(b["n_chars"], pa.float64()))

    return variogram(
        ds.map_batches(as_val, batch_format="pyarrow"),
        bins=[tuple(b) for b in VARIO_BINS],
    )


def _sql_variogram() -> str:
    from ..synth import SQL_X, SQL_Y

    d2 = "((a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y))"
    dz2 = "((a.val - b.val) * (a.val - b.val))"
    vals = ", ".join(
        f"({lo!r}::DOUBLE, {hi!r}::DOUBLE)" for lo, hi in VARIO_BINS
    )
    return (
        f"WITH pts AS (SELECT doc_id, {SQL_X} AS x, {SQL_Y} AS y,"
        f" CAST(n_chars AS DOUBLE) AS val FROM documents), "
        f"bins(bin_lo, bin_hi) AS (VALUES {vals}), "
        f"s AS (SELECT bin_lo, bin_hi,"
        f" (SELECT COUNT(*) FROM pts a, pts b WHERE a.doc_id != b.doc_id"
        f"  AND {d2} >= bb.bin_lo * bb.bin_lo"
        f"  AND {d2} < bb.bin_hi * bb.bin_hi)::BIGINT AS n_pairs,"
        f" (SELECT COALESCE(SUM({dz2}), 0.0) FROM pts a, pts b"
        f"  WHERE a.doc_id != b.doc_id"
        f"  AND {d2} >= bb.bin_lo * bb.bin_lo"
        f"  AND {d2} < bb.bin_hi * bb.bin_hi) AS ssq"
        f" FROM bins bb(bin_lo, bin_hi)) "
        f"SELECT bin_lo, bin_hi, n_pairs,"
        f" CASE WHEN n_pairs = 0 THEN 0.0"
        f" ELSE ROUND((ssq / (2.0 * CAST(n_pairs AS DOUBLE))) * 1000000.0)"
        f" / 1000000.0 END AS gamma FROM s"
    )


@query("variogram_dir", sql=lambda: _sql_variogram_dir(), quadratic=True)
def q_variogram_dir(sf_dir: str):
    """Directional (anisotropic) semivariogram: each distance bin split
    into four axis-symmetric 45-degree sectors with trig-free
    |dx|/|dy|-comparison edges — bit-identical twin, no atan2 at all."""
    from ..spatial import variogram

    ds = docs_points(sf_dir, extra_cols=("n_chars",))

    def as_val(b: pa.Table) -> pa.Table:
        return b.append_column("val", pc.cast(b["n_chars"], pa.float64()))

    return variogram(
        ds.map_batches(as_val, batch_format="pyarrow"),
        bins=[tuple(b) for b in VARIO_BINS],
        directional=True,
    )


def _sql_variogram_dir() -> str:
    from ..spatial import SECTOR_C
    from ..synth import SQL_X, SQL_Y

    c = repr(SECTOR_C)
    d2 = "((a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y))"
    dz2 = "((a.val - b.val) * (a.val - b.val))"
    sec = (
        f"(CASE WHEN abs(a.x - b.x) >= {c} * abs(a.y - b.y) THEN 0"
        f" WHEN abs(a.y - b.y) >= {c} * abs(a.x - b.x) THEN 2"
        f" WHEN (a.x - b.x) * (a.y - b.y) >= 0.0 THEN 1 ELSE 3 END)"
    )
    vals = ", ".join(
        f"({lo!r}::DOUBLE, {hi!r}::DOUBLE)" for lo, hi in VARIO_BINS
    )
    return (
        f"WITH pts AS (SELECT doc_id, {SQL_X} AS x, {SQL_Y} AS y,"
        f" CAST(n_chars AS DOUBLE) AS val FROM documents), "
        f"p AS (SELECT {d2} AS d2, {dz2} AS dz2, {sec} AS sector"
        f" FROM pts a, pts b WHERE a.doc_id != b.doc_id), "
        f"bins(bin_lo, bin_hi) AS (VALUES {vals}), "
        f"grid AS (SELECT bin_lo, bin_hi, s.i AS sector FROM bins,"
        f" (SELECT UNNEST(generate_series(0, 3)) AS i) s), "
        f"j AS (SELECT g.bin_lo, g.bin_hi, g.sector,"
        f" COUNT(p.d2)::BIGINT AS n_pairs,"
        f" COALESCE(SUM(p.dz2), 0.0) AS ssq"
        f" FROM grid g LEFT JOIN p"
        f" ON p.sector = g.sector AND p.d2 >= g.bin_lo * g.bin_lo"
        f" AND p.d2 < g.bin_hi * g.bin_hi"
        f" GROUP BY g.bin_lo, g.bin_hi, g.sector) "
        f"SELECT bin_lo, bin_hi, sector, n_pairs,"
        f" CASE WHEN n_pairs = 0 THEN 0.0"
        f" ELSE ROUND((ssq / (2.0 * CAST(n_pairs AS DOUBLE)))"
        f" * 1000000.0) / 1000000.0 END AS gamma FROM j"
    )


@query("std_ellipse", sql=lambda: _sql_std_ellipse())
def q_std_ellipse(sf_dir: str):
    """Measuring geographic distributions: mean center, standard
    distance, and the standard deviational ellipse of the doc point
    field (orientation + major/minor sigmas from the closed-form 2x2
    covariance eigendecomposition) — one row, all 6dp.

    Scale shape: per-batch (n, sx, sy, sxx, syy, sxy) partials -> one
    six-scalar reduce; the ellipse algebra runs on the driver scalars."""
    ds = docs_points(sf_dir)

    def partial(b: pa.Table) -> pa.Table:
        x = np.asarray(b["x"], np.float64)
        y = np.asarray(b["y"], np.float64)
        return pa.table(
            {
                "n": np.array([len(x)], np.int64),
                "sx": np.array([x.sum()]),
                "sy": np.array([y.sum()]),
                "sxx": np.array([(x * x).sum()]),
                "syy": np.array([(y * y).sum()]),
                "sxy": np.array([(x * y).sum()]),
            }
        )

    tot = ds.map_batches(partial, batch_format="pyarrow").sum(
        ["n", "sx", "sy", "sxx", "syy", "sxy"]
    )
    import ray.data as rd

    n = float(tot["sum(n)"])
    mx = tot["sum(sx)"] / n
    my = tot["sum(sy)"] / n
    cxx = tot["sum(sxx)"] / n - mx * mx
    cyy = tot["sum(syy)"] / n - my * my
    cxy = tot["sum(sxy)"] / n - mx * my
    std_dist = np.sqrt(cxx + cyy)
    theta = 0.5 * np.arctan2(2.0 * cxy, cxx - cyy)
    half = np.sqrt(
        ((cxx - cyy) / 2.0) * ((cxx - cyy) / 2.0) + cxy * cxy
    )
    lam1 = (cxx + cyy) / 2.0 + half
    lam2 = (cxx + cyy) / 2.0 - half
    rnd = lambda v: float(np.sign(v) * np.floor(np.abs(v) * 1e6 + 0.5) / 1e6)
    return rd.from_arrow(
        pa.table(
            {
                "n": pa.array([int(n)], pa.int64()),
                "mean_x": pa.array([rnd(mx)]),
                "mean_y": pa.array([rnd(my)]),
                "std_dist": pa.array([rnd(std_dist)]),
                "theta": pa.array([rnd(theta)]),
                "sigma_major": pa.array([rnd(np.sqrt(lam1))]),
                "sigma_minor": pa.array([rnd(np.sqrt(lam2))]),
            }
        )
    )


def _sql_std_ellipse() -> str:
    from ..synth import sql_points_cte

    rnd = lambda e: f"(ROUND(({e}) * 1000000.0) / 1000000.0)"
    cxx = "(sxx / n - (sx / n) * (sx / n))"
    cyy = "(syy / n - (sy / n) * (sy / n))"
    cxy = "(sxy / n - (sx / n) * (sy / n))"
    half = (
        f"sqrt((({cxx} - {cyy}) / 2.0) * (({cxx} - {cyy}) / 2.0)"
        f" + {cxy} * {cxy})"
    )
    return (
        f"WITH pts AS ({sql_points_cte()}), "
        f"s AS (SELECT COUNT(*)::DOUBLE AS n, SUM(x) AS sx, SUM(y) AS sy,"
        f" SUM(x * x) AS sxx, SUM(y * y) AS syy, SUM(x * y) AS sxy"
        f" FROM pts) "
        f"SELECT CAST(n AS BIGINT) AS n,"
        f" {rnd('sx / n')} AS mean_x, {rnd('sy / n')} AS mean_y,"
        f" {rnd(f'sqrt({cxx} + {cyy})')} AS std_dist,"
        f" {rnd(f'0.5 * atan2(2.0 * {cxy}, {cxx} - {cyy})')} AS theta,"
        f" {rnd(f'sqrt(({cxx} + {cyy}) / 2.0 + {half})')} AS sigma_major,"
        f" {rnd(f'sqrt(({cxx} + {cyy}) / 2.0 - {half})')} AS sigma_minor"
        f" FROM s"
    )


@query("knn_loo_r2", sql=lambda: _sql_knn_loo_r2(), quadratic=True)
def q_knn_loo_r2(sf_dir: str):
    """Leave-one-out kNN regression skill score: predict each doc's
    n_chars as the mean of its 4 nearest OTHER points' values and report
    ``R^2 = 1 - SSE / SST`` — the spatial cross-validation diagnostic
    (R^2 ~ 0 here: the value law is spatially unstructured by
    construction).  One row (n, r2), 6dp.

    Scale shape: the exact ring-bounded knn kernel (k=5, self included)
    plus a per-worker cached id->val lookup; per-batch (sse, sy, syy)
    partials -> one reduce.  Tie law (distance, neighbor_id) matches the
    twin's (d2, doc_id) rank because sqrt is strictly monotone."""
    import pyarrow.parquet as pq

    from ..spatial import knn_join

    t = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    did = np.asarray(t["doc_id"], dtype=np.int64)
    x, y = derive_xy(did)
    order = np.argsort(did)
    sorted_ids = did[order]
    sorted_vals = np.asarray(t["n_chars"], np.float64)[order]
    ref = {"id": did, "x": x, "y": y}
    lookup = Broadcast((sorted_ids, sorted_vals))

    out = knn_join(docs_points(sf_dir, ("n_chars",)), ref,
                   resolution=25_000.0, k=5)

    def partial(b: pa.Table) -> pa.Table:
        ids, vals = lookup.get()
        doc = np.asarray(b["doc_id"], np.int64)
        nid = np.asarray(b["neighbor_id"], np.int64)
        dist = np.asarray(b["distance"], np.float64)
        yv = np.asarray(b["n_chars"], np.float64)
        keep = nid != doc
        doc_k, nid_k, dist_k = doc[keep], nid[keep], dist[keep]
        # per-doc 4 nearest under the (distance, neighbor_id) tie order
        o = np.lexsort((nid_k, dist_k, doc_k))
        doc_k, nid_k = doc_k[o], nid_k[o]
        starts = np.flatnonzero(
            np.concatenate([[True], doc_k[1:] != doc_k[:-1]])
        )
        rank = np.arange(len(doc_k)) - np.repeat(starts,
                                                 np.diff(np.append(starts, len(doc_k))))
        top = rank < 4
        nv = vals[np.searchsorted(ids, nid_k[top])]
        seg = np.repeat(np.arange(len(starts)),
                        np.minimum(np.diff(np.append(starts, len(doc_k))), 4))
        pred = np.bincount(seg, weights=nv) / 4.0
        # align y values (every knn row carries its doc's n_chars)
        first_doc = doc_k[starts]
        uids, uidx = np.unique(doc, return_index=True)
        ytrue = yv[uidx][np.searchsorted(uids, first_doc)]
        sse = float(((ytrue - pred) * (ytrue - pred)).sum())
        return pa.table(
            {
                "n": np.array([len(first_doc)], np.int64),
                "sy": np.array([ytrue.sum()]),
                "syy": np.array([(ytrue * ytrue).sum()]),
                "sse": np.array([sse]),
            }
        )

    tot = out.map_batches(partial, batch_format="pyarrow").sum(
        ["n", "sy", "syy", "sse"]
    )
    import ray.data as rd

    n = float(tot["sum(n)"])
    sst = tot["sum(syy)"] - tot["sum(sy)"] * tot["sum(sy)"] / n
    r2 = 1.0 - tot["sum(sse)"] / sst
    rnd = lambda v: float(np.sign(v) * np.floor(np.abs(v) * 1e6 + 0.5) / 1e6)
    return rd.from_arrow(
        pa.table(
            {
                "n": pa.array([int(n)], pa.int64()),
                "r2": pa.array([rnd(r2)]),
            }
        )
    )


def _sql_knn_loo_r2() -> str:
    from ..synth import SQL_X, SQL_Y

    d2 = "((a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y))"
    return (
        f"WITH pts AS (SELECT doc_id, {SQL_X} AS x, {SQL_Y} AS y,"
        f" CAST(n_chars AS DOUBLE) AS val FROM documents), "
        f"cand AS (SELECT a.doc_id, b.val,"
        f" ROW_NUMBER() OVER (PARTITION BY a.doc_id"
        f" ORDER BY {d2}, b.doc_id) AS rn"
        f" FROM pts a JOIN pts b ON a.doc_id != b.doc_id), "
        f"yhat AS (SELECT doc_id, SUM(val) / 4.0 AS pred FROM cand"
        f" WHERE rn <= 4 GROUP BY doc_id), "
        f"j AS (SELECT p.val AS y, h.pred FROM pts p"
        f" JOIN yhat h ON h.doc_id = p.doc_id), "
        f"s AS (SELECT COUNT(*)::DOUBLE AS n, SUM(y) AS sy,"
        f" SUM(y * y) AS syy, SUM((y - pred) * (y - pred)) AS sse FROM j) "
        f"SELECT CAST(n AS BIGINT) AS n,"
        f" ROUND((1.0 - sse / (syy - sy * sy / n)) * 1000000.0)"
        f" / 1000000.0 AS r2 FROM s"
    )


@query("correlogram", sql=lambda: _sql_correlogram(), quadratic=True)
def q_correlogram(sf_dir: str):
    """Spatial correlogram (hex.correlogram): Moran's I at ring distances
    1..3 with annulus weights — one widened scatter resolves every ring
    in a single hash aggregate."""
    from ..hex import correlogram, with_hex_cells

    ds = with_hex_cells(docs_points(sf_dir), size=HEX_SIZE)
    return correlogram(ds, size=HEX_SIZE, ks=(1, 2, 3))


def _sql_correlogram() -> str:
    from ..hex import ring_offsets, sql_hex_cte
    from ..synth import sql_points_cte

    parts = []
    for k in (1, 2, 3):
        vals = ", ".join(f"({dq}, {dr})" for dq, dr in ring_offsets(k))
        parts.append(
            f"SELECT {k} AS ring, CAST(st.nn AS BIGINT) AS n_hexes,"
            f" CAST(p.w AS BIGINT) AS w_pairs,"
            f" ROUND((((st.nn / p.w) * p.num) / st.den) * 1000000.0)"
            f" / 1000000.0 AS moran_i"
            f" FROM (SELECT SUM((CAST(a.n AS DOUBLE) - st0.m)"
            f" * (CAST(b.n AS DOUBLE) - st0.m)) AS num,"
            f" COUNT(*)::DOUBLE AS w"
            f" FROM cells a CROSS JOIN (SELECT m FROM stats) st0"
            f" CROSS JOIN (VALUES {vals}) o(dq, dr) JOIN cells b"
            f" ON b.hq = a.hq + o.dq AND b.hr = a.hr + o.dr) p"
            f" CROSS JOIN stats st"
        )
        # ^ one adjacency pass per ring; `stats` carries mean/den/count
    body = " UNION ALL ".join(parts)
    return (
        f"WITH pts AS ({sql_points_cte()}), {sql_hex_cte(HEX_SIZE)}, "
        f"cells AS (SELECT hq, hr, COUNT(*)::BIGINT AS n FROM hexed"
        f" GROUP BY hq, hr), "
        f"stats0 AS (SELECT COUNT(*)::DOUBLE AS nn,"
        f" SUM(n)::DOUBLE / COUNT(*)::DOUBLE AS m FROM cells), "
        f"stats AS (SELECT nn, m,"
        f" (SELECT SUM((CAST(n AS DOUBLE) - s.m)"
        f" * (CAST(n AS DOUBLE) - s.m)) FROM cells) AS den"
        f" FROM stats0 s) "
        f"{body}"
    )


BUFFER_R = 30_000.0


@query("hex_buffer", sql=lambda: _sql_hex_buffer())
def q_hex_buffer(sf_dir: str):
    """Distance buffer as a hex-cell set: every cell whose CENTER lies
    within BUFFER_R of at least one doc point (the raster-space GIS
    buffer / dilation).  Candidates come from each point's k-ring with
    k = ceil((R + size) / (1.5 * size)) — centers at hex distance k are
    at least 1.5*size*k apart, so no qualifying cell can be missed.

    Scale shape: per-point k-ring scatter with exact center-distance
    test, per-batch packed-key dedup, one distinct aggregate — shuffle
    volume is O(buffered cells x blocks)."""
    import math

    from ray.data.aggregate import Max

    from ..hex import _pack, _unpack, hex_center, kring_offsets, with_hex_cells

    k = math.ceil((BUFFER_R + HEX_SIZE) / (1.5 * HEX_SIZE))
    offs = kring_offsets(k)
    ds = with_hex_cells(docs_points(sf_dir), size=HEX_SIZE)

    def partial(b: pa.Table) -> pa.Table:
        q = np.asarray(b["hq"], np.int64)
        r = np.asarray(b["hr"], np.int64)
        x = np.asarray(b["x"], np.float64)
        y = np.asarray(b["y"], np.float64)
        keys = []
        for dq, dr in offs:
            tq, tr = q + dq, r + dr
            cx, cy = hex_center(tq, tr, HEX_SIZE)
            d2 = (x - cx) * (x - cx) + (y - cy) * (y - cy)
            hit = d2 <= BUFFER_R * BUFFER_R
            keys.append(_pack(tq[hit], tr[hit]))
        u = np.unique(np.concatenate(keys))
        return pa.table({"hkey": u, "one": np.ones(len(u), np.int64)})

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("hkey")
        .aggregate(Max("one", alias_name="one"))
    )

    def finish(b: pa.Table) -> pa.Table:
        q, r = _unpack(np.asarray(b["hkey"], np.int64))
        return pa.table({"hq": pa.array(q), "hr": pa.array(r)})

    return agg.map_batches(finish, batch_format="pyarrow")


def _sql_hex_buffer() -> str:
    import math

    from ..hex import kring_offsets, sql_hex_cte
    from ..synth import sql_points_cte

    k = math.ceil((BUFFER_R + HEX_SIZE) / (1.5 * HEX_SIZE))
    vals = ", ".join(f"({dq}, {dr})" for dq, dr in kring_offsets(k))
    s = repr(float(HEX_SIZE))
    cx = f"({s} * ((3.0/2.0) * (p.hq + o.dq)))"
    cy = f"({s} * ((sqrt(3.0)/2.0) * (p.hq + o.dq) + sqrt(3.0) * (p.hr + o.dr)))"
    d2 = f"((p.x - {cx}) * (p.x - {cx}) + (p.y - {cy}) * (p.y - {cy}))"
    return (
        f"WITH pts AS ({sql_points_cte()}), {sql_hex_cte(HEX_SIZE)}, "
        f"offs(dq, dr) AS (VALUES {vals}) "
        f"SELECT DISTINCT p.hq + o.dq AS hq, p.hr + o.dr AS hr"
        f" FROM hexed p CROSS JOIN offs o"
        f" WHERE {d2} <= {BUFFER_R!r} * {BUFFER_R!r}"
    )


@query("hex_erode", sql=lambda: _sql_hex_erode())
def q_hex_erode(sf_dir: str):
    """Morphological EROSION of the occupancy lattice: occupied cells
    whose six neighbors are ALL occupied (the interior of the occupied
    region — dilation's complement, see hex_buffer).  Reuses the 6-bit
    neighborhood-mask plan of hex_lattice_stats: scatter + ONE marker
    aggregate, mask == 63 selects the interior; no join."""
    from ray.data.aggregate import Max, Sum

    from ..hex import _CYCLE, _pack, _unpack, with_hex_cells

    ds = with_hex_cells(docs_points(sf_dir), size=HEXC_SIZE)

    def partial(b: pa.Table) -> pa.Table:
        key = _pack(np.asarray(b["hq"], np.int64), np.asarray(b["hr"], np.int64))
        u = np.unique(key)
        return pa.table({"hkey": u, "one": np.ones(len(u), np.int64)})

    cells = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("hkey")
        .aggregate(Max("one", alias_name="occ"))
    )

    def scatter(b: pa.Table) -> pa.Table:
        q, r = _unpack(np.asarray(b["hkey"], np.int64))
        tkeys, bits = [], []
        for i, (dq, dr) in enumerate(_CYCLE):
            tkeys.append(_pack(q + dq, r + dr))
            bits.append(
                np.full(len(q), np.int64(1) << ((i + 3) % 6), np.int64)
            )
        tkey = np.concatenate(tkeys + [_pack(q, r)])
        bit = np.concatenate(bits + [np.zeros(len(q), np.int64)])
        self_occ = np.concatenate(
            [np.zeros(6 * len(q), np.int64), np.ones(len(q), np.int64)]
        )
        return pa.table({"tkey": tkey, "bit": bit, "self_occ": self_occ})

    masked = (
        cells.map_batches(scatter, batch_format="pyarrow")
        .groupby("tkey")
        .aggregate(
            Sum("bit", alias_name="mask"),
            Max("self_occ", alias_name="occ"),
        )
    )

    def finish(b: pa.Table) -> pa.Table:
        keep = (np.asarray(b["occ"], np.int64) > 0) & (
            np.asarray(b["mask"], np.int64) == 63
        )
        q, r = _unpack(np.asarray(b["tkey"], np.int64)[keep])
        return pa.table({"hq": pa.array(q), "hr": pa.array(r)})

    return masked.map_batches(finish, batch_format="pyarrow")


def _sql_hex_erode() -> str:
    from ..hex import _CYCLE, sql_hex_cte
    from ..synth import sql_points_cte

    vals = ", ".join(f"({dq}, {dr})" for dq, dr in _CYCLE)
    return (
        f"WITH pts AS ({sql_points_cte()}), {sql_hex_cte(HEXC_SIZE)}, "
        f"cells AS (SELECT DISTINCT hq, hr FROM hexed), "
        f"offs(dq, dr) AS (VALUES {vals}) "
        f"SELECT c.hq, c.hr FROM cells c CROSS JOIN offs o"
        f" JOIN cells n ON n.hq = c.hq + o.dq AND n.hr = c.hr + o.dr"
        f" GROUP BY c.hq, c.hr HAVING COUNT(*) = 6"
    )


JC_MIN_B = 2  # a cell is BLACK when it holds >= 2 docs


@query("join_counts", sql=lambda: _sql_join_counts())
def q_join_counts(sf_dir: str):
    """Join-count statistics for the binary density map (classic
    categorical ESDA): cells are BLACK when n_docs >= 2 else WHITE;
    count undirected adjacent pairs by class combo (bb, bw, ww) plus
    the class totals — BB above expectation means the dense cells
    clump.

    Scale shape: density -> 6-neighbor scatter carrying the source
    CLASS bit -> one marker aggregate gives each cell its per-class
    neighbor counts; integer partials reduce to five scalars; /2
    converts directed to undirected."""
    from ray.data.aggregate import Max, Sum

    from ..hex import _pack, kring_offsets, with_hex_cells

    neigh = [o for o in kring_offsets(1) if o != (0, 0)]
    ds = with_hex_cells(docs_points(sf_dir), size=HEX_SIZE)

    def partial(b: pa.Table) -> pa.Table:
        key = _pack(np.asarray(b["hq"], np.int64), np.asarray(b["hr"], np.int64))
        u, c = np.unique(key, return_counts=True)
        return pa.table({"hkey": u, "docs": c.astype(np.int64)})

    dens = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("hkey")
        .aggregate(Sum("docs", alias_name="n"))
    )

    from ..hex import _unpack

    def scatter(b: pa.Table) -> pa.Table:
        q, r = _unpack(np.asarray(b["hkey"], np.int64))
        black = (np.asarray(b["n"], np.int64) >= JC_MIN_B).astype(np.int64)
        tkey = np.concatenate(
            [_pack(q + dq, r + dr) for dq, dr in neigh] + [_pack(q, r)]
        )
        nv = len(black)
        nb_b = np.concatenate(
            [np.tile(black, len(neigh)), np.zeros(nv, np.int64)]
        )
        nb_w = np.concatenate(
            [np.tile(1 - black, len(neigh)), np.zeros(nv, np.int64)]
        )
        self_cls = np.concatenate(
            [np.zeros(len(neigh) * nv, np.int64), black + 1]  # 1=W, 2=B
        )
        is_self = np.concatenate(
            [np.zeros(len(neigh) * nv, np.int64), np.ones(nv, np.int64)]
        )
        return pa.table(
            {
                "tkey": pa.array(tkey),
                "nb_b": pa.array(nb_b),
                "nb_w": pa.array(nb_w),
                "self_cls": pa.array(self_cls),
                "is_self": pa.array(is_self),
            }
        )

    tgt = (
        dens.map_batches(scatter, batch_format="pyarrow")
        .groupby("tkey")
        .aggregate(
            Sum("nb_b", alias_name="nb_b"),
            Sum("nb_w", alias_name="nb_w"),
            Max("self_cls", alias_name="cls"),
        )
    )

    def counts(b: pa.Table) -> pa.Table:
        cls = np.asarray(b["cls"], np.int64)
        occ = cls > 0
        black = cls[occ] == 2
        nb_b = np.asarray(b["nb_b"], np.int64)[occ]
        nb_w = np.asarray(b["nb_w"], np.int64)[occ]
        return pa.table(
            {
                "bb2": np.array([int(nb_b[black].sum())], np.int64),
                "bw": np.array(
                    [int(nb_w[black].sum() + nb_b[~black].sum())], np.int64
                ),
                "ww2": np.array([int(nb_w[~black].sum())], np.int64),
                "nb": np.array([int(black.sum())], np.int64),
                "nw": np.array([int((~black).sum())], np.int64),
            }
        )

    tot = tgt.map_batches(counts, batch_format="pyarrow").sum(
        ["bb2", "bw", "ww2", "nb", "nw"]
    )
    import ray.data as rd

    return rd.from_arrow(
        pa.table(
            {
                "n_black": pa.array([int(tot["sum(nb)"])], pa.int64()),
                "n_white": pa.array([int(tot["sum(nw)"])], pa.int64()),
                "bb": pa.array([int(tot["sum(bb2)"]) // 2], pa.int64()),
                "bw": pa.array([int(tot["sum(bw)"]) // 2], pa.int64()),
                "ww": pa.array([int(tot["sum(ww2)"]) // 2], pa.int64()),
            }
        )
    )


def _sql_join_counts() -> str:
    from ..hex import kring_offsets, sql_hex_cte
    from ..synth import sql_points_cte

    vals = ", ".join(
        f"({dq}, {dr})" for dq, dr in kring_offsets(1) if (dq, dr) != (0, 0)
    )
    return (
        f"WITH pts AS ({sql_points_cte()}), {sql_hex_cte(HEX_SIZE)}, "
        f"cells AS (SELECT hq, hr,"
        f" CASE WHEN COUNT(*) >= {JC_MIN_B} THEN 1 ELSE 0 END AS b"
        f" FROM hexed GROUP BY hq, hr), "
        f"offs(dq, dr) AS (VALUES {vals}), "
        f"pairs AS (SELECT a.b AS ba, c.b AS bc FROM cells a"
        f" CROSS JOIN offs o JOIN cells c"
        f" ON c.hq = a.hq + o.dq AND c.hr = a.hr + o.dr) "
        f"SELECT (SELECT SUM(b) FROM cells)::BIGINT AS n_black,"
        f" (SELECT SUM(1 - b) FROM cells)::BIGINT AS n_white,"
        f" (SELECT COUNT(*) FROM pairs WHERE ba = 1 AND bc = 1)::BIGINT // 2"
        f" AS bb,"
        f" (SELECT COUNT(*) FROM pairs WHERE ba != bc)::BIGINT // 2 AS bw,"
        f" (SELECT COUNT(*) FROM pairs WHERE ba = 0 AND bc = 0)::BIGINT // 2"
        f" AS ww"
    )


@query("colocation_quotient", sql=lambda: _sql_colocation_quotient(), quadratic=True)
def q_colocation_quotient(sf_dir: str):
    """Co-location quotient between language categories (Leslie &
    Kronenfeld's CLQ): for every ordered pair (A, B),
    ``CLQ = (C_AB / N_A) / (N_B' / (N - 1))`` where C_AB counts A points
    whose exact nearest neighbor is a B point (N_B' = N_B - 1 when
    A = B) — CLQ > 1 means B co-locates around A beyond global mixing.

    Scale shape: the exact ring-bounded knn kernel (k=2, self excluded,
    (distance, id) tie order) + a per-worker id->lang lookup; per-batch
    (lang_a, lang_b) count partials -> one tiny categorical aggregate;
    the quotient algebra runs on category scalars."""
    import pyarrow.parquet as pq

    from ..spatial import knn_join

    t = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    did = np.asarray(t["doc_id"], dtype=np.int64)
    langs = np.asarray(t["lang"]).astype(str)
    order = np.argsort(did)
    sorted_ids, sorted_langs = did[order], langs[order]
    x, y = derive_xy(did)
    ref = {"id": did, "x": x, "y": y}
    lookup = Broadcast((sorted_ids, sorted_langs))

    out = knn_join(docs_points(sf_dir), ref, resolution=25_000.0, k=2)

    def partial(b: pa.Table) -> pa.Table:
        ids, lg = lookup.get()
        doc = np.asarray(b["doc_id"], np.int64)
        nid = np.asarray(b["neighbor_id"], np.int64)
        dist = np.asarray(b["distance"], np.float64)
        keep = nid != doc
        doc, nid, dist = doc[keep], nid[keep], dist[keep]
        o = np.lexsort((nid, dist, doc))
        doc, nid = doc[o], nid[o]
        first = np.concatenate([[True], doc[1:] != doc[:-1]])
        doc, nid = doc[first], nid[first]
        la = lg[np.searchsorted(ids, doc)]
        lb = lg[np.searchsorted(ids, nid)]
        key = np.char.add(np.char.add(la, "|"), lb)
        u, c = np.unique(key, return_counts=True)
        return pa.table(
            {"pair": pa.array(u), "n": pa.array(c.astype(np.int64))}
        )

    from ray.data.aggregate import Sum

    agg = (
        out.map_batches(partial, batch_format="pyarrow")
        .groupby("pair")
        .aggregate(Sum("n", alias_name="c"))
        .to_pandas()
    )
    import ray.data as rd

    n_lang = {}
    for lv in np.unique(sorted_langs):
        n_lang[str(lv)] = int((sorted_langs == lv).sum())
    n_total = float(len(sorted_ids))
    rows = {"lang_a": [], "lang_b": [], "c_ab": [], "clq": []}
    rnd = lambda v: float(np.sign(v) * np.floor(np.abs(v) * 1e6 + 0.5) / 1e6)
    for _, row in agg.sort_values("pair").iterrows():
        la, lb = row["pair"].split("|")
        c_ab = int(row["c"])
        nb = n_lang[lb] - 1 if la == lb else n_lang[lb]
        clq = (float(c_ab) / float(n_lang[la])) / (
            float(nb) / (n_total - 1.0)
        )
        rows["lang_a"].append(la)
        rows["lang_b"].append(lb)
        rows["c_ab"].append(c_ab)
        rows["clq"].append(rnd(clq))
    return rd.from_arrow(
        pa.table(
            {
                "lang_a": pa.array(rows["lang_a"], pa.string()),
                "lang_b": pa.array(rows["lang_b"], pa.string()),
                "c_ab": pa.array(rows["c_ab"], pa.int64()),
                "clq": pa.array(rows["clq"], pa.float64()),
            }
        )
    )


def _sql_colocation_quotient() -> str:
    from ..synth import SQL_X, SQL_Y

    d2 = "((a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y))"
    return (
        f"WITH pts AS (SELECT doc_id, lang, {SQL_X} AS x, {SQL_Y} AS y"
        f" FROM documents), "
        f"nn AS (SELECT a.doc_id, a.lang AS lang_a, b.lang AS lang_b"
        f" FROM pts a JOIN pts b ON a.doc_id != b.doc_id"
        f" QUALIFY ROW_NUMBER() OVER (PARTITION BY a.doc_id"
        f" ORDER BY {d2}, b.doc_id) = 1), "
        f"tot AS (SELECT lang, COUNT(*)::DOUBLE AS nl FROM pts GROUP BY lang), "
        f"n AS (SELECT COUNT(*)::DOUBLE AS nt FROM pts), "
        f"cab AS (SELECT lang_a, lang_b, COUNT(*)::BIGINT AS c_ab FROM nn"
        f" GROUP BY lang_a, lang_b) "
        f"SELECT c.lang_a, c.lang_b, c.c_ab,"
        f" ROUND(((CAST(c.c_ab AS DOUBLE) / ta.nl)"
        f" / ((CASE WHEN c.lang_a = c.lang_b THEN tb.nl - 1.0 ELSE tb.nl END)"
        f" / (n.nt - 1.0))) * 1000000.0) / 1000000.0 AS clq"
        f" FROM cab c JOIN tot ta ON ta.lang = c.lang_a"
        f" JOIN tot tb ON tb.lang = c.lang_b CROSS JOIN n"
    )


@query("hex_entropy", sql=lambda: _sql_hex_entropy())
def q_hex_entropy(sf_dir: str):
    """Spatial entropy of the density field: Shannon H = -sum p ln p
    over cell shares plus evenness H / ln(K) (1 = perfectly even,
    0 = all mass in one cell) — the concentration companion to hex_gini.
    One row (n_cells, h, evenness), 6dp.

    Scale shape: density partials -> hash aggregate -> per-batch
    (sum n ln n) partials -> two scalars (H folds via
    ln N - sum(n ln n)/N, so the shares never materialize)."""
    from ray.data.aggregate import Sum

    import ray.data as rd

    from ..hex import _pack, with_hex_cells

    ds = with_hex_cells(docs_points(sf_dir), size=HEX_SIZE)

    def partial(b: pa.Table) -> pa.Table:
        key = _pack(np.asarray(b["hq"], np.int64), np.asarray(b["hr"], np.int64))
        u, c = np.unique(key, return_counts=True)
        return pa.table({"hkey": u, "docs": c.astype(np.int64)})

    dens = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("hkey")
        .aggregate(Sum("docs", alias_name="n"))
    )

    def sums(b: pa.Table) -> pa.Table:
        n = np.asarray(b["n"], np.int64).astype(np.float64)
        return pa.table(
            {
                "k": np.array([len(n)], np.int64),
                "s": np.array([int(n.sum())], np.int64),
                "snln": np.array([(n * np.log(n)).sum()]),
            }
        )

    tot = dens.map_batches(sums, batch_format="pyarrow").sum(
        ["k", "s", "snln"]
    )
    k = float(tot["sum(k)"])
    s = float(tot["sum(s)"])
    h = np.log(s) - tot["sum(snln)"] / s
    evenness = h / np.log(k) if k > 1 else 0.0
    rnd = lambda v: float(np.sign(v) * np.floor(np.abs(v) * 1e6 + 0.5) / 1e6)
    return rd.from_arrow(
        pa.table(
            {
                "n_cells": pa.array([int(k)], pa.int64()),
                "h": pa.array([rnd(h)]),
                "evenness": pa.array([rnd(evenness)]),
            }
        )
    )


def _sql_hex_entropy() -> str:
    from ..hex import sql_hex_cte
    from ..synth import sql_points_cte

    rnd = lambda e: f"(ROUND(({e}) * 1000000.0) / 1000000.0)"
    h = "(ln(s) - snln / s)"
    return (
        f"WITH pts AS ({sql_points_cte()}), {sql_hex_cte(HEX_SIZE)}, "
        f"cells AS (SELECT hq, hr, COUNT(*)::BIGINT AS n FROM hexed"
        f" GROUP BY hq, hr), "
        f"t AS (SELECT COUNT(*)::DOUBLE AS k, SUM(n)::DOUBLE AS s,"
        f" SUM(CAST(n AS DOUBLE) * ln(CAST(n AS DOUBLE))) AS snln"
        f" FROM cells) "
        f"SELECT CAST(k AS BIGINT) AS n_cells, {rnd(h)} AS h,"
        f" CASE WHEN k > 1.0 THEN {rnd(f'{h} / ln(k)')} ELSE 0.0 END"
        f" AS evenness FROM t"
    )


@query("hex_triangles", sql=lambda: _sql_hex_triangles(), bench=True)
def q_hex_triangles(sf_dir: str):
    """Triangle count on the occupied-hex adjacency graph
    (hex.hex_lattice_stats): 3-cliques via the 6-bit neighborhood mask —
    distributed triangle counting with zero edge-list materialization."""
    from ..hex import hex_lattice_stats, with_hex_cells

    ds = with_hex_cells(docs_points(sf_dir), size=HEX_SIZE)
    return hex_lattice_stats(ds, size=HEX_SIZE)


@query("hex_kde", sql=lambda: _sql_hex_kde(), bench=True)
def q_hex_kde(sf_dir: str):
    """Gaussian KDE heatmap at hex centers (hex.hex_kde): ring-2
    truncated kernel, bandwidth = cell size — the smoothed-density
    companion to hex_density."""
    from ..hex import hex_kde, with_hex_cells

    ds = with_hex_cells(docs_points(sf_dir), size=HEX_SIZE)
    return hex_kde(ds, size=HEX_SIZE, bandwidth=HEX_SIZE, k=2)


def _sql_hex_kde() -> str:
    from ..hex import kring_offsets, sql_hex_cte
    from ..synth import sql_points_cte

    s = repr(float(HEX_SIZE))
    h2 = f"(2.0 * ({s} * {s}))"
    vals = ", ".join(f"({dq}, {dr})" for dq, dr in kring_offsets(2))
    cx = f"({s} * ((3.0/2.0) * thq))"
    cy = f"({s} * ((sqrt(3.0)/2.0) * thq + sqrt(3.0) * thr))"
    d2 = f"((x - {cx}) * (x - {cx}) + (y - {cy}) * (y - {cy}))"
    return (
        f"WITH pts AS ({sql_points_cte()}), {sql_hex_cte(HEX_SIZE)}, "
        f"cells AS (SELECT DISTINCT hq, hr FROM hexed), "
        f"offs(dq, dr) AS (VALUES {vals}), "
        f"contrib AS (SELECT c.hq AS thq, c.hr AS thr, p.x, p.y"
        f" FROM cells c CROSS JOIN offs o JOIN hexed p"
        f" ON p.hq = c.hq + o.dq AND p.hr = c.hr + o.dr) "
        f"SELECT thq AS hq, thr AS hr,"
        f" ROUND(SUM(exp(-{d2} / {h2})) * 1000000.0) / 1000000.0 AS kde"
        f" FROM contrib GROUP BY thq, thr"
    )


S2R_FACE = 0
S2R_BOX = (1000, 2600, 1400, 3000)  # si_lo, si_hi, ti_lo, ti_hi (level 12)


@query("s2_range", sql=lambda: _sql_s2_range())
def q_s2_range(sf_dir: str):
    """S2-cell range scan: quadtree cover of an (si, ti) box on one cube
    face -> face-prefixed Morton [lo, hi] ranges -> vectorized
    searchsorted prune on the cell id (the read-pruning story of
    zrange_query, on the sphere index).  Full-depth cover is exact, so
    the prune IS the predicate; the oracle is the plain si/ti box."""
    import ray.data as rd

    from ..hier import zrange_cover
    from ..s2 import with_s2_cells
    from ..synth import derive_xyz

    a, b, c, d = S2R_BOX
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def add_xyz(t: pa.Table) -> pa.Table:
        px, py, pz = derive_xyz(np.asarray(t["doc_id"]))
        return (
            t.append_column("px", pa.array(px))
            .append_column("py", pa.array(py))
            .append_column("pz", pa.array(pz))
        )

    ds = with_s2_cells(
        ds.map_batches(add_xyz, batch_format="pyarrow"), level=S2_LEVEL
    )
    # integer-box cover at unit resolution: zrange_cover FLOORS the high
    # edge into the covered set, so +0.5 keeps the inclusive bound at b/d
    ranges = zrange_cover(
        (float(a), float(c), b + 0.5, d + 0.5),
        resolution=1.0,
        level=S2_LEVEL,
    )
    prefix = np.int64(S2R_FACE) << np.int64(2 * S2_LEVEL)
    los = ranges[:, 0] + prefix
    his = ranges[:, 1] + prefix

    def prune(t: pa.Table) -> pa.Table:
        cell = np.asarray(t["s2_cell"], np.int64)
        pos = np.searchsorted(los, cell, side="right") - 1
        ok = (pos >= 0) & (cell <= his[np.clip(pos, 0, len(his) - 1)])
        return t.filter(pa.array(ok))

    ds = ds.map_batches(prune, batch_format="pyarrow")
    return ds.select_columns(["doc_id", "s2_cell"])


def _sql_s2_range() -> str:
    from ..s2 import sql_s2_cte
    from ..synth import sql_xyz_cte

    a, b, c, d = S2R_BOX
    return (
        f"WITH xyz AS ({sql_xyz_cte()}), {sql_s2_cte(S2_LEVEL)} "
        f"SELECT doc_id, s2_cell FROM s2"
        f" WHERE face = {S2R_FACE} AND si BETWEEN {a} AND {b}"
        f" AND ti BETWEEN {c} AND {d}"
    )


@query("sphere_nn", sql=lambda: _sql_sphere_nn(), quadratic=True)
def q_sphere_nn(sf_dir: str):
    """Exact nearest neighbor on the unit sphere: for every doc, the
    other doc with the maximum direction cosine (normalized xyz dot
    product), ties to the smallest doc_id.  One row per doc
    (doc_id, nn_id, dot 6dp).

    Scale shape: the brute-force ANN layout — the (n, 3) normalized
    direction matrix broadcasts once (Broadcast) and each batch runs a
    BLAS-free broadcasted elementwise dot (explicit x*x' + y*y' + z*z',
    so no FMA contraction can diverge from the twin) + first-max argmax.
    The IVF-bucketed path (ann.ivf_topk) is the scale escape hatch."""
    import ray.data as rd

    import pyarrow.parquet as pq

    from ..synth import derive_xyz

    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    did = np.sort(np.asarray(t["doc_id"], dtype=np.int64))
    px, py, pz = derive_xyz(did)
    norm = np.sqrt(px * px + py * py + pz * pz)
    ux, uy, uz = px / norm, py / norm, pz / norm
    ref = Broadcast((did, ux, uy, uz))

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def nn(b: pa.Table) -> pa.Table:
        rid, rx, ry, rz = ref.get()
        doc = np.asarray(b["doc_id"], np.int64)
        qx, qy, qz = derive_xyz(doc)
        qn = np.sqrt(qx * qx + qy * qy + qz * qz)
        qx, qy, qz = qx / qn, qy / qn, qz / qn
        dot = (
            qx[:, None] * rx[None, :]
            + qy[:, None] * ry[None, :]
            + qz[:, None] * rz[None, :]
        )
        self_pos = np.searchsorted(rid, doc)
        dot[np.arange(len(doc)), self_pos] = -np.inf
        best = np.argmax(dot, axis=1)  # rid ascending -> first max = min id
        bd = dot[np.arange(len(doc)), best]
        bd = np.sign(bd) * np.floor(np.abs(bd) * 1e6 + 0.5) / 1e6
        return pa.table(
            {
                "doc_id": pa.array(doc),
                "nn_id": pa.array(rid[best]),
                "dot": pa.array(bd),
            }
        )

    return ds.map_batches(nn, batch_format="pyarrow")


def _sql_sphere_nn() -> str:
    from ..synth import sql_xyz_cte

    norm = "sqrt(px * px + py * py + pz * pz)"
    return (
        f"WITH xyz AS ({sql_xyz_cte()}), "
        f"u AS (SELECT doc_id, px / {norm} AS ux, py / {norm} AS uy,"
        f" pz / {norm} AS uz FROM xyz), "
        f"pairs AS (SELECT a.doc_id, b.doc_id AS nn_id,"
        f" a.ux * b.ux + a.uy * b.uy + a.uz * b.uz AS d"
        f" FROM u a JOIN u b ON a.doc_id != b.doc_id"
        f" QUALIFY ROW_NUMBER() OVER (PARTITION BY a.doc_id"
        f" ORDER BY d DESC, b.doc_id) = 1) "
        f"SELECT doc_id, nn_id,"
        f" ROUND(d * 1000000.0) / 1000000.0 AS dot FROM pairs"
    )


@query("mutual_nn", sql=lambda: _sql_mutual_nn(), quadratic=True)
def q_mutual_nn(sf_dir: str):
    """Mutual nearest-neighbor pairs on the sphere (the classic
    agglomerative-clustering seed / duplicate-candidate relation): pairs
    (a, b) where each is the other's exact nearest neighbor.  Output
    (doc_a, doc_b, dot) with doc_a < doc_b.

    Scale shape: the sphere_nn stage emits one directed edge per doc;
    edges shuffle ONCE by packed unordered-pair key and a per-bucket
    count == 2 test finds mutual pairs — no self-join."""

    nn = q_sphere_nn(sf_dir)
    def edges(b: pa.Table) -> pa.Table:
        a = np.asarray(b["doc_id"], np.int64)
        c = np.asarray(b["nn_id"], np.int64)
        d = np.asarray(b["dot"], np.float64)
        lo = np.minimum(a, c)
        hi = np.maximum(a, c)
        return pa.table(
            {"pkey": pa.array((lo << np.int64(32)) | hi), "dot": pa.array(d)}
        )

    def mutual(t: pa.Table, starts: np.ndarray) -> dict:
        k = np.asarray(t["pkey"], np.int64)
        counts = np.diff(np.append(starts, len(k)))
        s = starts[counts == 2]
        return {
            "doc_a": k[s] >> 32,
            "doc_b": k[s] & np.int64(4294967295),
            "dot": np.asarray(t["dot"], np.float64)[s],
        }

    return segment_apply(
        nn.map_batches(edges, batch_format="pyarrow"),
        "pkey",
        mutual,
        pa.schema({"doc_a": pa.int64(), "doc_b": pa.int64(), "dot": pa.float64()}),
    )


def _sql_mutual_nn() -> str:
    inner = _sql_sphere_nn()
    return (
        f"WITH nn AS ({inner}) "
        f"SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, a.dot"
        f" FROM nn a JOIN nn b"
        f" ON a.nn_id = b.doc_id AND b.nn_id = a.doc_id"
        f" AND a.doc_id < b.doc_id"
    )


@query("hex_density", sql=lambda: _sql_hex_density(), bench=True)
def q_hex_density(sf_dir: str):
    """Per-hex doc density with cell centers: packed-key unique partials
    -> one small hash aggregate -> unpack (raw rows never shuffle)."""
    from ..hex import hex_density, with_hex_cells

    ds = with_hex_cells(docs_points(sf_dir), size=HEX_SIZE)
    return hex_density(ds, size=HEX_SIZE)


@query("hex_media_density", sql=lambda: _sql_hex_media_density())
def q_hex_media_density(sf_dir: str):
    """Per-hex interleaved-payload rollup (axes A+B): synthesize the spans
    column, hex-index each doc, count spans/media spans by TRAVERSING the
    actual list<struct> column (vectorized flatten + bincount), and roll
    up per hex via packed-key partials — the spans payload never shuffles;
    the oracle recomputes the same stats closed-form from doc_id."""
    from ..hex import hex_rollup, with_hex_cells
    from ..synth import build_spans_array

    ds = docs_points(sf_dir)

    def add_spans(b: pa.Table) -> pa.Table:
        return b.append_column(
            "spans", build_spans_array(np.asarray(b["doc_id"]))
        )

    def span_stats(b: pa.Table) -> pa.Table:
        spans = b["spans"]
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        lengths = np.asarray(spans.value_lengths(), dtype=np.int64)
        flat = spans.flatten()
        is_media = np.asarray(pc.not_equal(flat.field("kind"), "text"))
        parent_idx = np.repeat(np.arange(len(lengths)), lengths)
        n_media = np.bincount(
            parent_idx, weights=is_media, minlength=len(lengths)
        ).astype(np.int64)
        return (
            b.append_column("n_spans", pa.array(lengths))
            .append_column("n_media", pa.array(n_media))
            .drop_columns(["spans"])
        )

    ds = ds.map_batches(add_spans, batch_format="pyarrow")
    ds = with_hex_cells(ds, size=HEX_SIZE)
    ds = ds.map_batches(span_stats, batch_format="pyarrow")
    return hex_rollup(ds, sum_cols={"n_spans": "n_spans", "n_media": "n_media"})


@query("hex_focal", sql=lambda: _sql_hex_focal(), bench=True)
def q_hex_focal(sf_dir: str):
    """K-ring-1 focal doc density per occupied hex: scatter each hex's
    count to its 7 ring targets + a self marker, one second aggregate
    resolves focal sum and occupancy (no focal self-join)."""
    from ..hex import hex_focal, with_hex_cells

    ds = with_hex_cells(docs_points(sf_dir), size=HEX_SIZE)
    return hex_focal(ds, size=HEX_SIZE)


@query("hex_zscore", sql=lambda: _sql_hex_zscore())
def q_hex_zscore(sf_dir: str):
    """Hotspot screen: per-occupied-hex density z-score; global moments
    reduce as one exact integer (k, s, ss) row per batch and ride the
    closure as scalars (hex.hex_zscore)."""
    from ..hex import hex_zscore, with_hex_cells

    ds = with_hex_cells(docs_points(sf_dir), size=HEX_SIZE)
    return hex_zscore(ds, size=HEX_SIZE)


@query("hex_choropleth", sql=lambda: _sql_hex_choropleth())
def q_hex_choropleth(sf_dir: str):
    """Choropleth classing: occupied hexes bucketed into 4 equal-height
    density classes with SQL's exact NTILE fill law (stats.ntile over
    the tiny density aggregate; tiebreak = packed hex key so the class
    boundary is a total order)."""
    from ..hex import _pack, hex_density, with_hex_cells
    from ..stats import ntile

    dens = hex_density(
        with_hex_cells(docs_points(sf_dir), size=HEX_SIZE), size=HEX_SIZE
    )

    def prep(b: pa.Table) -> pa.Table:
        key = _pack(np.asarray(b["hq"], np.int64), np.asarray(b["hr"], np.int64))
        return pa.table(
            {
                "hq": b["hq"],
                "hr": b["hr"],
                "n_docs": b["n_docs"],
                "hkey": pa.array(key),
                "g": pa.array(np.zeros(b.num_rows, np.int64)),
            }
        )

    out = ntile(
        dens.map_batches(prep, batch_format="pyarrow"),
        group_col="g",
        order_col="n_docs",
        tiebreak_col="hkey",
        n=4,
    )
    return out.select_columns(["hq", "hr", "n_docs", "tile"])


def _sql_hex_choropleth() -> str:
    from ..hex import sql_hex_cte
    from ..synth import sql_points_cte

    return (
        f"WITH pts AS ({sql_points_cte()}), {sql_hex_cte(HEX_SIZE)}, "
        f"d AS (SELECT hq, hr, COUNT(*)::BIGINT AS n_docs FROM hexed "
        f"GROUP BY hq, hr) "
        f"SELECT hq, hr, n_docs, NTILE(4) OVER (ORDER BY n_docs, "
        f"((hq << 32) | (hr & 4294967295)))::BIGINT AS tile FROM d"
    )


@query("hex_embedding_norm", sql=lambda: _sql_hex_embedding_norm())
def q_hex_embedding_norm(sf_dir: str):
    """Embeddings × hex interop: per-hex mean L2 norm of the embedding
    vectors of co-located docs (vec_id shares the doc point law).  Norms
    are vectorized float64 row reductions; per-hex (count, norm-sum)
    partials are the only shuffle.  Mean rounded 6dp (norm ulps dwarfed)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..hex import _pack, _unpack, hex_axial

    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )

    def partial(b: pa.Table) -> pa.Table:
        emb = b["embedding"]
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.combine_chunks()
        n = len(emb)
        flat = np.asarray(emb.values, dtype=np.float64)
        mat = flat.reshape(n, -1)
        nrm = np.sqrt((mat * mat).sum(axis=1))
        vid = np.asarray(b["vec_id"], np.int64)
        x, y = derive_xy(vid)
        key = _pack(*hex_axial(x, y, HEX_SIZE))
        u, inv = np.unique(key, return_inverse=True)
        return pa.table(
            {
                "hkey": pa.array(u),
                "cnt": pa.array(np.bincount(inv, minlength=len(u)).astype(np.int64)),
                "nsum": pa.array(np.bincount(inv, weights=nrm, minlength=len(u))),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("hkey")
        .aggregate(
            Sum("cnt", alias_name="n_vecs"), Sum("nsum", alias_name="nsum")
        )
    )

    def finish(b: pa.Table) -> pa.Table:
        q, r = _unpack(np.asarray(b["hkey"], np.int64))
        m = np.asarray(b["nsum"], np.float64) / np.asarray(
            b["n_vecs"], np.int64
        ).astype(np.float64)
        m = np.sign(m) * np.floor(np.abs(m) * 1e6 + 0.5) / 1e6
        return pa.table(
            {
                "hq": pa.array(q),
                "hr": pa.array(r),
                "n_vecs": b["n_vecs"],
                "mean_norm": pa.array(m),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def _sql_hex_embedding_norm() -> str:
    from ..hex import sql_hex_cte
    from ..synth import SQL_X, SQL_Y

    ex = SQL_X.replace("doc_id", "vec_id")
    ey = SQL_Y.replace("doc_id", "vec_id")
    return (
        f"WITH pts AS (SELECT vec_id, {ex} AS x, {ey} AS y, "
        f"sqrt(list_sum(list_transform(embedding::DOUBLE[], v -> v * v))) "
        f"AS nrm FROM embeddings), {sql_hex_cte(HEX_SIZE)} "
        f"SELECT hq, hr, COUNT(*)::BIGINT AS n_vecs, "
        f"ROUND((SUM(nrm) / COUNT(*)) * 1e6) / 1e6 AS mean_norm "
        f"FROM hexed GROUP BY hq, hr"
    )


#: cluster-labeling lattice: fine hexes + min-density gate so the urban
#: cores separate into distinct components
HEXC_SIZE, HEXC_MIN = 6_250.0, 2


HEXB_MIN, HEXB_MAXH = 4, 64


@query("hex_bfs", sql=lambda: _sql_hex_bfs())
def q_hex_bfs(sf_dir: str):
    """Multi-source BFS hop distance over the occupied-hex lattice:
    distance from every occupied cell to its nearest DENSE core (cells
    with >= HEXB_MIN docs seed at hop 0); cells unreached within
    HEXB_MAXH hops are dropped.  The isochrone / distance-field shape.

    Scale shape: raw rows reduce to the lattice-bounded density
    aggregate; the BFS itself runs VECTORIZED on the driver's sorted
    occupied-key vector (searchsorted frontier expansion, O(E) total) —
    the same documented lattice bound as `hex_clusters`.  The oracle is
    an independent WITH RECURSIVE reachability fixpoint."""
    from ray.data.aggregate import Sum

    import ray.data as rd

    from ..hex import _CYCLE, _pack, _unpack, with_hex_cells

    ds = with_hex_cells(docs_points(sf_dir), size=HEXC_SIZE)

    def partial(b: pa.Table) -> pa.Table:
        key = _pack(np.asarray(b["hq"], np.int64), np.asarray(b["hr"], np.int64))
        u, c = np.unique(key, return_counts=True)
        return pa.table({"hkey": u, "docs": c.astype(np.int64)})

    occ = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("hkey")
        .aggregate(Sum("docs", alias_name="n_docs"))
        .materialize()
    )
    occ_df = occ.to_pandas()  # lattice-bounded (see docstring)
    keys = occ_df["hkey"].to_numpy(np.int64)
    order = np.argsort(keys)
    keys = keys[order]
    n_docs = occ_df["n_docs"].to_numpy(np.int64)[order]
    dist = np.full(len(keys), -1, np.int64)
    frontier = np.flatnonzero(n_docs >= HEXB_MIN)
    dist[frontier] = 0
    q, r = _unpack(keys)
    hop = 0
    while len(frontier) and hop < HEXB_MAXH:
        hop += 1
        nbr_keys = np.concatenate(
            [_pack(q[frontier] + dq, r[frontier] + dr) for dq, dr in _CYCLE]
        )
        pos = np.searchsorted(keys, nbr_keys)
        pos = np.clip(pos, 0, len(keys) - 1)
        hit = keys[pos] == nbr_keys
        cand = np.unique(pos[hit])
        frontier = cand[dist[cand] < 0]
        dist[frontier] = hop
    keep = dist >= 0
    return rd.from_arrow(
        pa.table(
            {
                "hq": pa.array(q[keep]),
                "hr": pa.array(r[keep]),
                "n_docs": pa.array(n_docs[keep]),
                "hops": pa.array(dist[keep]),
            }
        )
    )


def _sql_hex_bfs() -> str:
    from ..hex import _CYCLE, sql_hex_cte
    from ..synth import sql_points_cte

    vals = ", ".join(f"({dq}, {dr})" for dq, dr in _CYCLE)
    return (
        f"WITH RECURSIVE pts AS ({sql_points_cte()}),"
        f" {sql_hex_cte(HEXC_SIZE)}, "
        f"cells AS (SELECT hq, hr, COUNT(*)::BIGINT AS n_docs FROM hexed"
        f" GROUP BY hq, hr), "
        f"offs(dq, dr) AS (VALUES {vals}), "
        f"rec AS ("
        f" SELECT hq, hr, 0 AS hops FROM cells WHERE n_docs >= {HEXB_MIN}"
        f" UNION"
        f" SELECT c.hq, c.hr, r.hops + 1"
        f" FROM rec r CROSS JOIN offs o JOIN cells c"
        f" ON c.hq = r.hq + o.dq AND c.hr = r.hr + o.dr"
        f" WHERE r.hops < {HEXB_MAXH}) "
        f"SELECT c.hq, c.hr, c.n_docs,"
        f" CAST(MIN(r.hops) AS BIGINT) AS hops"
        f" FROM rec r JOIN cells c ON c.hq = r.hq AND c.hr = r.hr"
        f" GROUP BY c.hq, c.hr, c.n_docs"
    )


@query("hex_clusters", sql=lambda: _sql_hex_clusters())
def q_hex_clusters(sf_dir: str):
    """Hotspot cluster labeling: connected components over ADJACENT
    occupied hexes (6-neighbor lattice adjacency), label = min packed
    key in the component — the spatial DBSCAN-core shape.

    Scale shape: raw rows reduce to the lattice-bounded density
    aggregate first; adjacency edges come from a vectorized searchsorted
    against the sorted occupied-key vector (6 probes per hex); the
    component solve reuses `dedup.connected_components` (hybrid local /
    distributed pointer jumping).  Driver ever holds only occupied-CELL
    vectors (O(domain/size²) — the same bound as the polygon layer
    broadcast), never doc rows.  A fine lattice + min-density gate make
    the urban cores separate (8 components at sf0.01)."""
    from ray.data.aggregate import Sum

    import ray.data as rd

    from ..dedup import connected_components
    from ..hex import _NEIGHBORS, _pack, _unpack, with_hex_cells

    ds = with_hex_cells(docs_points(sf_dir), size=HEXC_SIZE)

    def partial(b: pa.Table) -> pa.Table:
        key = _pack(np.asarray(b["hq"], np.int64), np.asarray(b["hr"], np.int64))
        u, c = np.unique(key, return_counts=True)
        return pa.table({"hkey": u, "docs": c.astype(np.int64)})

    occ = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("hkey")
        .aggregate(Sum("docs", alias_name="n_docs"))
        .materialize()
    )
    occ_df = occ.to_pandas()  # lattice-bounded (see docstring)
    occ_df = occ_df[occ_df["n_docs"] >= HEXC_MIN]
    keys = np.sort(occ_df["hkey"].to_numpy(np.int64))
    n_map = occ_df.set_index("hkey")["n_docs"]
    q, r = _unpack(keys)
    pairs_a, pairs_b = [], []
    for dq, dr in _NEIGHBORS:
        nk = _pack(q + dq, r + dr)
        pos = np.searchsorted(keys, nk)
        pos = np.minimum(pos, len(keys) - 1)
        hit = keys[pos] == nk
        a, b = keys[hit], nk[hit]
        pairs_a.append(np.minimum(a, b))
        pairs_b.append(np.maximum(a, b))
    ea = np.concatenate(pairs_a) if pairs_a else np.array([], np.int64)
    eb = np.concatenate(pairs_b) if pairs_b else np.array([], np.int64)
    if len(ea):
        order = np.lexsort((eb, ea))
        ea, eb = ea[order], eb[order]
        first = np.concatenate([[True], (ea[1:] != ea[:-1]) | (eb[1:] != eb[:-1])])
        ea, eb = ea[first], eb[first]
    label = dict(zip(keys.tolist(), keys.tolist()))
    if len(ea):
        cc = connected_components(
            rd.from_arrow(pa.table({"id_a": ea, "id_b": eb})),
            src="id_a",
            dst="id_b",
        ).to_pandas()
        label.update(zip(cc["node"].tolist(), cc["label"].tolist()))
    cl = np.array([label[int(k)] for k in keys], dtype=np.int64)
    cq, cr = _unpack(cl)
    out = pa.table(
        {
            "hq": pa.array(q),
            "hr": pa.array(r),
            "n_docs": pa.array(n_map.loc[keys].to_numpy(np.int64)),
            "cq": pa.array(cq),
            "cr": pa.array(cr),
        }
    )
    return rd.from_arrow(out)


def _sql_hex_clusters() -> str:
    from ..hex import sql_hex_cte
    from ..synth import sql_points_cte

    return (
        f"WITH RECURSIVE pts AS ({sql_points_cte()}), {sql_hex_cte(HEXC_SIZE)}, "
        f"d AS (SELECT hq, hr, COUNT(*)::BIGINT AS n_docs FROM hexed "
        f"GROUP BY hq, hr HAVING COUNT(*) >= {HEXC_MIN}), "
        f"k AS (SELECT hq, hr, n_docs, ((hq << 32) | (hr & 4294967295)) AS key "
        f"FROM d), "
        f"off(dq, dr) AS (VALUES (1,0),(1,-1),(0,-1),(-1,0),(-1,1),(0,1)), "
        f"e AS (SELECT a.key AS src, b.key AS dst FROM k a "
        f"CROSS JOIN off o JOIN k b "
        f"ON b.hq = a.hq + o.dq AND b.hr = a.hr + o.dr), "
        f"reach(key, lab) AS ("
        f"SELECT key, key FROM k UNION "
        f"SELECT e.src, r.lab FROM e JOIN reach r ON e.dst = r.key), "
        f"lab AS (SELECT key, MIN(lab) AS cl FROM reach GROUP BY key) "
        # low-32 sign-fix instead of (cl << 32) >> 32: DuckDB raises on
        # signed left-shift overflow (numpy wraps)
        f"SELECT k.hq, k.hr, k.n_docs, (l.cl >> 32) AS cq, "
        f"CASE WHEN (l.cl & 4294967295) >= 2147483648 "
        f"THEN (l.cl & 4294967295) - 4294967296 "
        f"ELSE (l.cl & 4294967295) END AS cr "
        f"FROM k JOIN lab l ON k.key = l.key"
    )


#: hex-cover enumeration window (covers the synth domain with margin;
#: shared by the engine and the oracle so both scan the same lattice)
HEXCOV_Q = (-2, 16)
HEXCOV_R = (-16, 32)


@query("poly_hex_cover", sql=lambda: _sql_poly_hex_cover())
def q_poly_hex_cover(sf_dir: str):
    """Polygon -> hex-cover rasterization (center-containment law): the
    hexes whose centers fall inside each polygon's disjoint rect
    decomposition.  This is the INDEX-BUILD primitive for joining
    polygon layers in hex space (polygon side becomes (poly_id, hkey)
    rows once, points join by key).  The layer is the broadcast small
    side; enumeration is a vectorized lattice scan per rect."""
    import ray.data as rd

    from ..hex import hex_center
    from ..synth import polygon_layer

    qs = np.arange(HEXCOV_Q[0], HEXCOV_Q[1] + 1, dtype=np.int64)
    rs = np.arange(HEXCOV_R[0], HEXCOV_R[1] + 1, dtype=np.int64)
    gq, gr = np.meshgrid(qs, rs, indexing="ij")
    gq, gr = gq.ravel(), gr.ravel()
    cx, cy = hex_center(gq, gr, HEX_SIZE)
    pid_out, hq_out, hr_out = [], [], []
    for poly in polygon_layer():
        inside = np.zeros(len(gq), dtype=bool)
        for rxmin, rymin, rxmax, rymax in poly["rects"]:
            inside |= (
                (cx >= rxmin) & (cx < rxmax) & (cy >= rymin) & (cy < rymax)
            )
        pid_out.append(np.full(int(inside.sum()), poly["poly_id"], np.int64))
        hq_out.append(gq[inside])
        hr_out.append(gr[inside])
    return rd.from_arrow(
        pa.table(
            {
                "poly_id": pa.array(np.concatenate(pid_out)),
                "hq": pa.array(np.concatenate(hq_out)),
                "hr": pa.array(np.concatenate(hr_out)),
            }
        )
    )


def _sql_poly_hex_cover() -> str:
    from ..synth import sql_polygon_rects_cte

    s = repr(float(HEX_SIZE))
    cx = f"({s} * ((3.0/2.0) * gq.i))"
    cy = f"({s} * ((sqrt(3.0)/2.0) * gq.i + sqrt(3.0) * gr.i))"
    return (
        f"WITH poly_rects AS ({sql_polygon_rects_cte()}), "
        f"gq AS (SELECT UNNEST(generate_series({HEXCOV_Q[0]}, {HEXCOV_Q[1]})) AS i), "
        f"gr AS (SELECT UNNEST(generate_series({HEXCOV_R[0]}, {HEXCOV_R[1]})) AS i) "
        f"SELECT DISTINCT r.poly_id, gq.i AS hq, gr.i AS hr "
        f"FROM poly_rects r, gq, gr "
        f"WHERE {cx} >= r.rxmin AND {cx} < r.rxmax "
        f"AND {cy} >= r.rymin AND {cy} < r.rymax"
    )


@query("spatial_join_hexidx", sql=lambda: _sql_spatial_join_hexidx(), bench=True)
def q_spatial_join_hexidx(sf_dir: str):
    """Point-in-polygon join THROUGH the hex-cover index (alternative
    strategy to the broadcast PIP kernel): conservative hex cover built
    once from the layer, two searchsorted probes per point, exact ring
    containment only for cover candidates.  Same output law as the plain
    rect join."""
    from ..spatial import join_points_via_hex_cover
    from ..synth import polygon_layer

    ds = join_points_via_hex_cover(
        docs_points(sf_dir),
        polygon_layer(),
        hex_size=HEX_SIZE,
        q_range=HEXCOV_Q,
        r_range=HEXCOV_R,
    )
    return ds.select_columns(["doc_id", "poly_id"])


def _sql_spatial_join_hexidx() -> str:
    from ..synth import sql_points_cte, sql_polygon_rects_cte

    return (
        f"WITH points AS ({sql_points_cte()}), "
        f"poly_rects AS ({sql_polygon_rects_cte()}) "
        f"SELECT p.doc_id, r.poly_id FROM points p JOIN poly_rects r "
        f"ON p.x >= r.rxmin AND p.x < r.rxmax "
        f"AND p.y >= r.rymin AND p.y < r.rymax"
    )


@query("poly_lang_entropy", sql=lambda: _sql_poly_lang_entropy())
def q_poly_lang_entropy(sf_dir: str):
    """Language diversity per polygon: Shannon entropy of the language
    mix of contained docs.  Raw rows reduce to (poly, lang) count
    partials before any shuffle; the final per-poly entropy runs on the
    polygon-bounded aggregate (8 groups — the documented low-cardinality
    groupby exemption)."""
    from ray.data.aggregate import Sum

    from ..spatial import join_points_to_polygons
    from ..synth import polygon_layer

    ds = join_points_to_polygons(
        docs_points(sf_dir, extra_cols=("lang",)),
        polygon_layer(),
        how="inner",
        attr_cols=(),
    )

    def partial(b: pa.Table) -> pa.Table:
        pid = np.asarray(b["poly_id"], np.int64)
        enc = pc.dictionary_encode(b["lang"].combine_chunks())
        code = np.asarray(enc.indices, np.int64)
        order = np.lexsort((code, pid))
        ps, cs = pid[order], code[order]
        bound = np.concatenate([[True], (ps[1:] != ps[:-1]) | (cs[1:] != cs[:-1])])
        s = np.flatnonzero(bound)
        n = np.diff(np.append(s, len(ps)))
        return pa.table(
            {
                "poly_id": pa.array(ps[s]),
                "lang": enc.dictionary.take(pa.array(cs[s])),
                "n": pa.array(n.astype(np.int64)),
            }
        )

    mix = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["poly_id", "lang"])
        .aggregate(Sum("n", alias_name="n"))
    )

    import pandas as pd

    def entropy(g: pd.DataFrame) -> pd.DataFrame:
        n = g["n"].to_numpy(np.float64)
        total = n.sum()
        p = n / total
        e = -np.sum(p * np.log(p))
        e = np.sign(e) * np.floor(np.abs(e) * 1e6 + 0.5) / 1e6
        return pd.DataFrame(
            {
                "poly_id": [int(g["poly_id"].iloc[0])],
                "n_docs": [int(total)],
                "lang_entropy": [float(e)],
            }
        )

    return mix.groupby("poly_id").map_groups(entropy, batch_format="pandas")


def _sql_poly_lang_entropy() -> str:
    from ..synth import SQL_X, SQL_Y, sql_polygon_rects_cte

    return (
        f"WITH points AS (SELECT doc_id, lang, {SQL_X} AS x, {SQL_Y} AS y "
        f"FROM documents), poly_rects AS ({sql_polygon_rects_cte()}), "
        f"j AS (SELECT r.poly_id, p.lang FROM points p JOIN poly_rects r "
        f"ON p.x >= r.rxmin AND p.x < r.rxmax "
        f"AND p.y >= r.rymin AND p.y < r.rymax), "
        f"m AS (SELECT poly_id, lang, COUNT(*)::DOUBLE AS n FROM j "
        f"GROUP BY poly_id, lang), "
        f"t AS (SELECT poly_id, SUM(n) AS total FROM m GROUP BY poly_id) "
        f"SELECT m.poly_id, CAST(t.total AS BIGINT) AS n_docs, "
        f"ROUND((-SUM((m.n / t.total) * ln(m.n / t.total))) * 1e6) / 1e6 "
        f"AS lang_entropy FROM m JOIN t ON m.poly_id = t.poly_id "
        f"GROUP BY m.poly_id, t.total"
    )


@query("media_hex_bytes", sql=lambda: _sql_media_hex_bytes(), bench=True)
def q_media_hex_bytes(sf_dir: str):
    """Multimodal × geo: media spans exploded and pseudo-decoded on the
    ACTOR-POOL stage (`multimodal.media_pipeline(concurrency=2)` — the
    binary payload is synthesized and measured, not assumed), then byte
    totals roll up per (hex, kind) via composite partials.  The oracle
    recomputes the byte-length law closed-form per span."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..hex import _pack, _unpack, hex_axial
    from ..multimodal import media_pipeline
    from ..synth import build_spans_array

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def add_spans(b: pa.Table) -> pa.Table:
        return b.append_column(
            "spans", build_spans_array(np.asarray(b["doc_id"]))
        )

    dec = media_pipeline(
        ds.map_batches(add_spans, batch_format="pyarrow"),
        concurrency=2,
        batch_size=512,
    )

    def partial(b: pa.Table) -> pa.Table:
        did = np.asarray(b["doc_id"], np.int64)
        x, y = derive_xy(did)
        hkey = _pack(*hex_axial(x, y, HEX_SIZE))
        enc = pc.dictionary_encode(b["kind"].combine_chunks())
        code = np.asarray(enc.indices, np.int64)
        nb = np.asarray(b["n_bytes"], np.int64)
        order = np.lexsort((code, hkey))
        hs, cs, nbs = hkey[order], code[order], nb[order]
        bound = np.concatenate([[True], (hs[1:] != hs[:-1]) | (cs[1:] != cs[:-1])])
        s = np.flatnonzero(bound)
        seg = np.diff(np.append(s, len(hs)))
        inv = np.repeat(np.arange(len(s)), seg)
        return pa.table(
            {
                "hkey": pa.array(hs[s]),
                "kind": enc.dictionary.take(pa.array(cs[s])),
                "n_media": pa.array(seg.astype(np.int64)),
                "total_bytes": pa.array(
                    np.bincount(inv, weights=nbs, minlength=len(s)).astype(
                        np.int64
                    )
                ),
            }
        )

    agg = (
        dec.map_batches(partial, batch_format="pyarrow")
        .groupby(["hkey", "kind"])
        .aggregate(
            Sum("n_media", alias_name="n_media"),
            Sum("total_bytes", alias_name="total_bytes"),
        )
    )

    def finish(b: pa.Table) -> pa.Table:
        q, r = _unpack(np.asarray(b["hkey"], np.int64))
        return pa.table(
            {
                "hq": pa.array(q),
                "hr": pa.array(r),
                "kind": b["kind"],
                "n_media": b["n_media"],
                "total_bytes": b["total_bytes"],
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def _sql_media_hex_bytes() -> str:
    from ..hex import sql_hex_cte
    from ..synth import sql_points_cte

    kind_case = (
        "CASE ((sp.doc_id + sp.si) % 3) WHEN 1 THEN 'image' ELSE 'audio' END"
    )
    return (
        f"WITH pts AS ({sql_points_cte()}), {sql_hex_cte(HEX_SIZE)}, "
        f"sp AS (SELECT d.doc_id, i.i AS si FROM documents d "
        f"JOIN (SELECT UNNEST(generate_series(0, 7)) AS i) i "
        f"ON i.i < 1 + d.doc_id % 8 WHERE (d.doc_id + i.i) % 3 <> 0) "
        f"SELECT h.hq, h.hr, {kind_case} AS kind, "
        f"COUNT(*)::BIGINT AS n_media, "
        f"SUM(64 + (sp.doc_id * 7 + sp.si * 13) % 192)::BIGINT AS total_bytes "
        f"FROM hexed h JOIN sp ON h.doc_id = sp.doc_id "
        f"GROUP BY h.hq, h.hr, kind"
    )


@query("hex_focal2", sql=lambda: _sql_hex_focal2())
def q_hex_focal2(sf_dir: str):
    """K-ring-2 focal density (19-cell neighbourhood): the same scatter
    + marker-row plan as `hex_focal`, parametrized by ring size."""
    from ..hex import hex_focal, with_hex_cells

    ds = with_hex_cells(docs_points(sf_dir), size=HEX_SIZE)
    return hex_focal(ds, size=HEX_SIZE, k=2)


def _sql_hex_focal2() -> str:
    from ..hex import kring_offsets, sql_hex_cte
    from ..synth import sql_points_cte

    vals = ",".join(f"({dq},{dr})" for dq, dr in kring_offsets(2))
    return (
        f"WITH pts AS ({sql_points_cte()}), {sql_hex_cte(HEX_SIZE)}, "
        f"d AS (SELECT hq, hr, COUNT(*)::BIGINT AS n FROM hexed GROUP BY hq, hr), "
        f"off(dq, dr) AS (VALUES {vals}), "
        f"sc AS (SELECT d.hq + o.dq AS tq, d.hr + o.dr AS tr, d.n "
        f"FROM d CROSS JOIN off o) "
        f"SELECT d2.hq, d2.hr, d2.n AS n_docs, SUM(sc.n)::BIGINT AS focal_docs "
        f"FROM d d2 JOIN sc ON sc.tq = d2.hq AND sc.tr = d2.hr "
        f"GROUP BY d2.hq, d2.hr, d2.n"
    )


@query("nearest_hub", sql=lambda: _sql_nearest_hub(), bench=True, quadratic=True)
def q_nearest_hub(sf_dir: str):
    """Broadcast-small-side geodesic nearest-neighbour: the 8-row hub
    table rides the batch closure, every batch computes a vectorized
    n×8 haversine matrix + argmin — zero shuffle (geodesic.nearest_hub).
    Ties break to the lowest hub_id on both sides."""
    import ray.data as rd

    from ..geodesic import nearest_hub

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def add_lonlat(b: pa.Table) -> pa.Table:
        lon, lat = derive_lonlat(np.asarray(b["doc_id"]))
        return b.append_column("lon", pa.array(lon)).append_column(
            "lat", pa.array(lat)
        )

    ds = nearest_hub(ds.map_batches(add_lonlat, batch_format="pyarrow"))
    return ds.select_columns(["doc_id", "hub_id", "hub_km"])


#: hex pyramid sizes (fine -> coarse), level index = position
HEX_PYRAMID_SIZES = (12_500.0, 25_000.0, 50_000.0)


@query("hex_pyramid", sql=lambda: _sql_hex_pyramid())
def q_hex_pyramid(sf_dir: str):
    """Multi-resolution hex density pyramid in ONE scan: every batch
    assigns all three lattice levels and emits packed-key partials per
    level; a single (level, hkey) hash aggregate finishes.  The tile-
    pyramid pattern — raw rows are read once for the whole pyramid."""
    from ray.data.aggregate import Sum

    from ..hex import _pack, _unpack, hex_axial

    ds = docs_points(sf_dir)

    def partial(b: pa.Table) -> pa.Table:
        x = np.asarray(b["x"], np.float64)
        y = np.asarray(b["y"], np.float64)
        lv, keys, ns = [], [], []
        for lvl, s in enumerate(HEX_PYRAMID_SIZES):
            q, r = hex_axial(x, y, s)
            u, c = np.unique(_pack(q, r), return_counts=True)
            lv.append(np.full(len(u), lvl, np.int64))
            keys.append(u)
            ns.append(c.astype(np.int64))
        return pa.table(
            {
                "level": pa.array(np.concatenate(lv)),
                "hkey": pa.array(np.concatenate(keys)),
                "docs": pa.array(np.concatenate(ns)),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["level", "hkey"])
        .aggregate(Sum("docs", alias_name="n_docs"))
    )

    def finish(b: pa.Table) -> pa.Table:
        q, r = _unpack(np.asarray(b["hkey"], np.int64))
        return pa.table(
            {
                "level": b["level"],
                "hq": pa.array(q),
                "hr": pa.array(r),
                "n_docs": b["n_docs"],
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def _sql_hex_pyramid() -> str:
    from ..hex import sql_hex_cte
    from ..synth import sql_points_cte

    ctes = ", ".join(
        sql_hex_cte(s, prefix=f"l{i}_")
        for i, s in enumerate(HEX_PYRAMID_SIZES)
    )
    selects = " UNION ALL ".join(
        f"SELECT {i} AS level, hq, hr, COUNT(*)::BIGINT AS n_docs "
        f"FROM l{i}_hexed GROUP BY hq, hr"
        for i in range(len(HEX_PYRAMID_SIZES))
    )
    return f"WITH pts AS ({sql_points_cte()}), {ctes} {selects}"


@query("hex_top_lang", sql=lambda: _sql_hex_top_lang())
def q_hex_top_lang(sf_dir: str):
    """Dominant language per hex: per-batch (hkey, lang) count partials
    (lexsort segment scan — raw rows never shuffle) -> one composite-key
    hash aggregate -> distributed arg-max via the `grouped_latest`
    combiner.  Ties: highest count, then LOWEST lang (the SQL
    `ORDER BY n DESC, lang ASC` law, encoded as a negated big-endian
    packed lang int so max-of-order-tuple picks it)."""
    from ray.data.aggregate import Sum

    from ..hex import _pack, _unpack, with_hex_cells
    from ..stats import grouped_latest

    ds = with_hex_cells(docs_points(sf_dir, extra_cols=("lang",)), size=HEX_SIZE)

    def partial(b: pa.Table) -> pa.Table:
        hkey = _pack(np.asarray(b["hq"], np.int64), np.asarray(b["hr"], np.int64))
        lang = np.asarray(b["lang"]).astype(object)
        enc = pc.dictionary_encode(pa.array(lang))
        code = np.asarray(enc.indices, np.int64)
        order = np.lexsort((code, hkey))
        hs, cs = hkey[order], code[order]
        bound = np.concatenate(
            [[True], (hs[1:] != hs[:-1]) | (cs[1:] != cs[:-1])]
        )
        starts = np.flatnonzero(bound)
        n = np.diff(np.append(starts, len(hs)))
        return pa.table(
            {
                "hkey": pa.array(hs[starts]),
                "lang": pa.array(enc.dictionary.take(pa.array(cs[starts]))),
                "n": pa.array(n.astype(np.int64)),
            }
        )

    mix = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["hkey", "lang"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def encode_order(b: pa.Table) -> pa.Table:
        lang = np.asarray(b["lang"]).astype("S8")
        packed = lang.view(">u8").astype(np.int64)  # ASCII -> < 2**63
        return pa.table(
            {
                "hkey": b["hkey"],
                "lang": b["lang"],
                "n": b["n"],
                "neg_lang": pa.array(-packed),
            }
        )

    top = grouped_latest(
        mix.map_batches(encode_order, batch_format="pyarrow"),
        key="hkey",
        order_cols=("n", "neg_lang"),
        carry_cols=("lang",),
    )

    def finish(b: pa.Table) -> pa.Table:
        q, r = _unpack(np.asarray(b["hkey"], np.int64))
        return pa.table(
            {
                "hq": pa.array(q),
                "hr": pa.array(r),
                "lang": b["lang"],
                "n": b["n"],
            }
        )

    return top.map_batches(finish, batch_format="pyarrow")


def _sql_hex_top_lang() -> str:
    from ..hex import sql_hex_cte
    from ..synth import SQL_X, SQL_Y

    return (
        f"WITH pts AS (SELECT doc_id, lang, {SQL_X} AS x, {SQL_Y} AS y "
        f"FROM documents), {sql_hex_cte(HEX_SIZE)}, "
        f"m AS (SELECT hq, hr, lang, COUNT(*)::BIGINT AS n FROM hexed "
        f"GROUP BY hq, hr, lang) "
        f"SELECT hq, hr, lang, n FROM m QUALIFY ROW_NUMBER() OVER "
        f"(PARTITION BY hq, hr ORDER BY n DESC, lang ASC) = 1"
    )


@query("hex_boundaries", sql=lambda: _sql_hex_boundaries())
def q_hex_boundaries(sf_dir: str):
    """Hex geometry export: the 6 flat-top vertices of every OCCUPIED
    hex (6 rows per hex: hq, hr, v, vx, vy), derived from the tiny
    density aggregate — raw rows never shuffle, the vertex fan-out is
    6x the hex count, not the doc count."""
    from ray.data.aggregate import Sum

    from ..hex import _pack, _unpack, with_hex_cells

    ds = with_hex_cells(docs_points(sf_dir), size=HEX_SIZE)

    def partial(b: pa.Table) -> pa.Table:
        key = _pack(np.asarray(b["hq"], np.int64), np.asarray(b["hr"], np.int64))
        u = np.unique(key)
        return pa.table(
            {"hkey": pa.array(u), "one": pa.array(np.ones(len(u), np.int64))}
        )

    occ = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("hkey")
        .aggregate(Sum("one", alias_name="one"))
    )

    ang = np.arange(6, dtype=np.float64) * (np.pi / 3.0)
    cosv, sinv = np.cos(ang), np.sin(ang)
    s = HEX_SIZE

    def vertices(b: pa.Table) -> pa.Table:
        q, r = _unpack(np.asarray(b["hkey"], np.int64))
        qf = q.astype(np.float64)
        rf = r.astype(np.float64)
        cx = s * ((3.0 / 2.0) * qf)
        cy = s * ((np.sqrt(3.0) / 2.0) * qf + np.sqrt(3.0) * rf)
        vx = cx[:, None] + s * cosv[None, :]
        vy = cy[:, None] + s * sinv[None, :]
        rnd = lambda a: np.sign(a) * np.floor(np.abs(a) * 1e6 + 0.5) / 1e6
        n = len(q)
        return pa.table(
            {
                "hq": pa.array(np.repeat(q, 6)),
                "hr": pa.array(np.repeat(r, 6)),
                "v": pa.array(np.tile(np.arange(6, dtype=np.int64), n)),
                "vx": pa.array(rnd(vx).ravel()),
                "vy": pa.array(rnd(vy).ravel()),
            }
        )

    return occ.map_batches(vertices, batch_format="pyarrow")


def _sql_hex_boundaries() -> str:
    from ..hex import sql_hex_cte
    from ..synth import sql_points_cte

    s = repr(float(HEX_SIZE))
    cx = f"({s} * ((3.0/2.0) * hq))"
    cy = f"({s} * ((sqrt(3.0)/2.0) * hq + sqrt(3.0) * hr))"
    return (
        f"WITH pts AS ({sql_points_cte()}), {sql_hex_cte(HEX_SIZE)}, "
        f"d AS (SELECT DISTINCT hq, hr FROM hexed), "
        f"k AS (SELECT UNNEST(generate_series(0, 5)) AS v) "
        f"SELECT hq, hr, v, "
        f"ROUND(({cx} + {s} * cos(v * (pi()/3.0))) * 1e6) / 1e6 AS vx, "
        f"ROUND(({cy} + {s} * sin(v * (pi()/3.0))) * 1e6) / 1e6 AS vy "
        f"FROM d CROSS JOIN k"
    )


#: geodesic catchment radius (km)
CATCHMENT_KM = 300.0


@query("hub_catchment", sql=lambda: _sql_hub_catchment())
def q_hub_catchment(sf_dir: str):
    """Distance-band aggregate per hub: docs within 300 km by haversine,
    counted with per-batch (hub, count, dist-sum) partials over the
    broadcast hub matrix — the geodesic range-join shape, zero shuffle
    of raw rows."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..geodesic import HUBS, haversine_km

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    hub_id = np.array([h[0] for h in HUBS], dtype=np.int64)
    hub_lon = np.array([h[1] for h in HUBS], dtype=np.float64)
    hub_lat = np.array([h[2] for h in HUBS], dtype=np.float64)

    def partial(b: pa.Table) -> pa.Table:
        lon, lat = derive_lonlat(np.asarray(b["doc_id"]))
        d = haversine_km(
            lon[:, None], lat[:, None], hub_lon[None, :], hub_lat[None, :]
        )
        inside = d <= CATCHMENT_KM
        cnt = inside.sum(axis=0).astype(np.int64)
        dsum = np.where(inside, d, 0.0).sum(axis=0)
        keep = cnt > 0
        return pa.table(
            {
                "hub_id": pa.array(hub_id[keep]),
                "cnt": pa.array(cnt[keep]),
                "dsum": pa.array(dsum[keep]),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("hub_id")
        .aggregate(
            Sum("cnt", alias_name="n_docs"), Sum("dsum", alias_name="dsum")
        )
    )

    def finish(b: pa.Table) -> pa.Table:
        n = np.asarray(b["n_docs"], np.int64).astype(np.float64)
        m = np.asarray(b["dsum"], np.float64) / n
        m = np.sign(m) * np.floor(np.abs(m) * 1e6 + 0.5) / 1e6
        return pa.table(
            {"hub_id": b["hub_id"], "n_docs": b["n_docs"], "mean_km": pa.array(m)}
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def _sql_hub_catchment() -> str:
    from ..geodesic import sql_haversine_expr, sql_hubs_cte
    from ..synth import sql_lonlat_cte

    hav = sql_haversine_expr("lon", "lat", "hlon", "hlat")
    return (
        f"WITH ll AS ({sql_lonlat_cte()}), {sql_hubs_cte()}, "
        f"d AS (SELECT hub_id, {hav} AS dist FROM ll CROSS JOIN hubs) "
        f"SELECT hub_id, COUNT(*)::BIGINT AS n_docs, "
        f"ROUND((SUM(dist) / COUNT(*)) * 1e6) / 1e6 AS mean_km "
        f"FROM d WHERE dist <= {CATCHMENT_KM!r} GROUP BY hub_id"
    )


@query("hex_zonal", sql=lambda: _sql_hex_zonal())
def q_hex_zonal(sf_dir: str):
    """Raster -> hex zonal statistics: synthetic band cells hex-indexed
    on their coordinates, per-hex (n_cells, elev_sum, elev_mean) via
    packed-key partials.  Band values are integer-valued doubles, so the
    sums are EXACT and addition-order-free on both sides."""
    from ray.data.aggregate import Sum

    from ..hex import _pack, _unpack, with_hex_cells
    from ..raster import SyntheticRaster, tiling_raster

    cells = tiling_raster(
        SyntheticRaster(**_RASTER_KW), tile_size_cell=64
    ).select_columns(["x", "y", "elev"])

    def valid(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_valid(b["elev"]))

    ds = with_hex_cells(
        cells.map_batches(valid, batch_format="pyarrow"), size=HEX_SIZE
    )

    def partial(b: pa.Table) -> pa.Table:
        key = _pack(np.asarray(b["hq"], np.int64), np.asarray(b["hr"], np.int64))
        u, inv = np.unique(key, return_inverse=True)
        elev = np.asarray(b["elev"], np.float64)
        return pa.table(
            {
                "hkey": pa.array(u),
                "cells": pa.array(np.bincount(inv, minlength=len(u)).astype(np.int64)),
                "esum": pa.array(np.bincount(inv, weights=elev, minlength=len(u))),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("hkey")
        .aggregate(
            Sum("cells", alias_name="n_cells"), Sum("esum", alias_name="elev_sum")
        )
    )

    def finish(b: pa.Table) -> pa.Table:
        q, r = _unpack(np.asarray(b["hkey"], np.int64))
        s = np.asarray(b["elev_sum"], np.float64)
        n = np.asarray(b["n_cells"], np.int64).astype(np.float64)
        m = s / n
        m = np.sign(m) * np.floor(np.abs(m) * 1e6 + 0.5) / 1e6
        return pa.table(
            {
                "hq": pa.array(q),
                "hr": pa.array(r),
                "n_cells": b["n_cells"],
                "elev_sum": b["elev_sum"],
                "elev_mean": pa.array(m),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def _sql_hex_zonal() -> str:
    from ..hex import sql_hex_cte
    from ..raster import SyntheticRaster, sql_raster_cells

    rc = sql_raster_cells(SyntheticRaster(**_RASTER_KW), tile_size_cell=64)
    return (
        f"WITH rc AS ({rc}), "
        f"pts AS (SELECT x, y, elev FROM rc WHERE elev IS NOT NULL), "
        f"{sql_hex_cte(HEX_SIZE)} "
        f"SELECT hq, hr, COUNT(*)::BIGINT AS n_cells, "
        f"SUM(elev) AS elev_sum, "
        f"ROUND((SUM(elev) / COUNT(*)) * 1e6) / 1e6 AS elev_mean "
        f"FROM hexed GROUP BY hq, hr"
    )


#: TPC-H Q5 constants (shared engine/oracle)
Q5_REGION = "EUROPE"
Q5_D0, Q5_D1 = "1996-01-01", "1997-01-01"


@query("q5_revenue", sql=lambda: _sql_q5())
def q_q5_revenue(sf_dir: str):
    """TPC-H Q5-style local-supplier volume: customers and suppliers of
    the same (European) nation, order-date window, revenue per nation.

    Scale shape: region->nation resolves to a broadcast nation set;
    customer (projected to id+nation, euro-filtered) joins orders
    (date-pushed) in a partitioned hash join; lineitem (projected to
    orderkey+suppkey+rev) joins that in a second partitioned join; the
    supplier nation rides a broadcast dict and the same-nation predicate
    is a vectorized filter — the classic big×big chain with every
    dimension broadcast and every fact column pruned at the read.
    Revenue sums are rounded to 2dp on both sides."""
    import pyarrow.parquet as pq
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..cluster import default_num_partitions

    nat = pq.read_table(f"{sf_dir}/nation.parquet").to_pydict()
    reg = pq.read_table(f"{sf_dir}/region.parquet").to_pydict()
    euro_reg = {
        k for k, n in zip(reg["r_regionkey"], reg["r_name"]) if n == Q5_REGION
    }
    euro = {
        k: n
        for k, n, rk in zip(
            nat["n_nationkey"], nat["n_name"], nat["n_regionkey"]
        )
        if rk in euro_reg
    }
    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    skeys = np.asarray(supp["s_suppkey"], np.int64)
    snats = np.asarray(supp["s_nationkey"], np.int64)
    so = np.argsort(skeys, kind="stable")
    s_map_ref = Broadcast((skeys[so], snats[so]))
    euro_keys = frozenset(euro)

    d0 = np.datetime64(Q5_D0)
    d1 = np.datetime64(Q5_D1)
    nparts = default_num_partitions()

    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).map_batches(
        lambda b: b.filter(
            pa.array(np.isin(np.asarray(b["c_nationkey"], np.int64), list(euro_keys)))
        ),
        batch_format="pyarrow",
    )
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(
        lambda b: b.select(["o_orderkey", "o_custkey"]).filter(
            pa.array(
                (np.asarray(b["o_orderdate"]).astype("datetime64[D]") >= d0)
                & (np.asarray(b["o_orderdate"]).astype("datetime64[D]") < d1)
            )
        ),
        batch_format="pyarrow",
    )
    ord_cust = orders.repartition(nparts).join(
        cust.repartition(nparts),
        "inner",
        num_partitions=nparts,
        on=("o_custkey",),
        right_on=("c_custkey",),
    )
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(
        lambda b: pa.table(
            {
                "l_orderkey": b["l_orderkey"],
                "l_suppkey": b["l_suppkey"],
                "rev": pc.multiply(
                    b["l_extendedprice"],
                    pc.subtract(pa.scalar(1.0), b["l_discount"]),
                ),
            }
        ),
        batch_format="pyarrow",
    )
    j = li.repartition(nparts).join(
        ord_cust.select_columns(["o_orderkey", "c_nationkey"]).repartition(
            nparts
        ),
        "inner",
        num_partitions=nparts,
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )

    def same_nation(b: pa.Table) -> pa.Table:
        sk_sorted, sn_sorted = s_map_ref.get()
        sk = np.asarray(b["l_suppkey"], np.int64)
        pos = np.searchsorted(sk_sorted, sk)
        pos = np.minimum(pos, len(sk_sorted) - 1)
        hit = sk_sorted[pos] == sk
        s_nat = np.where(hit, sn_sorted[pos], -1)
        keep = s_nat == np.asarray(b["c_nationkey"], np.int64)
        return pa.table(
            {
                "c_nationkey": pa.array(
                    np.asarray(b["c_nationkey"], np.int64)[keep]
                ),
                "rev": pa.array(np.asarray(b["rev"], np.float64)[keep]),
            }
        )

    agg = (
        j.map_batches(same_nation, batch_format="pyarrow")
        .groupby("c_nationkey")
        .aggregate(Sum("rev", alias_name="revenue"))
    )

    def finish(b: pa.Table) -> pa.Table:
        nk = np.asarray(b["c_nationkey"], np.int64)
        names = pa.array([euro[int(v)] for v in nk], pa.string())
        out = pa.table({"n_name": names, "revenue": b["revenue"]})
        return round_half_away(out, ["revenue"], 2)

    return (
        agg.map_batches(finish, batch_format="pyarrow")
        .sort(["revenue", "n_name"], descending=[True, False])
    )


def _sql_q5() -> str:
    return f"""
SELECT n_name,
       ROUND(SUM(l_extendedprice * (1.0 - l_discount)) * 1e2) / 1e2 AS revenue
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = '{Q5_REGION}'
  AND o_orderdate >= TIMESTAMP '{Q5_D0}' AND o_orderdate < TIMESTAMP '{Q5_D1}'
GROUP BY n_name
ORDER BY revenue DESC, n_name
"""


@query("unpivot_bands", sql=lambda: _sql_unpivot_bands())
def q_unpivot_bands(sf_dir: str):
    """UNPIVOT (wide -> long) over the raster band columns: one row per
    (cell, band) with non-null value — the melt primitive, vectorized as
    per-batch column concatenation with null-mask drops (no per-row
    Python, no shuffle)."""
    import ray.data as rd

    from ..raster import SyntheticRaster, tiling_raster

    cells = tiling_raster(
        SyntheticRaster(**_RASTER_KW), tile_size_cell=64
    ).select_columns(["x", "y", "pop", "elev"])

    def melt(b: pa.Table) -> pa.Table:
        xs, ys, bands, vals = [], [], [], []
        x = np.asarray(b["x"], np.float64)
        y = np.asarray(b["y"], np.float64)
        for band in ("pop", "elev"):
            col = b[band]
            keep = np.asarray(pc.is_valid(col))
            xs.append(x[keep])
            ys.append(y[keep])
            bands.append(np.full(int(keep.sum()), band, object))
            vals.append(np.asarray(col, np.float64)[keep])
        return pa.table(
            {
                "x": pa.array(np.concatenate(xs)),
                "y": pa.array(np.concatenate(ys)),
                "band": pa.array(np.concatenate(bands).astype(str)),
                "value": pa.array(np.concatenate(vals)),
            }
        )

    return cells.map_batches(melt, batch_format="pyarrow")


def _sql_unpivot_bands() -> str:
    from ..raster import SyntheticRaster, sql_raster_cells

    rc = sql_raster_cells(SyntheticRaster(**_RASTER_KW), tile_size_cell=64)
    return (
        f"WITH rc AS ({rc}) "
        f"SELECT x, y, 'pop' AS band, pop AS value FROM rc "
        f"WHERE pop IS NOT NULL "
        f"UNION ALL "
        f"SELECT x, y, 'elev' AS band, elev AS value FROM rc "
        f"WHERE elev IS NOT NULL"
    )


@query("morans_i", sql=lambda: _sql_morans_i())
def q_morans_i(sf_dir: str):
    """Global Moran's I of the hex density field (binary 6-neighbour
    weights): scatter + marker-row aggregates, one-row result."""
    from ..hex import morans_i, with_hex_cells

    ds = with_hex_cells(docs_points(sf_dir), size=HEX_SIZE)
    return morans_i(ds, size=HEX_SIZE)


def _sql_morans_i() -> str:
    from ..hex import sql_hex_cte
    from ..synth import sql_points_cte

    return (
        f"WITH pts AS ({sql_points_cte()}), {sql_hex_cte(HEX_SIZE)}, "
        f"d AS (SELECT hq, hr, COUNT(*)::BIGINT AS n FROM hexed GROUP BY hq, hr), "
        f"g AS (SELECT SUM(n)::DOUBLE / COUNT(*) AS m, "
        f"COUNT(*)::BIGINT AS k FROM d), "
        f"dev AS (SELECT hq, hr, n - g.m AS dv FROM d, g), "
        f"off(dq, dr) AS (VALUES (1,0),(1,-1),(0,-1),(-1,0),(-1,1),(0,1)), "
        f"e AS (SELECT a.dv AS dva, b.dv AS dvb FROM dev a "
        f"CROSS JOIN off o JOIN dev b "
        f"ON b.hq = a.hq + o.dq AND b.hr = a.hr + o.dr) "
        f"SELECT g.k AS n_hexes, (SELECT COUNT(*) FROM e)::BIGINT AS w_pairs, "
        f"ROUND((((g.k::DOUBLE / (SELECT COUNT(*) FROM e)) "
        f"* (SELECT SUM(dva * dvb) FROM e)) "
        f"/ (SELECT SUM(dv * dv) FROM dev)) * 1e6) / 1e6 AS moran_i FROM g"
    )


@query("local_moran", sql=lambda: _sql_local_moran())
def q_local_moran(sf_dir: str):
    """Local Moran's I (LISA) per occupied hex — the hotspot/coldspot
    classifier; same scatter plan as `morans_i`, finished per target."""
    from ..hex import local_morans_i, with_hex_cells

    ds = with_hex_cells(docs_points(sf_dir), size=HEX_SIZE)
    return local_morans_i(ds, size=HEX_SIZE)


def _sql_local_moran() -> str:
    from ..hex import sql_hex_cte
    from ..synth import sql_points_cte

    return (
        f"WITH pts AS ({sql_points_cte()}), {sql_hex_cte(HEX_SIZE)}, "
        f"d AS (SELECT hq, hr, COUNT(*)::BIGINT AS n FROM hexed GROUP BY hq, hr), "
        f"g AS (SELECT SUM(n)::DOUBLE / COUNT(*) AS m, "
        f"COUNT(*)::DOUBLE AS k FROM d), "
        f"dev AS (SELECT hq, hr, n, n - g.m AS dv FROM d, g), "
        f"den AS (SELECT SUM(dv * dv) AS d2 FROM dev), "
        f"off(dq, dr) AS (VALUES (1,0),(1,-1),(0,-1),(-1,0),(-1,1),(0,1)), "
        f"e AS (SELECT a.hq, a.hr, SUM(b.dv) AS s FROM dev a "
        f"CROSS JOIN off o JOIN dev b "
        f"ON b.hq = a.hq + o.dq AND b.hr = a.hr + o.dr GROUP BY a.hq, a.hr) "
        f"SELECT dev.hq, dev.hr, dev.n AS n_docs, "
        f"ROUND((((g.k * dev.dv) * COALESCE(e.s, 0.0)) / den.d2) * 1e6) / 1e6 "
        f"AS lisa FROM dev LEFT JOIN e ON e.hq = dev.hq AND e.hr = dev.hr "
        f"CROSS JOIN g CROSS JOIN den"
    )


@query("gi_star", sql=lambda: _sql_gi_star())
def q_gi_star(sf_dir: str):
    """Getis-Ord Gi* hotspot z-statistic per occupied hex (self-inclusive
    7-cell ring), composed from the focal-scatter + exact-global-moments
    machinery."""
    from ..hex import gi_star, with_hex_cells

    ds = with_hex_cells(docs_points(sf_dir), size=HEX_SIZE)
    return gi_star(ds, size=HEX_SIZE)


def _sql_gi_star() -> str:
    from ..hex import sql_hex_cte
    from ..synth import sql_points_cte

    return (
        f"WITH pts AS ({sql_points_cte()}), {sql_hex_cte(HEX_SIZE)}, "
        f"d AS (SELECT hq, hr, COUNT(*)::BIGINT AS n FROM hexed GROUP BY hq, hr), "
        f"g AS (SELECT COUNT(*)::DOUBLE AS k, "
        f"SUM(n)::DOUBLE / COUNT(*) AS m, "
        f"sqrt(SUM(n*n)::DOUBLE / COUNT(*) "
        f"- (SUM(n)::DOUBLE / COUNT(*)) * (SUM(n)::DOUBLE / COUNT(*))) AS sd "
        f"FROM d), "
        f"off(dq, dr) AS (VALUES (0,0),(1,0),(1,-1),(0,-1),(-1,0),(-1,1),(0,1)), "
        f"e AS (SELECT a.hq, a.hr, SUM(b.n)::DOUBLE AS fsum, "
        f"COUNT(*)::DOUBLE AS w FROM d a CROSS JOIN off o JOIN d b "
        f"ON b.hq = a.hq + o.dq AND b.hr = a.hr + o.dr GROUP BY a.hq, a.hr) "
        f"SELECT e.hq, e.hr, d.n AS n_docs, "
        f"ROUND(((e.fsum - g.m * e.w) "
        f"/ (g.sd * sqrt((g.k * e.w - e.w * e.w) / (g.k - 1.0)))) * 1e6) / 1e6 "
        f"AS gi_star FROM e JOIN d ON d.hq = e.hq AND d.hr = e.hr "
        f"CROSS JOIN g"
    )


@query("span_transitions", sql=lambda: _sql_span_transitions())
def q_span_transitions(sf_dir: str):
    """Corpus-wide span kind-transition matrix (the interleaved-payload
    Markov summary): consecutive (kind_i -> kind_{i+1}) pairs WITHIN each
    doc, counted by traversing the real list<struct> column — per batch
    one 9-cell bincount partial, one tiny final aggregate.  The oracle
    recomputes the pairs closed-form from doc_id."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..synth import KINDS, build_spans_array

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def partial(b: pa.Table) -> pa.Table:
        spans = build_spans_array(np.asarray(b["doc_id"]))
        lengths = np.asarray(spans.value_lengths(), dtype=np.int64)
        flat = spans.flatten()
        code = np.asarray(
            pc.index_in(flat.field("kind"), value_set=pa.array(list(KINDS))),
            dtype=np.int64,
        )
        parent_idx = np.repeat(np.arange(len(lengths)), lengths)
        same = parent_idx[1:] == parent_idx[:-1]
        pair = code[:-1][same] * 3 + code[1:][same]
        n = np.bincount(pair, minlength=9).astype(np.int64)
        keep = n > 0
        return pa.table(
            {
                "pair": pa.array(np.flatnonzero(keep).astype(np.int64)),
                "n": pa.array(n[keep]),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("pair")
        .aggregate(Sum("n", alias_name="n"))
    )

    def finish(b: pa.Table) -> pa.Table:
        pair = np.asarray(b["pair"], np.int64)
        kinds = np.asarray(list(KINDS), dtype=object)
        return pa.table(
            {
                "from_kind": pa.array(kinds[pair // 3]),
                "to_kind": pa.array(kinds[pair % 3]),
                "n": b["n"],
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def _sql_span_transitions() -> str:
    case_f = "CASE f WHEN 0 THEN 'text' WHEN 1 THEN 'image' ELSE 'audio' END"
    case_t = "CASE t WHEN 0 THEN 'text' WHEN 1 THEN 'image' ELSE 'audio' END"
    return (
        f"WITH pairs AS (SELECT ((d.doc_id + i.i) % 3) AS f, "
        f"((d.doc_id + i.i + 1) % 3) AS t FROM documents d "
        f"JOIN (SELECT UNNEST(generate_series(0, 6)) AS i) i "
        f"ON i.i < d.doc_id % 8) "
        f"SELECT {case_f} AS from_kind, {case_t} AS to_kind, "
        f"COUNT(*)::BIGINT AS n FROM pairs GROUP BY f, t"
    )


@query("zrange_store", sql=lambda: _sql_zrange_query())
def q_zrange_store(sf_dir: str):
    """The READ-side Z-order range scan: the corpus is written as a
    code-prefix-bucketed parquet tree (hive `__zp=` = level-3 Morton
    ancestor, <= 64 dirs), then the bbox cover ranges prune PARTITION
    DIRECTORIES at the read (`read_tiles(tile_pred=...)` — pruned files
    never leave storage) before the in-memory searchsorted prune + exact
    refine.  Same rows as `zrange_query`; this is the 100 TB layout the
    zrange docstring promises."""
    from ..hier import with_hier_cells, zrange_cover, zrange_filter
    from ..tiler import read_tiles, write_partitioned

    shift = 2 * (HIER_LEVEL - 3)  # level-3 ancestor prefix
    ds = with_hier_cells(docs_points(sf_dir), resolution=RES, level=HIER_LEVEL)

    def add_prefix(b: pa.Table) -> pa.Table:
        code = np.asarray(b["cell_code"], np.int64)
        return b.append_column("zp", pa.array(code >> shift))

    out_dir = _scratch_dir("zrange_store_")
    write_partitioned(
        ds.map_batches(add_prefix, batch_format="pyarrow"),
        out_dir,
        ["zp"],
        mode="overwrite",
    )
    ranges = zrange_cover(ZQ_BBOX, resolution=RES, level=HIER_LEVEL)
    prefixes: set[int] = set()
    for lo, hi in ranges:
        prefixes.update(range(int(lo) >> shift, (int(hi) >> shift) + 1))
    back = read_tiles(out_dir, tile_pred=lambda p: int(p["zp"]) in prefixes)
    back = zrange_filter(back, ZQ_BBOX, resolution=RES, level=HIER_LEVEL)
    return back.select_columns(["doc_id", "cell_code"])


@query("poly_media_rollup", sql=lambda: _sql_poly_media_rollup(), bench=True)
def q_poly_media_rollup(sf_dir: str):
    """Per-polygon interleaved-payload rollup (axes A+B through the
    SPATIAL JOIN): span stats are computed from the actual list<struct>
    column BEFORE the join (the payload never rides the join), points
    join the broadcast polygon layer, and tiny per-polygon partials are
    the only thing the final aggregate shuffles."""
    from ray.data.aggregate import Sum

    from ..spatial import join_points_to_polygons
    from ..synth import build_spans_array, polygon_layer

    ds = docs_points(sf_dir)

    def add_span_stats(b: pa.Table) -> pa.Table:
        spans = build_spans_array(np.asarray(b["doc_id"]))
        lengths = np.asarray(spans.value_lengths(), dtype=np.int64)
        flat = spans.flatten()
        is_media = np.asarray(pc.not_equal(flat.field("kind"), "text"))
        parent_idx = np.repeat(np.arange(len(lengths)), lengths)
        n_media = np.bincount(
            parent_idx, weights=is_media, minlength=len(lengths)
        ).astype(np.int64)
        return b.append_column("n_spans", pa.array(lengths)).append_column(
            "n_media", pa.array(n_media)
        )

    ds = ds.map_batches(add_span_stats, batch_format="pyarrow")
    ds = join_points_to_polygons(
        ds, polygon_layer(), how="inner", attr_cols=("nuts_id",)
    )

    def partial(b: pa.Table) -> pa.Table:
        pid = np.asarray(b["poly_id"], np.int64)
        u, inv = np.unique(pid, return_inverse=True)
        return pa.table(
            {
                "poly_id": pa.array(u),
                "docs": pa.array(np.bincount(inv, minlength=len(u)).astype(np.int64)),
                "spans": pa.array(
                    np.bincount(
                        inv,
                        weights=np.asarray(b["n_spans"], np.int64),
                        minlength=len(u),
                    ).astype(np.int64)
                ),
                "media": pa.array(
                    np.bincount(
                        inv,
                        weights=np.asarray(b["n_media"], np.int64),
                        minlength=len(u),
                    ).astype(np.int64)
                ),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("poly_id")
        .aggregate(
            Sum("docs", alias_name="n_docs"),
            Sum("spans", alias_name="n_spans"),
            Sum("media", alias_name="n_media"),
        )
    )

    def finish(b: pa.Table) -> pa.Table:
        return b

    return agg.map_batches(finish, batch_format="pyarrow")


def _sql_poly_media_rollup() -> str:
    from ..spatial import sql_point_join
    from ..synth import sql_points_cte, sql_span_summary_cte

    return (
        f"WITH j AS ({sql_point_join(sql_points_cte())}), "
        f"ss AS ({sql_span_summary_cte()}) "
        f"SELECT j.poly_id, COUNT(*)::BIGINT AS n_docs, "
        f"SUM(ss.n_spans)::BIGINT AS n_spans, "
        f"SUM(ss.n_spans - ss.n_text)::BIGINT AS n_media "
        f"FROM j JOIN ss ON j.doc_id = ss.doc_id GROUP BY j.poly_id"
    )


#: Z-order range-scan bbox (exact float bounds shared with the oracle)
ZQ_BBOX = (120_000.0, 80_000.0, 310_000.0, 240_000.0)


@query("zrange_query", sql=lambda: _sql_zrange_query(), bench=True)
def q_zrange_query(sf_dir: str):
    """Spatial bbox query the index-scan way: quadtree cover of the bbox
    -> Morton [lo, hi] ranges -> vectorized searchsorted prune on the
    cell code -> exact x/y refine (hier.zrange_cover/zrange_filter).  On
    a code-sorted tile store the same ranges prune at the READ; the
    oracle is the plain coordinate predicate."""
    from ..hier import with_hier_cells, zrange_filter

    ds = with_hier_cells(docs_points(sf_dir), resolution=RES, level=HIER_LEVEL)
    ds = zrange_filter(ds, ZQ_BBOX, resolution=RES, level=HIER_LEVEL)
    return ds.select_columns(["doc_id", "cell_code"])


#: focal-statistics cell size: coarser than RES so 3x3 neighbourhoods are
#: populated at every sf (the synth domain spans ~500 km -> ~50x50 cells)
FOCAL_RES = 10_000.0


@query("focal_mean", sql=lambda: _sql_focal_mean(), bench=True)
def q_focal_mean(sf_dir: str):
    """3x3 focal mean of per-cell doc counts (focal.focal_counts): dense-
    raster map algebra as sparse halo-exchange dataflow — per-batch cell
    partials spread to their 9 neighbour cells (the halo copies), one
    coarse-bucket sum keyed by target cell, no join anywhere."""
    from ..focal import focal_counts

    ds = with_cell_columns(
        docs_points(sf_dir), resolution=FOCAL_RES, tile_size_cell=TSC
    )
    return focal_counts(ds.select_columns(["ix", "iy"]))


def _sql_focal_mean() -> str:
    from ..focal import sql_focal_mean

    cols = sql_cell_columns(FOCAL_RES, TSC)
    return sql_focal_mean(
        points_cte=sql_points_cte(), ix_expr=cols["ix"], iy_expr=cols["iy"]
    )


@query("cell_majority", sql=lambda: _sql_cell_majority(), bench=True)
def q_cell_majority(sf_dir: str):
    """Dominant language per grid cell (focal.cell_majority): batch-local
    (cell, lang) count partials, one coarse-bucket shuffle on the packed
    cell key, vectorized per-bucket winner pick (count DESC, lang ASC)."""
    from ..focal import cell_majority

    ds = with_cell_columns(
        docs_points(sf_dir, ("lang",)), resolution=FOCAL_RES, tile_size_cell=TSC
    )
    return cell_majority(ds.select_columns(["ix", "iy", "lang"]))


def _sql_cell_majority() -> str:
    from ..focal import sql_cell_majority

    cols = sql_cell_columns(FOCAL_RES, TSC)
    pts = f"SELECT doc_id, lang, {SQL_X} AS x, {SQL_Y} AS y FROM documents"
    return sql_cell_majority(
        points_cte=pts, ix_expr=cols["ix"], iy_expr=cols["iy"]
    )


@query("token_entropy", sql=text.sql_token_entropy, bench=True)
def q_token_entropy(sf_dir: str):
    """Per-doc Shannon token entropy (text.token_entropy): each doc is
    one row, so the whole op is batch-local — zero shuffles."""
    import ray.data as rd

    from ..text import token_entropy

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return token_entropy(ds)


#: urban-cluster floor: keep clusters totalling at least this many docs
CLUSTER_MIN_DOCS = 3


@query("cell_clusters", sql=lambda: _sql_cell_clusters(), bench=True)
def q_cell_clusters(sf_dir: str):
    """Contiguous occupied-cell clusters, Eurostat degree-of-urbanisation
    shape (focal.cell_clusters): threshold cells -> anchor/claim bucketed
    adjacency -> distributed connected components -> coarse cluster
    aggregates; cluster_id is the component's min packed cell key."""
    from ..focal import cell_clusters

    ds = with_cell_columns(
        docs_points(sf_dir), resolution=FOCAL_RES, tile_size_cell=TSC
    )
    return cell_clusters(
        ds.select_columns(["ix", "iy"]), min_cluster_docs=CLUSTER_MIN_DOCS
    )


def _sql_cell_clusters() -> str:
    from ..focal import sql_cell_clusters

    cols = sql_cell_columns(FOCAL_RES, TSC)
    return sql_cell_clusters(
        points_cte=sql_points_cte(),
        ix_expr=cols["ix"],
        iy_expr=cols["iy"],
        min_cluster_docs=CLUSTER_MIN_DOCS,
    )


#: stratified-sample keep rates (shared by the Ray query and SQL twin):
#: downsample the dominant language, keep scarce ones, drop the rest
STRAT_RATES = {"en": 0.25, "de": 0.9, "fr": 1.0}
STRAT_DEFAULT = 0.5


@query(
    "stratified_sample",
    sql=lambda: stats.sql_stratified_sample(
        key_col="doc_id", group_col="lang",
        rates=STRAT_RATES, default_rate=STRAT_DEFAULT,
        source="(SELECT doc_id, lang, n_chars FROM documents)",
    ),
)
def q_stratified_sample(sf_dir: str):
    """Deterministic per-language downsampling (stats.stratified_sample):
    content-stable hash cut per group, zero shuffle, rerun-invariant."""
    import ray.data as rd

    from ..stats import stratified_sample

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]
    )
    return stratified_sample(
        ds, key_col="doc_id", group_col="lang",
        rates=STRAT_RATES, default_rate=STRAT_DEFAULT,
    )


#: priority-sample size + salt (shared by the Ray query and SQL twin)
PRIO_K, PRIO_SALT = 150, "ps1"


@query(
    "weighted_sample",
    sql=lambda: stats.sql_priority_sample(
        key_col="doc_id", weight_col="n_chars", k=PRIO_K, salt=PRIO_SALT
    ),
    bench=True,
)
def q_weighted_sample(sf_dir: str):
    """Deterministic weighted sampling without replacement
    (stats.priority_sample, Duffield–Lund–Thorup): k best of
    w * 2^60 / (md5_60(key) + 1) — transcendental-free so the SQL twin
    is bit-identical; per-batch top-k partials, one tiny final fold."""
    import ray.data as rd

    from ..stats import priority_sample

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    return priority_sample(
        ds, key_col="doc_id", weight_col="n_chars", k=PRIO_K, salt=PRIO_SALT
    )


#: per-group priority-sample size + salt
PRIOG_K, PRIOG_SALT = 40, "psg1"


@query(
    "weighted_sample_group",
    sql=lambda: stats.sql_priority_sample_grouped(
        group_col="lang",
        key_col="doc_id",
        weight_col="n_chars",
        k=PRIOG_K,
        salt=PRIOG_SALT,
    ),
)
def q_weighted_sample_group(sf_dir: str):
    """Exactly-k weighted samples per language
    (stats.priority_sample_grouped): the priority-sampling law ranked
    within groups through the coarse-bucket top-k kernel."""
    import ray.data as rd

    from ..stats import priority_sample_grouped

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]
    )
    return priority_sample_grouped(
        ds,
        group_col="lang",
        key_col="doc_id",
        weight_col="n_chars",
        k=PRIOG_K,
        salt=PRIOG_SALT,
    )


def _sql_customer_nation() -> str:
    return (
        "SELECT c_custkey, c_name, n_name, r_name FROM customer "
        "JOIN nation ON c_nationkey = n_nationkey "
        "JOIN region ON n_regionkey = r_regionkey"
    )


@query("customer_nation", sql=_sql_customer_nation)
def q_customer_nation(sf_dir: str):
    """Chained broadcast dimension lookups (joins.lookup_join): streaming
    customer fact -> nation -> region, zero shuffle joins — the canonical
    small-side enrichment shape at corpus scale."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from ..joins import lookup_join

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name", "n_regionkey"]
    )
    region = pq.read_table(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    )
    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name", "c_nationkey"]
    )
    out = lookup_join(cust, nation, on="c_nationkey", key="n_nationkey")
    out = lookup_join(out, region, on="n_regionkey", key="r_regionkey")
    return out.select_columns(["c_custkey", "c_name", "n_name", "r_name"])


#: semi/anti-join threshold (shared by the Ray query and SQL twin):
#: "high-value orders" = o_totalprice above this literal
SEMI_PRICE_CUT = 350000.0


def _q_semi_anti(sf_dir: str, anti: bool):
    import ray.data as rd

    from ..joins import bloom_build, bloom_prefilter, distinct_keys, semi_join

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    ).filter(expr=f"o_totalprice > {SEMI_PRICE_CUT!r}")
    # ONE pass collects the distinct build keys; bloom + membership both
    # derive from the array (no second read of the build side)
    keys = distinct_keys(orders, "o_orderkey")
    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_quantity"]
    )
    if not anti:
        # scale composition: cheap approximate bloom prefilter first (no
        # false negatives), exact broadcast membership on the survivors
        bloom = bloom_build(keys, "o_orderkey", num_bits=1 << 17)
        line = bloom_prefilter(line, bloom, on="l_orderkey")
    out = semi_join(line, keys, on="l_orderkey", anti=anti)

    def partial(b: pa.Table) -> pa.Table:
        # per-batch combiner: one row per (order, batch) enters the shuffle
        keys = np.asarray(b["l_orderkey"], dtype=np.int64)
        if not len(keys):
            return pa.table(
                {
                    "l_orderkey": pa.array([], pa.int64()),
                    "n_lines": pa.array([], pa.int64()),
                    "sum_qty": pa.array([], pa.float64()),
                }
            )
        qty = np.asarray(b["l_quantity"], dtype=np.float64)
        order = np.argsort(keys, kind="stable")
        ks = keys[order]
        starts = np.nonzero(np.r_[True, ks[1:] != ks[:-1]])[0]
        sizes = np.diff(np.append(starts, len(ks)))
        return pa.table(
            {
                "l_orderkey": ks[starts],
                "n_lines": sizes.astype(np.int64),
                "sum_qty": np.add.reduceat(qty[order], starts),
            }
        )

    # coarse-bucket final (64 groups) — a fine groupby over ~1e5 order
    # keys pays the per-group Ray aggregate cost (measured 4.3s at sf0.1)
    from ..cluster import segment_sum

    summed = segment_sum(
        out.map_batches(partial, batch_format="pyarrow"),
        ["l_orderkey"],
        ("n_lines", "sum_qty"),
    )
    return summed.map_batches(
        lambda b: pa.table(
            {
                "l_orderkey": b["l_orderkey"],
                "n_lines": pc.cast(b["n_lines"], pa.int64()),
                "sum_qty": b["sum_qty"],
            }
        ),
        batch_format="pyarrow",
    )


def _sql_semi_anti(anti: bool) -> str:
    return (
        "SELECT l_orderkey, COUNT(*) AS n_lines, SUM(l_quantity) AS sum_qty "
        f"FROM lineitem WHERE l_orderkey {'NOT IN' if anti else 'IN'} "
        "(SELECT o_orderkey FROM orders "
        f"WHERE o_totalprice > {SEMI_PRICE_CUT!r}) GROUP BY l_orderkey"
    )


@query("semi_join", sql=lambda: _sql_semi_anti(anti=False), bench=True)
def q_semi_join(sf_dir: str):
    """Broadcast semi join (joins.semi_join) behind a distributed bloom
    prefilter (joins.bloom_build/bloom_prefilter): lineitem rows kept iff
    their order is high-value; per-order line count + quantity sum."""
    return _q_semi_anti(sf_dir, anti=False)


@query("anti_join", sql=lambda: _sql_semi_anti(anti=True))
def q_anti_join(sf_dir: str):
    """Broadcast anti join: lineitem rows whose order is NOT high-value
    (exact membership — bloom cannot front an anti join, its false
    positives would drop valid rows)."""
    return _q_semi_anti(sf_dir, anti=True)


@query(
    "moments",
    sql=lambda: stats.sql_grouped_moments(
        group_col="l_returnflag",
        x_col="l_discount",
        y_col="l_quantity",
        source="lineitem",
    ),
)
def q_moments(sf_dir: str):
    """Grouped second moments (stats.grouped_moments): per returnflag
    discount variance/stddev + discount-quantity correlation, combinable
    partials -> tiny groupby -> vectorized finish."""
    import ray.data as rd

    from ..stats import grouped_moments

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_discount", "l_quantity"],
    )
    return grouped_moments(
        ds, group_col="l_returnflag", x_col="l_discount", y_col="l_quantity"
    )


@query(
    "hll_distinct",
    sql=lambda: stats.sql_hll_distinct(
        group_col="event_type", key_col="user_id", source="events"
    ),
    bench=True,
)
def q_hll_distinct(sf_dir: str):
    """Deterministic HyperLogLog approx COUNT(DISTINCT user) per event
    type (stats.hll_distinct): batches reduce to register partials, the
    shuffle carries registers (never keys), merge is elementwise Max —
    and the estimate is bit-reproducible in SQL."""
    import ray.data as rd

    from ..stats import hll_distinct

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )
    # the narrow events table arrives as 1-2 blocks: split it to a
    # cluster-derived width so the md5 partial is not serialized
    return hll_distinct(
        ds, group_col="event_type", key_col="user_id",
        map_parallelism=_resolve_buckets(None),
    )


@query(
    "tfidf_pairs",
    sql=lambda: tfidf.sql_tfidf_pairs(n=2, max_df_frac=0.5, threshold=0.35),
    bench=True,
    quadratic=True,
)
def q_tfidf_pairs(sf_dir: str):
    """TF-IDF cosine similarity pairs over a df-pruned inverted index
    (tfidf.tfidf_pairs): bigram terms, stop-term cutoff at half the
    corpus, threshold 0.35."""
    import ray.data as rd

    from ..tfidf import tfidf_pairs

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return tfidf_pairs(docs, n=2, max_df_frac=0.5, threshold=0.35)


def _bipartite_pr_edges(sf_dir: str):
    """Doubled namespaced supplier<->part edge Dataset for the pagerank
    family — RAW-count gated (parquet metadata): below the gate one
    driver-final distinct builds the doubled table in numpy; above it
    the distributed distinct + a mirror map keep everything off the
    driver (graph.pagerank accepts the Dataset either way)."""
    import ray.data as rd

    from ..cluster import default_num_partitions
    from ..graph import distinct_int_pairs, distinct_int_pairs_table

    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_suppkey", "l_partkey"]
    )

    def mirror(b: pa.Table) -> pa.Table:
        s = np.asarray(b["l_suppkey"], np.int64) * 2
        pp = np.asarray(b["l_partkey"], np.int64) * 2 + 1
        return pa.table(
            {
                "src": pa.array(np.concatenate([s, pp])),
                "dst": pa.array(np.concatenate([pp, s])),
            }
        )

    if line.count() <= KCORE_EDGE_GATE:
        tbl = distinct_int_pairs_table(line, "l_suppkey", "l_partkey")
        return rd.from_arrow(mirror(tbl)).repartition(
            default_num_partitions()
        )
    return distinct_int_pairs(
        line, "l_suppkey", "l_partkey"
    ).map_batches(mirror, batch_format="pyarrow")


@query(
    "pagerank",
    sql=lambda: graph.sql_pagerank(edges_sql=graph.bipartite_edges_sql(), iters=5),
    bench=True,
)
def q_pagerank(sf_dir: str):
    """Fixed-iteration PageRank (graph.pagerank) over the supplier<->part
    bipartite graph: raw-count-gated distinct + mirror edge build
    (_bipartite_pr_edges), 5 Pregel supersteps of join + coarse-sum
    with materialized rank state."""
    from ..graph import pagerank

    return pagerank(_bipartite_pr_edges(sf_dir), iters=5)


@query(
    "pagerank_pers",
    sql=lambda: graph.sql_personalized_pagerank(
        edges_sql=graph.bipartite_edges_sql(),
        seeds_sql=(
            "SELECT DISTINCT l_suppkey * 2 AS sv FROM lineitem "
            "ORDER BY sv LIMIT 3"
        ),
        iters=5,
    ),
)
def q_pagerank_pers(sf_dir: str):
    """Personalized PageRank (graph.pagerank with seed_nodes): restart
    mass split over the 3 smallest supplier nodes — topic/trust-biased
    importance over the same bipartite graph as q_pagerank."""
    import pyarrow.parquet as pq_

    from ..graph import pagerank

    edges = _bipartite_pr_edges(sf_dir)
    sk = np.unique(
        np.asarray(
            pq_.read_table(
                f"{sf_dir}/lineitem.parquet", columns=["l_suppkey"]
            )["l_suppkey"],
            np.int64,
        )
    )[:3]
    return pagerank(edges, iters=5, seed_nodes=sk * 2)


@query(
    "grouped_topk",
    sql=lambda: stats.sql_grouped_topk(
        group_col="o_custkey",
        order_col="o_totalprice",
        tiebreak_col="o_orderkey",
        k=3,
        source="orders",
        select="o_custkey, o_orderkey, o_totalprice",
    ),
)
def q_grouped_topk(sf_dir: str):
    """Top-3 orders per customer by totalprice (stats.grouped_topk):
    coarse-bucketed shuffle + vectorized per-bucket sort/cumcount."""
    import ray.data as rd

    from ..stats import grouped_topk

    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderkey", "o_totalprice"],
    )
    return grouped_topk(
        ds,
        group_col="o_custkey",
        order_col="o_totalprice",
        tiebreak_col="o_orderkey",
        k=3,
    )


@query("pii_scrub", sql=lambda: _sql_pii_scrub())
def q_pii_scrub(sf_dir: str):
    """PII redaction (text.pii_scrub): deterministic synthetic PII is
    appended per doc (email always; IP for even ids; phone for ids
    divisible by 3 — mirrored literal-for-literal in SQL), then scrubbed
    and counted.  Exercises all three patterns with varying counts."""
    import pandas as pd

    from ..text import pii_scrub

    ds = _docs(sf_dir, ("doc_id", "text"))

    def add_pii(b: pa.Table) -> pa.Table:
        d = np.asarray(b["doc_id"], dtype=np.int64)
        s = pd.Series(np.asarray(b["text"]).astype(object))
        ds_ = pd.Series(d.astype(str))
        email = " reach user" + ds_ + "@example.com"
        ip = np.where(
            d % 2 == 0,
            (" or 10." + pd.Series((d % 256).astype(str)) + ".0."
             + pd.Series((d % 100).astype(str))).to_numpy(dtype=object),
            "",
        )
        phone = np.where(
            d % 3 == 0,
            (" tel 555-" + pd.Series((100 + d % 900).astype(str)) + "-"
             + pd.Series((1000 + d % 9000).astype(str))).to_numpy(dtype=object),
            "",
        )
        t = (s + email + pd.Series(ip) + pd.Series(phone)).to_numpy(dtype=object)
        return pa.table({"doc_id": b["doc_id"], "text": pa.array(t, pa.string())})

    return ds.map_batches(add_pii, batch_format="pyarrow").map_batches(
        pii_scrub, batch_format="pyarrow"
    )


@query("repetition", sql=lambda: _sql_repetition())
def q_repetition(sf_dir: str):
    """Gopher-style repetition signals (text.repetition_stats): top-bigram
    and duplicate-trigram fractions per doc, 6dp-rounded on both sides."""
    from ..text import repetition_stats

    ds = _docs(sf_dir, ("doc_id", "text"))
    out = ds.map_batches(repetition_stats, batch_format="pyarrow")
    out = out.select_columns(["doc_id", "top_bigram_frac", "dup_trigram_frac"])
    return out.map_batches(
        lambda b: round6(b, ["top_bigram_frac", "dup_trigram_frac"]),
        batch_format="pyarrow",
    )


@query("reproject", sql=lambda: _sql_reproject(), bench=True)
def q_reproject(sf_dir: str):
    """EPSG:4326 -> EPSG:3035 coordinate reprojection (geom.proj.reproject,
    the engine's set_ref_proj parity point — reference base.py:215-220).
    Millimetre rounding: the DuckDB twin replays the identical constants
    and op order, so residual divergence is libm trig ulps (~1e-9 m)."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def add_lonlat(b: pa.Table) -> pa.Table:
        lon, lat = derive_lonlat(np.asarray(b["doc_id"]))
        return b.append_column("lon", pa.array(lon)).append_column(
            "lat", pa.array(lat)
        )

    ds = reproject(
        ds.map_batches(add_lonlat, batch_format="pyarrow"),
        "EPSG:4326",
        "EPSG:3035",
        x_col="lon",
        y_col="lat",
    )

    def finish(b: pa.Table) -> pa.Table:
        b = b.rename_columns(["doc_id", "easting", "northing"])
        return round_half_away(b, ["easting", "northing"], 3)

    return ds.map_batches(finish, batch_format="pyarrow")


@query("reproject_webmerc", sql=lambda: _sql_reproject_webmerc())
def q_reproject_webmerc(sf_dir: str):
    """EPSG:4326 -> EPSG:3857 (spherical Web Mercator) — the second
    closed-form CRS path, millimetre-rounded like `reproject`."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def add_lonlat(b: pa.Table) -> pa.Table:
        lon, lat = derive_lonlat(np.asarray(b["doc_id"]))
        return b.append_column("lon", pa.array(lon)).append_column(
            "lat", pa.array(lat)
        )

    ds = reproject(
        ds.map_batches(add_lonlat, batch_format="pyarrow"),
        "EPSG:4326",
        "EPSG:3857",
        x_col="lon",
        y_col="lat",
    )

    def finish(b: pa.Table) -> pa.Table:
        b = b.rename_columns(["doc_id", "mx", "my"])
        return round_half_away(b, ["mx", "my"], 3)

    return ds.map_batches(finish, batch_format="pyarrow")


def _sql_reproject_webmerc() -> str:
    from ..geom.proj import sql_webmercator_forward

    xs, ys = sql_webmercator_forward("lon", "lat")
    return (
        f"WITH ll AS ({sql_lonlat_cte()}) "
        f"SELECT doc_id, ROUND({xs} * 1e3) / 1e3 AS mx, "
        f"ROUND({ys} * 1e3) / 1e3 AS my FROM ll"
    )


def _sql_tiling_bounds() -> str:
    cols = sql_cell_columns(RES, TSC)
    return (
        f"WITH points AS ({sql_points_cte()}) "
        f"SELECT {cols['xt']} AS xt, {cols['yt']} AS yt, COUNT(*)::BIGINT AS n_docs "
        f"FROM points GROUP BY xt, yt"
    )


@query("tiling_bounds", sql=_sql_tiling_bounds)
def q_tiling_bounds(sf_dir: str):
    ds = with_cell_columns(docs_points(sf_dir), resolution=RES, tile_size_cell=TSC)
    out = ds.groupby(["xt", "yt"]).count()

    def rename(b: pa.Table) -> pa.Table:
        return b.rename_columns(
            ["xt", "yt", "n_docs"][: b.num_columns]
        )

    return out.map_batches(rename, batch_format="pyarrow")


def _sql_spatial_join(how: str = "inner") -> str:
    return sql_point_join(sql_points_cte(), how).replace(
        "SELECT p.*", "SELECT p.doc_id"
    )


@query("spatial_join", sql=_sql_spatial_join, bench=True)
def q_spatial_join(sf_dir: str):
    out = join_points_to_polygons(docs_points(sf_dir), polygon_layer(), how="inner")
    return out.select_columns(["doc_id", "poly_id", "nuts_id", "pop"])


@query("spatial_join_left", sql=lambda: _sql_spatial_join("left"))
def q_spatial_join_left(sf_dir: str):
    out = join_points_to_polygons(docs_points(sf_dir), polygon_layer(), how="left")
    return out.select_columns(["doc_id", "poly_id", "nuts_id", "pop"])


@query("spatial_join_hash", sql=_sql_spatial_join)
def q_spatial_join_hash(sf_dir: str):
    """Partitioned-hash-join variant of spatial_join (both-sides-large
    path) — same oracle as the broadcast join."""
    from ..spatial import join_points_via_cell_index

    layer = polygon_layer()
    out = join_points_via_cell_index(
        docs_points(sf_dir), layer, resolution=10_000.0
    )
    lut_nuts = pa.array([p["nuts_id"] for p in layer])
    lut_pop = np.array([p["pop"] for p in layer])

    def attach(b: pa.Table) -> pa.Table:
        pid = np.asarray(b["poly_id"], dtype=np.int64)
        b = b.append_column("nuts_id", lut_nuts.take(pa.array(pid)))
        return b.append_column("pop", pa.array(lut_pop[pid]))

    return out.map_batches(attach, batch_format="pyarrow").select_columns(
        ["doc_id", "poly_id", "nuts_id", "pop"]
    )


@query("nearest_polygon", sql=lambda: spatial.sql_nearest_polygon(sql_points_cte()))
def q_nearest_polygon(sf_dir: str):
    """Nearest-region assignment: every doc point gets the closest
    polygon (0 distance inside) — the outside-all-regions completion of
    the PIP join."""
    from ..spatial import nearest_polygon_join

    out = nearest_polygon_join(docs_points(sf_dir), polygon_layer())
    out = out.select_columns(["doc_id", "nearest_poly_id", "dist"])
    return out.map_batches(lambda b: round6(b, ["dist"]), batch_format="pyarrow")


@query(
    "grid_make",
    sql=lambda: sql_make_grid(DOMAIN, GRID_CELL, tile=(16, 16)),
    bench=True,
)
def q_grid_make(sf_dir: str):
    return make_grid(polygon_layer(), cellsize=GRID_CELL, bbox=DOMAIN, tile=(16, 16))


@query(
    "grid_make_interior",
    sql=lambda: sql_make_grid(DOMAIN, GRID_CELL, tile=(16, 16), interior=True),
)
def q_grid_make_interior(sf_dir: str):
    return make_grid(
        polygon_layer(), cellsize=GRID_CELL, bbox=DOMAIN, tile=(16, 16), interior=True
    )


@query(
    "grid_make_rect",
    sql=lambda: sql_make_grid(
        DOMAIN, (20_000.0, 30_000.0), tile=(8, 8), trim=False, mask_true=True
    ),
)
def q_grid_make_rect(sf_dir: str):
    return make_grid(True, cellsize=(20_000.0, 30_000.0), bbox=DOMAIN, tile=(8, 8))


@query(
    "grid_make_notrim",
    sql=lambda: sql_make_grid(
        DOMAIN, GRID_CELL, tile=(16, 16), trim=False, placeholders=True
    ),
)
def q_grid_make_notrim(sf_dir: str):
    """Reference trim=False row-set parity: tile-level flags on the cells
    of intersecting tiles + one placeholder row per non-intersecting tile
    (reference gridding.py:160-172)."""
    return make_grid(
        polygon_layer(),
        cellsize=GRID_CELL,
        bbox=DOMAIN,
        tile=(16, 16),
        trim=False,
        placeholders=True,
    )


def _spec50():
    return plan_grid(DOMAIN, OVL_CELL, tile=(8, 8))


def _grid50():
    return _spec50(), make_grid(True, cellsize=OVL_CELL, bbox=DOMAIN, tile=(8, 8))


@query(
    "overlay_intersection",
    sql=lambda: sql_overlay_fragments(_spec50(), how="intersection"),
)
def q_overlay_intersection(sf_dir: str):
    spec, grid = _grid50()
    out = overlay_fragments(grid, polygon_layer(), spec, how="intersection")
    out = out.select_columns(
        ["cell_id", "ix", "iy", "poly_id", "nuts_id", "pop", "area", "area_pct"]
    )
    return out.map_batches(
        lambda b: round6(b, ["area", "area_pct"]), batch_format="pyarrow"
    )


@query(
    "overlay_union",
    sql=lambda: sql_overlay_fragments(_spec50(), how="union"),
    bench=True,
)
def q_overlay_union(sf_dir: str):
    spec, grid = _grid50()
    out = overlay_fragments(grid, polygon_layer(), spec, how="union")
    out = out.select_columns(
        ["cell_id", "ix", "iy", "poly_id", "nuts_id", "pop", "area", "area_pct"]
    )
    return out.map_batches(
        lambda b: round6(b, ["area", "area_pct"]), batch_format="pyarrow"
    )


@query(
    "area_interpolate",
    sql=lambda: sql_grid_overlay_sum(_spec50(), ["pop"]),
    bench=True,
)
def q_area_interpolate(sf_dir: str):
    spec, grid = _grid50()
    out = area_interpolate(polygon_layer(), grid, spec, ["pop"])
    return out.map_batches(lambda b: round6(b, ["pop"]), batch_format="pyarrow")


@query("poly_metrics", sql=lambda: _sql_poly_metrics())
def q_poly_metrics(sf_dir: str):
    """Per-polygon shape metrics (overlay.poly_metrics): shoelace area,
    boundary length, Polsby-Popper compactness over the fixture layer —
    geopandas .area/.length/compactness parity, reduceat-vectorized."""
    import ray.data as rd

    from ..overlay import poly_metrics

    subs = [
        {
            "poly_id": p["poly_id"],
            "rings": [r.tolist() for r in p["rings"]],
        }
        for p in polygon_layer()
    ]
    return poly_metrics(rd.from_items(subs).repartition(2))


def _sql_poly_metrics() -> str:
    from ..overlay import sql_poly_metrics
    from ..synth import _POLY_RINGS

    return sql_poly_metrics(_POLY_RINGS)


@query("poly_adjacency", sql=lambda: _sql_poly_adjacency(), quadratic=True)
def q_poly_adjacency(sf_dir: str):
    """Layer topology matrix (DE-9IM lite): for every polygon pair,
    'overlaps' when rect interiors intersect with positive area, else
    'touches' when boundaries share a positive-length segment — computed
    on the disjoint rect decompositions, fully vectorized rect-pair
    tests on the broadcast layer (the small-side law of every overlay).

    Output: (poly_a, poly_b, relation) with poly_a < poly_b."""
    import ray.data as rd

    layer = polygon_layer()
    pid, rx0, ry0, rx1, ry1 = [], [], [], [], []
    for p in layer:
        for xmin, ymin, xmax, ymax in p["rects"]:
            pid.append(p["poly_id"])
            rx0.append(xmin)
            ry0.append(ymin)
            rx1.append(xmax)
            ry1.append(ymax)
    pid = np.asarray(pid, np.int64)
    rx0 = np.asarray(rx0)
    ry0 = np.asarray(ry0)
    rx1 = np.asarray(rx1)
    ry1 = np.asarray(ry1)

    def pairs(_: pa.Table) -> pa.Table:
        ix = np.arange(len(pid))
        ai, bi = np.meshgrid(ix, ix, indexing="ij")
        ai, bi = ai.ravel(), bi.ravel()
        keep = pid[ai] < pid[bi]
        ai, bi = ai[keep], bi[keep]
        ox = np.minimum(rx1[ai], rx1[bi]) - np.maximum(rx0[ai], rx0[bi])
        oy = np.minimum(ry1[ai], ry1[bi]) - np.maximum(ry0[ai], ry0[bi])
        overlaps = (ox > 0.0) & (oy > 0.0)
        touches = ((ox == 0.0) & (oy > 0.0)) | ((oy == 0.0) & (ox > 0.0))
        pa_, pb_ = pid[ai], pid[bi]
        key = pa_ * 1000 + pb_
        rel = {}
        for k in np.unique(key[overlaps]):
            rel[int(k)] = "overlaps"
        for k in np.unique(key[touches]):
            rel.setdefault(int(k), "touches")
        ks = sorted(rel)
        return pa.table(
            {
                "poly_a": pa.array([k // 1000 for k in ks], pa.int64()),
                "poly_b": pa.array([k % 1000 for k in ks], pa.int64()),
                "relation": pa.array([rel[k] for k in ks], pa.string()),
            }
        )

    return rd.from_items([{"go": 1}]).map_batches(
        pairs, batch_format="pyarrow"
    )


def _sql_poly_adjacency() -> str:
    from ..synth import sql_polygon_rects_cte

    ox = "(LEAST(a.rxmax, b.rxmax) - GREATEST(a.rxmin, b.rxmin))"
    oy = "(LEAST(a.rymax, b.rymax) - GREATEST(a.rymin, b.rymin))"
    return (
        f"WITH rects AS ({sql_polygon_rects_cte()}), "
        f"pr AS (SELECT a.poly_id AS poly_a, b.poly_id AS poly_b,"
        f" MAX(CASE WHEN {ox} > 0.0 AND {oy} > 0.0 THEN 2"
        f" WHEN ({ox} = 0.0 AND {oy} > 0.0)"
        f" OR ({oy} = 0.0 AND {ox} > 0.0) THEN 1 ELSE 0 END) AS rel"
        f" FROM rects a JOIN rects b ON a.poly_id < b.poly_id"
        f" GROUP BY a.poly_id, b.poly_id) "
        f"SELECT poly_a, poly_b,"
        f" CASE WHEN rel = 2 THEN 'overlaps' ELSE 'touches' END AS relation"
        f" FROM pr WHERE rel > 0"
    )


@query("poly_overlay", sql=lambda: _sql_poly_overlay(), bench=True)
def q_poly_overlay(sf_dir: str):
    """Layer x layer overlay (general convex-clip Sutherland-Hodgman):
    the 8-polygon fixture layer (km-scaled; holes included) against the
    3-clip convex layer — rect, sloped-top and sloped-bottom trapezoids.
    The oracle integrates rect ∩ clip strips in closed form over the
    fixture's rect decomposition, so the general ring∩ring kernel is
    checked against the independently-verified rect law."""
    import ray.data as rd

    from ..overlay import poly_overlay
    from ..synth import clip_layer

    subs = [
        {
            "poly_id": p["poly_id"],
            "rings": [(r / 1000.0).tolist() for r in p["rings"]],
        }
        for p in polygon_layer()
    ]
    return poly_overlay(rd.from_items(subs).repartition(4), clip_layer())


@query("poly_overlay_concave", sql=lambda: _sql_poly_overlay_concave())
def q_poly_overlay_concave(sf_dir: str):
    """Concave-clip overlay: the L-shaped clip exercises the
    ear-clipping triangulation path (diagonal-edged triangles through
    general SH) while the oracle stays a pure rect x rect law over both
    decompositions."""
    import ray.data as rd

    from ..overlay import poly_overlay
    from ..synth import clip_layer_concave

    subs = [
        {
            "poly_id": p["poly_id"],
            "rings": [(r / 1000.0).tolist() for r in p["rings"]],
        }
        for p in polygon_layer()
    ]
    return poly_overlay(rd.from_items(subs).repartition(4),
                        clip_layer_concave())


def _sql_poly_overlay_concave() -> str:
    from ..synth import sql_clip_l_rects_cte, sql_polygon_rects_km_cte

    frag = (
        "GREATEST(0, LEAST(rxmax, cxmax) - GREATEST(rxmin, cxmin))"
        " * GREATEST(0, LEAST(rymax, cymax) - GREATEST(rymin, cymin))"
    )
    return (
        f"WITH pr AS ({sql_polygon_rects_km_cte()}),"
        f" cr AS ({sql_clip_l_rects_cte()})"
        f" SELECT poly_id, 0 AS clip_id,"
        f" ROUND(SUM({frag}) * 1e6) / 1e6 AS area"
        f" FROM pr, cr GROUP BY poly_id"
        f" HAVING ROUND(SUM({frag}) * 1e6) / 1e6 > 0"
    )


def _sql_poly_overlay() -> str:
    from ..synth import (
        _CLIP_POLYS,
        sql_clip_area_expr,
        sql_polygon_rects_km_cte,
    )

    parts = [
        f"SELECT poly_id, {spec[0]} AS clip_id,"
        f" SUM({sql_clip_area_expr(spec)}) AS a"
        f" FROM pr GROUP BY poly_id HAVING ROUND(a * 1e6) / 1e6 > 0"
        for spec in _CLIP_POLYS
    ]
    return (
        f"WITH pr AS ({sql_polygon_rects_km_cte()}),"
        f" u AS ({' UNION ALL '.join(parts)})"
        f" SELECT poly_id, clip_id, ROUND(a * 1e6) / 1e6 AS area FROM u"
    )


def _sql_grid_aggregation() -> str:
    agg = sql_grid_aggregation(
        RES,
        50,
        {"sum_chars": "sum", "avg_chars": "average", "mean_chars": "average3"},
        rounding=6,
        source="pts",
    )
    return (
        f"WITH points AS ({sql_points_cte()}), "
        f"pts AS (SELECT p.x, p.y, d.n_chars::DOUBLE AS sum_chars, "
        f"d.n_chars::DOUBLE AS avg_chars, d.n_chars::DOUBLE AS mean_chars "
        f"FROM points p JOIN documents d USING (doc_id)) "
        + agg
    )


@query("grid_aggregation", sql=_sql_grid_aggregation, bench=True)
def q_grid_aggregation(sf_dir: str):
    ds = docs_points(sf_dir, ("n_chars",))

    def widen(b: pa.Table) -> pa.Table:
        v = pc.cast(b["n_chars"], pa.float64())
        return (
            b.append_column("sum_chars", v)
            .append_column("avg_chars", v)
            .append_column("mean_chars", v)
        )

    ds = ds.map_batches(widen, batch_format="pyarrow")
    out = grid_aggregation(
        ds,
        resolution=RES,
        a=50,
        columns={"sum_chars": "sum", "avg_chars": "average", "mean_chars": "average3"},
        rounding=6,
    )
    return out.map_batches(
        lambda b: round6(b, ["sum_chars", "avg_chars", "mean_chars"]),
        batch_format="pyarrow",
    )


def _sql_knn() -> str:
    return (
        f"WITH points AS ({sql_points_cte()}) "
        f"SELECT a.doc_id, "
        f"ROW_NUMBER() OVER (PARTITION BY a.doc_id "
        f"  ORDER BY (b.x - a.x) * (b.x - a.x) + (b.y - a.y) * (b.y - a.y), b.doc_id)::BIGINT AS rank, "
        f"b.doc_id AS neighbor_id, "
        f"ROUND(SQRT((b.x - a.x) * (b.x - a.x) + (b.y - a.y) * (b.y - a.y)) * 1e6) / 1e6 AS distance "
        f"FROM points a, points b "
        f"QUALIFY rank <= 4"
    )


@query("knn", sql=_sql_knn, bench=True, quadratic=True)
def q_knn(sf_dir: str):
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    did = np.asarray(t["doc_id"], dtype=np.int64)
    x, y = derive_xy(did)
    ref = {"id": did, "x": x, "y": y}
    out = knn_join(docs_points(sf_dir), ref, resolution=25_000.0, k=4)
    out = out.select_columns(["doc_id", "rank", "neighbor_id", "distance"])
    return out.map_batches(lambda b: round6(b, ["distance"]), batch_format="pyarrow")


@query("spans_roundtrip", sql=sql_span_summary_cte, bench=True)
def q_spans_roundtrip(sf_dir: str):
    """Flagship span-invariant pipeline: synthesize interleaved spans,
    cell-encode, spatially join, WRITE partitioned parquet, read back, and
    summarize the spans column — the summary must equal the closed-form
    oracle, proving per-row (kind, text, media_ref, offset) order survived
    every stage including the sink."""

    import ray.data as rd

    ds = docs_points(sf_dir)

    def add_spans(b: pa.Table) -> pa.Table:
        return b.append_column("spans", build_spans_array(np.asarray(b["doc_id"])))

    ds = ds.map_batches(add_spans, batch_format="pyarrow")
    ds = with_cell_columns(ds, resolution=RES, tile_size_cell=TSC)
    ds = join_points_to_polygons(ds, polygon_layer(), how="left")
    # one row per doc for the summary: drop join fan-out deterministically
    from ..tiler import write_partitioned

    out_dir = _scratch_dir("spans_roundtrip_stage_")
    write_partitioned(ds, out_dir, ["xt"], mode="overwrite")
    back = rd.read_parquet(out_dir, file_extensions=["parquet"])

    def summarize(b: pa.Table) -> pa.Table:
        return span_summary_from_column(b["doc_id"], b["spans"])

    summary = back.map_batches(summarize, batch_format="pyarrow")
    # join fan-out copies are identical per doc -> vectorized dedup via
    # Max aggregates (no per-doc Python)
    from ray.data.aggregate import Max

    return summary.groupby("doc_id").aggregate(
        Max("n_spans", alias_name="n_spans"),
        Max("n_text", alias_name="n_text"),
        Max("offset_sum", alias_name="offset_sum"),
        Max("last_offset", alias_name="last_offset"),
        Max("kind_seq", alias_name="kind_seq"),
    )


# ---------------------------------------------------------------------------
# text / dedup / similarity (training-data ops)
# ---------------------------------------------------------------------------


def _docs(sf_dir: str, cols):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=list(cols))


def _sql_token_count() -> str:
    return (
        "SELECT doc_id, len(regexp_extract_all(text, '\\S+'))::BIGINT AS n_tokens, "
        f"len(regexp_extract_all(text, '{BPE_PATTERN.replace(chr(39), chr(39) * 2)}'))::BIGINT AS bpe_tokens, "
        "length(text)::BIGINT AS len_chars FROM documents"
    )


@query("token_count", sql=_sql_token_count)
def q_token_count(sf_dir: str):
    from ..text import token_count

    return (
        _docs(sf_dir, ("doc_id", "text"))
        .map_batches(token_count, batch_format="pyarrow")
        .select_columns(["doc_id", "n_tokens", "bpe_tokens", "len_chars"])
    )


def _sql_quality_score() -> str:
    return (
        "SELECT doc_id, n_tokens, ROUND(punct_ratio * 1e6) / 1e6 AS punct_ratio, "
        "ROUND(stop_ratio * 1e6) / 1e6 AS stop_ratio, ROUND(quality * 1e6) / 1e6 AS quality "
        f"FROM ({text.sql_quality_score()})"
    )


@query("quality_score", sql=_sql_quality_score)
def q_quality_score(sf_dir: str):
    from ..text import quality_score

    ds = _docs(sf_dir, ("doc_id", "text")).map_batches(
        quality_score, batch_format="pyarrow"
    )
    ds = ds.select_columns(["doc_id", "n_tokens", "punct_ratio", "stop_ratio", "quality"])
    return ds.map_batches(
        lambda b: round6(b, ["punct_ratio", "stop_ratio", "quality"]),
        batch_format="pyarrow",
    )


def _sql_readability() -> str:
    return (
        "SELECT doc_id, n_words, n_sents, n_syllables, "
        "ROUND((206.835::DOUBLE - 1.015::DOUBLE * "
        "(GREATEST(n_words, 1)::DOUBLE / GREATEST(n_sents, 1)::DOUBLE) "
        "- 84.6::DOUBLE * (n_syllables::DOUBLE / "
        "GREATEST(n_words, 1)::DOUBLE)) * 1e6) / 1e6 AS flesch "
        "FROM (SELECT doc_id, "
        "len(regexp_extract_all(text, '\\S+'))::BIGINT AS n_words, "
        "len(regexp_extract_all(text, '[.!?]+'))::BIGINT AS n_sents, "
        "len(regexp_extract_all(text, '[AEIOUYaeiouy]+'))::BIGINT "
        "AS n_syllables FROM documents WHERE text IS NOT NULL)"
    )


@query("readability", sql=_sql_readability)
def q_readability(sf_dir: str):
    """Flesch reading-ease per doc (regex-twinned word / sentence /
    vowel-group-syllable laws, counts floored at 1, 6dp half-away)."""
    from ..text import flesch_reading

    ds = _docs(sf_dir, ("doc_id", "text")).map_batches(
        lambda b: flesch_reading(b.filter(pc.is_valid(b["text"]))),
        batch_format="pyarrow",
    )
    ds = ds.select_columns(
        ["doc_id", "n_words", "n_sents", "n_syllables", "flesch"]
    )
    return ds.map_batches(
        lambda b: round6(b, ["flesch"]), batch_format="pyarrow"
    )


@query(
    "lang_id",
    sql=lambda: f"SELECT doc_id, lang, lang_pred FROM ({text.sql_lang_id()})",
)
def q_lang_id(sf_dir: str):
    from ..text import lang_id

    return (
        _docs(sf_dir, ("doc_id", "text", "lang"))
        .map_batches(lang_id, batch_format="pyarrow")
        .select_columns(["doc_id", "lang", "lang_pred"])
    )


@query(
    "fingerprint",
    sql=lambda: "SELECT doc_id, md5(text) AS fingerprint FROM documents",
)
def q_fingerprint(sf_dir: str):
    from ..text import md5_fingerprint

    return (
        _docs(sf_dir, ("doc_id", "text"))
        .map_batches(md5_fingerprint, batch_format="pyarrow")
        .select_columns(["doc_id", "fingerprint"])
    )


@query("exact_dedup", sql=dedup.sql_exact_dedup, bench=True)
def q_exact_dedup(sf_dir: str):
    from ..dedup import exact_dedup

    return exact_dedup(_docs(sf_dir, ("doc_id", "text")))


def _planted_docs(sf_dir: str):
    """PLANTED corpus derived closed-form from doc_id: docs with
    doc_id % 50 in {0, 13} share identical group text, every other doc
    gets unique tokens (the planted-oracle pattern)."""
    ds = _docs(sf_dir, ("doc_id",))

    def planted_text(b: pa.Table) -> pa.Table:
        did = np.asarray(b["doc_id"], dtype=np.int64)
        texts = [
            " ".join(f"g{d // 50}tok{j}" for j in range(16))
            if d % 50 in (0, 13)
            else " ".join(f"u{d}w{j}" for j in range(12))
            for d in did.tolist()
        ]
        return b.append_column("text", pa.array(texts, pa.string()))

    return ds.map_batches(planted_text, batch_format="pyarrow")


def _sql_minhash_lsh() -> str:
    # planted-corpus expectation: exactly the identical-text pairs,
    # signature jaccard exactly 1.0 (see q_minhash_lsh)
    return (
        "SELECT a.doc_id AS id_a, b.doc_id AS id_b, 1.0 AS jaccard "
        "FROM documents a JOIN documents b ON b.doc_id = a.doc_id + 13 "
        "WHERE a.doc_id % 50 = 0"
    )


@query("minhash_lsh", sql=_sql_minhash_lsh, bench=True, quadratic=True)
def q_minhash_lsh(sf_dir: str):
    """MinHash+LSH over the planted corpus (see _planted_docs).  LSH
    recall is probabilistic for 0 < jaccard < 1, but identical docs
    collide in every band with probability 1 and estimate exactly 1.0 —
    so the full signature -> banding -> bucket-verify pipeline has a
    deterministic, SQL-expressible expected output.  Mixed-similarity
    recall stays covered by pytest fixtures."""
    from ..dedup import minhash_lsh_pairs

    return minhash_lsh_pairs(_planted_docs(sf_dir), jaccard_threshold=0.5)


_SQL_PLANTED = (
    "SELECT doc_id, CASE WHEN doc_id % 50 IN (0, 13) THEN "
    "array_to_string(['g' || CAST(doc_id // 50 AS VARCHAR) || 'tok' || CAST(j AS VARCHAR) "
    "for j in generate_series(0, 15)], ' ') ELSE "
    "array_to_string(['u' || CAST(doc_id AS VARCHAR) || 'w' || CAST(j AS VARCHAR) "
    "for j in generate_series(0, 11)], ' ') END AS text FROM documents"
)


@query("simhash_pairs", sql=lambda: _sql_simhash_pairs(), quadratic=True)
def q_simhash_pairs(sf_dir: str):
    """SimHash hamming<=3 near-dup pairs over the planted corpus —
    pigeonhole banding gives recall 1, so the all-pairs DuckDB twin is
    an exact oracle."""
    from ..dedup import simhash_pairs

    return simhash_pairs(_planted_docs(sf_dir))


def _sql_simhash_pairs() -> str:
    from ..dedup import sql_simhash_pairs

    inner = sql_simhash_pairs(3, source="planted")
    return inner.replace(
        "WITH sh AS", f"WITH planted AS ({_SQL_PLANTED}), sh AS", 1
    )


def _sql_neardup_cluster() -> str:
    # planted groups {g*50, g*50+13} collapse to their min member;
    # the correlated MIN keeps the oracle honest for partial blocks
    return (
        "SELECT d.doc_id, "
        "CASE WHEN d.doc_id % 50 IN (0, 13) THEN "
        "(SELECT MIN(d2.doc_id) FROM documents d2 "
        "WHERE d2.doc_id // 50 = d.doc_id // 50 "
        "AND d2.doc_id % 50 IN (0, 13)) "
        "ELSE d.doc_id END AS component FROM documents d"
    )


@query("neardup_cluster", sql=_sql_neardup_cluster, quadratic=True)
def q_neardup_cluster(sf_dir: str):
    """Near-dup pair graph -> connected components -> every doc labeled
    with its component (min reachable id; singletons = self).  Exercises
    the distributed min-label propagation + the left join back onto the
    corpus."""
    from ..dedup import minhash_lsh_pairs, neardup_components

    pairs = minhash_lsh_pairs(_planted_docs(sf_dir), jaccard_threshold=0.5)
    return neardup_components(_docs(sf_dir, ("doc_id",)), pairs)


@query("simhash", sql=dedup.sql_simhash)
def q_simhash(sf_dir: str):
    from ..dedup import simhash64

    return (
        _docs(sf_dir, ("doc_id", "text"))
        .map_batches(simhash64, batch_format="pyarrow")
        .select_columns(["doc_id", "simhash"])
    )


@query("lang_quantiles", sql=sql_grouped_quantiles)
def q_lang_quantiles(sf_dir: str):
    """Exact per-language n_chars quantiles via the histogram two-phase
    plan (stats.grouped_quantiles; DuckDB quantile_disc rank law)."""
    from ..stats import grouped_quantiles

    return grouped_quantiles(
        _docs(sf_dir, ("lang", "n_chars")),
        key="lang",
        value="n_chars",
        qs=(0.25, 0.5, 0.9),
    )


CURATE_MIN_QUALITY = 0.5


@query("corpus_curate", sql=lambda: _sql_corpus_curate(), quadratic=True)
def q_corpus_curate(sf_dir: str):
    """Capstone curation pipeline — the composition a production corpus
    run executes: exact n-gram-Jaccard near-dup pairs -> connected
    components -> keep one doc per component (min id) -> quality gate.
    The quality threshold is applied to the ROUNDED score on both sides
    so the boundary can never flip on sub-ulp float divergence."""
    from ..dedup import neardup_dedup, ngram_jaccard_pairs
    from ..text import quality_score

    pairs = ngram_jaccard_pairs(_docs(sf_dir, ("doc_id", "text")), threshold=0.3)
    kept = neardup_dedup(_docs(sf_dir, ("doc_id",)), pairs)

    def score(b: pa.Table) -> pa.Table:
        b = quality_score(b)
        b = round6(b.select(["doc_id", "lang", "quality"]), ["quality"])
        return b.filter(
            pc.greater_equal(b["quality"], pa.scalar(CURATE_MIN_QUALITY))
        )

    scored = _docs(sf_dir, ("doc_id", "text", "lang")).map_batches(
        score, batch_format="pyarrow"
    )
    from ..cluster import default_num_partitions

    # both sides are filter outputs (empty blocks possible on small
    # inputs — the hash-shuffle schema race, cluster.compact_blocks
    # docstring).  They are corpus-scale, so instead of the pinning
    # compact guard, a fresh BALANCED repartition makes every block
    # non-empty whenever rows >= width (always at real scale).
    nparts = default_num_partitions()
    out = kept.select_columns(["doc_id"]).repartition(nparts).join(
        scored.repartition(nparts), "inner", num_partitions=nparts,
        on=("doc_id",),
    )
    return out.select_columns(["doc_id", "lang", "quality"])


@query("neardup_keep_best", sql=lambda: _sql_neardup_keep_best(), quadratic=True)
def q_neardup_keep_best(sf_dir: str):
    """Near-dup dedup keeping the BEST-quality doc per component
    (dedup.neardup_keep_best): exact Jaccard pairs -> CC labels ->
    balanced-repartition score join -> coarse-bucket argmax per
    (hash-like) component id; ties break to min doc_id."""
    from ..dedup import neardup_keep_best, ngram_jaccard_pairs
    from ..text import quality_score

    docs = _docs(sf_dir, ("doc_id", "text", "lang"))
    pairs = ngram_jaccard_pairs(
        _docs(sf_dir, ("doc_id", "text")), threshold=0.3
    )

    def score(b: pa.Table) -> pa.Table:
        b = quality_score(b)
        return round6(b.select(["doc_id", "quality"]), ["quality"])

    scored = docs.map_batches(score, batch_format="pyarrow")
    return neardup_keep_best(scored, pairs, score_col="quality")


def _sql_neardup_keep_best() -> str:
    from ..dedup import sql_ngram_jaccard
    from ..text import sql_quality_score

    return f"""
WITH RECURSIVE pairs AS ({sql_ngram_jaccard(0.3)}),
edges AS (
  SELECT id_a AS a, id_b AS b FROM pairs
  UNION SELECT id_b, id_a FROM pairs
),
reach(a, b) AS (
  SELECT a, b FROM edges
  UNION
  SELECT r.a, e.b FROM reach r JOIN edges e ON r.b = e.a
),
lab AS (
  SELECT d.doc_id,
         LEAST(d.doc_id, COALESCE(MIN(r.b), d.doc_id)) AS component
  FROM documents d LEFT JOIN reach r ON r.a = d.doc_id
  GROUP BY d.doc_id
),
q AS (SELECT doc_id, ROUND(quality * 1e6) / 1e6 AS quality
      FROM ({sql_quality_score()})),
ranked AS (
  SELECT l.doc_id, l.component, q.quality,
         ROW_NUMBER() OVER (PARTITION BY l.component
                            ORDER BY q.quality DESC, l.doc_id) AS rn
  FROM lab l JOIN q ON q.doc_id = l.doc_id
)
SELECT doc_id, component, quality FROM ranked WHERE rn = 1
"""


LANGS = ("de", "en", "es", "fr", "zh")
COV_DIMS = 16


@query(
    "embedding_cov",
    sql=lambda: stats.sql_embedding_covariance(dims=COV_DIMS),
    bench=True,
)
def q_embedding_cov(sf_dir: str):
    """Sample covariance of the first 16 embedding dims via the
    combinable-moments two-phase reduce (stats.embedding_covariance)."""
    import ray.data as rd

    from ..stats import embedding_covariance

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    return embedding_covariance(ds, dims=COV_DIMS)


@query(
    "rollup",
    sql=lambda: stats.sql_rollup_aggregate(keys=("lang", "source"), value="n_chars"),
)
def q_rollup(sf_dir: str):
    """GROUP BY ROLLUP(lang, source) counts + char sums — finest groupby
    once, coarser levels re-aggregate the aggregate."""
    from ..stats import rollup_aggregate

    return rollup_aggregate(
        _docs(sf_dir, ("lang", "source", "n_chars")),
        keys=("lang", "source"), value="n_chars",
    )


@query(
    "pivot_langs",
    sql=lambda: stats.sql_pivot_counts(
        group_col="source", pivot_col="lang", categories=LANGS,
        value="n_chars",
    ),
)
def q_pivot_langs(sf_dir: str):
    """Wide pivot: per source, doc counts per language + char sum."""
    from ..stats import pivot_counts

    return pivot_counts(
        _docs(sf_dir, ("lang", "source", "n_chars")),
        group_col="source", pivot_col="lang", categories=LANGS,
        value="n_chars",
    )


@query(
    "string_agg",
    sql=lambda: stats.sql_grouped_string_agg(group_col="lang", value_col="doc_id"),
)
def q_string_agg(sf_dir: str):
    """Per-language ordered string_agg of doc ids."""
    from ..stats import grouped_string_agg

    return grouped_string_agg(
        _docs(sf_dir, ("lang", "doc_id")),
        group_col="lang", value_col="doc_id",
    )


PACK_CAP = 2048


@query(
    "pack_sequences",
    sql=lambda: pack.sql_pack_sequences(
        PACK_CAP,
        source=(
            "(SELECT doc_id, len(regexp_extract_all(text, '\\S+'))::BIGINT "
            "AS n_tokens FROM documents)"
        ),
    ),
    bench=True,
)
def q_pack_sequences(sf_dir: str):
    """Concat-and-chunk sequence packing: global token prefix-sum in
    doc_id order -> (seq_id, seq_off, n_seqs) per doc (pack.py)."""
    from ..pack import pack_sequences
    from ..text import token_count

    ds = (
        _docs(sf_dir, ("doc_id", "text"))
        .map_batches(token_count, batch_format="pyarrow")
        .select_columns(["doc_id", "n_tokens"])
    )
    return pack_sequences(
        ds, id_col="doc_id", tokens_col="n_tokens", cap=PACK_CAP
    )


TOKEN_BUDGET = 800  #: per-source token budget (sf0.01 splits kept/cut)


@query(
    "token_budget",
    sql=lambda: pack.sql_token_budget_take(
        TOKEN_BUDGET,
        source=(
            "(SELECT doc_id, source, "
            "len(regexp_extract_all(text, '\S+'))::BIGINT "
            "AS n_tokens FROM documents) AS t"
        ),
    ),
    bench=True,
)
def q_token_budget(sf_dir: str):
    """Per-source token budgeting (pack.token_budget_take): keyed
    distributed prefix sum over n_tokens in doc_id order, doc kept
    while its source's inclusive running total fits TOKEN_BUDGET —
    the data-mixing cutoff a 100 TB curriculum run applies per
    domain."""
    from ..pack import token_budget_take
    from ..text import token_count

    ds = (
        _docs(sf_dir, ("doc_id", "source", "text"))
        .map_batches(token_count, batch_format="pyarrow")
        .select_columns(["doc_id", "source", "n_tokens"])
    )
    return token_budget_take(
        ds, key_col="source", order_col="doc_id",
        tokens_col="n_tokens", budget=TOKEN_BUDGET,
    )


@query("llm_prepare", sql=lambda: _sql_llm_prepare(), bench=True, quadratic=True)
def q_llm_prepare(sf_dir: str):
    """Capstone #2 — the full pretraining data-prep chain a corpus run
    executes end-to-end: exact dedup (keep min-id per content) -> drop
    the eval slice -> quality gate (rounded >= 0.5) -> decontaminate
    against the eval slice's 4-grams -> hash split, keep 'train' ->
    concat-and-chunk sequence packing.  Every stage is the engine's own
    operator; the DuckDB twin composes the same laws."""
    from ..dedup import decontaminate, exact_dedup
    from ..pack import pack_sequences
    from ..stats import split_by_hash
    from ..text import quality_score

    docs = _docs(sf_dir, ("doc_id", "text"))

    def side(is_eval: bool):
        def f(b: pa.Table) -> pa.Table:
            ids = np.asarray(b["doc_id"], dtype=np.int64)
            return b.filter(pa.array((ids % DECON_MOD == DECON_RES) == is_eval))

        return f

    from ..cluster import default_num_partitions

    # Keeper-id set from exact dedup: an ID-ONLY stream.  The text column
    # must never enter a shuffle (it is the bulk of the corpus bytes), so
    # the per-doc stages below — quality gate, decontamination (broadcast
    # eval gram set) — run map-only on the doc stream FIRST, reducing it
    # to (doc_id, n_tokens); only then does the keeper semi-join shuffle,
    # exchanging 16 bytes/row.  Every per-doc predicate commutes with the
    # keeper-set intersection, so the result is law-identical to
    # dedup-first.  (A broadcast/bloom semi-join does not apply: the
    # keeper set is corpus-sized — most documents are unique.)
    nparts = default_num_partitions()
    keep = (
        exact_dedup(docs)
        .select_columns(["keeper_id"])
        .rename_columns(["doc_id"])
        .repartition(nparts)  # aggregates emit column-less empty blocks
    )
    ev = docs.map_batches(side(True), batch_format="pyarrow")
    cand = docs.map_batches(side(False), batch_format="pyarrow")

    def quality_gate(b: pa.Table) -> pa.Table:
        b = quality_score(b)
        b = round6(b, ["quality"])
        b = b.filter(
            pc.greater_equal(b["quality"], pa.scalar(CURATE_MIN_QUALITY))
        )
        return b.select(["doc_id", "text", "n_tokens"])

    gated = cand.map_batches(quality_gate, batch_format="pyarrow")
    clean = decontaminate(gated, ev, n=4).map_batches(
        lambda b: b.filter(pc.invert(b["contaminated"])).select(
            ["doc_id", "n_tokens"]
        ),
        batch_format="pyarrow",
    )
    # clean is a corpus-scale filter output — balance-repartition it so
    # no block is empty (hash-shuffle schema race guard without the
    # pinning compact; keep is already repartitioned above)
    clean = clean.repartition(nparts).join(
        keep, "inner", num_partitions=nparts, on=("doc_id",)
    )
    train = split_by_hash(clean, key_col="doc_id").map_batches(
        lambda b: b.filter(pc.equal(b["split"], pa.scalar("train"))).select(
            ["doc_id", "n_tokens"]
        ),
        batch_format="pyarrow",
    )
    return pack_sequences(
        train, id_col="doc_id", tokens_col="n_tokens", cap=PACK_CAP,
    )


def _sql_llm_prepare() -> str:
    from ..dedup import sql_grams_cte
    from ..pack import sql_pack_sequences
    from ..stats import sql_split_by_hash
    from ..text import sql_quality_score

    ev_pred = f"doc_id % {DECON_MOD} = {DECON_RES}"
    survivors = f"""(
WITH keep AS (SELECT MIN(doc_id) AS doc_id FROM documents GROUP BY md5(text)),
{sql_grams_cte(4)},
ev AS (SELECT DISTINCT unnest(g) AS gram FROM grams WHERE {ev_pred}),
cand AS (
  SELECT q.doc_id, q.n_tokens
  FROM ({sql_quality_score()}) q JOIN keep USING (doc_id)
  WHERE NOT ({ev_pred.replace('doc_id', 'q.doc_id')})
    AND ROUND(q.quality * 1e6) / 1e6 >= {CURATE_MIN_QUALITY}
),
tg AS (SELECT g.doc_id, unnest(g.g) AS gram
       FROM grams g JOIN cand ON cand.doc_id = g.doc_id),
hits AS (SELECT DISTINCT doc_id FROM tg JOIN ev USING (gram))
SELECT doc_id, n_tokens
FROM ({sql_split_by_hash(key_col="doc_id", source="cand")})
WHERE split = 'train' AND doc_id NOT IN (SELECT doc_id FROM hits)
)"""
    return sql_pack_sequences(PACK_CAP, source=survivors)


@query("events_lag", sql=stats.sql_keyed_lag)
def q_events_lag(sf_dir: str):
    """Per-user LAG/LEAD + inter-event delta (stats.keyed_lag; non-null
    value column in the fixture, so passthrough is exact)."""
    import ray.data as rd

    from ..stats import keyed_lag

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "value"],
    )
    return keyed_lag(
        ev, key_col="user_id", ts_col="ts", id_col="event_id",
        value_col="value",
    )


@query("dedup_lines", sql=dedup.sql_dedup_lines, bench=True, quadratic=True)
def q_dedup_lines(sf_dir: str):
    """C4-style line-level dedup: keep each line only at its global first
    occurrence, reassemble docs (dedup.dedup_lines)."""
    from ..dedup import dedup_lines

    return dedup_lines(_docs(sf_dir, ("doc_id", "text")))


@query(
    "dedup_lines_nl",
    sql=lambda: dedup.sql_dedup_lines_nl(
        source="(SELECT doc_id, replace(text, 'line', chr(10)) AS text"
        " FROM documents) AS d"
    ),
    bench=True,
    quadratic=True,
)
def q_dedup_lines_nl(sf_dir: str):
    """C4 line dedup over REAL newline lines: the fixture text (no
    newlines) gains them via replace('line' -> chr(10)) — the same
    left-to-right non-overlapping replace law on both sides — then
    dedup_lines(splitter="newline") keeps each \\n-line only at its
    global first occurrence."""
    from ..dedup import dedup_lines

    def add_nl(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "text": pc.replace_substring(
                    pc.cast(b["text"], pa.string()), "line", "\n"
                ),
            }
        )

    ds = _docs(sf_dir, ("doc_id", "text")).map_batches(
        add_nl, batch_format="pyarrow"
    )
    return dedup_lines(ds, splitter="newline")


@query("lang_quantiles_cont", sql=stats.sql_grouped_quantiles_cont)
def q_lang_quantiles_cont(sf_dir: str):
    """Interpolated per-language quantiles (quantile_cont law)."""
    from ..stats import grouped_quantiles_cont

    return grouped_quantiles_cont(
        _docs(sf_dir, ("lang", "n_chars")), key="lang", value="n_chars",
        qs=(0.25, 0.5, 0.9),
    )


@query(
    "dup_gram_coverage",
    sql=lambda: dedup.sql_dup_gram_coverage(n=3),
    bench=True,
    quadratic=True,
)
def q_dup_gram_coverage(sf_dir: str):
    """Per-doc duplicated-trigram coverage (dedup.dup_gram_coverage) —
    the substring-dedup diagnostic: gram-bucket shuffle computes global
    occurrence counts locally, doc partials coarse-sum; no join."""
    import ray.data as rd

    from ..dedup import dup_gram_coverage

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return dup_gram_coverage(ds, n=3)


@query(
    "grouped_corr",
    sql=lambda: stats.sql_grouped_corr(
        group_col="l_returnflag", x_col="l_quantity", y_col="l_extendedprice"
    ),
)
def q_grouped_corr(sf_dir: str):
    """Pearson correlation of quantity vs extended price per return
    flag (stats.grouped_corr): combinable (n, sums, cross-sums)
    partials, one low-cardinality groupby, closed-form finish."""
    import ray.data as rd

    from ..stats import grouped_corr

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_extendedprice"],
    )
    return grouped_corr(
        ds, group_col="l_returnflag", x_col="l_quantity",
        y_col="l_extendedprice",
    )


@query(
    "window_ranks",
    sql=lambda: stats.sql_window_ranks(group_col="lang", value_col="n_chars"),
)
def q_window_ranks(sf_dir: str):
    """RANK / DENSE_RANK / CUME_DIST per language (stats.window_ranks):
    histogram reduce + broadcast per-group CDF, rows never shuffle."""
    import ray.data as rd

    from ..stats import window_ranks

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]
    )
    return window_ranks(ds, group_col="lang", value_col="n_chars")


@query(
    "ntile",
    sql=lambda: stats.sql_ntile(
        group_col="lang", order_col="n_chars", tiebreak_col="doc_id", n=4
    ),
)
def q_ntile(sf_dir: str):
    """NTILE(4) quartile bucketing per language (stats.ntile): one
    coarse-bucket shuffle, vectorized multi-group tile assignment with
    the exact SQL fill law; doc_id tiebreak makes ties deterministic."""
    import ray.data as rd

    from ..stats import ntile

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]
    )
    return ntile(
        ds, group_col="lang", order_col="n_chars", tiebreak_col="doc_id", n=4
    )


@query(
    "percent_rank",
    sql=lambda: stats.sql_percent_rank(group_col="lang", value_col="n_chars"),
)
def q_percent_rank(sf_dir: str):
    """Distributed PERCENT_RANK window (stats.percent_rank): bounded
    histogram reduce + broadcast per-group CDF; row stream never
    shuffles."""
    import ray.data as rd

    from ..stats import percent_rank

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]
    )
    return percent_rank(ds, group_col="lang", value_col="n_chars")


@query(
    "iqr_outliers",
    sql=lambda: stats.sql_iqr_outliers(key="event_type", value="value"),
    bench=True,
)
def q_iqr_outliers(sf_dir: str):
    """Per-event-type Tukey-fence outlier profile (stats.iqr_outliers):
    histogram-plan quartiles -> closure-broadcast fences -> one scan
    with per-batch partial counts; fences built from 6dp-rounded
    quartiles so strict compares agree bitwise with the SQL twin."""
    import ray.data as rd

    from ..stats import iqr_outliers

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    return iqr_outliers(ds, key="event_type", value="value")


@query("trimmed_mean", sql=stats.sql_trimmed_mean)
def q_trimmed_mean(sf_dir: str):
    """Per-event-type 5/95 trimmed mean (stats.trimmed_mean): exact
    rounded fences broadcast, one partial-count scan, driver fold."""
    import ray.data as rd

    from ..stats import trimmed_mean

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    return trimmed_mean(ds, key="event_type", value="value")


@query("distinct_count", sql=lambda: _sql_distinct_count())
def q_distinct_count(sf_dir: str):
    """EXACT grouped count-distinct (the exact twin of the hll_distinct
    estimate): dedupe groupby on (lang, source) -> per-lang count.  The
    shuffle carries distinct pairs only — the standard exact plan when
    the distinct domain is bounded."""
    from ray.data.aggregate import Count

    return (
        _docs(sf_dir, ("lang", "source"))
        .groupby(["lang", "source"])
        .count()
        .groupby("lang")
        .aggregate(Count(alias_name="n_distinct"))
    )


def _sql_distinct_count() -> str:
    return (
        "SELECT lang, COUNT(DISTINCT source)::BIGINT AS n_distinct "
        "FROM documents GROUP BY lang"
    )


@query("lang_confusion", sql=lambda: _sql_lang_confusion())
def q_lang_confusion(sf_dir: str):
    """Model-eval pattern: confusion matrix of the lang_id heuristic vs
    the labeled language — classify in map_batches, one tiny groupby."""
    from ray.data.aggregate import Count

    from ..text import lang_id

    preds = _docs(sf_dir, ("doc_id", "text", "lang")).map_batches(
        lang_id, batch_format="pyarrow"
    )
    return (
        preds.select_columns(["lang", "lang_pred"])
        .groupby(["lang", "lang_pred"])
        .aggregate(Count(alias_name="n"))
    )


def _sql_lang_confusion() -> str:
    from ..text import sql_lang_id

    return (
        f"SELECT lang, lang_pred, COUNT(*)::BIGINT AS n "
        f"FROM ({sql_lang_id()}) GROUP BY lang, lang_pred"
    )


@query("numeric_profile", sql=lambda: _sql_numeric_profile())
def q_numeric_profile(sf_dir: str):
    """Data-quality profile of lineitem's numeric columns: per column
    (n, nulls, min, max, sum) from ONE combiner pass — each batch emits
    one row per column, the tiny groupby folds them (the expectations/
    dq-assertions primitive)."""
    import ray.data as rd

    from ray.data.aggregate import Max, Min, Sum

    cols = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]
    ds = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=cols)

    def partial(b: pa.Table) -> pa.Table:
        out = {"col": [], "n": [], "nulls": [], "vmin": [], "vmax": [],
               "vsum": []}
        for c in cols:
            col = b[c]
            out["col"].append(c)
            out["n"].append(b.num_rows)
            out["nulls"].append(int(pc.sum(pc.is_null(col).cast(pa.int64())).as_py() or 0))
            out["vmin"].append(pc.min(col).as_py())
            out["vmax"].append(pc.max(col).as_py())
            out["vsum"].append(float(pc.sum(col).as_py() or 0.0))
        return pa.table(
            {
                "col": pa.array(out["col"], pa.string()),
                "n": pa.array(out["n"], pa.int64()),
                "nulls": pa.array(out["nulls"], pa.int64()),
                "vmin": pa.array(out["vmin"], pa.float64()),
                "vmax": pa.array(out["vmax"], pa.float64()),
                "vsum": pa.array(out["vsum"], pa.float64()),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("col")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("nulls", alias_name="nulls"),
            Min("vmin", alias_name="vmin"),
            Max("vmax", alias_name="vmax"),
            Sum("vsum", alias_name="vsum"),
        )
    )
    # vsum is a single corpus-wide money sum (~2e9 at sf0.01): whole-unit
    # rounding keeps the step >> ulp(sum) x addends (the synth.py rule);
    # 2dp would leave only ~3x margin
    return agg.map_batches(
        lambda b: round_half_away(b, ["vsum"], 0), batch_format="pyarrow"
    )


def _sql_numeric_profile() -> str:
    cols = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]
    parts = [
        (
            f"SELECT '{c}' AS col, COUNT(*)::BIGINT AS n, "
            f"SUM(CASE WHEN {c} IS NULL THEN 1 ELSE 0 END)::BIGINT AS nulls, "
            f"MIN({c})::DOUBLE AS vmin, MAX({c})::DOUBLE AS vmax, "
            f"ROUND(SUM({c})) AS vsum FROM lineitem"
        )
        for c in cols
    ]
    return " UNION ALL ".join(parts)


@query("incremental_agg", sql=lambda: _sql_incremental_agg())
def q_incremental_agg(sf_dir: str):
    """Incremental partition-wise aggregation (state.incremental): stage
    the corpus as a hive tree, run the incremental fold TWICE — the
    second pass recomputes zero partitions (asserted) and must reproduce
    the direct aggregate exactly."""
    import ray.data as rd

    from ..state.incremental import incremental_aggregate
    from ..tiler import write_partitioned

    base = _scratch_dir("incr_stage_")

    def add_pt(b: pa.Table) -> pa.Table:
        ids = np.asarray(b["doc_id"], dtype=np.int64)
        return b.append_column("pt", pa.array(ids % 8))

    docs = _docs(sf_dir, ("doc_id", "lang", "n_chars")).map_batches(
        add_pt, batch_format="pyarrow"
    )
    write_partitioned(docs, f"{base}/in", ["pt"], mode="overwrite")
    incremental_aggregate(
        f"{base}/in", f"{base}/cache", key_cols=["lang"],
        value_col="n_chars",
    )
    out, stats = incremental_aggregate(
        f"{base}/in", f"{base}/cache", key_cols=["lang"],
        value_col="n_chars",
    )
    assert stats["recomputed"] == 0 and stats["cached"] == 8, stats
    return out


def _sql_incremental_agg() -> str:
    return (
        "SELECT lang, SUM(n_chars)::BIGINT AS n_chars "
        "FROM documents GROUP BY lang"
    )


Q3_SEGMENT, Q3_DATE = "BUILDING", "1998-04-25"


@query("q3_shipping", sql=lambda: _sql_q3(), bench=True)
def q3_shipping(sf_dir: str):
    """TPC-H Q3-style 3-way join: customers of one segment -> their
    orders before the cut date -> line items shipped after it; top-10
    orders by revenue.  Shape: broadcast semi-join on the dimension
    (customer keys of the segment ship once), date filters pushed into
    the map stage, one FK hash join, grouped revenue, bounded final
    sort.  Ordering uses the ROUNDED revenue on both sides so the top-k
    boundary is tie-law exact."""
    import ray.data as rd

    from ray.data.aggregate import Sum

    from ..joins import semi_join

    cut = np.datetime64(Q3_DATE)
    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).map_batches(
        lambda b: b.filter(
            pc.equal(b["c_mktsegment"], pa.scalar(Q3_SEGMENT))
        ).select(["c_custkey"]),
        batch_format="pyarrow",
    )
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(
        lambda b: b.filter(
            pa.array(
                np.asarray(b["o_orderdate"]).astype("datetime64[D]") < cut
            )
        ),
        batch_format="pyarrow",
    )
    orders = semi_join(orders, cust, on="o_custkey", right_on="c_custkey")
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(
        lambda b: pa.table(
            {
                "l_orderkey": b["l_orderkey"],
                "rev": pc.multiply(
                    b["l_extendedprice"],
                    pc.subtract(pa.scalar(1.0), b["l_discount"]),
                ),
            }
        ).filter(
            pa.array(np.asarray(b["l_shipdate"]).astype("datetime64[D]") > cut)
        ),
        batch_format="pyarrow",
    )
    # The keeper dimension (segment customers' pre-cut orders) is ~1.5%
    # of the orders table; broadcast it while it fits (the tfidf norms
    # law: <=2M rows), else fall back to the partitioned hash join.
    keeper = orders.select_columns(["o_orderkey", "o_orderdate"]).materialize()
    if keeper.count() <= 2_000_000:
        from ..joins import lookup_join

        dim = pa.concat_tables(
            keeper.iter_batches(batch_size=None, batch_format="pyarrow")
        )
        j = lookup_join(
            li, dim, on="l_orderkey", key="o_orderkey",
            value_cols=["o_orderdate"],
        )
    else:
        from ..cluster import default_num_partitions

        nparts = default_num_partitions()
        j = li.repartition(nparts).join(
            keeper.repartition(nparts),
            "inner",
            num_partitions=nparts,
            on=("l_orderkey",),
            right_on=("o_orderkey",),
        )
    # Grouped revenue + top-10 WITHOUT a fine per-order groupby or a
    # global sort: per-batch combiners sum revenue by order key (every
    # key carries one date), a 64-bucket coarse shuffle finishes each
    # key's exact sum (a key lives wholly in one bucket) and keeps only
    # that bucket's top-10 by the ROUNDED-revenue tie law, and the
    # driver merges 64x10 candidate rows — the per-stage volume is
    # combiner-bounded at any scale, vs the previous plan's one Ray
    # group per order key plus an all-data sort.
    import ray
    import pandas as pd

    def bucket_partial(b: pa.Table) -> pa.Table:
        k = np.asarray(b["l_orderkey"], np.int64)
        r = np.asarray(b["rev"], np.float64)
        d = (
            np.asarray(pc.cast(b["o_orderdate"], pa.timestamp("us")))
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        uk, inv = np.unique(k, return_inverse=True)
        s = np.bincount(inv, weights=r, minlength=len(uk))
        first = np.zeros(len(uk), np.int64)
        first[inv[::-1]] = d[::-1]  # one date per order key
        return pa.table(
            {"k": pa.array(uk), "d": pa.array(first), "s": pa.array(s)}
        )

    def bucket_topk(t: pa.Table, starts: np.ndarray) -> dict:
        sums = np.add.reduceat(np.asarray(t["s"], np.float64), starts)
        uk = np.asarray(t["k"], np.int64)[starts]
        ud = np.asarray(t["d"], np.int64)[starts]
        rev = np.sign(sums) * np.floor(np.abs(sums) * 1e2 + 0.5) / 1e2
        top = np.lexsort((uk, -rev))[:10]
        return {"k": uk[top], "d": ud[top], "revenue": rev[top]}

    cand_tops = segment_apply(
        j.map_batches(bucket_partial, batch_format="pyarrow"),
        "k",
        bucket_topk,
        pa.schema({"k": pa.int64(), "d": pa.int64(), "revenue": pa.float64()}),
    ).materialize()
    # (materialize before to_arrow_refs: consuming a lazy Dataset via
    # refs triggers schema-probe re-executions of the whole DAG)
    parts = [
        t if isinstance(t, pa.Table)
        else pa.Table.from_pandas(t, preserve_index=False)
        for t in ray.get(cand_tops.to_arrow_refs())
    ]
    parts = [t for t in parts if t.num_rows]
    if not parts:
        merged = pd.DataFrame(
            {"k": pd.Series([], np.int64), "d": pd.Series([], np.int64),
             "revenue": pd.Series([], np.float64)}
        )
    else:
        merged = pa.concat_tables(
            parts, promote_options="permissive"
        ).to_pandas()
    uk = merged["k"].to_numpy(np.int64)
    rev = merged["revenue"].to_numpy(np.float64)
    top = np.lexsort((uk, -rev))[:10]
    out = pa.table(
        {
            "l_orderkey": pa.array(uk[top]),
            "o_orderdate": pa.array(
                merged["d"].to_numpy(np.int64)[top]
            ).cast(pa.timestamp("us")),
            "revenue": pa.array(rev[top]),
        }
    )
    import ray.data as _rd

    return _rd.from_arrow(out)


def _sql_q3() -> str:
    return f"""
SELECT l_orderkey, o_orderdate,
       ROUND(SUM(l_extendedprice * (1.0 - l_discount)) * 1e2) / 1e2
         AS revenue
FROM customer
JOIN orders ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = '{Q3_SEGMENT}'
  AND o_orderdate < DATE '{Q3_DATE}'
  AND l_shipdate > DATE '{Q3_DATE}'
GROUP BY l_orderkey, o_orderdate
ORDER BY revenue DESC, l_orderkey
LIMIT 10
"""


SNAIVE_LAG = 7


@query("seasonal_naive", sql=lambda: _sql_seasonal_naive())
def q_seasonal_naive(sf_dir: str):
    """Seasonal-naive forecast backtest per event type: forecast(day) =
    count(day - {SNAIVE_LAG}); report per-type MAE and MAPE over every
    day whose lagged day exists (inner-join law).  The classic
    time-series baseline every production forecast is judged against.

    Scale shape: one per-batch (event_type, day, n) combiner partial ->
    the built-in low-cardinality Sum groupby (types x days is bounded)
    -> the tiny daily-counts table aligns day vs day-lag vectorized.
    Counts are integers (exactly representable), so MAE is
    order-independent; MAPE rounds at 6dp (dwarfs ulp x 30 addends)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts"]
    )

    def partial(b: pa.Table) -> pa.Table:
        import pandas as pd

        day = (
            np.asarray(b["ts"])
            .astype("datetime64[D]")
            .astype(np.int64)
        )
        df = pd.DataFrame(
            {"event_type": np.asarray(b["event_type"]).astype(object),
             "day": day}
        )
        g = df.groupby(["event_type", "day"], sort=False).size()
        out = g.reset_index(name="n")
        out["n"] = out["n"].astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    counts = (
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "day"])
        .aggregate(Sum("n", alias_name="n"))
    )
    tbl = pa.concat_tables(
        t
        for t in counts.iter_batches(batch_size=None, batch_format="pyarrow")
        if t.num_rows
    )
    et = np.asarray(tbl["event_type"]).astype(object)
    day = np.asarray(tbl["day"], np.int64)
    n = np.asarray(tbl["n"], np.int64)
    # align (type, day) vs (type, day - LAG) with one packed sort
    order = np.lexsort((day, et))
    et, day, n = et[order], day[order], n[order]
    types, tcode = np.unique(et, return_inverse=True)
    key = tcode * (1 << 31) + day
    lag_key = tcode * (1 << 31) + (day - SNAIVE_LAG)
    pos = np.searchsorted(key, lag_key)
    pos = np.clip(pos, 0, len(key) - 1)
    hit = key[pos] == lag_key
    act = n[hit].astype(np.float64)
    fc = n[pos[hit]].astype(np.float64)
    tc = tcode[hit]
    err = np.abs(act - fc)
    out_t, out_nd, out_mae, out_mape = [], [], [], []
    for t in range(len(types)):
        sel = tc == t
        if not sel.any():
            continue
        out_t.append(types[t])
        out_nd.append(int(sel.sum()))
        tol = 1e6
        mae = float(np.mean(err[sel]))
        mape = float(np.mean(err[sel] / act[sel]))
        out_mae.append(np.sign(mae) * np.floor(abs(mae) * tol + 0.5) / tol)
        out_mape.append(np.sign(mape) * np.floor(abs(mape) * tol + 0.5) / tol)
    return pa.table(
        {
            "event_type": pa.array(out_t, pa.string()),
            "n_days": pa.array(out_nd, pa.int64()),
            "mae": pa.array(out_mae, pa.float64()),
            "mape": pa.array(out_mape, pa.float64()),
        }
    )


def _sql_seasonal_naive() -> str:
    return f"""
WITH c AS (
  SELECT event_type, CAST(ts AS DATE) AS d, COUNT(*)::BIGINT AS n
  FROM events GROUP BY event_type, d
)
SELECT a.event_type, COUNT(*)::BIGINT AS n_days,
       ROUND(AVG(ABS(a.n - b.n)::DOUBLE) * 1e6) / 1e6 AS mae,
       ROUND(AVG(ABS(a.n - b.n)::DOUBLE / a.n::DOUBLE) * 1e6) / 1e6 AS mape
FROM c a JOIN c b ON b.event_type = a.event_type
                 AND b.d = a.d - {SNAIVE_LAG}
GROUP BY a.event_type
"""


@query("cells_export", sql=lambda: _sql_cells_export())
def q_cells_export(sf_dir: str):
    """Geometry-export round trip: occupied cells -> partitioned GeoJSON
    (export.write_geojson_tiles) -> engine's own reader
    (sources.geojson.read_geojson_layer) -> per-cell corner/area table.
    The oracle reproduces the corner laws straight from the point CTE,
    so any byte drift in the writer/reader shows up as a value
    mismatch.  (The read-back side is the engine's BROADCAST-layer
    reader — polygon layers are broadcast-scale by contract; the write
    side is fully distributed.)"""
    import glob as _glob

    from ..export import write_geojson_tiles
    from ..sources.geojson import read_geojson_layer
    from ..tiler import with_cell_columns

    out = _scratch_dir("cells_geojson_")
    ds = with_cell_columns(
        docs_points(sf_dir), resolution=RES, tile_size_cell=TSC
    )
    cells = ds.groupby(["ix", "iy"]).count()
    write_geojson_tiles(cells, out, resolution=RES)
    layer = []
    for f in sorted(_glob.glob(f"{out}/part-*.geojson")):
        layer.extend(read_geojson_layer(f))
    return pa.table(
        {
            "cell_key": pa.array(
                np.asarray([int(p["nuts_id"]) for p in layer], np.int64)
            ),
            "x0": pa.array([p["bbox"][0] for p in layer], pa.float64()),
            "y0": pa.array([p["bbox"][1] for p in layer], pa.float64()),
            "x1": pa.array([p["bbox"][2] for p in layer], pa.float64()),
            "y1": pa.array([p["bbox"][3] for p in layer], pa.float64()),
            "area": pa.array([p["area"] for p in layer], pa.float64()),
        }
    )


def _sql_cells_export() -> str:
    from ..tiler import sql_cell_columns

    cols = sql_cell_columns(RES, TSC)
    points = sql_points_cte()
    return f"""
WITH points AS ({points}),
cells AS (SELECT DISTINCT {cols['ix']} AS ix, {cols['iy']} AS iy FROM points)
SELECT iy * 4294967296 + ix AS cell_key,
       ix * {RES!r} AS x0, iy * {RES!r} AS y0,
       (ix + 1) * {RES!r} AS x1, (iy + 1) * {RES!r} AS y1,
       {RES!r} * {RES!r} AS area
FROM cells
"""


@query("bigram_lm", sql=text.sql_bigram_logprob)
def q_bigram_lm(sf_dir: str):
    """Add-one-smoothed bigram LM score per doc
    (text.bigram_logprob_score)."""
    from ..text import bigram_logprob_score

    return bigram_logprob_score(_docs(sf_dir, ("doc_id", "text")))


@query("zscore", sql=stats.sql_grouped_zscore)
def q_zscore(sf_dir: str):
    """Per-language z-score normalization of n_chars
    (stats.grouped_zscore; grouped-broadcast-normalize)."""
    from ..stats import grouped_zscore

    return grouped_zscore(
        _docs(sf_dir, ("doc_id", "lang", "n_chars")),
        group_col="lang", value_col="n_chars",
    )


@query("snapshot_diff", sql=lambda: _sql_snapshot_diff())
def q_snapshot_diff(sf_dir: str):
    """Data-versioning diff of two derived corpus snapshots (A drops
    doc_id%11==0, B drops doc_id%7==0 and rewrites doc_id%5==0) —
    added/removed/changed/unchanged per id (state.snapshot_diff)."""
    from ..state.incremental import snapshot_diff
    from ..text import md5_list

    def snap(side: str):
        def f(b: pa.Table) -> pa.Table:
            ids = np.asarray(b["doc_id"], dtype=np.int64)
            texts = np.asarray(b["text"]).astype(object)
            if side == "a":
                keep = ids % 11 != 0
            else:
                keep = ids % 7 != 0
                texts = np.where(ids % 5 == 0, texts + " v2", texts)
            h = md5_list(list(texts[keep]))
            return pa.table(
                {
                    "doc_id": pa.array(ids[keep]),
                    "h": pa.array(h, pa.string()),
                }
            )

        return f

    docs = _docs(sf_dir, ("doc_id", "text"))
    a = docs.map_batches(snap("a"), batch_format="pyarrow")
    b = docs.map_batches(snap("b"), batch_format="pyarrow")
    return snapshot_diff(a, b)


def _sql_snapshot_diff() -> str:
    return """
WITH a AS (SELECT doc_id, md5(text) AS h FROM documents WHERE doc_id % 11 <> 0),
b AS (SELECT doc_id,
        md5(CASE WHEN doc_id % 5 = 0 THEN text || ' v2' ELSE text END) AS h
      FROM documents WHERE doc_id % 7 <> 0)
SELECT COALESCE(a.doc_id, b.doc_id) AS doc_id,
  (CASE WHEN a.doc_id IS NULL THEN 'added'
        WHEN b.doc_id IS NULL THEN 'removed'
        WHEN a.h = b.h THEN 'unchanged' ELSE 'changed' END) AS status
FROM a FULL OUTER JOIN b ON a.doc_id = b.doc_id
"""


@query("clip", sql=stats.sql_clip_by_quantiles)
def q_clip(sf_dir: str):
    """Winsorize n_chars at the corpus [5%, 95%] quantiles
    (stats.clip_by_quantiles)."""
    from ..stats import clip_by_quantiles

    out, _cuts = clip_by_quantiles(
        _docs(sf_dir, ("doc_id", "n_chars")), value="n_chars"
    )
    return out.select_columns(["doc_id", "n_chars", "n_chars_clip"])


@query(
    "top_sources",
    sql=lambda: stats.sql_grouped_topk(
        group_col="lang", order_col="chars", tiebreak_col="source", k=3,
        source=(
            "(SELECT lang, source, SUM(n_chars)::BIGINT AS chars "
            "FROM documents GROUP BY lang, source)"
        ),
        select="lang, source, chars",
    ),
)
def q_top_sources(sf_dir: str):
    """Top-3 sources per language by character volume — aggregate-then-
    rank composition (groupby Sum -> stats.grouped_topk)."""
    from ray.data.aggregate import Sum

    from ..stats import grouped_topk

    agg = (
        _docs(sf_dir, ("lang", "source", "n_chars"))
        .groupby(["lang", "source"])
        .aggregate(Sum("n_chars", alias_name="chars"))
    )
    return grouped_topk(
        agg, group_col="lang", order_col="chars", tiebreak_col="source", k=3
    )


@query("normalize", sql=lambda: _sql_normalize())
def q_normalize(sf_dir: str):
    """Canonical text normalization (text.normalize_text) + md5 of the
    normalized form — the pre-dedup canonicalization stage."""
    from ..text import md5_fingerprint, normalize_text

    def f(b: pa.Table) -> pa.Table:
        b = normalize_text(b)
        b = md5_fingerprint(b, text_col="norm_text")
        return b.select(["doc_id", "norm_text", "fingerprint"]).rename_columns(
            ["doc_id", "norm_text", "norm_md5"]
        )

    return _docs(sf_dir, ("doc_id", "text")).map_batches(
        f, batch_format="pyarrow"
    )


def _sql_normalize() -> str:
    from ..text import sql_normalize_text

    return (
        f"SELECT doc_id, norm_text, md5(norm_text) AS norm_md5 "
        f"FROM ({sql_normalize_text()})"
    )


@query("approx_quantiles", sql=stats.sql_approx_quantiles)
def q_approx_quantiles(sf_dir: str):
    """Fixed-bin histogram-sketch quantiles (stats.approx_quantiles) —
    the unbounded-domain scale path, exact-law twin."""
    from ..stats import approx_quantiles

    return approx_quantiles(
        _docs(sf_dir, ("lang", "n_chars")), key="lang", value="n_chars",
    )


@query(
    "sample_exact_k",
    sql=lambda: stats.sql_sample_exact_k(group_col="lang", key_col="doc_id", k=10),
)
def q_sample_exact_k(sf_dir: str):
    """Exactly-k-per-group deterministic sample (stats.sample_exact_k)."""
    from ..stats import sample_exact_k

    return sample_exact_k(
        _docs(sf_dir, ("doc_id", "lang")), group_col="lang",
        key_col="doc_id", k=10,
    )


BM25_QUERY = ("table", "scan", "vector")


@query("bm25", sql=lambda: text.sql_bm25_score(BM25_QUERY), bench=True)
def q_bm25(sf_dir: str):
    """Okapi BM25 relevance of every doc against a fixed query
    (text.bm25_score; aggregate -> broadcast -> score)."""
    from ..text import bm25_score

    return bm25_score(_docs(sf_dir, ("doc_id", "text")), BM25_QUERY)


@query("salted_join", sql=lambda: _sql_salted_join())
def q_salted_join(sf_dir: str):
    """Skew-safe salted FK join (joins.salted_join): lineitem x orders on
    orderkey under salt shards, folded to per-priority totals.  The salt
    rewrite is output-invariant, so the plain-join SQL twin is exact."""
    import ray.data as rd

    from ray.data.aggregate import Count, Sum

    from ..joins import salted_join

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_quantity"]
    )
    od = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"]
    )
    j = salted_join(li, od, on="l_orderkey", right_on="o_orderkey", salt=4)
    agg = j.groupby("o_orderpriority").aggregate(
        Count(alias_name="n_lines"), Sum("l_quantity", alias_name="sum_qty")
    )
    return agg.map_batches(
        lambda b: round_half_away(b, ["sum_qty"], 2), batch_format="pyarrow"
    )


def _sql_salted_join() -> str:
    return (
        "SELECT o_orderpriority, COUNT(*)::BIGINT AS n_lines, "
        "ROUND(SUM(l_quantity) * 1e2) / 1e2 AS sum_qty "
        "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
        "GROUP BY o_orderpriority"
    )


@query("filter_cascade", sql=text.sql_filter_cascade)
def q_filter_cascade(sf_dir: str):
    """Quality-filter cascade with per-doc reason codes
    (text.filter_cascade; first-failing-rule law)."""
    from ..text import filter_cascade

    return filter_cascade(_docs(sf_dir, ("doc_id", "text")))


@query("countmin_topk", sql=lambda: stats.sql_countmin_topk(k=20))
def q_countmin(sf_dir: str):
    """Count-Min heavy hitters: exact top-20 unigrams probed against the
    mergeable sketch (stats.countmin_topk; est >= cnt one-sided law)."""
    from ..stats import countmin_topk

    return countmin_topk(_docs(sf_dir, ("doc_id", "text")), k=20)


MIX_WEIGHTS = {"en": 1.5, "zh": 2.0, "de": 1.0, "fr": 0.5, "es": 0.25}


@query("mixture", sql=lambda: stats.sql_mixture_repeat(weights=MIX_WEIGHTS))
def q_mixture(sf_dir: str):
    """Data-mixture epoch repetition: per-language fractional repeat
    factors, deterministic record-by-record (stats.mixture_repeat)."""
    from ..stats import mixture_repeat

    return mixture_repeat(
        _docs(sf_dir, ("doc_id", "lang")), weights=MIX_WEIGHTS,
    )


SHUFFLE_SALT = "epoch0"


@query(
    "shuffle_pos",
    sql=lambda: pack.sql_shuffle_by_hash(key_col="doc_id", salt=SHUFFLE_SALT),
    bench=True,
)
def q_shuffle(sf_dir: str):
    """Deterministic global training shuffle: content-stable dense rank
    under ORDER BY md5(doc_id || salt) (pack.shuffle_by_hash)."""
    from ..pack import shuffle_by_hash

    out = shuffle_by_hash(
        _docs(sf_dir, ("doc_id",)), key_col="doc_id", salt=SHUFFLE_SALT,
    )
    return out.select_columns(["doc_id", "pos"])


DECON_MOD, DECON_RES = 13, 5  # eval split: doc_id % 13 == 5


@query(
    "contamination_overlap",
    sql=lambda: dedup.sql_contamination_overlap(
        n=4, eval_pred=f"doc_id % {DECON_MOD} = {DECON_RES}"
    ),
    bench=True,
    quadratic=True,
)
def q_contamination_overlap(sf_dir: str):
    """Graded contamination score: fraction of each training doc's
    distinct word 4-grams present in the eval slice — broadcast gram
    set, zero corpus shuffle (dedup.contamination_overlap)."""
    from ..dedup import contamination_overlap

    def side(is_eval: bool):
        def f(b: pa.Table) -> pa.Table:
            ids = np.asarray(b["doc_id"], dtype=np.int64)
            return b.filter(
                pa.array((ids % DECON_MOD == DECON_RES) == is_eval)
            )

        return f

    docs = _docs(sf_dir, ("doc_id", "text"))
    ev = docs.map_batches(side(True), batch_format="pyarrow")
    tr = docs.map_batches(side(False), batch_format="pyarrow")
    return contamination_overlap(tr, ev, n=4)


@query("token_js", sql=lambda: _sql_token_js(), bench=True)
def q_token_js(sf_dir: str):
    """Jensen-Shannon divergence between the two snapshot halves'
    unigram distributions (doc_id parity split) — the token-level
    drift monitor complementing quality_psi.  Per-token terms round to
    int64 nano-units (1e9) so the global sum is EXACT integer addition
    in any order; the output rounds the nano sum at 6dp — both twins
    add identical integers (pointwise JS contributions are >= 0, so
    floor(x * 1e9 + 0.5) is the shared half-away law).

    Scale shape: one totals combiner (two ints), then per-batch
    (side, token) count partials ride ONE coarse token-hash shuffle
    (all copies of a token co-locate -> per-token terms are exact
    in-bucket) and only per-bucket int64 partial sums reach the
    driver."""
    import pandas as pd
    import ray.data as rd

    from ..dedup import TOKEN_RE

    docs = _docs(sf_dir, ("doc_id", "text"))

    def tok_partial(b: pa.Table) -> pa.Table:
        did = np.asarray(b["doc_id"], np.int64)
        texts = b["text"].to_pylist()
        sides, toks = [], []
        for d, t in zip(did, texts):
            tl = TOKEN_RE.findall(t or "")
            toks.extend(tl)
            sides.extend([int(d % 2)] * len(tl))
        if not toks:
            return pa.table(
                {
                    "side": pa.array([], pa.int64()),
                    "t": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        df = (
            pd.DataFrame({"side": sides, "t": toks})
            .groupby(["side", "t"], sort=False)
            .size()
            .reset_index(name="n")
        )
        df["n"] = df["n"].astype(np.int64)
        return pa.Table.from_pandas(df, preserve_index=False)

    parts = docs.map_batches(
        tok_partial, batch_format="pyarrow"
    ).materialize()
    # totals per side (tiny)
    tot = np.zeros(2, np.int64)
    for b in parts.iter_batches(batch_size=None, batch_format="pyarrow"):
        sd = np.asarray(b["side"], np.int64)
        nn = np.asarray(b["n"], np.int64)
        np.add.at(tot, sd, nn)
    sa, sb = float(tot[0]), float(tot[1])

    def bucket_terms(tb: pa.Table, starts: np.ndarray) -> dict:
        side = np.asarray(tb["side"], np.int64)
        n = np.asarray(tb["n"], np.int64)
        seg = np.repeat(np.arange(len(starts)), np.diff(np.append(starts, len(n))))
        na = np.bincount(seg[side == 0], n[side == 0], len(starts))
        nb_ = np.bincount(seg[side == 1], n[side == 1], len(starts))
        p = na / sa
        q = nb_ / sb
        m = (p + q) / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            tp = np.where(p > 0, 0.5 * p * np.log(p / m), 0.0)
            tq = np.where(q > 0, 0.5 * q * np.log(q / m), 0.0)
        micro = np.floor((tp + tq) * 1e9 + 0.5).astype(np.int64)
        return {"msum": [micro.sum()], "n_tokens": [len(starts)]}

    schema = pa.schema({"msum": pa.int64(), "n_tokens": pa.int64()})
    fold = to_frame(segment_apply(parts, "t", bucket_terms, schema), schema)
    msum = int(fold["msum"].sum())
    n_tok = int(fold["n_tokens"].sum())
    js = np.floor(msum / 1e9 * 1e6 + 0.5) / 1e6  # js >= 0
    return pa.table(
        {
            "n_tok_a": pa.array([int(sa)], pa.int64()),
            "n_tok_b": pa.array([int(sb)], pa.int64()),
            "vocab": pa.array([n_tok], pa.int64()),
            "js": pa.array([float(js)], pa.float64()),
        }
    )


def _sql_token_js() -> str:
    return """
WITH tok AS (
  SELECT doc_id % 2 AS side,
         unnest(regexp_extract_all(text, '\S+')) AS t
  FROM documents
),
c AS (SELECT side, t, COUNT(*)::BIGINT AS n FROM tok GROUP BY side, t),
tot AS (SELECT side, SUM(n)::BIGINT AS s FROM c GROUP BY side),
pt AS (
  SELECT t,
    COALESCE(SUM(CASE WHEN side = 0 THEN n END), 0)::BIGINT AS na,
    COALESCE(SUM(CASE WHEN side = 1 THEN n END), 0)::BIGINT AS nb
  FROM c GROUP BY t
),
terms AS (
  SELECT
    ROUND((
      CASE WHEN na > 0 THEN 0.5 * (na * 1.0 / sa.s)
        * ln((na * 1.0 / sa.s)
             / (((na * 1.0 / sa.s) + (nb * 1.0 / sb.s)) / 2.0))
      ELSE 0.0 END
      +
      CASE WHEN nb > 0 THEN 0.5 * (nb * 1.0 / sb.s)
        * ln((nb * 1.0 / sb.s)
             / (((na * 1.0 / sa.s) + (nb * 1.0 / sb.s)) / 2.0))
      ELSE 0.0 END
    ) * 1e9)::BIGINT AS micro
  FROM pt, (SELECT s FROM tot WHERE side = 0) sa,
       (SELECT s FROM tot WHERE side = 1) sb
)
SELECT
  (SELECT s FROM tot WHERE side = 0)::BIGINT AS n_tok_a,
  (SELECT s FROM tot WHERE side = 1)::BIGINT AS n_tok_b,
  (SELECT COUNT(*) FROM pt)::BIGINT AS vocab,
  ROUND(SUM(micro) / 1e9 * 1e6) / 1e6 AS js
FROM terms
"""


PSI_NBUCK = 10  #: fixed uniform quality buckets over [0, 1]


ACF_CAL_MAX_LAG = 7


@query("events_acf_cal", sql=lambda: _sql_events_acf_cal(), bench=True)
def q_events_acf_cal(sf_dir: str):
    """Autocorrelation of the CALENDAR daily event-count series at lags
    1..7 (missing days count 0 — the zero-filled companion of the
    observed-pair `events_acf`; weekly seasonality shows as a lag-7
    peak).  r_k = sum (x_t - m)(x_{t+k} - m) / sum (x_t - m)^2 over
    the overlapping range, 6dp half-away.

    Scale shape: per-batch (day, n) count combiners -> one bounded
    date-domain aggregate -> driver fold over a few hundred day ints
    (the fixed-cost rule)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts"])

    def part(b: pa.Table) -> pa.Table:
        us = np.asarray(b["ts"]).astype("datetime64[us]").astype(np.int64)
        day = us // np.int64(86_400_000_000)  # ts epochs are positive
        u, c = np.unique(day, return_counts=True)
        return pa.table(
            {"day": pa.array(u), "n": pa.array(c.astype(np.int64))}
        )

    agg = (
        ds.map_batches(part, batch_format="pyarrow")
        .groupby("day")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    days = agg["day"].to_numpy(np.int64)
    ns = agg["n"].to_numpy(np.int64)
    lo, hi = int(days.min()), int(days.max())
    x = np.zeros(hi - lo + 1, np.float64)
    x[days - lo] = ns
    m = x.sum() / len(x)
    d = x - m
    ssq = float((d * d).sum())
    lags, acf = [], []
    for k in range(1, ACF_CAL_MAX_LAG + 1):
        num = float((d[:-k] * d[k:]).sum()) if k < len(x) else 0.0
        r = num / ssq if ssq > 0 else 0.0
        r = float(np.sign(r) * np.floor(np.abs(r) * 1e6 + 0.5) / 1e6)
        lags.append(k)
        acf.append(r)
    return pa.table(
        {
            "lag": pa.array(lags, pa.int64()),
            "acf": pa.array(acf, pa.float64()),
        }
    )


def _sql_events_acf_cal() -> str:
    return f"""
WITH c AS (
  SELECT CAST(FLOOR(EPOCH(ts) / 86400) AS BIGINT) AS day,
         COUNT(*)::BIGINT AS n
  FROM events GROUP BY 1
),
rng AS (SELECT MIN(day) AS lo, MAX(day) AS hi FROM c),
cal AS (
  SELECT unnest(generate_series(lo, hi)) AS day FROM rng
),
x AS (
  SELECT cal.day, COALESCE(c.n, 0)::DOUBLE AS v
  FROM cal LEFT JOIN c USING (day)
),
mstat AS (SELECT SUM(v) / COUNT(*) AS m FROM x),
dv AS (SELECT day, v - (SELECT m FROM mstat) AS d FROM x),
ssq AS (SELECT SUM(d * d) AS s FROM dv),
lags AS (
  SELECT unnest(generate_series(1, {ACF_CAL_MAX_LAG})) AS lag
)
SELECT l.lag,
  ROUND(COALESCE(SUM(a.d * b.d), 0) / (SELECT s FROM ssq) * 1e6) / 1e6
    AS acf
FROM lags l
JOIN dv a ON TRUE
JOIN dv b ON b.day = a.day + l.lag
GROUP BY l.lag
ORDER BY l.lag
"""


@query("quality_psi", sql=lambda: _sql_quality_psi(), bench=True)
def q_quality_psi(sf_dir: str):
    """Population Stability Index between two corpus snapshots (doc_id
    parity split) over fixed uniform quality buckets — the standard
    data-drift monitor: psi = sum (pa - pb) * ln(pa / pb) over buckets
    populated on BOTH sides (documented zero-bucket law), 6dp-rounded
    terms so both sides sum identical doubles.

    Scale shape: ONE pass — per-batch (side, bucket) count combiners ->
    a bounded 2 x 10 domain fold on the driver."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..text import quality_score

    ds = _docs(sf_dir, ("doc_id", "text")).map_batches(
        quality_score, batch_format="pyarrow"
    )

    def part(b: pa.Table) -> pa.Table:
        did = np.asarray(b["doc_id"], np.int64)
        q = np.asarray(b["quality"], np.float64)
        # round6 first (the shared quality law), then bucket
        q6 = np.floor(q * 1e6 + 0.5) / 1e6
        bk = np.minimum(
            (q6 * PSI_NBUCK).astype(np.int64), PSI_NBUCK - 1
        )
        side = (did % 2).astype(np.int64)
        key = side * PSI_NBUCK + bk
        u, c = np.unique(key, return_counts=True)
        return pa.table(
            {"k": pa.array(u), "n": pa.array(c.astype(np.int64))}
        )

    agg = (
        ds.map_batches(part, batch_format="pyarrow")
        .groupby("k")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    cnt = np.zeros(2 * PSI_NBUCK, np.int64)
    cnt[agg["k"].to_numpy(np.int64)] = agg["n"].to_numpy(np.int64)
    a = cnt[:PSI_NBUCK].astype(np.float64)
    b_ = cnt[PSI_NBUCK:].astype(np.float64)
    ta, tb = a.sum(), b_.sum()
    both = (a > 0) & (b_ > 0)

    def r6(x):
        return np.floor(np.abs(x) * 1e6 + 0.5) / 1e6 * np.sign(x)

    pa_ = a[both] / ta
    pb_ = b_[both] / tb
    terms = r6((pa_ - pb_) * np.log(pa_ / pb_))
    psi = float(r6(terms.sum()))
    return pa.table(
        {
            "n_a": pa.array([int(ta)], pa.int64()),
            "n_b": pa.array([int(tb)], pa.int64()),
            "n_buckets_both": pa.array([int(both.sum())], pa.int64()),
            "psi": pa.array([psi], pa.float64()),
        }
    )


def _sql_quality_psi() -> str:
    from ..text import sql_quality_score

    return f"""
WITH qs AS ({sql_quality_score()}),
b AS (
  SELECT (doc_id % 2) AS side,
    LEAST(CAST(FLOOR((ROUND(quality * 1e6) / 1e6) * {PSI_NBUCK})
               AS BIGINT), {PSI_NBUCK - 1}) AS bk
  FROM qs
),
c AS (SELECT side, bk, COUNT(*)::BIGINT AS n FROM b GROUP BY side, bk),
tot AS (
  SELECT side, SUM(n)::BIGINT AS t FROM c GROUP BY side
),
j AS (
  SELECT ca.bk,
    ca.n * 1.0 / ta.t AS pa, cb.n * 1.0 / tb.t AS pb
  FROM c ca JOIN c cb ON cb.bk = ca.bk AND cb.side = 1
  JOIN tot ta ON ta.side = 0 JOIN tot tb ON tb.side = 1
  WHERE ca.side = 0
)
SELECT COALESCE((SELECT t FROM tot WHERE side = 0), 0)::BIGINT AS n_a,
  COALESCE((SELECT t FROM tot WHERE side = 1), 0)::BIGINT AS n_b,
  (SELECT COUNT(*) FROM j)::BIGINT AS n_buckets_both,
  ROUND(COALESCE(SUM(ROUND((pa - pb) * ln(pa / pb) * 1e6) / 1e6), 0)
        * 1e6) / 1e6 AS psi
FROM j
"""


_FD_CHECKS = [
    # (name, table, key col, dependent col) — A -> B holds when every A
    # value maps to exactly one distinct B
    ("documents.doc_id->lang", "documents", "doc_id", "lang"),
    ("documents.source->lang", "documents", "source", "lang"),
    ("events.user_id->event_type", "events", "user_id", "event_type"),
]


@query("fd_check", sql=lambda: _sql_fd_check(), bench=True)
def q_fd_check(sf_dir: str):
    """Functional-dependency audit (the DQ profiling companion of
    fk_check): per declared A -> B, the distinct-A count and how many
    A values map to MORE than one distinct B.  Per check: per-batch
    distinct (A, B) partials -> ONE coarse A-hash shuffle (all copies
    of an A co-locate, so per-A distinct-B counts are exact in-bucket)
    -> two scalars; only distinct pairs ever move."""
    import pandas as pd
    import ray.data as rd

    names, nk, nv = [], [], []
    for name, tbl, a_col, b_col in _FD_CHECKS:
        ds = rd.read_parquet(
            f"{sf_dir}/{tbl}.parquet", columns=[a_col, b_col]
        )

        def part(b: pa.Table, _a=a_col, _b=b_col) -> pa.Table:
            df = pd.DataFrame(
                {
                    "a": np.asarray(
                        pc.cast(b[_a], pa.string())
                    ).astype(object),
                    "b": np.asarray(
                        pc.cast(b[_b], pa.string())
                    ).astype(object),
                }
            ).drop_duplicates()
            return pa.Table.from_pandas(df, preserve_index=False)

        def fold(t: pa.Table, starts: np.ndarray) -> dict:
            # distinct b per a: b ascends within each a segment
            b = np.asarray(t["b"], dtype=object)
            new_b = np.append(True, b[1:] != b[:-1])
            new_b[starts] = True
            per = np.add.reduceat(new_b.astype(np.int64), starts)
            return {"n_keys": [len(per)], "n_violating": [int((per > 1).sum())]}

        schema = pa.schema({"n_keys": pa.int64(), "n_violating": pa.int64()})
        parts = to_frame(segment_apply(
            ds.map_batches(part, batch_format="pyarrow"), "a", fold, schema, order=("b",)
        ), schema)
        names.append(name)
        nk.append(int(parts["n_keys"].sum()))
        nv.append(int(parts["n_violating"].sum()))
    return pa.table(
        {
            "fd": pa.array(names, pa.string()),
            "n_keys": pa.array(nk, pa.int64()),
            "n_violating": pa.array(nv, pa.int64()),
        }
    )


def _sql_fd_check() -> str:
    arms = []
    for name, tbl, a_col, b_col in _FD_CHECKS:
        arms.append(
            f"SELECT '{name}' AS fd, COUNT(*)::BIGINT AS n_keys, "
            f"COALESCE(SUM(CASE WHEN c > 1 THEN 1 ELSE 0 END), 0)::BIGINT"
            f" AS n_violating FROM (SELECT {a_col}, "
            f"COUNT(DISTINCT {b_col}) AS c FROM {tbl} GROUP BY {a_col})"
        )
    return " UNION ALL ".join(arms)


@query(
    "cross_snapshot_dups",
    sql=lambda: _sql_cross_snapshot_dups(),
    bench=True,
    quadratic=True,
)
def q_cross_snapshot_dups(sf_dir: str):
    """Cross-snapshot duplicate flags — the incremental-ingest dedup
    gate: every NEW-snapshot doc (doc_id parity 1) flagged when its
    content key (md5 of the 4-token prefix, the fixture's content-hash
    stand-in) already appears in the OLD snapshot (parity 0).

    Scale shape: rows reduce to (doc_id, side, 8-byte key) in the
    first map; ONE coarse key-hash shuffle co-locates every copy of a
    key, so the old-side membership probe is exact in-bucket — no
    broadcast of the old corpus, no driver fold."""

    from ..text import md5_prefix_int

    def part(b: pa.Table) -> pa.Table:
        did = np.asarray(b["doc_id"], np.int64)
        texts = b["text"].to_pylist()
        from ..dedup import TOKEN_RE

        pref = [
            "\x1f".join(TOKEN_RE.findall(t or "")[:4]) for t in texts
        ]
        h = md5_prefix_int(pa.array(pref, pa.string()), hexdigits=15)
        return pa.table(
            {
                "doc_id": pa.array(did),
                "side": pa.array((did % 2).astype(np.int64)),
                "k": pa.array(h.astype(np.int64)),
            }
        )

    def probe(t: pa.Table, starts: np.ndarray) -> dict:
        side = np.asarray(t["side"], np.int64)
        seg = np.repeat(np.arange(len(starts)), np.diff(np.append(starts, len(side))))
        has_old = np.bincount(seg[side == 0], minlength=len(starts)) > 0
        new = side == 1
        return {
            "doc_id": np.asarray(t["doc_id"], np.int64)[new],
            "dup_of_old": has_old[seg[new]],
        }

    return segment_apply(
        _docs(sf_dir, ("doc_id", "text")).map_batches(part, batch_format="pyarrow"),
        "k",
        probe,
        pa.schema({"doc_id": pa.int64(), "dup_of_old": pa.bool_()}),
    )


def _sql_cross_snapshot_dups() -> str:
    return """
WITH t AS (
  SELECT doc_id, doc_id % 2 AS side,
    md5(array_to_string(
      list_slice(regexp_extract_all(text, '\S+'), 1, 4), chr(31)))
      AS h
  FROM documents
),
a AS (SELECT DISTINCT h FROM t WHERE side = 0)
SELECT doc_id, (h IN (SELECT h FROM a)) AS dup_of_old
FROM t WHERE side = 1
"""


@query("dup_cluster_sizes", sql=lambda: _sql_dup_cluster_sizes(), bench=True)
def q_dup_cluster_sizes(sf_dir: str):
    """Duplicate-cluster size histogram — the dedup-audit report: docs
    cluster by the md5 of their first-4-token prefix (the fixture's
    stand-in for a content hash; full-text md5 is the same plan) and
    one row per observed cluster size counts the clusters.

    Scale shape: text reduces to an 8-byte hash in the first map;
    cluster sizes fold in ONE coarse hash shuffle; the size histogram
    is a bounded-domain aggregate (sizes are small integers)."""
    import pandas as pd
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..text import md5_prefix_int

    def hash_partial(b: pa.Table) -> pa.Table:
        texts = b["text"].to_pylist()
        from ..dedup import TOKEN_RE

        pref = [
            "\x1f".join(TOKEN_RE.findall(t or "")[:4]) for t in texts
        ]
        h = md5_prefix_int(pa.array(pref, pa.string()), hexdigits=15)
        k = h.astype(np.int64)
        ku, cnt = np.unique(k, return_counts=True)
        return pa.table(
            {"k": pa.array(ku), "val": pa.array(cnt.astype(np.int64))}
        )

    from ..cluster import segment_sum

    sizes = segment_sum(
        _docs(sf_dir, ("doc_id", "text")).map_batches(
            hash_partial, batch_format="pyarrow"
        ),
        ["k"],
    )

    def hist_partial(g: pd.DataFrame) -> pd.DataFrame:
        s = g["val"].to_numpy(np.float64).astype(np.int64)
        u, c = np.unique(s, return_counts=True)
        return pd.DataFrame(
            {"size": u, "n_clusters": c.astype(np.int64)}
        )

    out = (
        sizes.map_batches(
            lambda b: pa.Table.from_pandas(
                hist_partial(b.to_pandas()), preserve_index=False
            ),
            batch_format="pyarrow",
        )
        .groupby("size")
        .aggregate(Sum("n_clusters", alias_name="n_clusters"))
    )
    return out.sort("size")


def _sql_dup_cluster_sizes() -> str:
    return """
WITH t AS (
  SELECT regexp_extract_all(text, '\S+') AS t FROM documents
),
h AS (
  SELECT md5(array_to_string(list_slice(t, 1, 4), chr(31))) AS h FROM t
),
c AS (SELECT h, COUNT(*)::BIGINT AS s FROM h GROUP BY h)
SELECT s AS size, COUNT(*)::BIGINT AS n_clusters
FROM c GROUP BY s ORDER BY s
"""


JC_CELL = 25000.0  #: join-count cell size (occupied lattice at sf0.01)
JC_THRESH = 2  #: black mark: cell holds >= 2 docs


@query("grid_join_counts", sql=lambda: _sql_grid_join_counts(), bench=True)
def q_grid_join_counts(sf_dir: str):
    """Join-count statistics (BB/BW/WW rook-adjacency association) over
    the doc point field: packed-cell count partials -> coarse sum ->
    two key-arithmetic safe_joins of the bounded cell table
    (spatial.grid_join_counts)."""
    from ..spatial import grid_join_counts

    return grid_join_counts(
        docs_points(sf_dir), cell=JC_CELL, threshold=JC_THRESH
    )


def _sql_grid_join_counts() -> str:
    from ..synth import sql_points_cte

    return f"""
WITH pts AS ({sql_points_cte()}),
cells AS (
  SELECT CAST(FLOOR(x / {JC_CELL!r}) AS BIGINT) AS ix,
         CAST(FLOOR(y / {JC_CELL!r}) AS BIGINT) AS iy,
         COUNT(*)::BIGINT AS c
  FROM pts GROUP BY 1, 2
),
m AS (SELECT ix, iy, (c >= {JC_THRESH}) AS black FROM cells),
pairs AS (
  SELECT a.black AS b1, b.black AS b2
  FROM m a JOIN m b ON b.ix = a.ix + 1 AND b.iy = a.iy
  UNION ALL
  SELECT a.black, b.black
  FROM m a JOIN m b ON b.ix = a.ix AND b.iy = a.iy + 1
)
SELECT (SELECT COUNT(*) FROM m)::BIGINT AS n_cells,
  COUNT(*)::BIGINT AS n_joins,
  COALESCE(SUM(CASE WHEN b1 AND b2 THEN 1 ELSE 0 END), 0)::BIGINT AS bb,
  COALESCE(SUM(CASE WHEN b1 != b2 THEN 1 ELSE 0 END), 0)::BIGINT AS bw,
  COALESCE(SUM(CASE WHEN NOT b1 AND NOT b2 THEN 1 ELSE 0 END), 0)::BIGINT
    AS ww
FROM pairs
"""


@query("winnow", sql=lambda: text.sql_winnow_fingerprints(n=3, window=4), bench=True)
def q_winnow(sf_dir: str):
    """Winnowing fingerprints (MOSS): per-doc window-min selection over
    the md5 gram-hash sequence, rightmost tie rule — one stateless map
    pass, no shuffle (text.winnow_fingerprints)."""
    from ..text import winnow_fingerprints

    return winnow_fingerprints(
        _docs(sf_dir, ("doc_id", "text")), n=3, window=4
    )


@query("ngram_diversity", sql=lambda: text.sql_ngram_diversity(n=2), bench=True)
def q_ngram_diversity(sf_dir: str):
    """Per-source bigram diversity (type-token ratio): combiner totals +
    one coarse gram-hash distinct shuffle (text.ngram_diversity) — the
    mode-collapse / boilerplate slice diagnostic."""
    from ..text import ngram_diversity

    return ngram_diversity(
        _docs(sf_dir, ("doc_id", "source", "text")), n=2
    )


@query("mix_weights", sql=lambda: _sql_mix_weights(), bench=True)
def q_mix_weights(sf_dir: str):
    """Data-mixing weights: per-source sampling weight that moves the
    observed token share to a UNIFORM target (weight = target_share /
    observed_share) — the reweighting step of a multi-domain training
    mix.  One token-count combiner + a bounded source-domain aggregate;
    the final is domain-bounded so it folds on the driver (SCALE.md
    driver-fold law).  Float law shared with the twin: obs_share =
    round6(n_tokens / total); mix_weight = round6((1.0 / n_sources) /
    (n_tokens * 1.0 / total)) — same literals, same op order."""
    import pandas as pd
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    from ..text import token_count

    agg = (
        _docs(sf_dir, ("doc_id", "source", "text"))
        .map_batches(token_count, batch_format="pyarrow")
        .select_columns(["source", "n_tokens"])
        .groupby("source")
        .aggregate(
            Sum("n_tokens", alias_name="n_tokens"),
            Count(alias_name="n_docs"),
        )
        .to_pandas()
    )
    tot = float(agg["n_tokens"].sum())
    k = len(agg)
    n = agg["n_tokens"].to_numpy(np.float64)
    obs = n * 1.0 / tot
    w = (1.0 / k) / (n * 1.0 / tot)

    def r6(x):
        return np.floor(np.abs(x) * 1e6 + 0.5) / 1e6 * np.sign(x)

    out = pd.DataFrame(
        {
            "source": agg["source"],
            "n_docs": agg["n_docs"].astype(np.int64),
            "n_tokens": agg["n_tokens"].astype(np.int64),
            "obs_share": r6(obs),
            "mix_weight": r6(w),
        }
    )
    return rd.from_pandas(out)


def _sql_mix_weights() -> str:
    return """
WITH tc AS (
  SELECT source, COUNT(*)::BIGINT AS n_docs,
         SUM(len(regexp_extract_all(text, '\S+')))::BIGINT AS n_tokens
  FROM documents GROUP BY source
),
tot AS (SELECT SUM(n_tokens)::BIGINT AS t, COUNT(*)::BIGINT AS k FROM tc)
SELECT source, n_docs, n_tokens,
  ROUND((n_tokens * 1.0 / tot.t) * 1e6) / 1e6 AS obs_share,
  ROUND(((1.0 / tot.k) / (n_tokens * 1.0 / tot.t)) * 1e6) / 1e6
    AS mix_weight
FROM tc, tot
"""


@query("curriculum_rank", sql=lambda: _sql_curriculum_rank(), bench=True)
def q_curriculum_rank(sf_dir: str):
    """Quality-curriculum global ordering: dense 0-based rank under
    (quality DESC, doc_id ASC) via the distributed prefix sum over a
    packed (1e6 - quality-micro, doc_id) order key — the curriculum
    layout step, same cost class as one range shuffle, no global sort
    materialization (pack.global_prefix_sum)."""
    from ..pack import global_prefix_sum
    from ..text import quality_score

    ds = _docs(sf_dir, ("doc_id", "text")).map_batches(
        quality_score, batch_format="pyarrow"
    )

    def pack_key(b: pa.Table) -> pa.Table:
        q = np.asarray(b["quality"], np.float64)
        qint = np.floor(q * 1e6 + 0.5).astype(np.int64)
        did = np.asarray(b["doc_id"], np.int64)
        key = (np.int64(1_000_000) - qint) * np.int64(1 << 31) + did
        return pa.table(
            {
                "doc_id": pa.array(did),
                "quality": pa.array(qint / 1e6),
                "__ok": pa.array(key),
                "__one": pa.array(np.ones(len(did), np.int64)),
            }
        )

    out = global_prefix_sum(
        ds.map_batches(pack_key, batch_format="pyarrow"),
        order_col="__ok", value_col="__one", out_col="crank",
    )
    return out.select_columns(["doc_id", "quality", "crank"])


def _sql_curriculum_rank() -> str:
    from ..text import sql_quality_score

    return f"""
WITH qs AS ({sql_quality_score()})
SELECT doc_id, ROUND(quality * 1e6) / 1e6 AS quality,
  (ROW_NUMBER() OVER (
     ORDER BY ROUND(quality * 1e6) DESC, doc_id) - 1)::BIGINT AS crank
FROM qs
"""


NEARDUP_DECON_T = 0.35  #: fuzzy-decon Jaccard threshold (splits at sf0.01)


@query(
    "decon_neardup",
    sql=lambda: dedup.sql_neardup_decontaminate(
        threshold=NEARDUP_DECON_T, n=4,
        eval_pred=f"doc_id % {DECON_MOD} = {DECON_RES}",
    ),
    bench=True,
    quadratic=True,
)
def q_decon_neardup(sf_dir: str):
    """Fuzzy decontamination: training docs whose distinct-4-gram
    Jaccard vs ANY eval-slice doc reaches the threshold — exact PPJoin
    pair scan over the union in disjoint id spaces, candidate-scale
    flag broadcast (dedup.neardup_decontaminate)."""
    from ..dedup import neardup_decontaminate

    def side(is_eval: bool):
        def f(b: pa.Table) -> pa.Table:
            ids = np.asarray(b["doc_id"], dtype=np.int64)
            return b.filter(
                pa.array((ids % DECON_MOD == DECON_RES) == is_eval)
            )

        return f

    docs = _docs(sf_dir, ("doc_id", "text"))
    ev = docs.map_batches(side(True), batch_format="pyarrow")
    tr = docs.map_batches(side(False), batch_format="pyarrow")
    return neardup_decontaminate(tr, ev, threshold=NEARDUP_DECON_T, n=4)


@query(
    "decontaminate",
    sql=lambda: dedup.sql_decontaminate(
        n=4, eval_pred=f"doc_id % {DECON_MOD} = {DECON_RES}"
    ),
    bench=True,
)
def q_decontaminate(sf_dir: str):
    """Benchmark decontamination: training docs flagged when they share a
    word 4-gram with the (hash-designated) eval slice — broadcast gram
    set, zero corpus shuffle (dedup.decontaminate)."""
    from ..dedup import decontaminate

    def side(is_eval: bool):
        def f(b: pa.Table) -> pa.Table:
            ids = np.asarray(b["doc_id"], dtype=np.int64)
            return b.filter(pa.array((ids % DECON_MOD == DECON_RES) == is_eval))

        return f

    docs = _docs(sf_dir, ("doc_id", "text"))
    ev = docs.map_batches(side(True), batch_format="pyarrow")
    tr = docs.map_batches(side(False), batch_format="pyarrow")
    return decontaminate(tr, ev, n=4).select_columns(
        ["doc_id", "contaminated"]
    )


@query("train_split", sql=lambda: _sql_train_split())
def q_train_split(sf_dir: str):
    """Deterministic hash-based train/val/test split (stats.split_by_hash)
    — content-stable, order/partitioning-independent."""
    from ..stats import split_by_hash

    out = split_by_hash(_docs(sf_dir, ("doc_id", "lang")), key_col="doc_id")
    return out.select_columns(["doc_id", "lang", "split"])


@query("unigram_logprob", sql=text.sql_unigram_logprob)
def q_unigram_logprob(sf_dir: str):
    """Corpus-unigram LM score per doc (aggregate -> broadcast -> score
    two-phase plan)."""
    from ..text import unigram_logprob_score

    out = unigram_logprob_score(_docs(sf_dir, ("doc_id", "text")))
    return out.map_batches(lambda b: round6(b, ["logprob"]), batch_format="pyarrow")


@query("top_bigrams", sql=lambda: sql_top_ngrams(2, 25), bench=True)
def q_top_bigrams(sf_dir: str):
    """Corpus-level top-k bigrams: per-batch value_counts combiner ->
    one (ngram, sum) groupby -> deterministic (cnt DESC, ngram ASC)
    top-k.  The tie-break total order makes the boundary exact."""
    from ..text import top_ngrams

    return top_ngrams(_docs(sf_dir, ("doc_id", "text")), n=2, k=25)


@query("pmi_bigrams", sql=lambda: sql_pmi_bigrams(min_count=5))
def q_pmi_bigrams(sf_dir: str):
    """PMI collocations (phrase mining): combiner-aggregated unigram +
    bigram totals, corpus sizes from one tiny Sum reduce, vocabulary
    broadcast once, vectorized PMI over the thresholded bigram set."""
    from ..text import pmi_bigrams

    return pmi_bigrams(_docs(sf_dir, ("doc_id", "text")), min_count=5)


_SCC_LIM = 512  # node cap of the directed-graph fixture (oracle closure
# is quadratic, so the fixture is bounded at every sf)


@query("scc", sql=lambda: _sql_scc(), bench=True)
def q_scc(sf_dir: str):
    """Strongly connected components (graph.scc, FW-BW coloring) over a
    deterministic directed functional graph on the first doc_ids:
    u -> (37u+11) % n for all u, plus u -> (61u+5) % n for u % 3 == 0 —
    cycles with in-trees, several non-trivial SCCs.  scc_id = min node
    id of the component; oracle is the recursive reachability closure +
    mutual-pair fold."""
    from ..graph import scc

    docs = _docs(sf_dir, ("doc_id",))
    n = 0
    for b in docs.map_batches(
        lambda t: pa.table(
            {
                "c": pa.array(
                    [int((np.asarray(t["doc_id"]) < _SCC_LIM).sum())],
                    pa.int64(),
                )
            }
        ),
        batch_format="pyarrow",
    ).iter_batches(batch_size=None, batch_format="pyarrow"):
        n += int(np.asarray(b["c"]).sum())

    def mk_edges(b: pa.Table) -> pa.Table:
        u = np.asarray(b["doc_id"], np.int64)
        u = u[u < _SCC_LIM]
        m = u % 3 == 0
        uu = np.concatenate([u, u[m]])
        vv = np.concatenate([(u * 37 + 11) % n, (u[m] * 61 + 5) % n])
        return pa.table({"u": pa.array(uu), "v": pa.array(vv)})

    return scc(docs.map_batches(mk_edges, batch_format="pyarrow"))


def _sql_scc() -> str:
    from ..graph import sql_scc

    nn = (
        f"(SELECT COUNT(*)::BIGINT AS n FROM documents "
        f"WHERE doc_id < {_SCC_LIM})"
    )
    edges = f"""
  SELECT d.doc_id AS u, (d.doc_id * 37 + 11) % nn.n AS v
  FROM documents d, {nn} nn WHERE d.doc_id < {_SCC_LIM}
  UNION ALL
  SELECT d.doc_id, (d.doc_id * 61 + 5) % nn.n
  FROM documents d, {nn} nn
  WHERE d.doc_id < {_SCC_LIM} AND d.doc_id % 3 = 0"""
    nodes = (
        f"SELECT doc_id AS u FROM documents WHERE doc_id < {_SCC_LIM}"
    )
    return sql_scc(edges_sql=edges, nodes_sql=nodes)


_PROFILE_COLS = ["doc_id", "text", "lang", "source", "n_chars"]


@query(
    "table_profile",
    sql=lambda: stats.sql_table_profile(source="documents", cols=_PROFILE_COLS),
    bench=True,
)
def q_table_profile(sf_dir: str):
    """Per-column table profile (stats.table_profile) of the documents
    table: n / nulls / exact distinct / native-domain min/max rendered
    as VARCHAR.  Distinct rides the coarse-bucket md5-prefix shuffle —
    (col, hash) int pairs only, the values never move."""
    from ..stats import table_profile

    return table_profile(
        _docs(sf_dir, tuple(_PROFILE_COLS)), _PROFILE_COLS
    )


_FK_CHECKS = [
    # (name, fact table, fact key, dim table, dim key)
    ("lineitem.l_orderkey->orders", "lineitem", "l_orderkey",
     "orders", "o_orderkey"),
    ("lineitem.l_partkey->part", "lineitem", "l_partkey",
     "part", "p_partkey"),
    ("lineitem.l_suppkey->supplier", "lineitem", "l_suppkey",
     "supplier", "s_suppkey"),
    ("orders.o_custkey->customer", "orders", "o_custkey",
     "customer", "c_custkey"),
    # deliberately cross-domain: events.user_id is NOT a customer key,
    # so this gate reports real violations
    ("events.user_id->customer", "events", "user_id",
     "customer", "c_custkey"),
]


@query("fk_check", sql=lambda: _sql_fk_check())
def q_fk_check(sf_dir: str):
    """Referential-integrity gate (joins.semi_join anti mode): per
    declared foreign key, the count of fact rows whose key is absent
    from the dimension — each check is one broadcast key-set membership
    pass over the fact stream, no shuffle."""
    import ray.data as rd

    from ..joins import semi_join

    names, counts = [], []
    for name, ft, fk, dt, dk in _FK_CHECKS:
        fact = rd.read_parquet(f"{sf_dir}/{ft}.parquet", columns=[fk])
        dim = rd.read_parquet(f"{sf_dir}/{dt}.parquet", columns=[dk])
        bad = semi_join(fact, dim, on=fk, right_on=dk, anti=True)
        names.append(name)
        counts.append(int(bad.count()))
    return pa.table(
        {
            "cname": pa.array(names, pa.string()),
            "n_violations": pa.array(counts, pa.int64()),
        }
    )


def _sql_fk_check() -> str:
    arms = []
    for name, ft, fk, dt, dk in _FK_CHECKS:
        arms.append(
            f"SELECT '{name}' AS cname, COUNT(*)::BIGINT AS n_violations"
            f" FROM {ft} f LEFT JOIN (SELECT DISTINCT {dk} FROM {dt}) d"
            f" ON d.{dk} = f.{fk} WHERE d.{dk} IS NULL"
        )
    return "\nUNION ALL\n".join(arms)


@query("quota_sample", sql=lambda: _sql_quota_sample())
def q_quota_sample(sf_dir: str):
    """Cluster-balanced (quota) sampling: an EXACT-k deterministic
    sample per language — content-stable md5 rank (the engine's hash
    law) + stats.grouped_topk ascending, so every class contributes at
    most k docs no matter how skewed the corpus mix is (the balanced-
    mixture sampler an LLM data pipeline runs after clustering)."""
    from ..stats import grouped_topk
    from ..text import md5_prefix_int

    ds = _docs(sf_dir, ("doc_id", "lang"))

    def rank(b: pa.Table) -> pa.Table:
        r = md5_prefix_int(
            pc.cast(b["doc_id"], pa.string()), salt="qs"
        ).astype(np.int64)
        return b.append_column("r", pa.array(r))

    out = grouped_topk(
        ds.map_batches(rank, batch_format="pyarrow"),
        group_col="lang",
        order_col="r",
        tiebreak_col="doc_id",
        k=20,
        descending=False,
    )
    return out.select_columns(["lang", "doc_id", "rank"])


def _sql_quota_sample() -> str:
    return """
SELECT lang, doc_id, rank FROM (
  SELECT lang, doc_id,
         ROW_NUMBER() OVER (
           PARTITION BY lang
           ORDER BY ('0x' || substr(md5(CAST(doc_id AS VARCHAR) || 'qs'),
                     1, 15))::UBIGINT ASC, doc_id ASC
         )::BIGINT AS rank
  FROM documents
) WHERE rank <= 20
"""


@query(
    "k_anonymity",
    sql=lambda: stats.sql_k_anonymity(
        source=(
            "(SELECT lang, source, n_chars // 100 AS bucket, text "
            "FROM documents)"
        ),
        quasi_cols=["lang", "source", "bucket"],
        sensitive_col="text",
        k=5,
    ),
)
def q_k_anonymity(sf_dir: str):
    """k-anonymity / l-diversity privacy audit (stats.k_anonymity): the
    quasi-identifier classes (lang, source, n_chars // 100) smaller than
    k = 5, with their distinct-sensitive-value (text) counts — the
    release gate a compliance pipeline runs before publishing."""
    from ..stats import k_anonymity

    ds = _docs(sf_dir, ("lang", "source", "n_chars", "text"))

    def derive(b: pa.Table) -> pa.Table:
        return b.append_column(
            "bucket",
            pa.array(np.asarray(b["n_chars"], np.int64) // 100),
        )

    return k_anonymity(
        ds.map_batches(derive, batch_format="pyarrow"),
        ["lang", "source", "bucket"],
        sensitive_col="text",
        k=5,
    )


@query(
    "record_link",
    sql=lambda: joins.sql_fuzzy_link(
        source="part",
        id_expr="p_partkey",
        name_expr=joins.sql_typo_expr("p_partkey", "p_name"),
        master_source="part",
        master_expr="p_name",
        id_col="p_partkey",
        name_col="dirty",
        threshold=0.97,
    ),
    bench=True,
    quadratic=True,
)
def q_record_link(sf_dir: str):
    """Fuzzy record linkage (joins.fuzzy_link): part names are corrupted
    by the deterministic typo law (joins.typo_names), then each dirty
    record links back to the distinct clean-name master via blocked
    Jaro-Winkler best-match — the catalog-merge / entity-resolution
    operator of a metadata pipeline.  The jw kernel is bit-exact vs
    DuckDB's jaro_winkler_similarity; the master list broadcasts once
    and the record stream never shuffles."""
    import ray.data as rd

    from ..joins import fuzzy_link, typo_names

    parts = rd.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name"]
    )
    # master roster: tiny distinct-name fold (the master list is an
    # INPUT at production scale; here it is derived from the clean side)
    seen: set[str] = set()
    for b in parts.map_batches(
        lambda t: pa.table(
            {"p_name": pa.array(
                np.unique(np.asarray(t["p_name"]).astype(object)),
                pa.string(),
            )}
        ),
        batch_format="pyarrow",
    ).iter_batches(batch_size=None, batch_format="pyarrow"):
        seen.update(b["p_name"].to_pylist())
    dirty = typo_names(
        parts, id_col="p_partkey", name_col="p_name", out_col="dirty"
    )
    return fuzzy_link(
        dirty, sorted(seen), id_col="p_partkey", name_col="dirty",
        threshold=0.97,
    )


@query("bpe_merges", sql=lambda: text.sql_bpe_merge_counts(top_k=20))
def q_bpe_merges(sf_dir: str):
    """First-round BPE merge statistics (text.bpe_merge_counts): top-20
    in-token adjacent char pairs — alphabet-bounded dense combiners, one
    driver add."""
    from ..text import bpe_merge_counts

    return bpe_merge_counts(_docs(sf_dir, ("text",)), top_k=20)


@query("fuzzy_vocab", sql=lambda: sql_fuzzy_vocab(max_dist=2), quadratic=True)
def q_fuzzy_vocab(sf_dir: str):
    """Fuzzy vocabulary self-join (typo/variant mining): recall-complete
    length banding + pair-vectorized Levenshtein DP over the broadcast
    vocabulary; oracle is DuckDB's own levenshtein over all-pairs."""
    from ..text import fuzzy_vocab_pairs

    return fuzzy_vocab_pairs(_docs(sf_dir, ("doc_id", "text")), max_dist=2)


@query("rolling_fp", sql=text.sql_rolling_fingerprint)
def q_rolling_fp(sf_dir: str):
    from ..text import rolling_fingerprint

    return (
        _docs(sf_dir, ("doc_id", "text"))
        .map_batches(rolling_fingerprint, batch_format="pyarrow")
        .select_columns(["doc_id", "rolling_fp"])
    )


@query("ngram_jaccard", sql=lambda: _sql_ngram(), bench=True, quadratic=True)
def q_ngram_jaccard(sf_dir: str):
    """Exact prefix-filter set-similarity join — full recall, so the
    all-pairs DuckDB twin is an exact oracle."""
    from ..dedup import ngram_jaccard_pairs

    out = ngram_jaccard_pairs(_docs(sf_dir, ("doc_id", "text")), threshold=0.3)
    return out.map_batches(lambda b: round6(b, ["jaccard"]), batch_format="pyarrow")


def _head_vectors(sf_dir: str, n: int):
    """(ids, matrix) of vec_id < n, ascending — a PRUNED parquet read (row
    filter push-down), never the whole embedding table in driver RAM."""
    import pyarrow.parquet as pq

    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", n)],
    )
    ids = np.asarray(t["vec_id"], dtype=np.int64)
    mat = np.stack([np.asarray(v, dtype=np.float64) for v in t["embedding"].to_pylist()])
    order = np.argsort(ids)
    return ids[order], mat[order]


@query(
    "embedding_neardup",
    sql=lambda: dedup.sql_embedding_neardup(0.35),
    quadratic=True,
)
def q_embedding_neardup(sf_dir: str):
    """Bucketed exact near-dup (no whole-matrix broadcast, no driver-side
    embedding load) — centroids are a tiny pruned-read sample."""
    import ray.data as rd

    from ..dedup import embedding_neardup_pairs

    _, cents = _head_vectors(sf_dir, 8)
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    out = embedding_neardup_pairs(ds, cents, threshold=0.35)
    return out.map_batches(lambda b: round6(b, ["cosine"]), batch_format="pyarrow")


@query("embedding_lsh", sql=lambda: dedup.sql_embedding_lsh(0.35, 64), quadratic=True)
def q_embedding_lsh(sf_dir: str):
    """Random-hyperplane LSH embedding near-dup (the sign-banding scale
    path; deterministic closed-form hyperplanes make the full pipeline
    oracle-checkable)."""
    from ..dedup import embedding_lsh_pairs

    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    out = embedding_lsh_pairs(ds, threshold=0.35)
    return out.map_batches(lambda b: round6(b, ["cosine"]), batch_format="pyarrow")


@query("kmeans", sql=lambda: ann.sql_kmeans(k=8, iters=2, dim=64))
def q_kmeans(sf_dir: str):
    """Deterministic Lloyd k-means over the embedding column — the
    semantic-clustering building block (broadcast centroids, per-batch
    partial sums, zero assignment shuffle)."""
    import ray.data as rd

    from ..ann import kmeans_embeddings

    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return kmeans_embeddings(ds, k=8, iters=2)


@query(
    "emb_outlier",
    sql=lambda: ann.sql_kmeans(k=8, iters=2, dim=64, with_distance=True),
    bench=True,
)
def q_emb_outlier(sf_dir: str):
    """Embedding outlier scores (ann.kmeans_distances): euclidean
    distance to the own k-means centroid — broadcast centroids, one
    stateless map pass, the embedding-space pruning signal."""
    import ray.data as rd

    from ..ann import kmeans_distances

    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return kmeans_distances(ds, k=8, iters=2)


@query("quantize_emb", sql=lambda: ann.sql_quantize(dim=64))
def q_quantize(sf_dir: str):
    """Global-scalar int8 quantization of the embedding column (one
    per-dim min/max reduce -> broadcast -> vectorized map)."""
    import ray.data as rd

    from ..ann import quantize_embeddings

    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return quantize_embeddings(ds)


@query("ann_topk", sql=lambda: ann.sql_ann_topk(5, 10))
def q_ann_topk(sf_dir: str):
    import ray.data as rd

    from ..ann import ann_topk

    qids, qmat = _head_vectors(sf_dir, 10)
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    out = ann_topk(ds, {"ids": qids, "matrix": qmat}, k=5)
    return out.map_batches(lambda b: round6(b, ["cosine"]), batch_format="pyarrow")


ANN_RANGE_T = 0.3  #: radius-search threshold (splits at sf0.01)


@query(
    "ann_range",
    sql=lambda: ann.sql_ann_range(ANN_RANGE_T, n_queries=10),
    bench=True,
)
def q_ann_range(sf_dir: str):
    """Radius similarity search (ann.ann_range): every corpus vector
    with cosine >= threshold against the 10 broadcast queries — the
    recall-oriented retrieval companion of ann_topk; map-only."""
    import ray.data as rd

    from ..ann import ann_range

    qids, qmat = _head_vectors(sf_dir, 10)
    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return ann_range(
        ds, {"ids": qids, "matrix": qmat}, threshold=ANN_RANGE_T
    )


@query(
    "hard_negatives",
    sql=lambda: ann.sql_hard_negatives(k=5, n_queries=10),
    bench=True,
    quadratic=True,
)
def q_hard_negatives(sf_dir: str):
    """Hard-negative mining (ann.hard_negatives): per query, the top-5
    highest-cosine corpus vectors of a DIFFERENT label — the contrastive
    training sampler.  Broadcast queries+labels, streamed corpus."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from ..ann import hard_negatives

    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", "label"],
        filters=[("vec_id", "<", 10)],
    )
    ids = np.asarray(t["vec_id"], dtype=np.int64)
    order = np.argsort(ids)
    mat = np.stack(
        [np.asarray(v, dtype=np.float64) for v in t["embedding"].to_pylist()]
    )[order]
    labs = np.asarray(t["label"], dtype=np.int64)[order]
    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", "label"],
    )
    out = hard_negatives(
        ds, {"ids": ids[order], "matrix": mat, "labels": labs}, k=5
    )
    return out.map_batches(
        lambda b: round6(b, ["cosine"]), batch_format="pyarrow"
    )


@query(
    "mmr_select",
    sql=lambda: ann.sql_mmr_select(query_id=0, k=5, lam=0.7),
    quadratic=True,
)
def q_mmr_select(sf_dir: str):
    """Diversity-aware retrieval (ann.mmr_select): greedy Maximal
    Marginal Relevance top-5 against vec_id 0's embedding — k broadcast
    passes, block-winner folds, rounded-argmax law."""
    import pyarrow.parquet as pq_

    import ray.data as rd

    from ..ann import mmr_select

    qv = np.asarray(
        pq_.read_table(
            f"{sf_dir}/embeddings.parquet",
            columns=["vec_id", "embedding"],
            filters=[("vec_id", "=", 0)],
        )["embedding"][0].as_py(),
        np.float64,
    )
    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return mmr_select(ds, qv, k=5, lam=0.7)


@query("ivf_topk", sql=lambda: _sql_ivf())
def q_ivf_topk(sf_dir: str):
    """IVF top-k with a data-sampled coarse quantizer (the first 8 corpus
    vectors) — deterministic and SQL-expressible, so the approximate path
    gets an EXACT oracle (``sql_ivf_topk``).  The kmeans_lite quantizer
    variant stays covered by the recall tests."""
    import ray.data as rd

    from ..ann import ivf_topk

    qids, qmat = _head_vectors(sf_dir, 10)
    _, cents = _head_vectors(sf_dir, 8)
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    out = ivf_topk(ds, {"ids": qids, "matrix": qmat}, cents, k=5, nprobe=3)
    return out.map_batches(lambda b: round6(b, ["cosine"]), batch_format="pyarrow")


@query("ivf_pruned", sql=lambda: _sql_ivf())
def q_ivf_pruned(sf_dir: str):
    """Same IVF search but through a persisted bucket-partitioned index
    with partition-pruned reads; result is identical to ``ivf_topk`` (the
    pruned read is a physical optimization), so it shares the oracle."""
    import ray.data as rd

    from ..ann import ivf_build, ivf_search_pruned

    qids, qmat = _head_vectors(sf_dir, 10)
    _, cents = _head_vectors(sf_dir, 8)
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    idx_dir = _scratch_dir("ivf_index_stage_")
    ivf_build(ds, cents, idx_dir)
    out = ivf_search_pruned(
        idx_dir, {"ids": qids, "matrix": qmat}, cents, k=5, nprobe=3
    )
    return out.map_batches(lambda b: round6(b, ["cosine"]), batch_format="pyarrow")


@query("ivf_multiprobe", sql=lambda: ann.sql_ivf_topk(5, 5, 10, 8), bench=True)
def q_ivf_multiprobe(sf_dir: str):
    """Multi-probe IVF through the persisted pruned-read index: the
    nprobe=5 (of 8 coarse cells) regime a 100 TB recall target needs —
    more probed partitions, same partition-pruned physical read, same
    exact SQL oracle law at its own nprobe."""
    import ray.data as rd

    from ..ann import ivf_build, ivf_search_pruned

    qids, qmat = _head_vectors(sf_dir, 10)
    _, cents = _head_vectors(sf_dir, 8)
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    idx_dir = _scratch_dir("ivf_index_mp_")
    ivf_build(ds, cents, idx_dir)
    out = ivf_search_pruned(
        idx_dir, {"ids": qids, "matrix": qmat}, cents, k=5, nprobe=5
    )
    return out.map_batches(lambda b: round6(b, ["cosine"]), batch_format="pyarrow")


# ---------------------------------------------------------------------------
# raster / frame / multimodal / stream-shaped
# ---------------------------------------------------------------------------

_RASTER_KW = dict(height=256, width=256, x_min=0.0, y_min=0.0, resolution=1000.0)


@query("raster_cells", sql=lambda: _sql_raster_cells())
def q_raster_cells(sf_dir: str):
    from ..raster import SyntheticRaster, tiling_raster

    return tiling_raster(SyntheticRaster(**_RASTER_KW), tile_size_cell=64)


@query(
    "raster_resample",
    sql=lambda: raster.sql_resample(
        raster.SyntheticRaster(**_RASTER_KW), out_resolution=2000.0
    ),
)
def q_raster_resample(sf_dir: str):
    from ..raster import SyntheticRaster, resample_raster

    return resample_raster(SyntheticRaster(**_RASTER_KW), out_resolution=2000.0)


@query(
    "raster_hillshade",
    sql=lambda: raster.sql_hillshade(
        raster.SyntheticRaster(**_RASTER_KW), tile_size_cell=64
    ),
    bench=True,
)
def q_raster_hillshade(sf_dir: str):
    """Horn slope / aspect / hillshade over the synthetic elevation band:
    tile-parallel 3x3 stencil with ONE-PIXEL HALO reads (no shuffle at any
    raster size) on an actor pool holding the open raster."""
    from ..raster import SyntheticRaster, hillshade_raster

    return hillshade_raster(
        SyntheticRaster(**_RASTER_KW), tile_size_cell=64, concurrency=(1, 4)
    )


@query(
    "raster_terrain",
    sql=lambda: raster.sql_terrain_index(
        raster.SyntheticRaster(**_RASTER_KW), tile_size_cell=64
    ),
    bench=True,
)
def q_raster_terrain(sf_dir: str):
    """TPI / TRI (Riley) / roughness terrain indices in one 3x3 stencil
    pass (raster.terrain_index_raster): tile + one-pixel-halo actor-pool
    kernel; all arithmetic exact on the integer-valued band, so the
    oracle compares raw doubles."""
    from ..raster import SyntheticRaster, terrain_index_raster

    return terrain_index_raster(
        SyntheticRaster(**_RASTER_KW), tile_size_cell=64, concurrency=(1, 4)
    )


@query(
    "raster_d8",
    sql=lambda: raster.sql_d8_flow(
        raster.SyntheticRaster(**_RASTER_KW), tile_size_cell=64
    ),
    bench=True,
)
def q_raster_d8(sf_dir: str):
    """D8 steepest-descent flow direction per pixel (raster.d8_flow_raster):
    the classic hydrology operator as a tile + halo stencil — first-max
    tie law over the fixed E..NE neighbor order, 0 for pits/flats."""
    from ..raster import SyntheticRaster, d8_flow_raster

    return d8_flow_raster(
        SyntheticRaster(**_RASTER_KW), tile_size_cell=64, concurrency=(1, 4)
    )


@query(
    "raster_bilinear",
    sql=lambda: raster.sql_bilinear(raster.SyntheticRaster(**_RASTER_KW), 1500.0),
)
def q_raster_bilinear(sf_dir: str):
    """Bilinear resampling of the elevation band to a 1.5 km grid
    (raster.bilinear_raster): 2x2-support interpolation with exact
    fractional weights, row-strip tasks reading only their source rows."""
    from ..raster import SyntheticRaster, bilinear_raster

    return bilinear_raster(SyntheticRaster(**_RASTER_KW), 1500.0)


@query(
    "raster_contour",
    sql=lambda: raster.sql_contour(
        raster.SyntheticRaster(**_RASTER_KW), threshold=500.0
    ),
    bench=True,
)
def q_raster_contour(sf_dir: str):
    """Marching-squares contour segments at the 500 isoline
    (raster.contour_raster): the raster->vector isoline operator as a
    tile + halo stencil with the shared public case table."""
    from ..raster import SyntheticRaster, contour_raster

    return contour_raster(
        SyntheticRaster(**_RASTER_KW),
        threshold=500.0,
        tile_size_cell=64,
        concurrency=(1, 4),
    )


PROFILE_P0, PROFILE_P1, PROFILE_STEPS = (30_000.0, 40_000.0), (210_000.0, 190_000.0), 400


@query(
    "raster_profile",
    sql=lambda: raster.sql_profile(
        raster.SyntheticRaster(**_RASTER_KW), PROFILE_P0, PROFILE_P1, PROFILE_STEPS
    ),
)
def q_raster_profile(sf_dir: str):
    """Terrain profile along a segment (raster.profile_raster): n+1
    parametric samples, each bilinear from its 2x2 support; strip tasks
    read only their source rows."""
    from ..raster import SyntheticRaster, profile_raster

    return profile_raster(
        SyntheticRaster(**_RASTER_KW), PROFILE_P0, PROFILE_P1,
        n_steps=PROFILE_STEPS,
    )


@query("band_index", sql=lambda: _sql_band_index())
def q_band_index(sf_dir: str):
    """Normalized-difference band index (NDVI-style map algebra):
    ``ndi = (pop - elev) / (pop + elev)`` per pixel where both bands are
    valid and the denominator is nonzero, 6dp — a stateless map over the
    tiled cell stream."""
    from ..raster import SyntheticRaster, tiling_raster

    cells = tiling_raster(
        SyntheticRaster(**_RASTER_KW), tile_size_cell=64
    ).select_columns(["x", "y", "pop", "elev"])

    def ndi(b: pa.Table) -> pa.Table:
        p = np.asarray(b["pop"], np.float64)
        e = np.asarray(b["elev"], np.float64)
        ok = ~(np.isnan(p) | np.isnan(e)) & ((p + e) != 0.0)
        p2, e2 = p[ok], e[ok]
        v = (p2 - e2) / (p2 + e2)
        v = np.sign(v) * np.floor(np.abs(v) * 1e6 + 0.5) / 1e6
        return pa.table(
            {
                "x": pa.array(np.asarray(b["x"], np.float64)[ok]),
                "y": pa.array(np.asarray(b["y"], np.float64)[ok]),
                "ndi": pa.array(v),
            }
        )

    return cells.map_batches(ndi, batch_format="pyarrow")


def _sql_band_index():
    return f"""
WITH cells AS ({_sql_raster_cells()})
SELECT x, y,
       ROUND(((pop - elev) / (pop + elev)) * 1000000.0) / 1000000.0 AS ndi
FROM cells
WHERE pop IS NOT NULL AND elev IS NOT NULL AND pop + elev != 0.0
"""


@query("band_corr", sql=lambda: _sql_band_corr())
def q_band_corr(sf_dir: str):
    """Inter-band Pearson correlation (map-algebra statistics): r between
    the pop and elev bands over pixels where BOTH are valid — one row
    (n, r), 6dp, from six-scalar moment partials."""
    from ..raster import SyntheticRaster, tiling_raster

    cells = tiling_raster(
        SyntheticRaster(**_RASTER_KW), tile_size_cell=64
    ).select_columns(["pop", "elev"])

    def partial(b: pa.Table) -> pa.Table:
        p = np.asarray(b["pop"], np.float64)
        e = np.asarray(b["elev"], np.float64)
        ok = ~(np.isnan(p) | np.isnan(e))
        p, e = p[ok], e[ok]
        return pa.table(
            {
                "n": np.array([len(p)], np.int64),
                "sp": np.array([p.sum()]),
                "se": np.array([e.sum()]),
                "spp": np.array([(p * p).sum()]),
                "see": np.array([(e * e).sum()]),
                "spe": np.array([(p * e).sum()]),
            }
        )

    tot = cells.map_batches(partial, batch_format="pyarrow").sum(
        ["n", "sp", "se", "spp", "see", "spe"]
    )
    import ray.data as rd

    n = float(tot["sum(n)"])
    sp, se = tot["sum(sp)"], tot["sum(se)"]
    spp, see, spe = tot["sum(spp)"], tot["sum(see)"], tot["sum(spe)"]
    r = (n * spe - sp * se) / (
        np.sqrt(n * spp - sp * sp) * np.sqrt(n * see - se * se)
    )
    rnd = lambda v: float(np.sign(v) * np.floor(np.abs(v) * 1e6 + 0.5) / 1e6)
    return rd.from_arrow(
        pa.table(
            {
                "n": pa.array([int(n)], pa.int64()),
                "r": pa.array([rnd(r)]),
            }
        )
    )


def _sql_band_corr():
    return f"""
WITH cells AS ({_sql_raster_cells()}),
s AS (
  SELECT COUNT(*)::DOUBLE AS n, SUM(pop) AS sp, SUM(elev) AS se,
         SUM(pop * pop) AS spp, SUM(elev * elev) AS see,
         SUM(pop * elev) AS spe
  FROM cells WHERE pop IS NOT NULL AND elev IS NOT NULL
)
SELECT CAST(n AS BIGINT) AS n,
       ROUND(((n * spe - sp * se)
         / (sqrt(n * spp - sp * sp) * sqrt(n * see - se * se)))
         * 1000000.0) / 1000000.0 AS r
FROM s
"""


@query("disaggregate", sql=lambda: _sql_disaggregate())
def q_disaggregate(sf_dir: str):
    """Dasymetric disaggregation: polygon totals spread onto cells by
    intersection-area weight (area_interpolate's weighting with ix/iy
    carried); the final sum is rounded 6dp on both sides."""
    from ..overlay import disaggregate

    spec, grid = _grid50()
    out = disaggregate(polygon_layer(), grid, spec, ["pop"])
    return out.map_batches(lambda b: round6(b, ["pop"]), batch_format="pyarrow")


@query("zonal_stats", sql=lambda: _sql_zonal_stats())
def q_zonal_stats(sf_dir: str):
    """Zonal statistics: raster band cells -> zone assignment (PIP join
    on cell coordinates) -> per-zone count / sum / mean."""
    from ray.data.aggregate import Count, Sum

    from ..raster import SyntheticRaster, tiling_raster

    cells = tiling_raster(
        SyntheticRaster(**_RASTER_KW), tile_size_cell=64
    ).select_columns(["x", "y", "elev"])
    j = join_points_to_polygons(cells, polygon_layer(), how="inner")
    agg = j.select_columns(["poly_id", "elev"]).groupby("poly_id").aggregate(
        Count(alias_name="n_cells"), Sum("elev", alias_name="elev_sum")
    )

    def finish(b: pa.Table) -> pa.Table:
        mean = pc.divide(b["elev_sum"], pc.cast(b["n_cells"], pa.float64()))
        b = b.append_column("elev_mean", mean)
        return round_half_away(
            round_half_away(b, ["elev_sum"], 2), ["elev_mean"], 6
        )

    return agg.map_batches(finish, batch_format="pyarrow")


@query("zonal_hist", sql=lambda: _sql_zonal_hist())
def q_zonal_hist(sf_dir: str):
    """Zonal HISTOGRAM: per polygon, the distribution of raster band
    values in 100-wide bins (bin = floor(elev / 100)) — the categorical
    companion to zonal_stats; same PIP-on-cell-coordinates join, then a
    composite (poly, bin) count with per-batch combiners."""
    from ray.data.aggregate import Sum

    from ..raster import SyntheticRaster, tiling_raster

    cells = tiling_raster(
        SyntheticRaster(**_RASTER_KW), tile_size_cell=64
    ).select_columns(["x", "y", "elev"])
    j = join_points_to_polygons(cells, polygon_layer(), how="inner")

    def partial(b: pa.Table) -> pa.Table:
        poly = np.asarray(b["poly_id"], np.int64)
        elev = np.asarray(b["elev"], np.float64)
        ok = ~np.isnan(elev)
        poly, elev = poly[ok], elev[ok]
        binv = np.floor(elev / 100.0).astype(np.int64)
        key = poly * 100 + binv
        u, c = np.unique(key, return_counts=True)
        return pa.table(
            {
                "poly_id": pa.array(u // 100),
                "bin": pa.array(u % 100),
                "n": pa.array(c.astype(np.int64)),
            }
        )

    return (
        j.map_batches(partial, batch_format="pyarrow")
        .groupby(["poly_id", "bin"])
        .aggregate(Sum("n", alias_name="n_cells"))
    )


def _sql_zonal_hist():
    from ..synth import sql_polygon_rects_cte

    return f"""
WITH cells AS ({_sql_raster_cells()}),
poly_rects AS ({sql_polygon_rects_cte()})
SELECT r.poly_id, CAST(floor(p.elev / 100.0) AS BIGINT) AS bin,
       COUNT(*)::BIGINT AS n_cells
FROM cells p
JOIN poly_rects r
  ON p.x >= r.rxmin AND p.x < r.rxmax AND p.y >= r.rymin AND p.y < r.rymax
WHERE p.elev IS NOT NULL
GROUP BY r.poly_id, bin
"""


def _sql_frame_rowsum() -> str:
    return (
        "SELECT l_orderkey, l_linenumber, "
        "ROUND((l_quantity + l_extendedprice) * 1e6) / 1e6 AS rowsum "
        "FROM lineitem"
    )


@query("frame_rowsum", sql=_sql_frame_rowsum)
def q_frame_rowsum(sf_dir: str):
    import ray.data as rd

    from ..frame import frame_apply

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice"],
    )

    def f(df):
        df = df.copy()
        df["rowsum"] = df["l_quantity"] + df["l_extendedprice"]
        return df[["l_orderkey", "l_linenumber", "rowsum"]]

    out = frame_apply(ds, f)
    return out.map_batches(lambda b: round6(b, ["rowsum"]), batch_format="pyarrow")


@query("media_dedup", sql=multimodal.sql_media_dup_groups, bench=True)
def q_media_dedup(sf_dir: str):
    """Cross-document media-asset dedup over the interleaved spans:
    fingerprint-coincident media spans form duplicate groups with a
    canonical keeper — the asset-level companion of the text dedup
    family (multimodal.media_dup_groups)."""
    from ..multimodal import media_dup_groups

    ds = docs_points(sf_dir).drop_columns(["x", "y"])

    def add_spans(b: pa.Table) -> pa.Table:
        return b.append_column("spans", build_spans_array(np.asarray(b["doc_id"])))

    return media_dup_groups(ds.map_batches(add_spans, batch_format="pyarrow"))


@query("winnow_pairs", sql=text.sql_winnow_dup_pairs, bench=True)
def q_winnow_pairs(sf_dir: str):
    """MOSS shared-substring pairs: documents sharing >= 2 distinct
    winnowing fingerprints (each witnesses a shared >= window+n-1-token
    run) — text.winnow_dup_pairs over the documents table."""
    import ray.data as rd

    from ..text import winnow_dup_pairs

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return winnow_dup_pairs(ds)


@query("media_features", sql=multimodal.sql_media_features)
def q_media_features(sf_dir: str):
    from ..multimodal import media_pipeline

    ds = docs_points(sf_dir).drop_columns(["x", "y"])

    def add_spans(b: pa.Table) -> pa.Table:
        return b.append_column("spans", build_spans_array(np.asarray(b["doc_id"])))

    ds = ds.map_batches(add_spans, batch_format="pyarrow")
    out = media_pipeline(ds)
    return out.drop_columns(["features"])


@query("media_features_vec", sql=multimodal.sql_media_features_vec)
def q_media_features_vec(sf_dir: str):
    """Variant carrying the decoded feature values, flattened to scalar
    f0..f3 columns so the driver's value-hash can check them against the
    closed-form byte-law oracle (``sql_media_features_vec``)."""
    from ..multimodal import media_pipeline

    ds = docs_points(sf_dir).drop_columns(["x", "y"])

    def add_spans(b: pa.Table) -> pa.Table:
        return b.append_column("spans", build_spans_array(np.asarray(b["doc_id"])))

    out = media_pipeline(ds.map_batches(add_spans, batch_format="pyarrow"))

    def flatten(b: pa.Table) -> pa.Table:
        f = b["features"].combine_chunks()
        m = (
            np.asarray(f.flatten(), dtype=np.float64).reshape(b.num_rows, -1)
            if b.num_rows
            else np.empty((0, 4))
        )
        out_b = b.drop_columns(["features"])
        for j in range(m.shape[1] if b.num_rows else 4):
            out_b = out_b.append_column(f"f{j}", pa.array(m[:, j]))
        return out_b

    out = out.map_batches(flatten, batch_format="pyarrow")
    return out.map_batches(
        lambda b: round6(b, ["f0", "f1", "f2", "f3"]), batch_format="pyarrow"
    )


def _media_rows_ds(sf_dir: str):
    """documents -> exploded media spans with synthesized payloads."""
    from ..multimodal import attach_payload, explode_media_spans

    ds = docs_points(sf_dir).drop_columns(["x", "y"])

    def add_spans(b: pa.Table) -> pa.Table:
        return b.append_column("spans", build_spans_array(np.asarray(b["doc_id"])))

    ds = ds.map_batches(add_spans, batch_format="pyarrow")
    ds = ds.map_batches(explode_media_spans, batch_format="pyarrow")
    return ds.map_batches(attach_payload, batch_format="pyarrow")


@query("media_resize", sql=lambda: multimodal.sql_media_resize(64, 64))
def q_media_resize(sf_dir: str):
    """Resize stage plumbing: image rows -> target dims + pixel-ratio
    byte count (codec honestly stubbed; scalar laws oracle-checked)."""
    from ..multimodal import ImageResizer

    out = _media_rows_ds(sf_dir).map_batches(
        ImageResizer,
        batch_format="pyarrow",
        batch_size=1024,
        fn_constructor_kwargs={"target": (64, 64), "fake": True},
        concurrency=2,
    )
    return out.select_columns(
        ["doc_id", "span_idx", "kind", "media_ref", "offset", "width", "height", "n_bytes"]
    )


@query("media_frames", sql=lambda: multimodal.sql_frame_sample(4, 8))
def q_media_frames(sf_dir: str):
    """Frame-sampling explode: every 4th frame, max 8, of each media
    payload's pseudo-container."""
    from ..multimodal import frame_sample

    return _media_rows_ds(sf_dir).map_batches(frame_sample, batch_format="pyarrow")


IV_BASE_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z in epoch-us
IV_STRIDE_US = 21_600_000_000  # 6 h between window starts
IV_WIDTH_US = 10_800_000_000  # 3 h window width


@query("events_asof", sql=lambda: _sql_events_asof(), bench=True)
def q_events_asof(sf_dir: str):
    """As-of join (joins.asof_join): every non-error event picks up the
    latest error event at-or-before it from the same user.  Values are
    copied, not computed — the DuckDB ASOF JOIN twin is exact with no
    rounding."""
    import ray.data as rd

    from ..joins import asof_join

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type", "value"],
    )

    def _split(err: bool):
        def f(b: pa.Table) -> pa.Table:
            m = pc.equal(b["event_type"], "error")
            return b.filter(m if err else pc.invert(m)).drop_columns(
                ["event_type"]
            )

        return f

    left = ev.map_batches(_split(False), batch_format="pyarrow")
    right = ev.map_batches(_split(True), batch_format="pyarrow").drop_columns(
        ["event_id"]
    )
    ts_t = pa.timestamp("us")
    return asof_join(
        left,
        right,
        on="ts",
        by="user_id",
        # static schema hints skip two limit-1 driver executions
        left_schema=pa.schema(
            [("event_id", pa.int64()), ("ts", ts_t), ("user_id", pa.int64()),
             ("value", pa.float64())]
        ),
        right_schema=pa.schema(
            [("ts", ts_t), ("user_id", pa.int64()), ("value", pa.float64())]
        ),
    )


def _interval_table(max_user: int) -> dict:
    """Closed-form validity windows: 4 per user, 3 h wide every 6 h,
    phase-shifted by (user % 7) hours from 2024-01-01 (mirrored by the
    SQL twin literal-for-literal)."""
    u = np.repeat(np.arange(max_user + 1, dtype=np.int64), 4)
    i = np.tile(np.arange(4, dtype=np.int64), max_user + 1)
    start = IV_BASE_US + (u % 7) * 3_600_000_000 + i * IV_STRIDE_US
    return {
        "key": u,
        "start": start,
        "end": start + IV_WIDTH_US,
        "iv_id": u * 4 + i,
        "start_us": start,
    }


@query("events_interval", sql=lambda: _sql_events_interval())
def q_events_interval(sf_dir: str):
    """Broadcast interval (range) join: events matched to per-user
    validity windows on key equality + ts containment."""
    import ray.data as rd

    from ..joins import interval_join

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id"]
    )
    max_user = int(ev.max("user_id"))
    out = interval_join(ev, _interval_table(max_user), how="inner")
    return out.select_columns(["event_id", "user_id", "iv_id", "start_us"])


def _sql_events_asof() -> str:
    return (
        "SELECT l.event_id, l.ts, l.user_id, l.value, "
        "r.ts AS ts_r, r.value AS value_r "
        "FROM (SELECT event_id, ts, user_id, value FROM events "
        "WHERE event_type <> 'error') l "
        "ASOF LEFT JOIN (SELECT ts, user_id, value FROM events "
        "WHERE event_type = 'error') r "
        "ON l.user_id = r.user_id AND l.ts >= r.ts"
    )


def _sql_events_interval() -> str:
    return f"""
WITH iv AS (
  SELECT u.u AS user_id, i.i AS k,
         {IV_BASE_US} + (u.u % 7) * 3600000000 + i.i * {IV_STRIDE_US} AS s
  FROM (SELECT UNNEST(generate_series(0, (SELECT MAX(user_id) FROM events))) AS u) u,
       (SELECT UNNEST(generate_series(0, 3)) AS i) i
)
SELECT e.event_id, e.user_id, iv.user_id * 4 + iv.k AS iv_id, iv.s AS start_us
FROM events e
JOIN iv ON e.user_id = iv.user_id
       AND epoch_us(e.ts) >= iv.s AND epoch_us(e.ts) < iv.s + {IV_WIDTH_US}
"""


@query(
    "grouped_mode",
    sql=lambda: stats.sql_grouped_mode(
        group_key="o_orderstatus", value="o_orderpriority", source="orders"
    ),
)
def q_grouped_mode(sf_dir: str):
    """Modal order priority per order status (deterministic tie-break)."""
    import ray.data as rd

    from ..stats import grouped_mode

    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderstatus", "o_orderpriority"],
    )
    return grouped_mode(
        ds, group_key="o_orderstatus", value="o_orderpriority"
    )


@query(
    "cube",
    sql=lambda: stats.sql_cube_aggregate(keys=("lang", "source"), value="n_chars"),
)
def q_cube(sf_dir: str):
    """GROUP BY CUBE(lang, source) over the documents table."""
    import ray.data as rd

    from ..stats import cube_aggregate

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "source", "n_chars"]
    )
    return cube_aggregate(ds, keys=("lang", "source"), value="n_chars")


@query("jsonl_roundtrip", sql=lambda: _sql_jsonl_roundtrip())
def q_jsonl_roundtrip(sf_dir: str):
    """JSONL sink + source roundtrip: the documents projection streams
    to newline-delimited JSON (one shard per block — the resumable
    many-file layout, never one giant file), is read back with the JSON
    source, and aggregates; the oracle aggregates the original parquet,
    so the roundtrip must be lossless to hash-match."""
    import shutil
    import tempfile

    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "source", "n_chars"]
    )
    tmp = tempfile.mkdtemp(prefix="jsonl_rt_", dir="/tmp")
    try:
        ds.write_json(tmp)
        back = rd.read_json(tmp)
        out = back.groupby(["lang", "source"]).aggregate(
            Count(alias_name="n_docs"),
            Sum("n_chars", alias_name="sum_chars"),
        )
        # consume before the temp dir disappears
        return out.materialize()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _sql_jsonl_roundtrip() -> str:
    return (
        "SELECT lang, source, COUNT(*)::BIGINT AS n_docs, "
        "SUM(n_chars)::BIGINT AS sum_chars FROM documents "
        "GROUP BY lang, source"
    )


@query("co_occurrence", sql=graph.sql_co_occurrence, bench=True, quadratic=True)
def q_co_occurrence(sf_dir: str):
    """Supplier co-occurrence counts via the part<->supplier bipartite
    projection (degree-capped)."""
    import ray.data as rd

    from ..graph import co_occurrence

    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"]
    )
    return co_occurrence(line, "l_partkey", "l_suppkey")


@query("assoc_rules", sql=graph.sql_assoc_rules, bench=True)
def q_assoc_rules(sf_dir: str):
    """Market-basket association rules (graph.assoc_rules) over per-user
    event-type baskets: support / confidence / lift with the shared
    6dp float law."""
    import ray.data as rd

    from ..graph import assoc_rules

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    return assoc_rules(ev, "user_id", "event_type")


@query(
    "spearman",
    sql=lambda: stats.sql_spearman_corr(
        group_col="l_returnflag", x_col="l_quantity", y_col="l_discount"
    ),
)
def q_spearman(sf_dir: str):
    """Spearman rank correlation of quantity vs discount per return
    flag (both columns discrete — the broadcast-rank-map contract)."""
    import ray.data as rd

    from ..stats import spearman_corr

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_discount"],
    )
    return spearman_corr(
        ds, group_col="l_returnflag", x_col="l_quantity",
        y_col="l_discount",
    )


@query(
    "pareto",
    sql=lambda: stats.sql_pareto_frontier(x="p_retailprice", y="p_size",
                               source="part"),
)
def q_pareto(sf_dir: str):
    """Pareto frontier of parts maximizing (retail price, size)."""
    import ray.data as rd

    from ..stats import pareto_frontier

    ds = rd.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_retailprice", "p_size"]
    )
    return pareto_frontier(ds, x="p_retailprice", y="p_size")


@query("hex_dwell", sql=lambda: relational.sql_events_hex_dwell(hex_size=HEX_SIZE))
def q_hex_dwell(sf_dir: str):
    from .relational import events_hex_dwell

    return events_hex_dwell(sf_dir, hex_size=HEX_SIZE)


@query("hex_peak_hour", sql=lambda: _sql_hex_peak_hour())
def q_hex_peak_hour(sf_dir: str):
    """Peak activity hour per hex: events hex-indexed on their point
    law, (hkey, hour-of-day) count partials -> one composite hash
    aggregate -> distributed arg-max (`grouped_latest` combiner).  Tie
    law: highest count then LOWEST hour (negated-hour order key)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..hex import _pack, _unpack, hex_axial
    from ..stats import grouped_latest
    from ..synth import derive_xy

    HOUR_US = 3_600_000_000

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts"]
    )

    def partial(b: pa.Table) -> pa.Table:
        eid = np.asarray(pc.cast(b["event_id"], pa.int64()))
        x, y = derive_xy(eid)
        hkey = _pack(*hex_axial(x, y, HEX_SIZE))
        us = np.asarray(pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64()))
        hour = (us // HOUR_US) % 24  # synth timestamps are all >= epoch
        order = np.lexsort((hour, hkey))
        hs, ho = hkey[order], hour[order]
        bound = np.concatenate([[True], (hs[1:] != hs[:-1]) | (ho[1:] != ho[:-1])])
        s = np.flatnonzero(bound)
        n = np.diff(np.append(s, len(hs)))
        return pa.table(
            {
                "hkey": pa.array(hs[s]),
                "hour": pa.array(ho[s]),
                "n": pa.array(n.astype(np.int64)),
            }
        )

    mix = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["hkey", "hour"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def encode(b: pa.Table) -> pa.Table:
        return b.append_column(
            "neg_hour", pa.array(-np.asarray(b["hour"], np.int64))
        )

    top = grouped_latest(
        mix.map_batches(encode, batch_format="pyarrow"),
        key="hkey",
        order_cols=("n", "neg_hour"),
        carry_cols=("hour",),
    )

    def finish(b: pa.Table) -> pa.Table:
        q, r = _unpack(np.asarray(b["hkey"], np.int64))
        return pa.table(
            {
                "hq": pa.array(q),
                "hr": pa.array(r),
                "peak_hour": b["hour"],
                "n": b["n"],
            }
        )

    return top.map_batches(finish, batch_format="pyarrow")


def _sql_hex_peak_hour() -> str:
    from ..hex import sql_hex_cte
    from ..synth import SQL_X, SQL_Y

    ex = SQL_X.replace("doc_id", "event_id")
    ey = SQL_Y.replace("doc_id", "event_id")
    return (
        f"WITH pts AS (SELECT event_id, "
        f"(epoch_us(ts) // 3600000000) % 24 AS hour, "
        f"{ex} AS x, {ey} AS y FROM events), "
        f"{sql_hex_cte(HEX_SIZE)}, "
        f"m AS (SELECT hq, hr, hour, COUNT(*)::BIGINT AS n FROM hexed "
        f"GROUP BY hq, hr, hour) "
        f"SELECT hq, hr, hour AS peak_hour, n FROM m "
        f"QUALIFY ROW_NUMBER() OVER (PARTITION BY hq, hr "
        f"ORDER BY n DESC, hour ASC) = 1"
    )


@query("spatial_antijoin", sql=lambda: _sql_spatial_antijoin())
def q_spatial_antijoin(sf_dir: str):
    """Spatial ANTI-join: docs contained by NO polygon — the left spatial
    join with a vectorized null-side filter (complement of every
    spatial_join* query; the decontamination shape applied to geometry)."""
    from ..spatial import join_points_to_polygons
    from ..synth import polygon_layer

    ds = join_points_to_polygons(
        docs_points(sf_dir), polygon_layer(), how="left", attr_cols=()
    )

    def outside(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_null(b["poly_id"])).select(["doc_id"])

    return ds.map_batches(outside, batch_format="pyarrow")


def _sql_spatial_antijoin() -> str:
    from ..synth import sql_points_cte, sql_polygon_rects_cte

    return (
        f"WITH points AS ({sql_points_cte()}), "
        f"poly_rects AS ({sql_polygon_rects_cte()}) "
        f"SELECT doc_id FROM points p WHERE NOT EXISTS ("
        f"SELECT 1 FROM poly_rects r WHERE p.x >= r.rxmin AND p.x < r.rxmax "
        f"AND p.y >= r.rymin AND p.y < r.rymax)"
    )


@query(
    "location_entropy",
    sql=lambda: relational.sql_events_location_entropy(hex_size=HEX_SIZE),
)
def q_location_entropy(sf_dir: str):
    from .relational import events_location_entropy

    return events_location_entropy(sf_dir, hex_size=HEX_SIZE)


@query("od_top_flows", sql=lambda: _sql_od_top_flows())
def q_od_top_flows(sf_dir: str):
    """Bounded top-k on the OD matrix: the 20 heaviest flows, ties
    broken by the full (oq, orr, dq, dr) tuple — a tie-law-exact
    distributed sort + limit on an already-small aggregate."""
    from .relational import events_od_matrix

    od = events_od_matrix(sf_dir, hex_size=HEX_SIZE)
    return od.sort(
        ["n_users", "oq", "orr", "dq", "dr"],
        descending=[True, False, False, False, False],
    ).limit(20)


def _sql_od_top_flows() -> str:
    from .relational import sql_events_od_matrix

    return (
        f"SELECT * FROM ({sql_events_od_matrix(hex_size=HEX_SIZE)}) "
        f"ORDER BY n_users DESC, oq, orr, dq, dr LIMIT 20"
    )


#: decay constant for recency-weighted density (7 days, microseconds)
DECAY_TAU_US = 604_800_000_000.0


@query("hex_decay_density", sql=lambda: _sql_hex_decay_density())
def q_hex_decay_density(sf_dir: str):
    """Recency-weighted hex density: each event contributes
    exp(-(t_max - t) / tau) — the streaming-freshness law.  The global
    t_max is ONE integer max-reduce broadcast as a closure scalar;
    per-hex (count, weight-sum) partials are the only shuffle."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..hex import _pack, _unpack, hex_axial
    from ..synth import derive_xy

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts"]
    )

    def to_us(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": pc.cast(b["event_id"], pa.int64()),
                "us": pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64()),
            }
        )

    ds = ds.map_batches(to_us, batch_format="pyarrow")
    tmax = int(ds.max("us"))

    def partial(b: pa.Table) -> pa.Table:
        eid = np.asarray(b["event_id"], np.int64)
        us = np.asarray(b["us"], np.int64)
        x, y = derive_xy(eid)
        key = _pack(*hex_axial(x, y, HEX_SIZE))
        w = np.exp(-((tmax - us) / DECAY_TAU_US))
        u, inv = np.unique(key, return_inverse=True)
        return pa.table(
            {
                "hkey": pa.array(u),
                "n": pa.array(np.bincount(inv, minlength=len(u)).astype(np.int64)),
                "w": pa.array(np.bincount(inv, weights=w, minlength=len(u))),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("hkey")
        .aggregate(Sum("n", alias_name="n_events"), Sum("w", alias_name="wsum"))
    )

    def finish(b: pa.Table) -> pa.Table:
        q, r = _unpack(np.asarray(b["hkey"], np.int64))
        w = np.asarray(b["wsum"], np.float64)
        w = np.sign(w) * np.floor(np.abs(w) * 1e6 + 0.5) / 1e6
        return pa.table(
            {
                "hq": pa.array(q),
                "hr": pa.array(r),
                "n_events": b["n_events"],
                "decayed": pa.array(w),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def _sql_hex_decay_density() -> str:
    from ..hex import sql_hex_cte
    from ..synth import SQL_X, SQL_Y

    ex = SQL_X.replace("doc_id", "event_id")
    ey = SQL_Y.replace("doc_id", "event_id")
    return (
        f"WITH pts AS (SELECT event_id, epoch_us(ts) AS us, "
        f"{ex} AS x, {ey} AS y FROM events), "
        f"{sql_hex_cte(HEX_SIZE)}, "
        f"t AS (SELECT MAX(us) AS tmax FROM pts) "
        f"SELECT hq, hr, COUNT(*)::BIGINT AS n_events, "
        f"ROUND(SUM(exp(-((t.tmax - us) / {DECAY_TAU_US!r}))) * 1e6) / 1e6 "
        f"AS decayed FROM hexed, t GROUP BY hq, hr"
    )


@query(
    "hex_weekly_growth",
    sql=lambda: relational.sql_events_hex_weekly_growth(hex_size=HEX_SIZE),
)
def q_hex_weekly_growth(sf_dir: str):
    from .relational import events_hex_weekly_growth

    return events_hex_weekly_growth(sf_dir, hex_size=HEX_SIZE)


@query(
    "hex_mann_kendall",
    sql=lambda: relational.sql_events_hex_mann_kendall(hex_size=HEX_SIZE),
    bench=True,
)
def q_hex_mann_kendall(sf_dir: str):
    """Emerging-hotspot (Mann-Kendall) trend per hex over the sparse
    weekly activity series — tie-corrected variance, continuity-corrected
    z; vectorized pair construction in one coarse-bucket pass."""
    from .relational import events_hex_mann_kendall

    return events_hex_mann_kendall(sf_dir, hex_size=HEX_SIZE)


@query(
    "home_work",
    sql=lambda: relational.sql_events_home_work(hex_size=HEX_SIZE),
    bench=True,
)
def q_home_work(sf_dir: str):
    """Home/work anchor hexes per user (modal night vs office-hour cell,
    smallest-cell tie law) — mobility-mining anchors in one coarse
    bucket pass."""
    from .relational import events_home_work

    return events_home_work(sf_dir, hex_size=HEX_SIZE)


@query(
    "events_coloc",
    sql=lambda: relational.sql_events_coloc(hex_size=HEX_SIZE),
    bench=True,
    quadratic=True,
)
def q_events_coloc(sf_dir: str):
    """Co-location contact pairs (same hex, same epoch hour, >= 2
    distinct meetings) — two packed-key coarse-bucket shuffles, never a
    fine pair groupby."""
    from .relational import events_coloc

    return events_coloc(sf_dir, hex_size=HEX_SIZE)


@query("od_paths", sql=lambda: relational.sql_events_od_paths(hex_size=HEX_SIZE))
def q_od_paths(sf_dir: str):
    """Per-user hex path densification from origin to destination cell
    (cube-lerp line law on center coordinates) — the trajectory
    rasterization operator."""
    from .relational import events_od_paths

    return events_od_paths(sf_dir, hex_size=HEX_SIZE)


@query("path_density", sql=lambda: _sql_path_density())
def q_path_density(sf_dir: str):
    """Flow-map density: how many user OD paths traverse each hex cell
    (distinct users per cell over the densified paths) — the traffic
    intensity rollup of od_paths.  Per-batch packed-key distinct
    partials -> one hash aggregate."""
    from ray.data.aggregate import Sum

    from ..hex import _pack, _unpack

    from .relational import events_od_paths

    paths = events_od_paths(sf_dir, hex_size=HEX_SIZE)
    def partial(b: pa.Table) -> pa.Table:
        uid = np.asarray(b["user_id"], np.int64)
        key = _pack(np.asarray(b["hq"], np.int64), np.asarray(b["hr"], np.int64))
        # batch-local dedup shrinks the shuffle; exactness comes from the
        # second, bucket-level unique (a pair may straddle batches)
        pairs = np.unique(np.stack([key, uid], axis=1), axis=0)
        return pa.table(
            {"hkey": pa.array(pairs[:, 0]), "uid": pa.array(pairs[:, 1])}
        )

    def bucket_distinct(t: pa.Table, starts: np.ndarray) -> dict:
        # one segment per distinct (hkey, uid) pair
        u, c = np.unique(np.asarray(t["hkey"], np.int64)[starts], return_counts=True)
        return {"hkey": u, "n": c}

    agg = (
        segment_apply(
            paths.map_batches(partial, batch_format="pyarrow"),
            ["hkey", "uid"],
            bucket_distinct,
            pa.schema({"hkey": pa.int64(), "n": pa.int64()}),
        )
        .groupby("hkey")
        .aggregate(Sum("n", alias_name="n_users"))
    )

    def finish(b: pa.Table) -> pa.Table:
        q, r = _unpack(np.asarray(b["hkey"], np.int64))
        return pa.table(
            {"hq": pa.array(q), "hr": pa.array(r), "n_users": b["n_users"]}
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def _sql_path_density() -> str:
    from .relational import sql_events_od_paths

    inner = sql_events_od_paths(hex_size=HEX_SIZE)
    return (
        f"WITH paths AS ({inner}) "
        f"SELECT hq, hr, COUNT(DISTINCT user_id)::BIGINT AS n_users"
        f" FROM paths GROUP BY hq, hr"
    )


SFCA_D_KM = 300.0


@query("accessibility", sql=lambda: _sql_accessibility())
def q_accessibility(sf_dir: str):
    """Two-step floating catchment accessibility (2SFCA): hub j's ratio
    R_j = capacity_j / demand within D km (capacity = 100 + 10*hub_id);
    point i's access A_i = sum of R_j over hubs within D km (0.0 when
    none) — the classic service-accessibility index, 6dp.

    Scale shape: step 1 is an 8-counter per-batch partial -> global sum
    (the hub table broadcasts, demand never shuffles); step 2 is a
    stateless vectorized pass with the 8 ratios riding the closure."""
    import ray.data as rd

    from ..geodesic import HUBS, haversine_km

    hub_id = np.array([h[0] for h in HUBS], np.int64)
    hlon = np.array([h[1] for h in HUBS])
    hlat = np.array([h[2] for h in HUBS])
    cap = 100.0 + 10.0 * hub_id.astype(np.float64)

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def counts(b: pa.Table) -> pa.Table:
        lon, lat = derive_lonlat(np.asarray(b["doc_id"]))
        d = haversine_km(
            lon[:, None], lat[:, None], hlon[None, :], hlat[None, :]
        )
        within = (d <= SFCA_D_KM).sum(axis=0).astype(np.int64)
        return pa.table(
            {"hub_id": pa.array(hub_id), "demand": pa.array(within)}
        )

    from ray.data.aggregate import Sum

    dem = (
        ds.map_batches(counts, batch_format="pyarrow")
        .groupby("hub_id")
        .aggregate(Sum("demand", alias_name="demand"))
        .to_pandas()
        .sort_values("hub_id")
    )
    demand = np.zeros(len(HUBS), np.int64)
    demand[dem["hub_id"].to_numpy(np.int64)] = dem["demand"].to_numpy(np.int64)
    with np.errstate(divide="ignore"):
        ratio = np.where(demand > 0, cap / demand.astype(np.float64), 0.0)

    def access(b: pa.Table) -> pa.Table:
        doc = np.asarray(b["doc_id"], np.int64)
        lon, lat = derive_lonlat(doc)
        d = haversine_km(
            lon[:, None], lat[:, None], hlon[None, :], hlat[None, :]
        )
        a = np.where(d <= SFCA_D_KM, ratio[None, :], 0.0).sum(axis=1)
        a = np.sign(a) * np.floor(np.abs(a) * 1e6 + 0.5) / 1e6
        return pa.table({"doc_id": pa.array(doc), "access": pa.array(a)})

    return ds.map_batches(access, batch_format="pyarrow")


def _sql_accessibility() -> str:
    from ..geodesic import sql_haversine_expr, sql_hubs_cte
    from ..synth import sql_lonlat_cte

    dist = sql_haversine_expr("p.lon", "p.lat", "h.hlon", "h.hlat")
    return (
        f"WITH ll AS ({sql_lonlat_cte()}), {sql_hubs_cte()}, "
        f"dem AS (SELECT h.hub_id,"
        f" (100.0 + 10.0 * h.hub_id) AS cap, COUNT(p.doc_id)::BIGINT AS n"
        f" FROM hubs h LEFT JOIN ll p ON {dist} <= {SFCA_D_KM!r}"
        f" GROUP BY h.hub_id), "
        f"ratio AS (SELECT hub_id,"
        f" CASE WHEN n > 0 THEN cap / CAST(n AS DOUBLE) ELSE 0.0 END AS r,"
        f" hlon, hlat FROM dem JOIN hubs USING (hub_id)) "
        f"SELECT p.doc_id,"
        f" ROUND(COALESCE(SUM(CASE WHEN"
        f" {sql_haversine_expr('p.lon', 'p.lat', 'r.hlon', 'r.hlat')}"
        f" <= {SFCA_D_KM!r} THEN r.r END), 0.0) * 1000000.0) / 1000000.0"
        f" AS access"
        f" FROM ll p CROSS JOIN ratio r GROUP BY p.doc_id"
    )


@query(
    "od_gravity",
    sql=lambda: relational.sql_events_od_gravity(hex_size=HEX_SIZE),
    bench=True,
)
def q_od_gravity(sf_dir: str):
    """Gravity-model (distance-decay) fit over OD hex flows: OLS of
    ln(flow) on ln(center distance) — the classic spatial-interaction
    regression, reduced to six scalars on the driver."""
    from .relational import events_od_gravity

    return events_od_gravity(sf_dir, hex_size=HEX_SIZE)


@query(
    "od_matrix",
    sql=lambda: relational.sql_events_od_matrix(hex_size=HEX_SIZE),
    bench=True,
)
def q_od_matrix(sf_dir: str):
    from .relational import events_od_matrix

    return events_od_matrix(sf_dir, hex_size=HEX_SIZE)


@query("bucketed_join", sql=lambda: _sql_bucketed_join())
def q_bucketed_join(sf_dir: str):
    """Storage-partitioned join: both tables hash-bucketed to parquet
    ONCE (the only shuffle, reusable across every later join on the
    key), then joined bucket-by-bucket with local Arrow hash joins —
    zero join-time shuffle; aggregated to per-priority revenue."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    from ..state.bucketed import bucketed_join, bucketed_write

    a_dir = _scratch_dir("bucketed_line_")
    b_dir = _scratch_dir("bucketed_orders_")
    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice"],
    )
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderpriority"],
    )
    bucketed_write(line, a_dir, key="l_orderkey")
    bucketed_write(orders, b_dir, key="o_orderkey")
    joined = bucketed_join(
        a_dir, b_dir, key="l_orderkey", right_key="o_orderkey"
    )

    def pick(b: pa.Table) -> pa.Table:
        return b.select(["o_orderpriority", "l_extendedprice"])

    out = (
        joined.map_batches(pick, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .aggregate(
            Count(alias_name="n_lines"),
            Sum("l_extendedprice", alias_name="revenue"),
        )
    )
    return out.map_batches(
        lambda b: round_half_away(b, ["revenue"], 2),
        batch_format="pyarrow",
    )


def _sql_bucketed_join() -> str:
    return """
SELECT o_orderpriority, COUNT(*)::BIGINT AS n_lines,
       ROUND(SUM(l_extendedprice) * 1e2) / 1e2 AS revenue
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY o_orderpriority
"""


@query("chunk_documents", sql=text.sql_chunk_documents, bench=True)
def q_chunk_documents(sf_dir: str):
    """Overlapping 64-token / 48-stride chunking of every document."""
    import ray.data as rd

    from ..text import chunk_documents

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return chunk_documents(ds)


@query(
    "grouped_mad",
    sql=lambda: stats.sql_grouped_mad(key="lang", value="n_chars", source="documents"),
)
def q_grouped_mad(sf_dir: str):
    """Per-language median absolute deviation of document length."""
    import ray.data as rd

    from ..stats import grouped_mad

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"]
    )
    return grouped_mad(ds, key="lang", value="n_chars")


@query("events_latest", sql=lambda: _sql_events_latest())
def q_events_latest(sf_dir: str):
    """Latest event value per user (distributed arg-max combiner)."""
    import ray.data as rd

    from ..stats import grouped_latest

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "value"],
    )

    def cast_us(b: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64())
        return pa.table(
            {
                "user_id": pc.cast(b["user_id"], pa.int64()),
                "us": us,
                "event_id": pc.cast(b["event_id"], pa.int64()),
                "value": b["value"],
            }
        )

    return grouped_latest(
        ds.map_batches(cast_us, batch_format="pyarrow"),
        key="user_id", order_cols=("us", "event_id"),
        carry_cols=("value",),
    )


def _sql_events_latest() -> str:
    from ..stats import sql_grouped_latest

    inner = sql_grouped_latest(
        key="user_id", order_cols=("us", "event_id"),
        carry_cols=("value",), source="s",
    )
    return (
        "WITH s AS (SELECT user_id, epoch_us(ts) AS us, event_id, value "
        f"FROM events) {inner}"
    )


SET_OP_ERR_CUT = 13  #: heavy-error threshold (shared with the SQL twins)


def _set_op_sides(sf_dir: str):
    """Clickers vs heavy-error users (> SET_OP_ERR_CUT errors): the
    right side runs through the built-in hash aggregate (the exact_dedup
    shape — scale-safe on a high-cardinality key) + a filter."""
    import ray.data as rd
    from ray.data.aggregate import Count

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    clickers = ev.filter(expr="event_type == 'click'")
    heavy_err = (
        ev.filter(expr="event_type == 'error'")
        .groupby("user_id")
        .aggregate(Count(alias_name="n_err"))
        .filter(expr=f"n_err > {SET_OP_ERR_CUT}")
    )
    return clickers, heavy_err


@query("set_intersect", sql=lambda: _sql_set_intersect())
def q_set_intersect(sf_dir: str):
    """Clicking users who are also heavy-error users: DISTINCT
    INTERSECT."""
    from ..joins import key_set_op

    a, b = _set_op_sides(sf_dir)
    return key_set_op(a, b, "user_id", op="intersect")


@query("set_except", sql=lambda: _sql_set_except())
def q_set_except(sf_dir: str):
    """Clicking users who are NOT heavy-error users: DISTINCT EXCEPT."""
    from ..joins import key_set_op

    a, b = _set_op_sides(sf_dir)
    return key_set_op(a, b, "user_id", op="except")


def _sql_set_heavy() -> str:
    return (
        "SELECT user_id FROM events WHERE event_type = 'error' "
        f"GROUP BY user_id HAVING COUNT(*) > {SET_OP_ERR_CUT}"
    )


def _sql_set_intersect() -> str:
    return (
        "SELECT DISTINCT user_id FROM events WHERE event_type = 'click' "
        f"INTERSECT SELECT user_id FROM ({_sql_set_heavy()}) h"
    )


def _sql_set_except() -> str:
    return (
        "SELECT DISTINCT user_id FROM events WHERE event_type = 'click' "
        f"EXCEPT SELECT user_id FROM ({_sql_set_heavy()}) h"
    )


@query(
    "histogram",
    sql=lambda: stats.sql_histogram(value="l_extendedprice", source="lineitem",
                         bins=20),
    bench=True,
)
def q_histogram(sf_dir: str):
    """Exact 20-bin equi-width histogram of extended price."""
    import ray.data as rd

    from ..stats import histogram

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"]
    )
    return histogram(ds, value="l_extendedprice", bins=20)


KW_TERMS = ("spark", "window")


@query("keyword_search", sql=lambda: text.sql_keyword_search(KW_TERMS), bench=True)
def q_keyword_search(sf_dir: str):
    """Inverted-index build (bucket-partitioned parquet tree) + pruned
    AND-of-terms read — the IR analogue of ivf_pruned."""
    import ray.data as rd

    from ..text import inverted_index_build, keyword_search

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    idx_dir = _scratch_dir("inv_index_stage_")
    inverted_index_build(ds, idx_dir)
    return keyword_search(idx_dir, KW_TERMS)


FULL_OUTER_PRICE_CUT = 3_500_000.0
FULL_OUTER_BAL_CUT = 9_000.0


@query("full_outer", sql=lambda: _sql_full_outer())
def q_full_outer(sf_dir: str):
    """FULL OUTER hash join of two independently filtered sides: big
    spenders (per-customer order totals above a cut) vs high-balance
    customers.  Both sides sit downstream of a filter/aggregate, so the
    schema-race guard is the documented repartition-right-before-join
    (rows >> width at every real scale); the width is cluster-derived."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..cluster import default_num_partitions

    w = default_num_partitions()
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )
    spend = (
        orders.groupby("o_custkey")
        .aggregate(Sum("o_totalprice", alias_name="spend"))
        .filter(expr=f"spend > {FULL_OUTER_PRICE_CUT!r}")
        .repartition(w)
    )
    cust = (
        rd.read_parquet(
            f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_acctbal"]
        )
        .filter(expr=f"c_acctbal > {FULL_OUTER_BAL_CUT!r}")
        .repartition(w)
    )
    out = spend.join(
        cust, "full_outer", num_partitions=w,
        on=("o_custkey",), right_on=("c_custkey",),
    )

    def finish(b: pa.Table) -> pa.Table:
        # Ray's full_outer coalesces the join keys into the left key
        # column (verified: right-only rows carry the right key there)
        t = pa.table(
            {
                "custkey": pc.cast(b["o_custkey"], pa.int64()),
                "spend": b["spend"],
                "c_acctbal": b["c_acctbal"],
            }
        )
        return round_half_away(t, ["spend"], 2)

    return out.map_batches(finish, batch_format="pyarrow")


def _sql_full_outer() -> str:
    return f"""
WITH spend AS (
  SELECT o_custkey, SUM(o_totalprice) AS spend
  FROM orders GROUP BY o_custkey
  HAVING SUM(o_totalprice) > {FULL_OUTER_PRICE_CUT!r}
),
hib AS (
  SELECT c_custkey, c_acctbal FROM customer
  WHERE c_acctbal > {FULL_OUTER_BAL_CUT!r}
)
SELECT COALESCE(s.o_custkey, h.c_custkey) AS custkey,
       ROUND(s.spend, 2) AS spend, h.c_acctbal
FROM spend s FULL OUTER JOIN hib h ON s.o_custkey = h.c_custkey
"""


@query("degree_hist", sql=graph.sql_degree_histogram)
def q_degree_hist(sf_dir: str):
    """Degree distribution of the supplier<->part bipartite graph."""
    import ray.data as rd

    from ..graph import degree_histogram, distinct_int_pairs

    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_suppkey", "l_partkey"]
    )
    pairs = distinct_int_pairs(line, "l_suppkey", "l_partkey")
    return degree_histogram(pairs, "l_suppkey", "l_partkey")


# ---------------------------------------------------------------------------
# Voronoi / map-matching / trajectory-similarity wave
# ---------------------------------------------------------------------------
# Facility seeds (Voronoi sites) and road segments are tiny broadcast-side
# fixtures: deterministic integer-derived coordinates, embedded verbatim as
# VALUES in the oracles so both sides start from identical doubles.

VOR_SEEDS: tuple[tuple[int, float, float], ...] = tuple(
    (
        s,
        float(((s * 7349 + 1213) % 491) * 1000.0 + 3500.0),
        float(((s * 9187 + 2729) % 487) * 1000.0 + 4700.0),
    )
    for s in range(12)
)
VOR_GRID = 50  # fixed probe lattice per axis for the cell-area estimate

ROAD_SEGS: tuple[tuple[int, float, float, float, float], ...] = tuple(
    (
        s,
        float(((s * 5801 + 977) % 441) * 1000.0 + 20_000.0),
        float(((s * 6571 + 1439) % 443) * 1000.0 + 21_000.0),
        float(((s * 4231 + 3307) % 439) * 1000.0 + 30_000.0),
        float(((s * 3917 + 2113) % 449) * 1000.0 + 26_000.0),
    )
    for s in range(10)
)

HAUS_REF: tuple[tuple[float, float], ...] = tuple(
    (
        float(20_000.0 + i * 65_000.0),
        float(((i * 3571 + 911) % 430) * 1000.0 + 30_000.0),
    )
    for i in range(8)
)


def _seed_mindist(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(winner seed id, winning d2) per point — first-min tie = lowest id,
    same d2 op order as the SQL twin."""
    sx = np.array([s[1] for s in VOR_SEEDS])
    sy = np.array([s[2] for s in VOR_SEEDS])
    d2 = (x[:, None] - sx[None, :]) * (x[:, None] - sx[None, :]) + (
        y[:, None] - sy[None, :]
    ) * (y[:, None] - sy[None, :])
    win = np.argmin(d2, axis=1)
    return win, d2[np.arange(len(x)), win]


@query("voronoi_assign", sql=lambda: _sql_voronoi_assign(), bench=True)
def q_voronoi_assign(sf_dir: str):
    """Voronoi assignment of the doc point field to 12 facility seeds:
    every doc goes to its nearest seed (tie -> lowest seed id); per seed
    the doc count, the summed snap distance (2dp — metre sums), and the
    seed's Voronoi cell area estimated on a fixed 50x50 probe lattice.

    Scale shape: the seed table is a broadcast constant; one stateless
    map_batches pass emits 12-row bincount partials, a 12-group hash
    aggregate folds them; the lattice is a fixture constant evaluated
    once.  No shuffle touches the doc stream."""
    import ray.data as rd

    k = len(VOR_SEEDS)

    def partial(b: pa.Table) -> pa.Table:
        x, y = derive_xy(np.asarray(b["doc_id"], np.int64))
        win, d2 = _seed_mindist(x, y)
        n = np.bincount(win, minlength=k).astype(np.int64)
        sd = np.bincount(win, weights=np.sqrt(d2), minlength=k)
        return pa.table(
            {
                "seed_id": np.arange(k, dtype=np.int64),
                "n_docs": n,
                "sum_d": sd,
            }
        )

    agg = (
        docs_points(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("seed_id")
        .sum(["n_docs", "sum_d"])
    )

    # fixed-lattice Voronoi cell areas (fixture constant, 2500 probes)
    gx = (np.arange(VOR_GRID, dtype=np.float64) + 0.5) * (500_000.0 / VOR_GRID)
    gy = (np.arange(VOR_GRID, dtype=np.float64) + 0.5) * (501_000.0 / VOR_GRID)
    mx, my = np.meshgrid(gx, gy, indexing="ij")
    pwin, _ = _seed_mindist(mx.ravel(), my.ravel())
    cell_area = (500_000.0 / VOR_GRID) * (501_000.0 / VOR_GRID)
    area = np.bincount(pwin, minlength=k).astype(np.float64) * cell_area
    area_by_seed = {int(i): float(a) for i, a in enumerate(area)}

    def finish(b: pa.Table) -> pa.Table:
        sid = np.asarray(b["seed_id"], np.int64)
        sd = np.asarray(b["sum(sum_d)"], np.float64)
        sd = np.sign(sd) * np.floor(np.abs(sd) * 100.0 + 0.5) / 100.0
        return pa.table(
            {
                "seed_id": sid,
                "n_docs": np.asarray(b["sum(n_docs)"], np.int64),
                "sum_d": sd,
                "cell_area": np.array(
                    [area_by_seed[int(s)] for s in sid], np.float64
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def _sql_voronoi_assign() -> str:
    from ..synth import sql_points_cte

    seeds = ", ".join(f"({s}, {x!r}, {y!r})" for s, x, y in VOR_SEEDS)
    g = VOR_GRID
    d2 = "((p.x - s.sx) * (p.x - s.sx) + (p.y - s.sy) * (p.y - s.sy))"
    px = f"((gx.i + 0.5) * ({500_000.0!r} / {float(g)!r}))"
    py = f"((gy.i + 0.5) * ({501_000.0!r} / {float(g)!r}))"
    pd2 = f"(({px} - s.sx) * ({px} - s.sx) + ({py} - s.sy) * ({py} - s.sy))"
    return (
        f"WITH seeds(seed_id, sx, sy) AS (VALUES {seeds}), "
        f"pts AS ({sql_points_cte()}), "
        f"assign AS (SELECT s.seed_id, sqrt({d2}) AS d FROM pts p"
        f" CROSS JOIN seeds s"
        f" QUALIFY ROW_NUMBER() OVER (PARTITION BY p.doc_id"
        f" ORDER BY {d2}, s.seed_id) = 1), "
        f"probes AS (SELECT gx.i AS ix, gy.i AS iy, s.seed_id"
        f" FROM (SELECT UNNEST(generate_series(0, {g - 1})) AS i) gx,"
        f" (SELECT UNNEST(generate_series(0, {g - 1})) AS i) gy"
        f" CROSS JOIN seeds s"
        f" QUALIFY ROW_NUMBER() OVER (PARTITION BY gx.i, gy.i"
        f" ORDER BY {pd2}, s.seed_id) = 1), "
        f"pa AS (SELECT seed_id, COUNT(*)::DOUBLE"
        f" * (({500_000.0!r} / {float(g)!r}) * ({501_000.0!r} / {float(g)!r}))"
        f" AS cell_area FROM probes GROUP BY seed_id) "
        f"SELECT s.seed_id, COALESCE(a.n, 0)::BIGINT AS n_docs,"
        f" COALESCE(a.sd, 0.0) AS sum_d,"
        f" COALESCE(pa.cell_area, 0.0) AS cell_area"
        f" FROM seeds s"
        f" LEFT JOIN (SELECT seed_id, COUNT(*) AS n,"
        f" ROUND(SUM(d) * 100.0) / 100.0 AS sd"
        f" FROM assign GROUP BY seed_id) a ON s.seed_id = a.seed_id"
        f" LEFT JOIN pa ON s.seed_id = pa.seed_id"
    )


@query("map_match", sql=lambda: _sql_map_match(), bench=True)
def q_map_match(sf_dir: str):
    """Map matching: snap every doc point to the nearest of 10 road
    segments (exact point-to-segment projection with clamped parameter;
    tie -> lowest segment id); per segment the matched count and the
    mean snap distance (2dp).  Zero-match segments appear with 0 / 0.0.

    Scale shape: the segment table is a broadcast constant; a stateless
    vectorized pass computes the (n x 10) distance matrix per batch and
    emits 10-row partials; a 10-group hash aggregate folds them."""
    import ray.data as rd

    segs = ROAD_SEGS
    m = len(segs)
    ax = np.array([s[1] for s in segs])
    ay = np.array([s[2] for s in segs])
    bx = np.array([s[3] for s in segs])
    by = np.array([s[4] for s in segs])
    l2 = (bx - ax) * (bx - ax) + (by - ay) * (by - ay)

    def partial(b: pa.Table) -> pa.Table:
        x, y = derive_xy(np.asarray(b["doc_id"], np.int64))
        t = (
            (x[:, None] - ax[None, :]) * (bx - ax)[None, :]
            + (y[:, None] - ay[None, :]) * (by - ay)[None, :]
        ) / l2[None, :]
        t = np.minimum(np.maximum(t, 0.0), 1.0)
        cx = ax[None, :] + t * (bx - ax)[None, :]
        cy = ay[None, :] + t * (by - ay)[None, :]
        d2 = (x[:, None] - cx) * (x[:, None] - cx) + (y[:, None] - cy) * (
            y[:, None] - cy
        )
        win = np.argmin(d2, axis=1)
        dwin = np.sqrt(d2[np.arange(len(x)), win])
        return pa.table(
            {
                "seg_id": np.arange(m, dtype=np.int64),
                "n_pts": np.bincount(win, minlength=m).astype(np.int64),
                "sum_d": np.bincount(win, weights=dwin, minlength=m),
            }
        )

    agg = (
        docs_points(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("seg_id")
        .sum(["n_pts", "sum_d"])
    )

    def finish(b: pa.Table) -> pa.Table:
        n = np.asarray(b["sum(n_pts)"], np.int64)
        sd = np.asarray(b["sum(sum_d)"], np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = np.where(n > 0, sd / np.maximum(n, 1), 0.0)
        mean = np.sign(mean) * np.floor(np.abs(mean) * 100.0 + 0.5) / 100.0
        return pa.table(
            {
                "seg_id": np.asarray(b["seg_id"], np.int64),
                "n_pts": n,
                "mean_d": mean,
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def _sql_map_match() -> str:
    from ..synth import sql_points_cte

    segs = ", ".join(
        f"({s}, {ax!r}, {ay!r}, {bx!r}, {by!r})"
        for s, ax, ay, bx, by in ROAD_SEGS
    )
    l2 = "((r.bx - r.ax) * (r.bx - r.ax) + (r.by - r.ay) * (r.by - r.ay))"
    traw = (
        f"(((p.x - r.ax) * (r.bx - r.ax) + (p.y - r.ay) * (r.by - r.ay))"
        f" / {l2})"
    )
    t = f"LEAST(GREATEST({traw}, 0.0), 1.0)"
    cx = f"(r.ax + {t} * (r.bx - r.ax))"
    cy = f"(r.ay + {t} * (r.by - r.ay))"
    d2 = f"((p.x - {cx}) * (p.x - {cx}) + (p.y - {cy}) * (p.y - {cy}))"
    return (
        f"WITH segs(seg_id, ax, ay, bx, by) AS (VALUES {segs}), "
        f"pts AS ({sql_points_cte()}), "
        f"assign AS (SELECT r.seg_id, sqrt({d2}) AS d"
        f" FROM pts p CROSS JOIN segs r"
        f" QUALIFY ROW_NUMBER() OVER (PARTITION BY p.doc_id"
        f" ORDER BY {d2}, r.seg_id) = 1) "
        f"SELECT s.seg_id, COALESCE(a.n, 0)::BIGINT AS n_pts,"
        f" COALESCE(a.md, 0.0) AS mean_d FROM segs s"
        f" LEFT JOIN (SELECT seg_id, COUNT(*) AS n,"
        f" ROUND((SUM(d) / COUNT(*)) * 100.0) / 100.0 AS md"
        f" FROM assign GROUP BY seg_id) a ON s.seg_id = a.seg_id"
    )


@query("traj_hausdorff", sql=lambda: _sql_traj_hausdorff(), quadratic=True)
def q_traj_hausdorff(sf_dir: str):
    """Directed Hausdorff distance from each user's telemetry trajectory
    to a fixed 8-vertex reference polyline (vertex-set form: max over the
    user's points of the min distance to a reference vertex).  Top 20
    users by (h DESC, user_id), 6dp — exact, since max/min pick identical
    doubles on both sides.

    Scale shape: the reference is a broadcast constant; per-batch
    vectorized min-dist + per-user max partials collapse each batch to
    one row per touched user; a hash max-aggregate folds partials and
    only user-cardinality rows reach the final sort."""
    import ray.data as rd

    rx = np.array([p[0] for p in HAUS_REF])
    ry = np.array([p[1] for p in HAUS_REF])

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id"]
    )

    def partial(b: pa.Table) -> pa.Table:
        uid = np.asarray(b["user_id"], np.int64)
        eid = np.asarray(pc.cast(b["event_id"], pa.int64()))
        x, y = derive_xy(eid)
        d2 = (x[:, None] - rx[None, :]) * (x[:, None] - rx[None, :]) + (
            y[:, None] - ry[None, :]
        ) * (y[:, None] - ry[None, :])
        dmin = d2.min(axis=1)
        order = np.argsort(uid, kind="stable")
        uid, dmin = uid[order], dmin[order]
        first = np.concatenate([[True], uid[1:] != uid[:-1]])
        users = uid[first]
        hmax = np.maximum.reduceat(dmin, np.flatnonzero(first))
        return pa.table({"user_id": users, "h2": hmax})

    agg = ds.map_batches(partial, batch_format="pyarrow").groupby(
        "user_id"
    ).max("h2")

    def finish(b: pa.Table) -> pa.Table:
        h = np.sqrt(np.asarray(b["max(h2)"], np.float64))
        h = np.sign(h) * np.floor(np.abs(h) * 1e6 + 0.5) / 1e6
        return pa.table(
            {"user_id": np.asarray(b["user_id"], np.int64), "h": h}
        )

    return (
        agg.map_batches(finish, batch_format="pyarrow")
        .sort(["h", "user_id"], descending=[True, False])
        .limit(20)
    )


def _sql_traj_hausdorff() -> str:
    from ..synth import SQL_X, SQL_Y

    ex = SQL_X.replace("doc_id", "event_id")
    ey = SQL_Y.replace("doc_id", "event_id")
    refs = ", ".join(f"({x!r}, {y!r})" for x, y in HAUS_REF)
    d2 = "((p.x - r.rx) * (p.x - r.rx) + (p.y - r.ry) * (p.y - r.ry))"
    return (
        f"WITH ref(rx, ry) AS (VALUES {refs}), "
        f"pts AS (SELECT user_id, event_id, {ex} AS x, {ey} AS y"
        f" FROM events), "
        f"nn AS (SELECT p.user_id, MIN({d2}) AS d2 FROM pts p"
        f" CROSS JOIN ref r GROUP BY p.user_id, p.event_id) "
        f"SELECT user_id,"
        f" ROUND(sqrt(MAX(d2)) * 1000000.0) / 1000000.0 AS h"
        f" FROM nn GROUP BY user_id"
        f" ORDER BY h DESC, user_id LIMIT 20"
    )


# ---------------------------------------------------------------------------
# hull / dissolve / geometric-median wave
# ---------------------------------------------------------------------------

HULL_MOD, HULL_RES = 11, 5  # doc subset: doc_id % 11 == 5
HULL_EPS = 1e-2  # combiner slack >> cross-product float noise (~1e-4)
GMED_ITERS = 8
GMED_EPS = 1e-9


@query("convex_hull", sql=lambda: _sql_convex_hull(), bench=True)
def q_convex_hull(sf_dir: str):
    """Convex-hull boundary of a doc-point subset (doc_id % 11 == 5): one
    row per boundary point (doc_id, x, y) at 6dp — vertices AND exactly
    collinear edge points (the LCG point law is a rational lattice, so
    exact collinearity genuinely occurs; the boundary-inclusive law is
    the one both sides can decide bit-identically).

    Scale shape: the classic distributed hull — each batch reduces to
    its local hull via a conservative monotone chain (an eps-slack
    combiner that never loses a true boundary point), then the exact
    supporting-line law (same cross expression as the oracle, same
    doubles) confirms each candidate against the subset."""
    import ray.data as rd

    from ..spatial import hull_boundary_chain, hull_boundary_support

    def subset(b: pa.Table) -> pa.Table:
        did = np.asarray(b["doc_id"], np.int64)
        return b.filter(pa.array(did % HULL_MOD == HULL_RES))

    ds = docs_points(sf_dir).map_batches(subset, batch_format="pyarrow")

    def local_hull(b: pa.Table) -> pa.Table:
        out = b.select(["doc_id", "x", "y"])
        flag = np.zeros(b.num_rows, bool)
        if b.num_rows:
            x = np.asarray(b["x"], np.float64)
            y = np.asarray(b["y"], np.float64)
            flag[hull_boundary_chain(x, y, eps=HULL_EPS)] = True
        return out.append_column("cand", pa.array(flag))

    # the pruned subset is tiny by construction (1/11 sample); the
    # witness check must quantify over the FULL subset for bit-parity
    # with the oracle, so gather it (at 100 TB the c-scan stays a
    # distributed AND-reduce over broadcast candidate pairs).
    sub = pa.concat_tables(
        ds.map_batches(local_hull, batch_format="pyarrow").iter_batches(
            batch_size=None, batch_format="pyarrow"
        )
    )
    did = np.asarray(sub["doc_id"], np.int64)
    hx = np.asarray(sub["x"], np.float64)
    hy = np.asarray(sub["y"], np.float64)
    cand = np.flatnonzero(np.asarray(sub["cand"]))
    idx = hull_boundary_support(hx, hy, cand)
    rnd = lambda v: np.sign(v) * np.floor(np.abs(v) * 1e6 + 0.5) / 1e6
    idx = idx[np.argsort(did[idx])]
    return rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(did[idx], pa.int64()),
                "x": pa.array(rnd(hx[idx])),
                "y": pa.array(rnd(hy[idx])),
            }
        )
    )


def _sql_convex_hull() -> str:
    from ..synth import sql_points_cte

    cross = "((b.x - p.x) * (c.y - p.y) - (b.y - p.y) * (c.x - p.x))"
    return (
        f"WITH pts AS ({sql_points_cte()}), "
        f"sub AS (SELECT * FROM pts WHERE doc_id % {HULL_MOD} = {HULL_RES}) "
        f"SELECT p.doc_id, ROUND(p.x * 1000000.0) / 1000000.0 AS x,"
        f" ROUND(p.y * 1000000.0) / 1000000.0 AS y"
        f" FROM sub p WHERE EXISTS (SELECT 1 FROM sub b"
        f" WHERE b.doc_id != p.doc_id AND NOT EXISTS ("
        f"SELECT 1 FROM sub c WHERE {cross} < 0.0))"
        f" ORDER BY p.doc_id"
    )


@query("dissolve_area", sql=lambda: _sql_dissolve_area())
def q_dissolve_area(sf_dir: str):
    """Dissolve-by-attribute with EXACT union area: the 8-polygon fixture
    layer (km-scaled rect decompositions, overlapping polygons included)
    grouped by poly_id % 3; per group the polygon/rect counts, the naive
    summed rect area and the true union area via coordinate-compression
    cover counting — sum_area > union_area exactly where members overlap.

    Scale shape: the layer is the broadcast small side (object store
    once); per-group compression is one vectorized cover mask.  With a
    huge layer the same kernel runs per dissolve-group partition."""
    import ray.data as rd

    from ..synth import polygon_layer

    rows = []
    for p in polygon_layer():
        for xmin, ymin, xmax, ymax in p["rects"]:
            rows.append(
                {
                    "grp": int(p["poly_id"]) % 3,
                    "poly_id": int(p["poly_id"]),
                    "rxmin": xmin / 1000.0,
                    "rymin": ymin / 1000.0,
                    "rxmax": xmax / 1000.0,
                    "rymax": ymax / 1000.0,
                }
            )

    def kernel(g: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd

        x0 = g["rxmin"].to_numpy(np.float64)
        y0 = g["rymin"].to_numpy(np.float64)
        x1 = g["rxmax"].to_numpy(np.float64)
        y1 = g["rymax"].to_numpy(np.float64)
        xs = np.unique(np.concatenate([x0, x1]))
        ys = np.unique(np.concatenate([y0, y1]))
        mx = (xs[:-1] + xs[1:]) / 2.0
        my = (ys[:-1] + ys[1:]) / 2.0
        cx, cy = np.meshgrid(mx, my, indexing="ij")
        cov = np.zeros(cx.shape, bool)
        for i in range(len(x0)):
            cov |= (
                (x0[i] <= cx)
                & (cx < x1[i])
                & (y0[i] <= cy)
                & (cy < y1[i])
            )
        w = np.diff(xs)[:, None] * np.diff(ys)[None, :]
        union = float((w * cov).sum())
        sums = float(((x1 - x0) * (y1 - y0)).sum())
        rnd = lambda v: float(np.sign(v) * np.floor(np.abs(v) * 1e6 + 0.5) / 1e6)
        return pd.DataFrame(
            {
                "grp": [int(g["grp"].iloc[0])],
                "n_polys": [int(g["poly_id"].nunique())],
                "n_rects": [len(g)],
                "sum_area": [rnd(sums)],
                "union_area": [rnd(union)],
            }
        )

    return (
        rd.from_items(rows)
        .groupby("grp")
        .map_groups(kernel, batch_format="pandas")
    )


def _sql_dissolve_area() -> str:
    from ..synth import sql_polygon_rects_km_cte

    r6 = lambda e: f"(ROUND(({e}) * 1000000.0) / 1000000.0)"
    return (
        f"WITH rects AS ({sql_polygon_rects_km_cte()}), "
        f"g AS (SELECT poly_id % 3 AS grp, poly_id, rxmin, rymin,"
        f" rxmax, rymax FROM rects), "
        f"xs0 AS (SELECT DISTINCT grp, rxmin AS x FROM g"
        f" UNION SELECT DISTINCT grp, rxmax FROM g), "
        f"ys0 AS (SELECT DISTINCT grp, rymin AS y FROM g"
        f" UNION SELECT DISTINCT grp, rymax FROM g), "
        f"xs AS (SELECT grp, x AS x0,"
        f" LEAD(x) OVER (PARTITION BY grp ORDER BY x) AS x1 FROM xs0), "
        f"ys AS (SELECT grp, y AS y0,"
        f" LEAD(y) OVER (PARTITION BY grp ORDER BY y) AS y1 FROM ys0), "
        f"cells AS (SELECT xs.grp, x0, x1, y0, y1 FROM xs JOIN ys"
        f" ON xs.grp = ys.grp WHERE x1 IS NOT NULL AND y1 IS NOT NULL), "
        f"cov AS (SELECT c.grp, (c.x1 - c.x0) * (c.y1 - c.y0) AS a"
        f" FROM cells c WHERE EXISTS (SELECT 1 FROM g r"
        f" WHERE r.grp = c.grp"
        f" AND r.rxmin <= (c.x0 + c.x1) / 2.0"
        f" AND (c.x0 + c.x1) / 2.0 < r.rxmax"
        f" AND r.rymin <= (c.y0 + c.y1) / 2.0"
        f" AND (c.y0 + c.y1) / 2.0 < r.rymax)), "
        f"ua AS (SELECT grp, SUM(a) AS union_area FROM cov GROUP BY grp) "
        f"SELECT g.grp, COUNT(DISTINCT g.poly_id)::BIGINT AS n_polys,"
        f" COUNT(*)::BIGINT AS n_rects,"
        f" {r6('SUM((g.rxmax - g.rxmin) * (g.rymax - g.rymin))')} AS sum_area,"
        f" {r6('ANY_VALUE(ua.union_area)')} AS union_area"
        f" FROM g JOIN ua ON g.grp = ua.grp"
        f" GROUP BY g.grp"
    )


@query("geometric_median", sql=lambda: _sql_geometric_median(), bench=True)
def q_geometric_median(sf_dir: str):
    """Geometric median (Weiszfeld, {GMED_ITERS} fixed iterations) of each
    urban cluster's doc points, seeded at the cluster centers: per group
    (g = doc_id % 3 over clustered docs) the point count and the median
    coordinates at 4dp.

    Scale shape: pure broadcast-state supersteps — each iteration is one
    stateless pass emitting 3-row (sum w, sum wx, sum wy) partials, the
    driver holds only the 3x2 median state between passes (the pagerank
    shape; no shuffle ever touches the point stream)."""
    import ray.data as rd

    from ..synth import _CLX, _CLY

    def clustered(b: pa.Table) -> pa.Table:
        did = np.asarray(b["doc_id"], np.int64)
        b = b.filter(pa.array(did % 10 < 3))
        g = (np.asarray(b["doc_id"], np.int64) % 3).astype(np.int64)
        return pa.table({"g": g, "x": b["x"], "y": b["y"]})

    # the clustered projection is a small fraction of the corpus; pin it
    # once so the 8 supersteps never re-read / re-derive the input
    ds = (
        docs_points(sf_dir)
        .map_batches(clustered, batch_format="pyarrow")
        .materialize()
    )
    med = np.array([list(_CLX), list(_CLY)], np.float64).T.copy()
    cols = [f"{p}{i}" for p in ("n", "sw", "swx", "swy") for i in range(3)]

    # Weiszfeld is sequential, so every superstep pays a full dataset
    # execution (~0.4 s fixed) just to reduce to a 3x2 state.  Below the
    # gate the pinned projection collects ONCE and all iterations run in
    # numpy on the driver — same law (the 4dp rounding dwarfs summation
    # order on both sides, exactly as it does for the block-order-
    # nondeterministic distributed sum).  Above it: broadcast-state
    # supersteps, the pagerank shape.
    n_pts = ds.count()
    if 0 < n_pts <= 4_000_000:
        tb = pa.concat_tables(
            [
                t
                for t in ds.iter_batches(batch_size=None, batch_format="pyarrow")
                if t.num_rows
            ]
        )
        g = np.asarray(tb["g"], np.int64)
        x = np.asarray(tb["x"], np.float64)
        y = np.asarray(tb["y"], np.float64)
        for _ in range(GMED_ITERS):
            dx = x - med[g, 0]
            dy = y - med[g, 1]
            w = 1.0 / np.maximum(np.sqrt(dx * dx + dy * dy), GMED_EPS)
            sw = np.bincount(g, weights=w, minlength=3)
            med[:, 0] = np.bincount(g, weights=x * w, minlength=3) / sw
            med[:, 1] = np.bincount(g, weights=y * w, minlength=3) / sw
        counts = np.bincount(g, minlength=3).astype(np.int64)
        rnd = lambda v: np.sign(v) * np.floor(np.abs(v) * 1e4 + 0.5) / 1e4
        return rd.from_arrow(
            pa.table(
                {
                    "g": np.arange(3, dtype=np.int64),
                    "n": counts,
                    "mx": rnd(med[:, 0]),
                    "my": rnd(med[:, 1]),
                }
            )
        )

    counts = None
    for _ in range(GMED_ITERS):
        mx, my = med[:, 0].copy(), med[:, 1].copy()

        def part(b: pa.Table, mx=mx, my=my) -> pa.Table:
            g = np.asarray(b["g"], np.int64)
            x = np.asarray(b["x"], np.float64)
            y = np.asarray(b["y"], np.float64)
            dx = x - mx[g]
            dy = y - my[g]
            d = np.sqrt(dx * dx + dy * dy)
            w = 1.0 / np.maximum(d, GMED_EPS)
            vals = {
                "n": np.bincount(g, minlength=3).astype(np.float64),
                "sw": np.bincount(g, weights=w, minlength=3),
                "swx": np.bincount(g, weights=x * w, minlength=3),
                "swy": np.bincount(g, weights=y * w, minlength=3),
            }
            return pa.table(
                {
                    f"{p}{i}": np.array([vals[p][i]])
                    for p in ("n", "sw", "swx", "swy")
                    for i in range(3)
                }
            )

        tot = ds.map_batches(part, batch_format="pyarrow").sum(cols)
        counts = np.array(
            [tot[f"sum(n{i})"] for i in range(3)], np.int64
        )
        sw = np.array([tot[f"sum(sw{i})"] for i in range(3)])
        med[:, 0] = np.array(
            [tot[f"sum(swx{i})"] for i in range(3)]
        ) / sw
        med[:, 1] = np.array(
            [tot[f"sum(swy{i})"] for i in range(3)]
        ) / sw

    rnd = lambda v: np.sign(v) * np.floor(np.abs(v) * 1e4 + 0.5) / 1e4
    return rd.from_arrow(
        pa.table(
            {
                "g": np.arange(3, dtype=np.int64),
                "n": counts,
                "mx": rnd(med[:, 0]),
                "my": rnd(med[:, 1]),
            }
        )
    )


def _sql_geometric_median() -> str:
    from ..synth import _CLX, _CLY, sql_points_cte

    seeds = ", ".join(
        f"({g}, {_CLX[g]!r}, {_CLY[g]!r})" for g in range(3)
    )
    parts = [
        f"pts AS ({sql_points_cte()})",
        (
            "cpts AS (SELECT doc_id % 3 AS g, x, y FROM pts"
            " WHERE doc_id % 10 < 3)"
        ),
        f"it0(g, mx, my) AS (SELECT * FROM (VALUES {seeds}))",
    ]
    w = (
        "1.0 / GREATEST(sqrt((p.x - i.mx) * (p.x - i.mx)"
        f" + (p.y - i.my) * (p.y - i.my)), {GMED_EPS!r})"
    )
    for k in range(1, GMED_ITERS + 1):
        parts.append(
            f"it{k} AS (SELECT p.g,"
            f" SUM(p.x * ({w})) / SUM({w}) AS mx,"
            f" SUM(p.y * ({w})) / SUM({w}) AS my"
            f" FROM cpts p JOIN it{k - 1} i ON p.g = i.g GROUP BY p.g)"
        )
    return (
        "WITH "
        + ", ".join(parts)
        + f" SELECT c.g, COUNT(*)::BIGINT AS n,"
        f" ROUND(ANY_VALUE(i.mx) * 10000.0) / 10000.0 AS mx,"
        f" ROUND(ANY_VALUE(i.my) * 10000.0) / 10000.0 AS my"
        f" FROM cpts c JOIN it{GMED_ITERS} i ON c.g = i.g GROUP BY c.g"
    )


# ---------------------------------------------------------------------------
# hydrology / cost-surface raster wave
# ---------------------------------------------------------------------------

_FLOW_KW = dict(height=64, width=64, x_min=0.0, y_min=0.0, resolution=1000.0)
_COST_KW = dict(height=28, width=28, x_min=0.0, y_min=0.0, resolution=1000.0)
COST_SRC = (14, 14)  # valid under the pop nodata law


@query(
    "raster_flow_accum",
    sql=lambda: raster.sql_flow_accum(raster.BowlRaster(**_FLOW_KW), tile_size_cell=32),
    bench=True,
)
def q_raster_flow_accum(sf_dir: str):
    """D8 flow accumulation (upstream-cell count) over the convergent
    bowl elevation surface: the hydrology operator downstream of
    q_raster_d8 — the D8 stencil runs tile-parallel, the acyclic flow
    forest folds in vectorized Kahn waves (lattice-bounded driver peel;
    pointer-doubling reach pairs are the planet-raster path)."""
    from ..raster import BowlRaster, flow_accumulation

    return flow_accumulation(
        BowlRaster(**_FLOW_KW), tile_size_cell=32, concurrency=(1, 4)
    )


_VIEW_KW = dict(height=40, width=40, x_min=0.0, y_min=0.0, resolution=1000.0)
VIEW_OBS = (20, 20)  # valid under the elev nodata law


@query(
    "raster_viewshed",
    sql=lambda: raster.sql_viewshed(raster.SyntheticRaster(**_VIEW_KW), VIEW_OBS),
    bench=True,
)
def q_raster_viewshed(sf_dir: str):
    """Observer viewshed over the synthetic elevation band: per-cell
    line-of-sight visibility via the rational midpoint walk (division-
    free sampling, slope comparison per sample; nodata transparent).
    Tile tasks read one obs+tile bbox window each; the R2 sweep is the
    planet-raster path."""
    from ..raster import SyntheticRaster, viewshed_raster

    return viewshed_raster(
        SyntheticRaster(**_VIEW_KW),
        VIEW_OBS,
        tile_size_cell=16,
        concurrency=(1, 4),
    )


@query("raster_cost_distance", sql=lambda: _sql_raster_cost_distance())
def q_raster_cost_distance(sf_dir: str):
    """Least-cost distance field from a source cell over the synthetic
    population band used as a cost surface (4-neighbor moves, cost of a
    move = entered cell value + 1, nodata impassable): distributed
    row-strip reads feed an exact driver Dijkstra (integer-valued
    doubles — order-free); delta-stepping supersteps are the planet
    path.  Rows: every REACHED cell (x, y, cost)."""
    from ..raster import SyntheticRaster, cost_distance

    return cost_distance(SyntheticRaster(**_COST_KW), COST_SRC)


def _sql_raster_cost_distance():
    from ..raster import SyntheticRaster, sql_cost_distance

    return sql_cost_distance(SyntheticRaster(**_COST_KW), COST_SRC)


@query(
    "raster_watershed",
    sql=lambda: raster.sql_watershed(raster.BowlRaster(**_FLOW_KW), tile_size_cell=32),
)
def q_raster_watershed(sf_dir: str):
    """Watershed labeling over the bowl surface: every valid pixel gets
    the sink (terminal cell) of its D8 path — pointer DOUBLING over the
    flow forest (ptr = ptr[ptr], log-depth), the hydrology companion of
    flow accumulation."""
    from ..raster import BowlRaster, watershed_raster

    return watershed_raster(
        BowlRaster(**_FLOW_KW), tile_size_cell=32, concurrency=(1, 4)
    )


@query(
    "raster_cost_path",
    sql=lambda: raster.sql_cost_path(raster.SyntheticRaster(**_COST_KW), COST_SRC),
)
def q_raster_cost_path(sf_dir: str):
    """Least-cost PATH extraction: from the cost-distance field, walk
    back from the most expensive reachable cell (tie -> largest (ri,
    ci)) to the source along exact-relaxation predecessors (tie ->
    smallest (ri, ci)); integer-valued doubles make every equality test
    exact, so engine and oracle walk the same cells."""
    from ..raster import SyntheticRaster, cost_path

    return cost_path(SyntheticRaster(**_COST_KW), COST_SRC)


@query("zonal_majority", sql=lambda: _sql_zonal_majority())
def q_zonal_majority(sf_dir: str):
    """Zonal MAJORITY: per polygon the modal 100-wide elevation bin of
    the raster cells inside it (tie -> smallest bin) — the categorical
    argmax on top of the zonal-histogram plan.  The (poly, bin) rollup
    is tiny; the argmax is one lexsort over it."""
    import ray.data as rd

    hist = q_zonal_hist(sf_dir)
    tbl = pa.concat_tables(hist.iter_batches(batch_size=None, batch_format="pyarrow"))
    poly = np.asarray(tbl["poly_id"], np.int64)
    binv = np.asarray(tbl["bin"], np.int64)
    n = np.asarray(tbl["n_cells"], np.int64)
    order = np.lexsort((binv, -n, poly))
    poly, binv, n = poly[order], binv[order], n[order]
    first = np.concatenate([[True], poly[1:] != poly[:-1]])
    return rd.from_arrow(
        pa.table(
            {
                "poly_id": pa.array(poly[first], pa.int64()),
                "maj_bin": pa.array(binv[first], pa.int64()),
                "n_cells": pa.array(n[first], pa.int64()),
            }
        )
    )


def _sql_zonal_majority():
    return (
        f"WITH zh AS ({_sql_zonal_hist()}) "
        f"SELECT poly_id, bin AS maj_bin, n_cells FROM zh"
        f" QUALIFY ROW_NUMBER() OVER (PARTITION BY poly_id"
        f" ORDER BY n_cells DESC, bin) = 1"
    )


@query("skyline", sql=lambda: _sql_skyline(), bench=True)
def q_skyline(sf_dir: str):
    """Pareto skyline of the doc point field (minimize x AND y): a doc
    survives iff no other doc is <= on both axes and < on one — the
    classic distributed skyline.  Pure comparisons on identical doubles,
    so no rounding law is needed beyond the cosmetic 6dp.

    Scale shape: each batch reduces to its local skyline (sort + running
    min scan — only local-skyline points can survive globally); the
    union of local skylines is small and folds with one driver scan."""
    import ray.data as rd

    def local_skyline(b: pa.Table) -> pa.Table:
        out = b.select(["doc_id", "x", "y"])
        x = np.asarray(b["x"], np.float64)
        y = np.asarray(b["y"], np.float64)
        return out.take(pa.array(_skyline_idx(x, y)))

    cand = pa.concat_tables(
        docs_points(sf_dir)
        .map_batches(local_skyline, batch_format="pyarrow")
        .iter_batches(batch_size=None, batch_format="pyarrow")
    )
    did = np.asarray(cand["doc_id"], np.int64)
    x = np.asarray(cand["x"], np.float64)
    y = np.asarray(cand["y"], np.float64)
    idx = _skyline_idx(x, y)
    idx = idx[np.argsort(did[idx])]
    rnd = lambda v: np.sign(v) * np.floor(np.abs(v) * 1e6 + 0.5) / 1e6
    return rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(did[idx], pa.int64()),
                "x": pa.array(rnd(x[idx])),
                "y": pa.array(rnd(y[idx])),
            }
        )
    )


def _skyline_idx(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the (min, min) Pareto front: p dominated iff some q has
    qx <= px, qy <= py with one strict.  Vectorized: sort by (x, y);
    dominated iff min-y over strictly-smaller x is <= y, or an equal-x
    point has strictly smaller y."""
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    miny = np.minimum.accumulate(ys)  # prefix min over (x, y) order
    grp_start = np.concatenate([[True], xs[1:] != xs[:-1]])
    start_idx = np.maximum.accumulate(
        np.where(grp_start, np.arange(len(xs)), 0)
    )
    # min y among points with strictly smaller x = prefix min just
    # before this x-group starts
    prev_min = np.where(
        start_idx > 0, miny[np.maximum(start_idx - 1, 0)], np.inf
    )
    # within an equal-x group ys is ascending, so the group min is its
    # first element; a later equal-x point is dominated by it
    gm = ys[start_idx]
    dominated = (prev_min <= ys) | (gm < ys)
    keep = order[~dominated]
    return np.sort(keep)


def _sql_skyline() -> str:
    from ..synth import sql_points_cte

    return (
        f"WITH pts AS ({sql_points_cte()}) "
        f"SELECT a.doc_id, ROUND(a.x * 1000000.0) / 1000000.0 AS x,"
        f" ROUND(a.y * 1000000.0) / 1000000.0 AS y FROM pts a"
        f" WHERE NOT EXISTS (SELECT 1 FROM pts b"
        f" WHERE b.x <= a.x AND b.y <= a.y"
        f" AND (b.x < a.x OR b.y < a.y))"
        f" ORDER BY a.doc_id"
    )


# ---------------------------------------------------------------------------
# trajectory DP similarity: discrete Frechet + DTW
# ---------------------------------------------------------------------------

TRAJ_L = 12  # DP prefix: first L events per user in (ts, event_id) order


def _traj_dp(sf_dir: str, kind: str, num_buckets: int | None = None):
    """Shared DP engine for discrete Frechet / DTW of each user's first
    TRAJ_L telemetry points against the 8-vertex HAUS_REF polyline.

    The recurrence (frechet: F = max(d, min of three predecessors);
    dtw: F = d + min of three) is a pure function of identical doubles,
    so engine and oracle agree bit-for-bit in ANY evaluation order — the
    oracle stages it by anti-diagonal, the engine scans cells directly.

    Scale shape: one user-hash coarse-bucket shuffle; inside a bucket the
    DP runs as L x 8 vectorized steps across ALL the bucket's users at
    once (no per-user Python dispatch)."""
    import pandas as pd
    import ray.data as rd

    rx = np.array([p[0] for p in HAUS_REF])
    ry = np.array([p[1] for p in HAUS_REF])
    m = len(HAUS_REF)

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts"]
    )

    def tag(b: pa.Table) -> pa.Table:
        uid = np.asarray(b["user_id"], np.int64)
        eid = np.asarray(pc.cast(b["event_id"], pa.int64()))
        x, y = derive_xy(eid)
        return pa.table(
            {
                "user_id": pa.array(uid),
                "event_id": pa.array(eid),
                "us": pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64()),
                "x": pa.array(x),
                "y": pa.array(y),
            }
        )

    def kernel(t: pa.Table, starts: np.ndarray) -> pd.DataFrame:
        x = np.asarray(t["x"], np.float64)
        y = np.asarray(t["y"], np.float64)
        first = np.zeros(len(x), dtype=bool)
        first[starts] = True
        gidx = np.cumsum(first) - 1
        seq = np.arange(len(x)) - starts[gidx]
        keep = seq < TRAJ_L
        x, y, gidx, seq = x[keep], y[keep], gidx[keep], seq[keep]
        users = np.asarray(t["user_id"], np.int64)[starts]
        nu = len(users)
        lens = np.bincount(gidx, minlength=nu)
        # (nu, L) padded coordinate grids
        gx = np.full((nu, TRAJ_L), np.nan)
        gy = np.full((nu, TRAJ_L), np.nan)
        gx[gidx, seq] = x
        gy[gidx, seq] = y
        d = np.sqrt(
            (gx[:, :, None] - rx[None, None, :])
            * (gx[:, :, None] - rx[None, None, :])
            + (gy[:, :, None] - ry[None, None, :])
            * (gy[:, :, None] - ry[None, None, :])
        )
        F = np.full((nu, TRAJ_L, m), np.inf)
        for i in range(TRAJ_L):
            for j in range(m):
                dij = d[:, i, j]
                if i == 0 and j == 0:
                    F[:, 0, 0] = dij
                    continue
                if i == 0:
                    prev = F[:, 0, j - 1]
                elif j == 0:
                    prev = F[:, i - 1, 0]
                else:
                    prev = np.minimum(
                        np.minimum(F[:, i - 1, j], F[:, i, j - 1]),
                        F[:, i - 1, j - 1],
                    )
                if kind == "frechet":
                    F[:, i, j] = np.maximum(dij, prev)
                else:
                    F[:, i, j] = dij + prev
        out = F[np.arange(nu), lens - 1, m - 1]
        rnd = np.sign(out) * np.floor(np.abs(out) * 1e6 + 0.5) / 1e6
        return pd.DataFrame(
            {"user_id": users, "n_pts": lens.astype(np.int64), "dist": rnd}
        )

    return segment_apply(
        ds.map_batches(tag, batch_format="pyarrow"),
        "user_id",
        kernel,
        pa.schema({"user_id": pa.int64(), "n_pts": pa.int64(), "dist": pa.float64()}),
        order=("us", "event_id"),
        num_buckets=num_buckets,
    ).sort("user_id")


@query("traj_frechet", sql=lambda: _sql_traj_dp("frechet"), quadratic=True)
def q_traj_frechet(sf_dir: str):
    """Discrete Frechet distance (max-of-min-leash DP) from each user's
    trajectory prefix to the reference polyline — see `_traj_dp`."""
    return _traj_dp(sf_dir, "frechet")


@query("traj_dtw", sql=lambda: _sql_traj_dp("dtw"), bench=True, quadratic=True)
def q_traj_dtw(sf_dir: str):
    """Dynamic-time-warping distance (sum-of-matched-steps DP) from each
    user's trajectory prefix to the reference polyline — see
    `_traj_dp`."""
    return _traj_dp(sf_dir, "dtw")


def _sql_traj_dp(kind: str) -> str:
    from ..synth import SQL_X, SQL_Y

    ex = SQL_X.replace("doc_id", "event_id")
    ey = SQL_Y.replace("doc_id", "event_id")
    m = len(HAUS_REF)
    refs = ", ".join(
        f"({j + 1}, {x!r}, {y!r})" for j, (x, y) in enumerate(HAUS_REF)
    )
    if kind == "frechet":
        cell = {
            "i1": "GREATEST(d.d, pl.f)",
            "j1": "GREATEST(d.d, pu.f)",
            "mid": "GREATEST(d.d, LEAST(pu.f, pl.f, pd.f))",
        }
    else:
        cell = {
            "i1": "(d.d + pl.f)",
            "j1": "(d.d + pu.f)",
            "mid": "(d.d + LEAST(pu.f, pl.f, pd.f))",
        }
    parts = [
        (
            f"pts AS (SELECT user_id,"
            f" ROW_NUMBER() OVER (PARTITION BY user_id"
            f" ORDER BY ts, event_id) AS i,"
            f" {ex} AS x, {ey} AS y FROM events"
            f" QUALIFY i <= {TRAJ_L})"
        ),
        f"ref(j, rx, ry) AS (VALUES {refs})",
        (
            "dm AS MATERIALIZED (SELECT p.user_id, p.i, r.j,"
            " sqrt((p.x - r.rx) * (p.x - r.rx)"
            " + (p.y - r.ry) * (p.y - r.ry)) AS d"
            " FROM pts p CROSS JOIN ref r)"
        ),
        "f2 AS MATERIALIZED (SELECT user_id, i, j, d AS f FROM dm"
        " WHERE i = 1 AND j = 1)",
    ]
    for k in range(3, TRAJ_L + m + 1):
        joins = (
            f" LEFT JOIN f{k - 1} pu ON pu.user_id = d.user_id"
            f" AND pu.i = d.i - 1 AND pu.j = d.j"
            f" LEFT JOIN f{k - 1} pl ON pl.user_id = d.user_id"
            f" AND pl.i = d.i AND pl.j = d.j - 1"
        )
        if k >= 4:
            joins += (
                f" LEFT JOIN f{k - 2} pd ON pd.user_id = d.user_id"
                f" AND pd.i = d.i - 1 AND pd.j = d.j - 1"
            )
            mid = cell["mid"]
        else:
            mid = "NULL"  # k = 3 has no (i>1, j>1) cells
        parts.append(
            f"f{k} AS MATERIALIZED (SELECT d.user_id, d.i, d.j,"
            f" CASE WHEN d.i = 1 THEN {cell['i1']}"
            f" WHEN d.j = 1 THEN {cell['j1']}"
            f" ELSE {mid} END AS f"
            f" FROM dm d{joins}"
            f" WHERE d.i + d.j = {k})"
        )
    alls = " UNION ALL ".join(
        f"SELECT * FROM f{k}" for k in range(2, TRAJ_L + m + 1)
    )
    return (
        "WITH "
        + ", ".join(parts)
        + f", fall AS ({alls}) "
        f"SELECT user_id, i::BIGINT AS n_pts,"
        f" ROUND(f * 1000000.0) / 1000000.0 AS dist FROM fall"
        f" WHERE j = {m}"
        f" QUALIFY ROW_NUMBER() OVER (PARTITION BY user_id"
        f" ORDER BY i DESC) = 1"
        f" ORDER BY user_id"
    )


# ---------------------------------------------------------------------------
# Hilbert curve / cost allocation / cost bands
# ---------------------------------------------------------------------------

HILBERT_P = 8  # curve order: 256 x 256 cells over the domain
COST_SRCS = ((14, 14), (5, 22), (22, 4))  # all valid under the pop law


def _hilbert_d(ix: np.ndarray, iy: np.ndarray, p: int = HILBERT_P):
    """Vectorized xy -> Hilbert distance (the classic reflect+swap walk,
    all-integer — exact on both sides; the oracle runs the same loop as
    generated CTE stages)."""
    ix = ix.astype(np.int64).copy()
    iy = iy.astype(np.int64).copy()
    d = np.zeros(len(ix), np.int64)
    s = 1 << (p - 1)
    while s > 0:
        rx = ((ix & s) > 0).astype(np.int64)
        ry = ((iy & s) > 0).astype(np.int64)
        d += s * s * ((3 * rx) ^ ry)
        # reflect, then swap
        refl = (ry == 0) & (rx == 1)
        ix2 = np.where(refl, s - 1 - ix, ix)
        iy2 = np.where(refl, s - 1 - iy, iy)
        swap = ry == 0
        ix, iy = (
            np.where(swap, iy2, ix2),
            np.where(swap, ix2, iy2),
        )
        s >>= 1
    return d


@query("hilbert_assign", sql=lambda: _sql_hilbert_assign(), bench=True)
def q_hilbert_assign(sf_dir: str):
    """Hilbert-curve cell index per doc (order-8 curve over the domain):
    the locality-preserving sibling of the Morton/geohash/S2 encoders —
    one stateless vectorized pass; all arithmetic integer-exact."""
    import ray.data as rd

    cw = 500_000.0 / 256.0
    ch = 501_000.0 / 256.0

    def enc(b: pa.Table) -> pa.Table:
        x = np.asarray(b["x"], np.float64)
        y = np.asarray(b["y"], np.float64)
        ix = np.floor(x / cw).astype(np.int64)
        iy = np.floor(y / ch).astype(np.int64)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "hx": pa.array(ix),
                "hy": pa.array(iy),
                "hilbert": pa.array(_hilbert_d(ix, iy)),
            }
        )

    return docs_points(sf_dir).map_batches(enc, batch_format="pyarrow")


def _sql_hilbert_assign() -> str:
    from ..synth import sql_points_cte

    cw = 500_000.0 / 256.0
    ch = 501_000.0 / 256.0
    parts = [
        f"pts AS ({sql_points_cte()})",
        (
            f"h0 AS (SELECT doc_id,"
            f" CAST(FLOOR(x / {cw!r}) AS BIGINT) AS hx,"
            f" CAST(FLOOR(y / {ch!r}) AS BIGINT) AS hy,"
            f" CAST(FLOOR(x / {cw!r}) AS BIGINT) AS ix,"
            f" CAST(FLOOR(y / {ch!r}) AS BIGINT) AS iy,"
            f" 0::BIGINT AS d FROM pts)"
        ),
    ]
    k = 0
    s = 1 << (HILBERT_P - 1)
    while s > 0:
        k += 1
        rx = f"(CASE WHEN (ix & {s}) > 0 THEN 1 ELSE 0 END)"
        ry = f"(CASE WHEN (iy & {s}) > 0 THEN 1 ELSE 0 END)"
        quad = f"xor(3 * {rx}, {ry})"
        refl = f"({ry} = 0 AND {rx} = 1)"
        ix2 = f"(CASE WHEN {refl} THEN {s - 1} - ix ELSE ix END)"
        iy2 = f"(CASE WHEN {refl} THEN {s - 1} - iy ELSE iy END)"
        parts.append(
            f"h{k} AS (SELECT doc_id, hx, hy,"
            f" CASE WHEN {ry} = 0 THEN {iy2} ELSE {ix2} END AS ix,"
            f" CASE WHEN {ry} = 0 THEN {ix2} ELSE {iy2} END AS iy,"
            f" d + {s * s} * {quad} AS d FROM h{k - 1})"
        )
        s >>= 1
    return (
        "WITH "
        + ", ".join(parts)
        + f" SELECT doc_id, hx, hy, d AS hilbert FROM h{k}"
    )


@query(
    "raster_cost_allocation",
    sql=lambda: raster.sql_cost_allocation(
        raster.SyntheticRaster(**_COST_KW), COST_SRCS
    ),
)
def q_raster_cost_allocation(sf_dir: str):
    """Cost allocation (network Voronoi over the cost surface): every
    reached cell labeled with its cheapest source (tie -> smallest
    source index); three independent cost fields + one exact argmin."""
    from ..raster import SyntheticRaster, cost_allocation

    return cost_allocation(SyntheticRaster(**_COST_KW), COST_SRCS)


@query("raster_cost_bands", sql=lambda: _sql_raster_cost_bands())
def q_raster_cost_bands(sf_dir: str):
    """Isochrone-style cost bands: the single-source cost-distance field
    classified into 500-wide bands, one row per band with its cell count
    — the reduce on top of q_raster_cost_distance."""
    import ray.data as rd

    ds = q_raster_cost_distance(sf_dir)

    def partial(b: pa.Table) -> pa.Table:
        band = np.floor(
            np.asarray(b["cost"], np.float64) / 500.0
        ).astype(np.int64)
        u, c = np.unique(band, return_counts=True)
        return pa.table(
            {"band": pa.array(u), "n": pa.array(c.astype(np.int64))}
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("band")
        .sum("n")
    )

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "band": b["band"],
                "n_cells": pc.cast(b["sum(n)"], pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def _sql_raster_cost_bands():
    return (
        f"WITH cd AS ({_sql_raster_cost_distance()}) "
        f"SELECT CAST(FLOOR(cost / 500.0) AS BIGINT) AS band,"
        f" COUNT(*)::BIGINT AS n_cells FROM cd GROUP BY band"
    )


# ---------------------------------------------------------------------------
# spatial-statistics wave: Theil-Sen, Huff, dissimilarity, Zipf
# ---------------------------------------------------------------------------


@query(
    "hex_theil_sen",
    sql=lambda: relational.sql_events_hex_theil_sen(hex_size=HEX_SIZE),
)
def q_hex_theil_sen(sf_dir: str):
    """Theil-Sen robust trend slope per hex (median of pairwise weekly
    slopes) — the robust companion of hex_mann_kendall; see
    relational.events_hex_theil_sen for the DuckDB-exact median law."""
    from .relational import events_hex_theil_sen

    return events_hex_theil_sen(sf_dir, hex_size=HEX_SIZE)


@query("huff_shares", sql=lambda: _sql_huff_shares())
def q_huff_shares(sf_dir: str):
    """Huff gravity market shares: every doc splits its demand over the
    hub table with probability proportional to S_j / d_ij^2 (haversine
    km, attractiveness S_j = (hub_id * 37) % 11 + 1); per hub the
    expected captured demand and the count of docs whose TOP share it is
    (tie -> smallest hub).

    Scale shape: the broadcast hub matrix + one stateless vectorized
    pass emitting per-hub partials; a tiny hash fold."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..geodesic import HUBS, haversine_km

    hub_id = np.array([h[0] for h in HUBS], dtype=np.int64)
    hub_lon = np.array([h[1] for h in HUBS], dtype=np.float64)
    hub_lat = np.array([h[2] for h in HUBS], dtype=np.float64)
    s = ((hub_id * 37) % 11 + 1).astype(np.float64)

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def partial(b: pa.Table) -> pa.Table:
        lon, lat = derive_lonlat(np.asarray(b["doc_id"]))
        d = haversine_km(
            lon[:, None], lat[:, None], hub_lon[None, :], hub_lat[None, :]
        )
        g = np.maximum(d, 1e-6)
        w = s[None, :] / (g * g)
        p = w / w.sum(axis=1, keepdims=True)
        top = np.argmax(w, axis=1)  # first max = smallest hub id
        return pa.table(
            {
                "hub_id": pa.array(hub_id),
                "exp_p": pa.array(p.sum(axis=0)),
                "n_top": pa.array(
                    np.bincount(top, minlength=len(hub_id)).astype(np.int64)
                ),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("hub_id")
        .aggregate(
            Sum("exp_p", alias_name="expected"),
            Sum("n_top", alias_name="n_top"),
        )
    )

    def finish(b: pa.Table) -> pa.Table:
        e = np.asarray(b["expected"], np.float64)
        e = np.sign(e) * np.floor(np.abs(e) * 1e6 + 0.5) / 1e6
        return pa.table(
            {
                "hub_id": b["hub_id"],
                "expected": pa.array(e),
                "n_top": pc.cast(b["n_top"], pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def _sql_huff_shares() -> str:
    from ..geodesic import HUBS, sql_haversine_expr, sql_hubs_cte
    from ..synth import sql_lonlat_cte

    sv = ", ".join(
        f"({h[0]}, {float((h[0] * 37) % 11 + 1)!r})" for h in HUBS
    )
    hav = sql_haversine_expr("lon", "lat", "hlon", "hlat")
    g = "GREATEST(dist, 1e-6)"
    return (
        f"WITH ll AS ({sql_lonlat_cte()}), {sql_hubs_cte()}, "
        f"sv(hub_id, s) AS (VALUES {sv}), "
        f"d AS (SELECT ll.doc_id, h.hub_id, sv.s, {hav} AS dist"
        f" FROM ll CROSS JOIN hubs h JOIN sv ON sv.hub_id = h.hub_id), "
        f"w AS (SELECT doc_id, hub_id, s / ({g} * {g}) AS w FROM d), "
        f"p AS (SELECT doc_id, hub_id,"
        f" w / SUM(w) OVER (PARTITION BY doc_id) AS p,"
        f" ROW_NUMBER() OVER (PARTITION BY doc_id"
        f" ORDER BY w DESC, hub_id) AS rn FROM w) "
        f"SELECT hub_id, ROUND(SUM(p) * 1e6) / 1e6 AS expected,"
        f" SUM(CASE WHEN rn = 1 THEN 1 ELSE 0 END)::BIGINT AS n_top"
        f" FROM p GROUP BY hub_id"
    )


DISS_CELL = 10_000.0  # 10 km dissimilarity / zipf cells


def _cell_counts(sf_dir: str, split_lang: str | None = None):
    """(cell -> count) partial plan over 10-km cells; with split_lang,
    (cell -> (a, b)) where a counts that language."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    cols = ["doc_id"] + (["lang"] if split_lang else [])
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=cols)

    def partial(b: pa.Table) -> pa.Table:
        x, y = derive_xy(np.asarray(b["doc_id"], np.int64))
        ix = np.floor(x / DISS_CELL).astype(np.int64)
        iy = np.floor(y / DISS_CELL).astype(np.int64)
        key = ix * 1000 + iy
        if split_lang is None:
            u, c = np.unique(key, return_counts=True)
            return pa.table(
                {"cell": pa.array(u), "n": pa.array(c.astype(np.int64))}
            )
        isa = (
            np.asarray(b["lang"], dtype=object) == split_lang
        ).astype(np.int64)
        u, inv = np.unique(key, return_inverse=True)
        a = np.bincount(inv, weights=isa, minlength=len(u)).astype(np.int64)
        t = np.bincount(inv, minlength=len(u)).astype(np.int64)
        return pa.table(
            {
                "cell": pa.array(u),
                "a": pa.array(a),
                "b": pa.array(t - a),
            }
        )

    if split_lang is None:
        return (
            ds.map_batches(partial, batch_format="pyarrow")
            .groupby("cell")
            .aggregate(Sum("n", alias_name="n"))
        )
    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("cell")
        .aggregate(Sum("a", alias_name="a"), Sum("b", alias_name="b"))
    )


@query("dissimilarity_index", sql=lambda: _sql_dissimilarity_index())
def q_dissimilarity_index(sf_dir: str):
    """Duncan dissimilarity index of segregation between 'en' docs and
    all others over 10-km cells: D = 0.5 * sum_c |a_c/A - b_c/B| — one
    row (n_cells, a_total, b_total, d_index 6dp).

    Scale shape: per-batch composite (cell, a, b) combiners -> hash
    aggregate -> the driver folds one pair of ints per OCCUPIED cell."""
    import ray.data as rd

    tbl = pa.concat_tables(
        _cell_counts(sf_dir, split_lang="en").iter_batches(
            batch_size=None, batch_format="pyarrow"
        )
    )
    a = np.asarray(tbl["a"], np.int64)
    b = np.asarray(tbl["b"], np.int64)
    A = float(a.sum())
    B = float(b.sum())
    d = 0.5 * np.abs(a / A - b / B).sum()
    d = float(np.sign(d) * np.floor(np.abs(d) * 1e6 + 0.5) / 1e6)
    return rd.from_arrow(
        pa.table(
            {
                "n_cells": pa.array([len(a)], pa.int64()),
                "a_total": pa.array([int(A)], pa.int64()),
                "b_total": pa.array([int(B)], pa.int64()),
                "d_index": pa.array([d]),
            }
        )
    )


def _sql_dissimilarity_index() -> str:
    from ..synth import sql_points_cte

    return (
        f"WITH pts AS (SELECT p.doc_id, p.x, p.y, d.lang FROM"
        f" ({sql_points_cte()}) p JOIN documents d USING (doc_id)), "
        f"cells AS (SELECT CAST(FLOOR(x / {DISS_CELL!r}) AS BIGINT) * 1000"
        f" + CAST(FLOOR(y / {DISS_CELL!r}) AS BIGINT) AS cell,"
        f" SUM(CASE WHEN lang = 'en' THEN 1 ELSE 0 END)::BIGINT AS a,"
        f" SUM(CASE WHEN lang = 'en' THEN 0 ELSE 1 END)::BIGINT AS b"
        f" FROM pts GROUP BY cell), "
        f"tot AS (SELECT SUM(a)::DOUBLE AS ta, SUM(b)::DOUBLE AS tb,"
        f" COUNT(*)::BIGINT AS k FROM cells) "
        f"SELECT t.k AS n_cells, CAST(t.ta AS BIGINT) AS a_total,"
        f" CAST(t.tb AS BIGINT) AS b_total,"
        f" ROUND((0.5 * SUM(ABS(c.a / t.ta - c.b / t.tb))) * 1e6) / 1e6"
        f" AS d_index"
        f" FROM cells c CROSS JOIN tot t GROUP BY t.k, t.ta, t.tb"
    )


@query("zipf_fit", sql=lambda: _sql_zipf_fit())
def q_zipf_fit(sf_dir: str):
    """Rank-size (Zipf) fit of the 10-km cell densities: OLS of ln(n)
    on ln(rank) with rank by (n DESC, cell) — one row (n_cells, slope,
    intercept, r2), 6dp.  A slope near -1 is the classic Zipf signature.

    Scale shape: the cell rollup is tiny; rank + six-scalar moments on
    the driver (the od_gravity closed-form fit shape)."""
    import ray.data as rd

    tbl = pa.concat_tables(
        _cell_counts(sf_dir).iter_batches(batch_size=None, batch_format="pyarrow")
    )
    cell = np.asarray(tbl["cell"], np.int64)
    n = np.asarray(tbl["n"], np.int64)
    order = np.lexsort((cell, -n))
    n = n[order]
    k = len(n)
    rank = np.arange(1, k + 1, dtype=np.float64)
    X = np.log(rank)
    Y = np.log(n.astype(np.float64))
    sx, sy = X.sum(), Y.sum()
    sxx, sxy, syy = (X * X).sum(), (X * Y).sum(), (Y * Y).sum()
    kk = float(k)
    slope = (kk * sxy - sx * sy) / (kk * sxx - sx * sx)
    intercept = (sy - slope * sx) / kk
    r2num = (kk * sxy - sx * sy) * (kk * sxy - sx * sy)
    r2den = (kk * sxx - sx * sx) * (kk * syy - sy * sy)
    r2 = r2num / r2den
    rnd = lambda v: float(np.sign(v) * np.floor(np.abs(v) * 1e6 + 0.5) / 1e6)
    return rd.from_arrow(
        pa.table(
            {
                "n_cells": pa.array([k], pa.int64()),
                "slope": pa.array([rnd(slope)]),
                "intercept": pa.array([rnd(intercept)]),
                "r2": pa.array([rnd(r2)]),
            }
        )
    )


def _sql_zipf_fit() -> str:
    from ..synth import sql_points_cte

    return (
        f"WITH pts AS ({sql_points_cte()}), "
        f"cells AS (SELECT CAST(FLOOR(x / {DISS_CELL!r}) AS BIGINT) * 1000"
        f" + CAST(FLOOR(y / {DISS_CELL!r}) AS BIGINT) AS cell,"
        f" COUNT(*)::BIGINT AS n FROM pts GROUP BY cell), "
        f"ranked AS (SELECT ln(ROW_NUMBER() OVER (ORDER BY n DESC, cell)"
        f"::DOUBLE) AS lx, ln(n::DOUBLE) AS ly FROM cells), "
        f"s AS (SELECT COUNT(*)::DOUBLE AS k, SUM(lx) AS sx, SUM(ly) AS sy,"
        f" SUM(lx * lx) AS sxx, SUM(lx * ly) AS sxy, SUM(ly * ly) AS syy"
        f" FROM ranked) "
        f"SELECT CAST(k AS BIGINT) AS n_cells,"
        f" ROUND(((k * sxy - sx * sy) / (k * sxx - sx * sx)) * 1e6) / 1e6"
        f" AS slope,"
        f" ROUND(((sy - ((k * sxy - sx * sy) / (k * sxx - sx * sx)) * sx)"
        f" / k) * 1e6) / 1e6 AS intercept,"
        f" ROUND((((k * sxy - sx * sy) * (k * sxy - sx * sy))"
        f" / ((k * sxx - sx * sx) * (k * syy - sy * sy))) * 1e6) / 1e6"
        f" AS r2 FROM s"
    )


# ---------------------------------------------------------------------------
# space-time interaction + circular statistics
# ---------------------------------------------------------------------------

KNOX_DS = 25_000.0  # Knox spatial threshold (m)
KNOX_DT = 21_600_000_000  # Knox temporal threshold (6 h in us)
KNOX_MOD = 4  # event subset: event_id % 4 == 0


@query("knox_test", sql=lambda: _sql_knox_test(), bench=True, quadratic=True)
def q_knox_test(sf_dir: str):
    """Knox space-time interaction test over an event subset: ordered
    pair counts close in SPACE (d <= 25 km), close in TIME (|dt| <= 6 h)
    and close in BOTH, plus the Knox ratio
    n_both * n_pairs / (n_space * n_time) — ratio > 1 signals
    space-time clustering (epidemiology's classic).

    Scale shape: two ghost-replication plans — the ripley 3x3 spatial
    cell pass counts space/both pairs, a 1D time-bucket pass counts
    time pairs; all counts are exact integers, nothing but per-bucket
    partials ever shuffles."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts"]
    )
    ds2 = KNOX_DS * KNOX_DS

    def prep(b: pa.Table) -> pa.Table:
        eid = np.asarray(pc.cast(b["event_id"], pa.int64()))
        us = np.asarray(
            pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64())
        )
        keep = eid % KNOX_MOD == 0
        eid, us = eid[keep], us[keep]
        x, y = derive_xy(eid)
        return pa.table(
            {
                "eid": pa.array(eid),
                "us": pa.array(us),
                "x": pa.array(x),
                "y": pa.array(y),
            }
        )

    # the filtered point set feeds BOTH pair plans — materialize it once
    # (subset-scale, bounded by KNOX_MOD) instead of re-reading parquet
    pts = ds.map_batches(prep, batch_format="pyarrow").materialize()

    # --- spatial (and both) pairs: 3x3 ghost cells of size KNOX_DS ----
    def scat_xy(b: pa.Table) -> pa.Table:
        x = np.asarray(b["x"], np.float64)
        y = np.asarray(b["y"], np.float64)
        eid = np.asarray(b["eid"], np.int64)
        us = np.asarray(b["us"], np.int64)
        cx = np.floor(x / KNOX_DS).astype(np.int64)
        cy = np.floor(y / KNOX_DS).astype(np.int64)
        ks, xs, ys, es, ts_, ow = [], [], [], [], [], []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                ks.append(
                    ((cx + dx) << 32) | ((cy + dy) & np.int64(4294967295))
                )
                xs.append(x)
                ys.append(y)
                es.append(eid)
                ts_.append(us)
                ow.append(
                    np.full(len(x), 1 if dx == 0 and dy == 0 else 0, np.int8)
                )
        key = np.concatenate(ks)
        return pa.table(
            {
                "ckey": pa.array(key),
                "px": pa.array(np.concatenate(xs)),
                "py": pa.array(np.concatenate(ys)),
                "pid": pa.array(np.concatenate(es)),
                "pt": pa.array(np.concatenate(ts_)),
                "own": pa.array(np.concatenate(ow)),
            }
        )

    def kern_xy(t: pa.Table, starts: np.ndarray) -> dict:
        px = np.asarray(t["px"], np.float64)
        py = np.asarray(t["py"], np.float64)
        pt = np.asarray(t["pt"], np.int64)
        own = np.asarray(t["own"], np.int8)
        ends = np.append(starts[1:], len(px))
        n_space = n_both = 0
        # Clustered inputs make dense own x block compares quadratic in
        # cluster size (tens of millions of pairs sit entirely inside
        # the radius).  MICRO-CELL closed form kills that: sub-bucket
        # each block at MC = DS/1.5; a micro pair whose MAX possible
        # distance clears the threshold contributes own_a * n_b pairs
        # with no compare at all (time-close pairs counted by two
        # searchsorted bounds on the micro's sorted times); a pair
        # whose MIN possible distance exceeds it contributes nothing;
        # only threshold-straddling micro pairs (cluster fringes) go
        # dense.  The 1e-12 guard bands keep the closed-form decisions
        # strictly inside what the float d2 <= ds2 law would decide, so
        # counts are bit-identical to the all-dense kernel.
        # Self-pairs (pid unique => exactly one per own row, d2 = dt =
        # 0) are counted once by the A == B closed form and subtracted.
        MC = KNOX_DS / 1.5
        hi_gate = ds2 * (1.0 - 1e-12)
        lo_gate = ds2 * (1.0 + 1e-12)
        for s, e in zip(starts, ends):
            o = own[s:e] > 0
            no = int(o.sum())
            if not no:
                continue
            X, Y, T = px[s:e], py[s:e], pt[s:e]
            mx = np.floor(X / MC).astype(np.int64)
            my = np.floor(Y / MC).astype(np.int64)
            mk = (mx - mx.min()) * 1024 + (my - my.min())
            o2 = np.argsort(mk, kind="stable")
            Xs, Ys, Ts, os_ = X[o2], Y[o2], T[o2], o[o2]
            mks = mk[o2]
            ms = np.flatnonzero(
                np.concatenate([[True], mks[1:] != mks[:-1]])
            )
            me = np.append(ms[1:], len(mks))
            mxs = mks[ms] // 1024
            mys = mks[ms] % 1024
            nmc = len(ms)
            tsorted = [np.sort(Ts[ms[b]:me[b]]) for b in range(nmc)]
            for a in range(nmc):
                am = os_[ms[a]:me[a]]
                ao = int(am.sum())
                if not ao:
                    continue
                aX = Xs[ms[a]:me[a]][am]
                aY = Ys[ms[a]:me[a]][am]
                aT = Ts[ms[a]:me[a]][am]
                for b in range(nmc):
                    dmx = abs(int(mxs[a]) - int(mxs[b]))
                    dmy = abs(int(mys[a]) - int(mys[b]))
                    mnx = max(dmx - 1, 0) * MC
                    mny = max(dmy - 1, 0) * MC
                    if mnx * mnx + mny * mny > lo_gate:
                        continue
                    mxx = (dmx + 1) * MC
                    mxy = (dmy + 1) * MC
                    nb = int(me[b] - ms[b])
                    if mxx * mxx + mxy * mxy <= hi_gate:
                        n_space += ao * nb
                        tb = tsorted[b]
                        hi = np.searchsorted(tb, aT + KNOX_DT, side="right")
                        lo = np.searchsorted(tb, aT - KNOX_DT, side="left")
                        n_both += int((hi - lo).sum())
                        continue
                    bX = Xs[ms[b]:me[b]]
                    bY = Ys[ms[b]:me[b]]
                    bT = Ts[ms[b]:me[b]]
                    dx = aX[:, None] - bX[None, :]
                    dy = aY[:, None] - bY[None, :]
                    close = dx * dx + dy * dy <= ds2
                    n_space += int(close.sum())
                    ii, jj = np.nonzero(close)
                    dtv = np.abs(aT[ii] - bT[jj])
                    n_both += int((dtv <= KNOX_DT).sum())
            n_space -= no
            n_both -= no
        return {"n_space": [n_space], "n_both": [n_both]}

    sp = segment_apply(
        pts.map_batches(scat_xy, batch_format="pyarrow"),
        "ckey",
        kern_xy,
        pa.schema({"n_space": pa.int64(), "n_both": pa.int64()}),
    ).sum(["n_space", "n_both"])
    # --- temporal pairs: 1D ghost buckets of width KNOX_DT ------------
    def scat_t(b: pa.Table) -> pa.Table:
        eid = np.asarray(b["eid"], np.int64)
        us = np.asarray(b["us"], np.int64)
        tb = us // KNOX_DT
        ks, es, ts_, ow = [], [], [], []
        for d in (-1, 0, 1):
            ks.append(tb + d)
            es.append(eid)
            ts_.append(us)
            ow.append(np.full(len(us), 1 if d == 0 else 0, np.int8))
        key = np.concatenate(ks)
        return pa.table(
            {
                "tkey": pa.array(key),
                "pid": pa.array(np.concatenate(es)),
                "pt": pa.array(np.concatenate(ts_)),
                "own": pa.array(np.concatenate(ow)),
            }
        )

    def kern_t(t: pa.Table, starts: np.ndarray) -> dict:
        pt = np.asarray(t["pt"], np.int64)
        own = np.asarray(t["own"], np.int8)
        ends = np.append(starts[1:], len(pt))
        n_time = 0
        cnt = 0
        # same self-pair closed form as the spatial kernel (pid unique);
        # within a time bucket a SORT + two searchsorted bounds count
        # |dt| <= KNOX_DT pairs without any dense matrix
        for s, e in zip(starts, ends):
            o = own[s:e] > 0
            no = int(o.sum())
            if not no:
                continue
            T = np.sort(pt[s:e])
            ot = pt[s:e][o]
            hi = np.searchsorted(T, ot + KNOX_DT, side="right")
            lo = np.searchsorted(T, ot - KNOX_DT, side="left")
            n_time += int((hi - lo).sum()) - no
            cnt += no
        return {"n_time": [n_time], "n": [cnt]}

    tm = segment_apply(
        pts.map_batches(scat_t, batch_format="pyarrow"),
        "tkey",
        kern_t,
        pa.schema({"n_time": pa.int64(), "n": pa.int64()}),
    ).sum(["n_time", "n"])

    import ray.data as rd2

    n = int(tm["sum(n)"])
    n_time = int(tm["sum(n_time)"])
    n_space = int(sp["sum(n_space)"])
    n_both = int(sp["sum(n_both)"])
    npairs = n * (n - 1)
    knox = (
        float(n_both) * float(npairs) / (float(n_space) * float(n_time))
        if n_space and n_time
        else 0.0
    )
    knox = float(np.sign(knox) * np.floor(np.abs(knox) * 1e6 + 0.5) / 1e6)
    return rd2.from_arrow(
        pa.table(
            {
                "n": pa.array([n], pa.int64()),
                "n_both": pa.array([n_both], pa.int64()),
                "n_space": pa.array([n_space], pa.int64()),
                "n_time": pa.array([n_time], pa.int64()),
                "knox": pa.array([knox]),
            }
        )
    )


def _sql_knox_test() -> str:
    from ..synth import SQL_X, SQL_Y

    ex = SQL_X.replace("doc_id", "event_id")
    ey = SQL_Y.replace("doc_id", "event_id")
    d2 = "((a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y))"
    ds2 = KNOX_DS * KNOX_DS
    return f"""
WITH pts AS (
  SELECT event_id, epoch_us(ts) AS us, {ex} AS x, {ey} AS y
  FROM events WHERE event_id % {KNOX_MOD} = 0
),
p AS (
  SELECT SUM(CASE WHEN {d2} <= {ds2!r} THEN 1 ELSE 0 END)::BIGINT AS n_space,
         SUM(CASE WHEN {d2} <= {ds2!r}
                   AND abs(a.us - b.us) <= {KNOX_DT} THEN 1 ELSE 0 END)::BIGINT
           AS n_both,
         SUM(CASE WHEN abs(a.us - b.us) <= {KNOX_DT} THEN 1 ELSE 0 END)::BIGINT
           AS n_time
  FROM pts a JOIN pts b ON a.event_id != b.event_id
),
n AS (SELECT COUNT(*)::BIGINT AS n FROM pts)
SELECT n.n, p.n_both, p.n_space, p.n_time,
       CASE WHEN p.n_space > 0 AND p.n_time > 0 THEN
         ROUND((p.n_both::DOUBLE * (n.n * (n.n - 1))::DOUBLE
                / (p.n_space::DOUBLE * p.n_time::DOUBLE)) * 1e6) / 1e6
       ELSE 0.0 END AS knox
FROM n CROSS JOIN p
"""


@query("bearing_stats", sql=lambda: _sql_bearing_stats(), bench=True)
def q_bearing_stats(sf_dir: str):
    """Circular statistics of per-user movement bearings: for each user
    the step unit vectors (dx, dy)/norm sum to (C, S); outputs n_steps,
    the circular mean bearing atan2(S, C) and the resultant length
    R = sqrt(C^2 + S^2)/n (1 = perfectly directed, 0 = uniform), 6dp.
    No per-step trig: cos/sin of atan2(dy, dx) ARE dx/norm, dy/norm;
    the single per-user atan2 goes through libm (math.atan2) to match
    DuckDB bit-for-bit (numpy's SIMD arctan2 is 1 ulp off on ~25% of
    inputs).

    Scale shape: the one-coarse-bucket trajectory plan (speed_outliers
    shape), vectorized diffs, per-user reduceat sums."""
    import math

    import pandas as pd
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts"]
    )

    def tag(b: pa.Table) -> pa.Table:
        uid = np.asarray(b["user_id"], np.int64)
        eid = np.asarray(pc.cast(b["event_id"], pa.int64()))
        x, y = derive_xy(eid)
        return pa.table(
            {
                "user_id": pa.array(uid),
                "event_id": pa.array(eid),
                "us": pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64()),
                "x": pa.array(x),
                "y": pa.array(y),
            }
        )

    def kernel(t: pa.Table, starts: np.ndarray) -> pd.DataFrame:
        uid = np.asarray(t["user_id"], np.int64)
        same = uid[1:] == uid[:-1]
        du = uid[1:][same]
        dx = np.diff(np.asarray(t["x"], np.float64))[same]
        dy = np.diff(np.asarray(t["y"], np.float64))[same]
        norm = np.maximum(np.sqrt(dx * dx + dy * dy), 1e-12)
        cu = dx / norm
        su = dy / norm
        users, inv = np.unique(du, return_inverse=True)
        n = np.bincount(inv, minlength=len(users)).astype(np.int64)
        C = np.bincount(inv, weights=cu, minlength=len(users))
        S = np.bincount(inv, weights=su, minlength=len(users))
        mb = np.array([math.atan2(s_, c_) for s_, c_ in zip(S, C)])
        R = np.sqrt(C * C + S * S) / n
        r6 = lambda v: np.sign(v) * np.floor(np.abs(v) * 1e6 + 0.5) / 1e6
        return pd.DataFrame(
            {
                "user_id": users,
                "n_steps": n,
                "mean_bearing": r6(mb),
                "resultant": r6(R),
            }
        )

    return segment_apply(
        ds.map_batches(tag, batch_format="pyarrow"),
        "user_id",
        kernel,
        pa.schema(
            {"user_id": pa.int64(), "n_steps": pa.int64(),
             "mean_bearing": pa.float64(), "resultant": pa.float64()}
        ),
        order=("us", "event_id"),
    )


def _sql_bearing_stats() -> str:
    from ..synth import SQL_X, SQL_Y

    ex = SQL_X.replace("doc_id", "event_id")
    ey = SQL_Y.replace("doc_id", "event_id")
    norm = "GREATEST(sqrt(dx * dx + dy * dy), 1e-12)"
    return f"""
WITH pts AS (
  SELECT user_id, event_id, epoch_us(ts) AS us, {ex} AS x, {ey} AS y
  FROM events
),
steps AS (
  SELECT user_id,
         x - LAG(x) OVER w AS dx,
         y - LAG(y) OVER w AS dy
  FROM pts WINDOW w AS (PARTITION BY user_id ORDER BY us, event_id)
  QUALIFY LAG(x) OVER w IS NOT NULL
),
cs AS (
  SELECT user_id, COUNT(*)::BIGINT AS n_steps,
         SUM(dx / {norm}) AS c, SUM(dy / {norm}) AS s
  FROM steps GROUP BY user_id
)
SELECT user_id, n_steps,
       ROUND(atan2(s, c) * 1e6) / 1e6 AS mean_bearing,
       ROUND((sqrt(c * c + s * s) / n_steps) * 1e6) / 1e6 AS resultant
FROM cs
"""


# ---------------------------------------------------------------------------
# ST-DBSCAN: space-time density clustering
# ---------------------------------------------------------------------------

STDB_DS = 15_000.0  # spatial eps (m)
STDB_DT = 43_200_000_000  # temporal eps (12 h in us)
STDB_MINPTS = 4  # neighbors (excluding self) for a core point


@query("st_dbscan", sql=lambda: _sql_st_dbscan(), bench=True, quadratic=True)
def q_st_dbscan(sf_dir: str):
    """ST-DBSCAN core clustering of the event subset: a point is CORE
    when >= 4 other events lie within 15 km AND 12 h; clusters are the
    connected components of the core-core closeness graph (DBSCAN* — no
    border assignment), labeled by their minimum event id.  Rows
    (cluster, n_core) — singleton cores form their own cluster.

    Scale shape: two 3x3 ghost-cell passes (cell = eps, so an owner's
    whole neighborhood lives in its own cell block): pass 1 emits exact
    per-owner neighbor counts, pass 2 emits core-core edges against the
    broadcast core set; components fold through the distributed
    min-label/pointer-jumping machinery (dedup.connected_components)."""
    import pandas as pd
    import ray.data as rd

    from ..dedup import connected_components

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts"]
    )
    ds2 = STDB_DS * STDB_DS

    def prep(b: pa.Table) -> pa.Table:
        eid = np.asarray(pc.cast(b["event_id"], pa.int64()))
        us = np.asarray(
            pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64())
        )
        keep = eid % KNOX_MOD == 0
        eid, us = eid[keep], us[keep]
        x, y = derive_xy(eid)
        return pa.table(
            {
                "eid": pa.array(eid),
                "us": pa.array(us),
                "x": pa.array(x),
                "y": pa.array(y),
            }
        )

    pts = ds.map_batches(prep, batch_format="pyarrow").materialize()

    def scat(b: pa.Table) -> pa.Table:
        x = np.asarray(b["x"], np.float64)
        y = np.asarray(b["y"], np.float64)
        eid = np.asarray(b["eid"], np.int64)
        us = np.asarray(b["us"], np.int64)
        cx = np.floor(x / STDB_DS).astype(np.int64)
        cy = np.floor(y / STDB_DS).astype(np.int64)
        ks, xs, ys, es, ts_, ow = [], [], [], [], [], []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                ks.append(
                    ((cx + dx) << 32) | ((cy + dy) & np.int64(4294967295))
                )
                xs.append(x)
                ys.append(y)
                es.append(eid)
                ts_.append(us)
                ow.append(
                    np.full(len(x), 1 if dx == 0 and dy == 0 else 0, np.int8)
                )
        key = np.concatenate(ks)
        return pa.table(
            {
                "ckey": pa.array(key),
                "px": pa.array(np.concatenate(xs)),
                "py": pa.array(np.concatenate(ys)),
                "pid": pa.array(np.concatenate(es)),
                "pt": pa.array(np.concatenate(ts_)),
                "own": pa.array(np.concatenate(ow)),
            }
        )

    def _cols(t: pa.Table):
        return (
            np.asarray(t["px"], np.float64),
            np.asarray(t["py"], np.float64),
            np.asarray(t["pid"], np.int64),
            np.asarray(t["pt"], np.int64),
            np.asarray(t["own"], np.int8),
        )

    # Micro-cell machinery (the Knox closed-form, per-owner variant):
    # sub-bucket each cell block at MC = eps/1.5; micro self-pairs are
    # always fully inside eps (diag^2 = 0.889 eps^2), micro pairs whose
    # max possible distance clears eps need only the TIME test, pairs
    # whose min distance exceeds eps contribute nothing, and only the
    # threshold-straddling fringe goes dense.  1e-12 guard bands keep
    # every closed-form decision strictly inside the float d2 <= ds2
    # law, so counts and components are identical to the dense kernel.
    STDB_MC = STDB_DS / 1.5
    _HI_GATE = ds2 * (1.0 - 1e-12)
    _LO_GATE = ds2 * (1.0 + 1e-12)

    def _micros(X, Y):
        mx = np.floor(X / STDB_MC).astype(np.int64)
        my = np.floor(Y / STDB_MC).astype(np.int64)
        mk = (mx - mx.min()) * 1024 + (my - my.min())
        o2 = np.argsort(mk, kind="stable")
        mks = mk[o2]
        ms = np.flatnonzero(np.concatenate([[True], mks[1:] != mks[:-1]]))
        me = np.append(ms[1:], len(mks))
        return o2, ms, me, mks[ms] // 1024, mks[ms] % 1024

    def _classify(mxs, mys, a, b):
        """-1 skip, 1 all-spatially-close, 0 dense."""
        dmx = abs(int(mxs[a]) - int(mxs[b]))
        dmy = abs(int(mys[a]) - int(mys[b]))
        mnx = max(dmx - 1, 0) * STDB_MC
        mny = max(dmy - 1, 0) * STDB_MC
        if mnx * mnx + mny * mny > _LO_GATE:
            return -1
        mxx = (dmx + 1) * STDB_MC
        mxy = (dmy + 1) * STDB_MC
        return 1 if mxx * mxx + mxy * mxy <= _HI_GATE else 0

    def kern_count(t: pa.Table, starts: np.ndarray) -> pd.DataFrame:
        px, py, pid, pt, own = _cols(t)
        ends = np.append(starts[1:], len(px))
        ids, cnts = [], []
        for s, e in zip(starts, ends):
            o = own[s:e] > 0
            if not o.any():
                continue
            X, Y, T = px[s:e], py[s:e], pt[s:e]
            o2, ms, me, mxs, mys = _micros(X, Y)
            Xs, Ys, Ts, os_ = X[o2], Y[o2], T[o2], o[o2]
            ids_s = pid[s:e][o2]
            nmc = len(ms)
            tsorted = [np.sort(Ts[ms[b]:me[b]]) for b in range(nmc)]
            for a in range(nmc):
                am = os_[ms[a]:me[a]]
                ao = int(am.sum())
                if not ao:
                    continue
                aX = Xs[ms[a]:me[a]][am]
                aY = Ys[ms[a]:me[a]][am]
                aT = Ts[ms[a]:me[a]][am]
                cnt = np.full(ao, -1, np.int64)  # self pair (pid unique)
                for b in range(nmc):
                    cls = _classify(mxs, mys, a, b)
                    if cls < 0:
                        continue
                    if cls == 1:
                        tb = tsorted[b]
                        hi = np.searchsorted(
                            tb, aT + STDB_DT, side="right"
                        )
                        lo = np.searchsorted(
                            tb, aT - STDB_DT, side="left"
                        )
                        cnt += hi - lo
                        continue
                    bX = Xs[ms[b]:me[b]]
                    bY = Ys[ms[b]:me[b]]
                    bT = Ts[ms[b]:me[b]]
                    dx = aX[:, None] - bX[None, :]
                    dy = aY[:, None] - bY[None, :]
                    close = (dx * dx + dy * dy <= ds2) & (
                        np.abs(aT[:, None] - bT[None, :]) <= STDB_DT
                    )
                    cnt += close.sum(axis=1)
                ids.append(ids_s[ms[a]:me[a]][am])
                cnts.append(cnt)
        if not ids:
            return pd.DataFrame({"eid": [], "cnt": []}).astype(np.int64)
        return pd.DataFrame(
            {"eid": np.concatenate(ids), "cnt": np.concatenate(cnts)}
        )

    scattered = pts.map_batches(scat, batch_format="pyarrow")
    counts = segment_apply(
        scattered,
        "ckey",
        kern_count,
        pa.schema({"eid": pa.int64(), "cnt": pa.int64()}),
    )
    core_tbl = pa.concat_tables(
        counts.iter_batches(batch_size=None, batch_format="pyarrow")
    )
    ce = np.asarray(core_tbl["eid"], np.int64)
    cc_ = np.asarray(core_tbl["cnt"], np.int64)
    core_ids = np.sort(ce[cc_ >= STDB_MINPTS])

    def kern_edges(t: pa.Table, starts: np.ndarray, core=core_ids) -> pd.DataFrame:
        px, py, pid, pt, own = _cols(t)
        ends = np.append(starts[1:], len(px))
        if len(core):
            pos = np.clip(np.searchsorted(core, pid), 0, len(core) - 1)
            is_core = core[pos] == pid
        else:
            is_core = np.zeros(len(pid), bool)
        # EXACT connectivity-preserving edge reduction over the micro
        # structure.  Every emitted edge is a true space-time-close
        # core pair, and every true core-core edge's endpoints stay
        # connected, because (i) within one micro all points are
        # spatially close and a consecutive-in-time chain with gap <=
        # DT connects exactly the groups the full time-close clique
        # would (any two window-mates span <= DT, so every consecutive
        # gap between them is <= DT); (ii) for an all-close micro pair
        # it suffices to link each own core to its nearest PREV and
        # NEXT core of the other micro: any other window-mate lies
        # within a <= DT span of that anchor and chains to it through
        # (i).  Straddling micro pairs keep the dense per-pair edges.
        # Duplicate emissions across cells are harmless (component
        # fold dedups).
        eas, ebs = [], []

        def _emit(a_arr, b_arr):
            eas.append(a_arr)
            ebs.append(b_arr)

        for s, e in zip(starts, ends):
            o = (own[s:e] > 0) & is_core[s:e]
            cand = is_core[s:e]
            if not o.any() or not cand.any():
                continue
            X, Y, T = px[s:e], py[s:e], pt[s:e]
            o2, ms, me, mxs, mys = _micros(X, Y)
            Xs, Ys, Ts = X[o2], Y[o2], T[o2]
            os_ = o[o2]
            cs_ = cand[o2]
            ids_s = pid[s:e][o2]
            nmc = len(ms)
            # per micro: CORE rows sorted by (time, id) — deterministic
            core_t, core_id = [], []
            for b in range(nmc):
                cm = cs_[ms[b]:me[b]]
                tb = Ts[ms[b]:me[b]][cm]
                ib = ids_s[ms[b]:me[b]][cm]
                o3 = np.lexsort((ib, tb))
                core_t.append(tb[o3])
                core_id.append(ib[o3])
            for a in range(nmc):
                am = os_[ms[a]:me[a]]
                ao = int(am.sum())
                ta = core_t[a]
                if ao and len(ta) >= 2:
                    # (i) intra-micro chain over ALL block cores (own
                    # or ghost: a micro straddling a cell boundary is
                    # chained whole in every cell that owns part of it)
                    gap_ok = (ta[1:] - ta[:-1]) <= STDB_DT
                    _emit(core_id[a][:-1][gap_ok], core_id[a][1:][gap_ok])
                if not ao:
                    continue
                aoc = am & cs_[ms[a]:me[a]]
                if not aoc.any():
                    a_has_core = False
                else:
                    a_has_core = True
                    aT = Ts[ms[a]:me[a]][aoc]
                    aI = ids_s[ms[a]:me[a]][aoc]
                    aXc = Xs[ms[a]:me[a]][aoc]
                    aYc = Ys[ms[a]:me[a]][aoc]
                for b in range(nmc):
                    if b == a or not a_has_core or not len(core_t[b]):
                        continue
                    cls = _classify(mxs, mys, a, b)
                    if cls < 0:
                        continue
                    if cls == 1:
                        # (ii) prev/next time anchors into micro b
                        tb, ib = core_t[b], core_id[b]
                        hi = np.searchsorted(tb, aT, side="right")
                        prev = hi - 1
                        okp = prev >= 0
                        okp[okp] &= (aT[okp] - tb[prev[okp]]) <= STDB_DT
                        _emit(aI[okp], ib[prev[okp]])
                        nxt = np.searchsorted(tb, aT, side="left")
                        okn = nxt < len(tb)
                        okn[okn] &= (tb[nxt[okn]] - aT[okn]) <= STDB_DT
                        _emit(aI[okn], ib[nxt[okn]])
                        continue
                    tb, ib = core_t[b], core_id[b]
                    bXc = Xs[ms[b]:me[b]][cs_[ms[b]:me[b]]]
                    bYc = Ys[ms[b]:me[b]][cs_[ms[b]:me[b]]]
                    bTc = Ts[ms[b]:me[b]][cs_[ms[b]:me[b]]]
                    bIc = ids_s[ms[b]:me[b]][cs_[ms[b]:me[b]]]
                    dx = aXc[:, None] - bXc[None, :]
                    dy = aYc[:, None] - bYc[None, :]
                    close = (dx * dx + dy * dy <= ds2) & (
                        np.abs(aT[:, None] - bTc[None, :]) <= STDB_DT
                    )
                    oi, cj = np.nonzero(close)
                    _emit(aI[oi], bIc[cj])
        if not eas:
            return pd.DataFrame({"id_a": [], "id_b": []}).astype(np.int64)
        ia = np.concatenate(eas)
        ib2 = np.concatenate(ebs)
        lo_ = np.minimum(ia, ib2)
        hi_ = np.maximum(ia, ib2)
        keep = lo_ != hi_
        return pd.DataFrame({"id_a": lo_[keep], "id_b": hi_[keep]})

    # pass 2 only ever links CORE points — filter to the core set before
    # re-scattering so the second shuffle carries the core fraction, not
    # the full 9x ghost stream
    def only_core(b: pa.Table, core=core_ids) -> pa.Table:
        eid = np.asarray(b["eid"], np.int64)
        if not len(core):
            return b.slice(0, 0)
        pos = np.clip(np.searchsorted(core, eid), 0, len(core) - 1)
        return b.filter(pa.array(core[pos] == eid))

    scattered_core = pts.map_batches(
        only_core, batch_format="pyarrow"
    ).map_batches(scat, batch_format="pyarrow")
    edges = segment_apply(
        scattered_core,
        "ckey",
        kern_edges,
        pa.schema({"id_a": pa.int64(), "id_b": pa.int64()}),
    )
    comp = connected_components(edges)
    batches = list(comp.iter_batches(batch_size=None, batch_format="pyarrow"))
    ctbl = (
        pa.concat_tables(batches)
        if batches
        else pa.table(
            {"node": pa.array([], pa.int64()), "label": pa.array([], pa.int64())}
        )
    )
    node = np.asarray(ctbl["node"], np.int64)
    lab = np.asarray(ctbl["label"], np.int64)
    # singleton cores (no core neighbor) are their own cluster
    if len(node):
        sn = np.sort(node)
        pos = np.clip(np.searchsorted(sn, core_ids), 0, len(sn) - 1)
        lonely = core_ids[sn[pos] != core_ids]
    else:
        lonely = core_ids
    node = np.concatenate([node, lonely])
    lab = np.concatenate([lab, lonely])
    u, cnts2 = np.unique(lab, return_counts=True)
    # a 0-row Ray Dataset drops its column schema on to_pandas(); the
    # rollup is tiny, so hand back the Arrow table directly
    return pa.table(
        {
            "cluster": pa.array(u.astype(np.int64)),
            "n_core": pa.array(cnts2.astype(np.int64)),
        }
    )


def _sql_st_dbscan() -> str:
    from ..synth import SQL_X, SQL_Y

    ex = SQL_X.replace("doc_id", "event_id")
    ey = SQL_Y.replace("doc_id", "event_id")
    d2 = "((a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y))"
    ds2 = STDB_DS * STDB_DS
    return f"""
WITH RECURSIVE pts AS (
  SELECT event_id, epoch_us(ts) AS us, {ex} AS x, {ey} AS y
  FROM events WHERE event_id % {KNOX_MOD} = 0
),
nbr AS (
  SELECT a.event_id AS id, COUNT(*)::BIGINT AS cnt
  FROM pts a JOIN pts b ON a.event_id != b.event_id
   AND {d2} <= {ds2!r} AND abs(a.us - b.us) <= {STDB_DT}
  GROUP BY a.event_id
),
core AS (SELECT id FROM nbr WHERE cnt >= {STDB_MINPTS}),
edges AS (
  SELECT a.event_id AS ea, b.event_id AS eb
  FROM pts a JOIN pts b ON a.event_id != b.event_id
   AND {d2} <= {ds2!r} AND abs(a.us - b.us) <= {STDB_DT}
  JOIN core ca ON ca.id = a.event_id
  JOIN core cb ON cb.id = b.event_id
),
reach(id, lab) AS (
  SELECT id, id FROM core
  UNION
  SELECT e.eb, r.lab FROM reach r JOIN edges e ON e.ea = r.id
),
comp AS (SELECT id, MIN(lab) AS lab FROM reach GROUP BY id)
SELECT lab AS cluster, COUNT(*)::BIGINT AS n_core
FROM comp GROUP BY lab
"""


# ---------------------------------------------------------------------------
# trajectory simplification / A-B test / Benford
# ---------------------------------------------------------------------------

SIMP_EPS = 60_000.0  # radial-distance simplification threshold (m)


@query("traj_simplify", sql=lambda: _sql_traj_simplify(), bench=True)
def q_traj_simplify(sf_dir: str):
    """Radial-distance trajectory simplification: over each user's first
    TRAJ_L points (the DP prefix convention), keep point 1, then
    repeatedly the FIRST later point farther than 60 km from the last
    kept one.  Rows (user_id, seq, x, y) of kept points, 6dp.

    Scale shape: one user-hash bucket shuffle; the sequential kept-scan
    is a <= L frontier loop VECTORIZED ACROSS USERS (cur-index array,
    masked first-true pick per step — no per-user Python dispatch)."""
    import pandas as pd
    import ray.data as rd

    eps2 = SIMP_EPS * SIMP_EPS

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts"]
    )

    def tag(b: pa.Table) -> pa.Table:
        uid = np.asarray(b["user_id"], np.int64)
        eid = np.asarray(pc.cast(b["event_id"], pa.int64()))
        x, y = derive_xy(eid)
        return pa.table(
            {
                "user_id": pa.array(uid),
                "event_id": pa.array(eid),
                "us": pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64()),
                "x": pa.array(x),
                "y": pa.array(y),
            }
        )

    def kernel(t: pa.Table, starts: np.ndarray) -> pd.DataFrame:
        x = np.asarray(t["x"], np.float64)
        y = np.asarray(t["y"], np.float64)
        first = np.zeros(len(x), dtype=bool)
        first[starts] = True
        gidx = np.cumsum(first) - 1
        seq = np.arange(len(x)) - starts[gidx]
        keep = seq < TRAJ_L
        x, y, gidx, seq = x[keep], y[keep], gidx[keep], seq[keep]
        users = np.asarray(t["user_id"], np.int64)[starts]
        nu = len(users)
        lens = np.bincount(gidx, minlength=nu)
        gx = np.full((nu, TRAJ_L), np.nan)
        gy = np.full((nu, TRAJ_L), np.nan)
        gx[gidx, seq] = x
        gy[gidx, seq] = y
        jj = np.arange(TRAJ_L)[None, :]
        valid = jj < lens[:, None]
        cur = np.zeros(nu, np.int64)  # point 1 always kept
        alive = lens > 0
        out_u, out_s, out_x, out_y = [], [], [], []
        out_u.append(users[alive])
        out_s.append(cur[alive] + 1)
        out_x.append(gx[alive, 0])
        out_y.append(gy[alive, 0])
        for _ in range(TRAJ_L - 1):
            if not alive.any():
                break
            cx = gx[np.arange(nu), cur][:, None]
            cy = gy[np.arange(nu), cur][:, None]
            d2 = (gx - cx) * (gx - cx) + (gy - cy) * (gy - cy)
            cand = valid & (jj > cur[:, None]) & (d2 > eps2)
            has = cand.any(axis=1) & alive
            nxt = np.argmax(cand, axis=1)
            cur = np.where(has, nxt, cur)
            alive = has
            if has.any():
                out_u.append(users[has])
                out_s.append(cur[has] + 1)
                out_x.append(gx[has, cur[has]])
                out_y.append(gy[has, cur[has]])
        r6 = lambda v: np.sign(v) * np.floor(np.abs(v) * 1e6 + 0.5) / 1e6
        return pd.DataFrame(
            {
                "user_id": np.concatenate(out_u),
                "seq": np.concatenate(out_s).astype(np.int64),
                "x": r6(np.concatenate(out_x)),
                "y": r6(np.concatenate(out_y)),
            }
        )

    return segment_apply(
        ds.map_batches(tag, batch_format="pyarrow"),
        "user_id",
        kernel,
        pa.schema(
            {"user_id": pa.int64(), "seq": pa.int64(), "x": pa.float64(),
             "y": pa.float64()}
        ),
        order=("us", "event_id"),
    )


def _sql_traj_simplify() -> str:
    from ..synth import SQL_X, SQL_Y

    ex = SQL_X.replace("doc_id", "event_id")
    ey = SQL_Y.replace("doc_id", "event_id")
    eps2 = SIMP_EPS * SIMP_EPS
    d2 = "((p2.x - w.x) * (p2.x - w.x) + (p2.y - w.y) * (p2.y - w.y))"
    return f"""
WITH RECURSIVE pts AS (
  SELECT user_id,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS i,
         {ex} AS x, {ey} AS y
  FROM events QUALIFY i <= {TRAJ_L}
),
walk(user_id, seq, x, y) AS (
  SELECT user_id, i, x, y FROM pts WHERE i = 1
  UNION ALL
  SELECT w.user_id, p.i, p.x, p.y
  FROM walk w JOIN pts p ON p.user_id = w.user_id
   AND p.i = (SELECT MIN(p2.i) FROM pts p2
              WHERE p2.user_id = w.user_id AND p2.i > w.seq
                AND {d2} > {eps2!r})
)
SELECT user_id, seq::BIGINT AS seq,
       ROUND(x * 1e6) / 1e6 AS x, ROUND(y * 1e6) / 1e6 AS y
FROM walk
"""


@query("ab_test", sql=lambda: _sql_ab_test())
def q_ab_test(sf_dir: str):
    """Two-proportion A/B z-test: users split by user_id parity, success
    = 'purchase' events; one row (n_a, c_a, n_b, c_b, z) with the pooled
    two-proportion z statistic, 6dp.

    Scale shape: four integer counters via per-batch partials — the
    minimal combinable aggregate."""
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )

    def partial(b: pa.Table) -> pa.Table:
        uid = np.asarray(b["user_id"], np.int64)
        conv = (
            np.asarray(b["event_type"], dtype=object) == "purchase"
        ).astype(np.int64)
        gb = (uid % 2).astype(np.int64)
        return pa.table(
            {
                "n_a": np.array([int((gb == 0).sum())], np.int64),
                "c_a": np.array([int(conv[gb == 0].sum())], np.int64),
                "n_b": np.array([int((gb == 1).sum())], np.int64),
                "c_b": np.array([int(conv[gb == 1].sum())], np.int64),
            }
        )

    tot = ds.map_batches(partial, batch_format="pyarrow").sum(
        ["n_a", "c_a", "n_b", "c_b"]
    )
    na, ca = float(tot["sum(n_a)"]), float(tot["sum(c_a)"])
    nb, cb = float(tot["sum(n_b)"]), float(tot["sum(c_b)"])
    p = (ca + cb) / (na + nb)
    z = (ca / na - cb / nb) / np.sqrt(p * (1.0 - p) * (1.0 / na + 1.0 / nb))
    z = float(np.sign(z) * np.floor(np.abs(z) * 1e6 + 0.5) / 1e6)
    return pa.table(
        {
            "n_a": pa.array([int(na)], pa.int64()),
            "c_a": pa.array([int(ca)], pa.int64()),
            "n_b": pa.array([int(nb)], pa.int64()),
            "c_b": pa.array([int(cb)], pa.int64()),
            "z": pa.array([z]),
        }
    )


def _sql_ab_test() -> str:
    return """
WITH s AS (
  SELECT SUM(CASE WHEN user_id % 2 = 0 THEN 1 ELSE 0 END)::DOUBLE AS na,
         SUM(CASE WHEN user_id % 2 = 0 AND event_type = 'purchase'
                  THEN 1 ELSE 0 END)::DOUBLE AS ca,
         SUM(CASE WHEN user_id % 2 = 1 THEN 1 ELSE 0 END)::DOUBLE AS nb,
         SUM(CASE WHEN user_id % 2 = 1 AND event_type = 'purchase'
                  THEN 1 ELSE 0 END)::DOUBLE AS cb
  FROM events
)
SELECT CAST(na AS BIGINT) AS n_a, CAST(ca AS BIGINT) AS c_a,
       CAST(nb AS BIGINT) AS n_b, CAST(cb AS BIGINT) AS c_b,
       ROUND(((ca / na - cb / nb)
              / sqrt(((ca + cb) / (na + nb)) * (1.0 - (ca + cb) / (na + nb))
                     * (1.0 / na + 1.0 / nb))) * 1e6) / 1e6 AS z
FROM s
"""


@query("benford", sql=lambda: _sql_benford())
def q_benford(sf_dir: str):
    """Benford first-digit distribution of lineitem extended prices:
    per digit 1-9 the observed count and share, plus the chi-square
    statistic vs the Benford expectation in each row (6dp).  The digit
    law is arithmetic (floor(v / 10^floor(log10(v)))) — no string
    formatting, so both sides compute identical doubles.

    Scale shape: 9-bin bincount partials -> 9-group fold."""
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"]
    )

    def partial(b: pa.Table) -> pa.Table:
        v = np.asarray(b["l_extendedprice"], np.float64)
        v = v[v > 0]
        # integer-cents digit law: exact, no log10-on-data (1-ulp
        # fragile near powers of ten)
        c = np.rint(v * 100.0).astype(np.int64)
        for _ in range(20):
            big = c >= 10
            if not big.any():
                break
            c = np.where(big, c // 10, c)
        cnt = np.bincount(c, minlength=10)[1:10].astype(np.int64)
        return pa.table(
            {
                "digit": np.arange(1, 10, dtype=np.int64),
                "n": cnt,
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("digit")
        .sum("n")
    )
    tbl = pa.concat_tables(agg.iter_batches(batch_size=None, batch_format="pyarrow"))
    dig = np.asarray(tbl["digit"], np.int64)
    n = np.asarray(tbl["sum(n)"], np.int64)
    order = np.argsort(dig)
    dig, n = dig[order], n[order]
    tot = float(n.sum())
    share = n / tot
    exp = np.log10(1.0 + 1.0 / dig.astype(np.float64))
    chi = (share - exp) * (share - exp) / exp * tot
    r6 = lambda v: np.sign(v) * np.floor(np.abs(v) * 1e6 + 0.5) / 1e6
    return pa.table(
        {
            "digit": pa.array(dig),
            "n": pa.array(n),
            "share": pa.array(r6(share)),
            "chi_term": pa.array(r6(chi)),
        }
    )


def _sql_benford() -> str:
    return """
WITH d AS (
  SELECT CAST(LEFT(CAST(CAST(ROUND(l_extendedprice * 100.0) AS BIGINT)
                        AS VARCHAR), 1) AS BIGINT) AS digit
  FROM lineitem WHERE l_extendedprice > 0
),
c AS (SELECT digit, COUNT(*)::BIGINT AS n FROM d GROUP BY digit),
t AS (SELECT SUM(n)::DOUBLE AS tot FROM c)
SELECT c.digit, c.n,
       ROUND((c.n / t.tot) * 1e6) / 1e6 AS share,
       ROUND((((c.n / t.tot) - LOG10(1.0 + 1.0 / c.digit))
              * ((c.n / t.tot) - LOG10(1.0 + 1.0 / c.digit))
              / LOG10(1.0 + 1.0 / c.digit) * t.tot) * 1e6) / 1e6
         AS chi_term
FROM c CROSS JOIN t
"""


# ---------------------------------------------------------------------------
# BFS shortest-path hops
# ---------------------------------------------------------------------------

BFS_MAX_HOPS = 4


@query("bfs_hops", sql=lambda: _sql_bfs_hops(), bench=True)
def q_bfs_hops(sf_dir: str):
    """Multi-level BFS hop distance from the minimum supplier node over
    the supplier<->part bipartite graph (graph.bfs_hops): level-
    synchronous frontier supersteps — each level broadcasts the sorted
    frontier and streams the DISTRIBUTED distinct edge Dataset through
    a stateless membership + packed-unique partial (no join below the
    pagerank state gate; partitioned safe_join supersteps above).
    Output (node, hops), the minimum hop count <= {BFS_MAX_HOPS}."""
    import pyarrow.parquet as pq_

    import ray.data as rd

    from ..graph import bfs_hops, distinct_int_pairs

    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_suppkey", "l_partkey"]
    )
    pairs = distinct_int_pairs(line, "l_suppkey", "l_partkey")

    def sym(b: pa.Table) -> pa.Table:
        a = np.asarray(b["l_suppkey"], np.int64)
        v = np.asarray(b["l_partkey"], np.int64) + KCORE_POFF
        return pa.table(
            {
                "a": pa.array(np.concatenate([a, v])),
                "b": pa.array(np.concatenate([v, a])),
            }
        )

    edges = pairs.map_batches(sym, batch_format="pyarrow")
    seed = int(
        np.asarray(
            pq_.read_table(
                f"{sf_dir}/lineitem.parquet", columns=["l_suppkey"]
            )["l_suppkey"],
            np.int64,
        ).min()
    )
    return bfs_hops(
        edges, np.asarray([seed], np.int64), max_hops=BFS_MAX_HOPS
    )


@query("sssp_cost", sql=lambda: _sql_sssp_cost(), bench=True)
def q_sssp_cost(sf_dir: str):
    """Bounded-hop weighted shortest path (graph.sssp_hops): distributed
    Bellman-Ford over the supplier<->part bipartite graph with
    deterministic integer weights w = (a + b) % 9 + 1 — exactly
    {BFS_MAX_HOPS} relaxation supersteps, min cost over paths of at most
    that many edges (the hop bound IS the law so the recursive oracle
    terminates)."""
    import pyarrow.parquet as pq_

    import ray.data as rd

    from ..graph import distinct_int_pairs, sssp_hops

    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_suppkey", "l_partkey"]
    )
    pairs = distinct_int_pairs(line, "l_suppkey", "l_partkey")

    def sym(b: pa.Table) -> pa.Table:
        a = np.asarray(b["l_suppkey"], np.int64)
        v = np.asarray(b["l_partkey"], np.int64) + KCORE_POFF
        aa = np.concatenate([a, v])
        bb = np.concatenate([v, a])
        return pa.table(
            {
                "a": pa.array(aa),
                "b": pa.array(bb),
                "w": pa.array((aa + bb) % 9 + 1),
            }
        )

    edges = pairs.map_batches(sym, batch_format="pyarrow")
    seed = int(
        np.asarray(
            pq_.read_table(
                f"{sf_dir}/lineitem.parquet", columns=["l_suppkey"]
            )["l_suppkey"],
            np.int64,
        ).min()
    )
    return sssp_hops(
        edges, np.asarray([seed], np.int64), max_hops=BFS_MAX_HOPS
    )


def _sql_sssp_cost() -> str:
    return f"""
WITH RECURSIVE e AS (
  SELECT DISTINCT l_suppkey AS a, l_partkey + {KCORE_POFF} AS b
  FROM lineitem),
sym AS (
  SELECT a, b, (a + b) % 9 + 1 AS w FROM e
  UNION ALL
  SELECT b, a, (a + b) % 9 + 1 FROM e),
p AS (
  SELECT (SELECT MIN(l_suppkey) FROM lineitem) AS node,
         0::BIGINT AS cost, 0 AS hops
  UNION
  SELECT sym.b, p.cost + sym.w, p.hops + 1
  FROM p JOIN sym ON sym.a = p.node
  WHERE p.hops < {BFS_MAX_HOPS})
SELECT node, MIN(cost)::BIGINT AS cost
FROM p GROUP BY node ORDER BY node
"""


@query("harmonic", sql=lambda: _sql_harmonic())
def q_harmonic(sf_dir: str):
    """Landmark harmonic centrality (graph.harmonic_centrality): sum of
    1/hops from the 3 smallest supplier landmarks within
    {BFS_MAX_HOPS} hops — the scalable landmark-sample estimator of
    closeness-family centrality, one bfs_hops frontier run per
    landmark."""
    import pyarrow.parquet as pq_

    import ray.data as rd

    from ..graph import distinct_int_pairs, harmonic_centrality

    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_suppkey", "l_partkey"]
    )
    pairs = distinct_int_pairs(line, "l_suppkey", "l_partkey")

    def sym(b: pa.Table) -> pa.Table:
        a = np.asarray(b["l_suppkey"], np.int64)
        v = np.asarray(b["l_partkey"], np.int64) + KCORE_POFF
        return pa.table(
            {
                "a": pa.array(np.concatenate([a, v])),
                "b": pa.array(np.concatenate([v, a])),
            }
        )

    edges = pairs.map_batches(sym, batch_format="pyarrow")
    lms = np.unique(
        np.asarray(
            pq_.read_table(
                f"{sf_dir}/lineitem.parquet", columns=["l_suppkey"]
            )["l_suppkey"],
            np.int64,
        )
    )[:3]
    return harmonic_centrality(edges, lms, max_hops=BFS_MAX_HOPS)


def _sql_harmonic() -> str:
    return f"""
WITH RECURSIVE e AS (
  SELECT DISTINCT l_suppkey AS a, l_partkey + {KCORE_POFF} AS b
  FROM lineitem),
sym AS (SELECT a, b FROM e UNION ALL SELECT b, a FROM e),
lms AS (
  SELECT DISTINCT l_suppkey AS lm FROM lineitem ORDER BY lm LIMIT 3),
bfs AS (
  SELECT lm AS node, lm, 0 AS hops FROM lms
  UNION
  SELECT sym.b, bfs.lm, bfs.hops + 1
  FROM bfs JOIN sym ON sym.a = bfs.node
  WHERE bfs.hops < {BFS_MAX_HOPS}),
mh AS (SELECT lm, node, MIN(hops) AS h FROM bfs GROUP BY lm, node)
SELECT node, COUNT(*)::BIGINT AS n_seen,
       ROUND(SUM(CASE WHEN h > 0 THEN 1.0 / h ELSE 0.0 END) * 1e6)
         / 1e6 AS harm
FROM mh GROUP BY node ORDER BY node
"""


def _sql_bfs_hops() -> str:
    return f"""
WITH RECURSIVE e AS (
  SELECT DISTINCT l_suppkey AS a, l_partkey + {KCORE_POFF} AS b
  FROM lineitem),
sym AS (SELECT a, b FROM e UNION ALL SELECT b, a FROM e),
bfs AS (
  SELECT (SELECT MIN(l_suppkey) FROM lineitem) AS node, 0 AS hops
  UNION
  SELECT sym.b, bfs.hops + 1
  FROM bfs JOIN sym ON sym.a = bfs.node
  WHERE bfs.hops < {BFS_MAX_HOPS})
SELECT node, MIN(hops)::BIGINT AS hops
FROM bfs
GROUP BY node
ORDER BY node
"""


# ---------------------------------------------------------------------------
# k-core / focal median / CUSUM
# ---------------------------------------------------------------------------

KCORE_K = 3
KCORE_ROUNDS = 30  # generous peel depth; converges in < 10 on these graphs
KCORE_POFF = 1 << 22  # part-node id offset in the bipartite graph
KCORE_EDGE_GATE = 1 << 20  #: raw pair rows at/below: driver census


@query("kcore", sql=lambda: _sql_kcore(), bench=True)
def q_kcore(sf_dir: str):
    """k-core decomposition (k = 3) of the supplier<->part bipartite
    graph: iteratively peel nodes with degree < k until stable; output
    every surviving node with its in-core degree.  The op is DEFINED as
    {KCORE_ROUNDS} peeling rounds (idempotent once converged — both
    sides run the same count), so engine and oracle agree at any scale
    factor.

    Scale shape: distributed distinct + mirror first (the raw edges
    never gather blind), then graph.kcore_membership's count-gated
    hybrid — vectorized bincount peel over driver arrays at or below
    the edge gate, and partitioned safe_join endpoint filters + coarse
    degree sums per superstep above it."""
    import ray.data as rd

    from ..graph import (
        distinct_int_pairs,
        distinct_int_pairs_table,
        kcore_membership,
    )

    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_suppkey", "l_partkey"]
    )

    def mirror(b: pa.Table) -> pa.Table:
        a = np.asarray(b["l_suppkey"], np.int64)
        bb = np.asarray(b["l_partkey"], np.int64) + KCORE_POFF
        return pa.table(
            {
                "a": pa.array(np.concatenate([a, bb])),
                "b": pa.array(np.concatenate([bb, a])),
            }
        )

    # RAW row count (parquet metadata, no execution) gates the census:
    # below the edge gate the driver-final distinct is ~3x cheaper than
    # the coarse shuffle (BASELINE.md measurement) and the peel gathers
    # anyway; above it nothing may land on the driver, so the distinct
    # AND the peel both run distributed
    if line.count() <= KCORE_EDGE_GATE:
        tbl = distinct_int_pairs_table(line, "l_suppkey", "l_partkey")
        edges = rd.from_arrow(mirror(tbl))
        return kcore_membership(
            edges, k=KCORE_K, rounds=KCORE_ROUNDS,
            local_max_edges=1 << 62,
        )
    edges = distinct_int_pairs(line, "l_suppkey", "l_partkey").map_batches(
        mirror, batch_format="pyarrow"
    )
    return kcore_membership(
        edges, k=KCORE_K, rounds=KCORE_ROUNDS, local_max_edges=0
    )


def _sql_kcore() -> str:
    parts = [
        (
            "ed AS (SELECT DISTINCT l_suppkey AS a,"
            f" l_partkey + {KCORE_POFF} AS b FROM lineitem)"
        ),
        "edges AS (SELECT a, b FROM ed UNION ALL SELECT b, a FROM ed)",
        "g0 AS (SELECT DISTINCT a AS n FROM edges)",
    ]
    for i in range(1, KCORE_ROUNDS + 1):
        parts.append(
            f"g{i} AS MATERIALIZED (SELECT n FROM ("
            f"SELECT e.a AS n, COUNT(*) AS d FROM edges e"
            f" JOIN g{i - 1} ga ON ga.n = e.a"
            f" JOIN g{i - 1} gb ON gb.n = e.b"
            f" GROUP BY e.a) WHERE d >= {KCORE_K})"
        )
    last = f"g{KCORE_ROUNDS}"
    return (
        "WITH "
        + ", ".join(parts)
        + f" SELECT e.a AS node, COUNT(*)::BIGINT AS deg FROM edges e"
        f" JOIN {last} ga ON ga.n = e.a JOIN {last} gb ON gb.n = e.b"
        f" GROUP BY e.a"
    )


TRI_MINW = 3


#: thresholded co-occurrence edge sets at or below this stay a driver
#: table (the vectorized single-pass census); above it the wedge census
#: runs distributed (graph.triangle_stats_distributed and friends)
COOCC_DRIVER_GATE = 2_000_000


def _coocc_edges_gated(sf_dir: str):
    """Supplier co-purchase edge fixture with a PARTIALS-count-gated
    fold: the (pk, cnt) pair partials materialize once; at or below
    COOCC_DRIVER_GATE partial rows they fold on the driver (one
    vectorized reduce — partial rows upper-bound the edge count, so the
    gate is conservative) and the census gets a table; above it the
    fold is a second coarse shuffle (graph._fold_pair_partials_ds) and
    the edge set STAYS a Dataset for the distributed census.  Returns
    (edges_table, None) or (None, edges_ds)."""
    import ray.data as rd

    from ..cluster import resolve_num_buckets
    from ..graph import (
        _coocc_pair_partials,
        _fold_pair_partials_ds,
        _fold_pair_partials_table,
    )

    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_suppkey"]
    )
    nb = resolve_num_buckets(None)
    partials = _coocc_pair_partials(
        line, "l_orderkey", "l_suppkey", nb
    ).materialize()
    if partials.count() > COOCC_DRIVER_GATE:
        return None, _fold_pair_partials_ds(partials, TRI_MINW, nb)
    return _fold_pair_partials_table(partials, TRI_MINW), None


@query("triangle_stats", sql=lambda: _sql_triangle_stats(), bench=True)
def q_triangle_stats(sf_dir: str):
    """Triangle census + global clustering coefficient of the supplier
    co-purchase graph (suppliers co-occurring in >= {TRI_MINW} orders):
    group-bucketed vectorized pair emission -> packed-key pair counts
    folded DISTRIBUTED -> count-gated census (driver wedge scan below
    COOCC_DRIVER_GATE, partitioned wedge-closure join above)."""
    from ..graph import triangle_stats, triangle_stats_distributed

    tab, eds = _coocc_edges_gated(sf_dir)
    if tab is not None:
        return triangle_stats(tab)
    return triangle_stats_distributed(eds)


@query("local_clustering", sql=lambda: _sql_local_clustering(), bench=True)
def q_local_clustering(sf_dir: str):
    """Per-node clustering coefficient (graph.local_clustering) of the
    supplier co-purchase graph — same edge fixture and count gate as
    triangle_stats, each closed wedge credited to all three corners."""
    from ..graph import local_clustering, local_clustering_distributed

    tab, eds = _coocc_edges_gated(sf_dir)
    if tab is not None:
        return local_clustering(tab)
    return local_clustering_distributed(eds)


def _sql_local_clustering() -> str:
    return f"""
WITH li AS (SELECT DISTINCT l_orderkey AS g, l_suppkey AS s FROM lineitem),
pr AS (
  SELECT a.s AS u, b.s AS v FROM li a
  JOIN li b ON b.g = a.g AND a.s < b.s
),
ed AS (SELECT u, v FROM pr GROUP BY u, v HAVING COUNT(*) >= {TRI_MINW}),
deg AS (
  SELECT n, COUNT(*)::BIGINT AS d
  FROM (SELECT u AS n FROM ed UNION ALL SELECT v AS n FROM ed)
  GROUP BY n
),
tr AS (
  SELECT e1.u AS x, e1.v AS y, e2.v AS z
  FROM ed e1
  JOIN ed e2 ON e2.u = e1.u AND e2.v > e1.v
  JOIN ed e3 ON e3.u = e1.v AND e3.v = e2.v
),
corner AS (
  SELECT x AS n FROM tr
  UNION ALL SELECT y FROM tr
  UNION ALL SELECT z FROM tr
),
tc AS (SELECT n, COUNT(*)::BIGINT AS t FROM corner GROUP BY n)
SELECT deg.n AS node, deg.d AS degree,
       COALESCE(tc.t, 0)::BIGINT AS n_tri,
       CASE WHEN deg.d < 2 THEN NULL
            ELSE ROUND((2.0::DOUBLE * COALESCE(tc.t, 0)::DOUBLE)
                       / (deg.d * (deg.d - 1))::DOUBLE * 1e6) / 1e6
       END AS coeff
FROM deg LEFT JOIN tc ON tc.n = deg.n
"""


def _sql_triangle_stats() -> str:
    return f"""
WITH li AS (SELECT DISTINCT l_orderkey AS g, l_suppkey AS s FROM lineitem),
pr AS (
  SELECT a.s AS u, b.s AS v FROM li a
  JOIN li b ON b.g = a.g AND a.s < b.s
),
ed AS (SELECT u, v FROM pr GROUP BY u, v HAVING COUNT(*) >= {TRI_MINW}),
deg AS (
  SELECT n, COUNT(*)::BIGINT AS d
  FROM (SELECT u AS n FROM ed UNION ALL SELECT v AS n FROM ed)
  GROUP BY n
),
tri AS (
  SELECT COUNT(*)::BIGINT AS t
  FROM ed e1
  JOIN ed e2 ON e2.u = e1.u AND e2.v > e1.v
  JOIN ed e3 ON e3.u = e1.v AND e3.v = e2.v
),
agg AS (
  SELECT (SELECT COUNT(*)::BIGINT FROM deg) AS n_nodes,
         (SELECT COUNT(*)::BIGINT FROM ed) AS n_edges,
         (SELECT SUM(d * (d - 1) // 2)::BIGINT FROM deg) AS n_wedges,
         (SELECT t FROM tri) AS n_triangles
)
SELECT n_nodes, n_edges, n_wedges, n_triangles,
       CASE WHEN n_wedges = 0 THEN NULL
            ELSE ROUND((3.0::DOUBLE * n_triangles::DOUBLE)
                       / n_wedges::DOUBLE * 1e6) / 1e6 END AS clustering
FROM agg
"""


AA_MINW = 2  #: part co-purchase threshold (sparse at every sf; see BASELINE)


def _part_copurchase_edges(sf_dir: str):
    import ray.data as rd

    from ..graph import cooccurrence_edge_table

    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
    )
    return cooccurrence_edge_table(
        line, "l_orderkey", "l_partkey", min_weight=AA_MINW
    )


_SQL_PART_EDGES = f"""
li AS (SELECT DISTINCT l_orderkey AS g, l_partkey AS s FROM lineitem),
pr AS (
  SELECT a.s AS u, b.s AS v FROM li a
  JOIN li b ON b.g = a.g AND a.s < b.s
),
ed AS (SELECT u, v FROM pr GROUP BY u, v HAVING COUNT(*) >= {AA_MINW})
"""


@query("adamic_adar", sql=lambda: _sql_adamic_adar(), bench=True)
def q_adamic_adar(sf_dir: str):
    """Adamic-Adar link prediction on the part co-purchase graph (parts
    sharing >= {AA_MINW} orders): every non-adjacent two-hop pair scored
    sum 1/ln(deg(common neighbor)).  Edge build is the group-bucketed
    co-occurrence plan; the wedge/score pass is the driver-final CSR
    stride scan (graph.adamic_adar_table)."""
    from ..graph import adamic_adar_table

    return adamic_adar_table(_part_copurchase_edges(sf_dir))


def _sql_adamic_adar() -> str:
    return f"""
WITH {_SQL_PART_EDGES},
sym AS (SELECT u AS a, v AS b FROM ed UNION ALL SELECT v, u FROM ed),
deg AS (SELECT a AS n, COUNT(*)::BIGINT AS d FROM sym GROUP BY a),
two AS (
  SELECT s1.a AS u, s2.b AS w, s1.b AS v
  FROM sym s1 JOIN sym s2 ON s2.a = s1.b AND s1.a < s2.b
),
nonadj AS (
  SELECT t.u, t.w, t.v FROM two t
  LEFT JOIN ed e ON e.u = t.u AND e.v = t.w
  WHERE e.u IS NULL
)
SELECT n.u, n.w, COUNT(*)::BIGINT AS n_common,
       ROUND(SUM(1.0::DOUBLE / ln(d.d::DOUBLE)) * 1e6) / 1e6 AS aa
FROM nonadj n JOIN deg d ON d.n = n.v
GROUP BY n.u, n.w
"""


@query("assortativity", sql=lambda: _sql_assortativity())
def q_assortativity(sf_dir: str):
    """Degree assortativity of the part co-purchase graph: exact
    integer-sum Pearson over directed-symmetrized edge endpoint degrees
    (graph.assortativity_table)."""
    from ..graph import assortativity_table

    return assortativity_table(_part_copurchase_edges(sf_dir))


def _sql_assortativity() -> str:
    return f"""
WITH {_SQL_PART_EDGES},
sym AS (SELECT u AS a, v AS b FROM ed UNION ALL SELECT v, u FROM ed),
deg AS (SELECT a AS n, COUNT(*)::BIGINT AS d FROM sym GROUP BY a),
xy AS (
  SELECT du.d AS x, dv.d AS y
  FROM sym JOIN deg du ON du.n = sym.a JOIN deg dv ON dv.n = sym.b
),
s AS (
  SELECT COUNT(*)::BIGINT AS m, SUM(x)::BIGINT AS sx, SUM(y)::BIGINT AS sy,
         SUM(x*y)::BIGINT AS sxy, SUM(x*x)::BIGINT AS sxx,
         SUM(y*y)::BIGINT AS syy
  FROM xy
)
SELECT (SELECT COUNT(*) FROM ed)::BIGINT AS n_edges,
       CASE WHEN m >= 2 AND m*sxx - sx*sx > 0 AND m*syy - sy*sy > 0 THEN
         ROUND((m*sxy - sx*sy)::DOUBLE
               / sqrt(((m*sxx - sx*sx)::DOUBLE) * ((m*syy - sy*sy)::DOUBLE))
               * 1e6) / 1e6
       ELSE NULL END AS assortativity
FROM s
"""


@query("auc_nchars", sql=lambda: _sql_auc_nchars(), bench=True)
def q_auc_nchars(sf_dir: str):
    """ROC AUC of document length (n_chars) as a predictor of
    lang = 'en', via the tie-averaged Mann-Whitney law: over distinct
    scores s ascending, AUC = sum_s pos_s * (neg_below_s + neg_s/2)
    / (P * N).  Every term is an exact integer-half, so the float sum is
    EXACT on both sides regardless of order — no rounding step needed
    beyond the shared 6dp.

    Plan: per-batch (score, pos, neg) count partials -> built-in Sum
    groupby on score (cardinality bounded by the length domain) ->
    driver-final cumulative pass on the tiny score table."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["n_chars", "lang"]
    )

    def partial(b: pa.Table) -> pa.Table:
        sc = np.asarray(b["n_chars"], np.int64)
        pos = (np.asarray(b["lang"]).astype(object) == "en").astype(np.int64)
        order = np.argsort(sc, kind="stable")
        sc, pos = sc[order], pos[order]
        starts = np.flatnonzero(
            np.concatenate([[True], sc[1:] != sc[:-1]])
        ) if len(sc) else np.empty(0, np.int64)
        if not len(sc):
            return pa.table(
                {"sc": pa.array([], pa.int64()),
                 "p": pa.array([], pa.int64()),
                 "q": pa.array([], pa.int64())}
            )
        p = np.add.reduceat(pos, starts)
        tot = np.diff(np.append(starts, len(sc)))
        return pa.table(
            {
                "sc": pa.array(sc[starts]),
                "p": pa.array(p),
                "q": pa.array(tot - p),
            }
        )

    agg = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("sc")
        .aggregate(Sum("p", alias_name="p"), Sum("q", alias_name="q"))
    )
    tbl = pa.concat_tables(
        t
        for t in agg.iter_batches(batch_size=None, batch_format="pyarrow")
        if t.num_rows
    )
    sc = np.asarray(tbl["sc"], np.int64)
    p = np.asarray(tbl["p"], np.int64)
    q = np.asarray(tbl["q"], np.int64)
    order = np.argsort(sc)
    p, q = p[order], q[order]
    P, N = int(p.sum()), int(q.sum())
    if P == 0 or N == 0:
        auc = None
    else:
        cq = np.concatenate([[0], np.cumsum(q)[:-1]]).astype(np.float64)
        num = float(
            (p.astype(np.float64) * (cq + q.astype(np.float64) / 2.0)).sum()
        )
        auc = num / (float(P) * float(N))
        auc = float(np.floor(auc * 1e6 + 0.5) / 1e6)
    return pa.table(
        {
            "n_pos": pa.array([P], pa.int64()),
            "n_neg": pa.array([N], pa.int64()),
            "auc": pa.array([auc], pa.float64()),
        }
    )


def _sql_auc_nchars() -> str:
    return """
WITH s AS (
  SELECT n_chars AS sc,
         CASE WHEN lang = 'en' THEN 1 ELSE 0 END AS y
  FROM documents
),
c AS (
  SELECT sc, SUM(y)::BIGINT AS p, COUNT(*)::BIGINT - SUM(y)::BIGINT AS q
  FROM s GROUP BY sc
),
w AS (
  SELECT p, q,
         COALESCE(SUM(q) OVER (ORDER BY sc
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS cq
  FROM c
)
SELECT (SELECT SUM(p) FROM c)::BIGINT AS n_pos,
       (SELECT SUM(q) FROM c)::BIGINT AS n_neg,
       ROUND(SUM(p::DOUBLE * (cq::DOUBLE + q::DOUBLE / 2.0))
             / ((SELECT SUM(p) FROM c)::DOUBLE
                * (SELECT SUM(q) FROM c)::DOUBLE) * 1e6) / 1e6 AS auc
FROM w
"""


@query("mann_whitney", sql=lambda: _sql_mann_whitney())
def q_mann_whitney(sf_dir: str):
    """Mann-Whitney U rank-sum test: does document length (n_chars)
    differ between lang='en' and the rest?  U from the tie-averaged
    pair law (the AUC numerator — exact integer-halves), z with the
    tie-corrected normal approximation; every sum is integer so both
    sides compute identical doubles before the shared 6dp rounding.

    Plan: the q_auc_nchars combiner -> Sum groupby on score -> driver
    closed form over the score-domain table."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["n_chars", "lang"]
    )

    def partial(b: pa.Table) -> pa.Table:
        sc = np.asarray(b["n_chars"], np.int64)
        pos = (np.asarray(b["lang"]).astype(object) == "en").astype(np.int64)
        order = np.argsort(sc, kind="stable")
        sc, pos = sc[order], pos[order]
        if not len(sc):
            return pa.table(
                {"sc": pa.array([], pa.int64()),
                 "p": pa.array([], pa.int64()),
                 "q": pa.array([], pa.int64())}
            )
        starts = np.flatnonzero(np.concatenate([[True], sc[1:] != sc[:-1]]))
        p = np.add.reduceat(pos, starts)
        tot = np.diff(np.append(starts, len(sc)))
        return pa.table(
            {"sc": pa.array(sc[starts]), "p": pa.array(p),
             "q": pa.array(tot - p)}
        )

    agg = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("sc")
        .aggregate(Sum("p", alias_name="p"), Sum("q", alias_name="q"))
    )
    tbl = pa.concat_tables(
        t
        for t in agg.iter_batches(batch_size=None, batch_format="pyarrow")
        if t.num_rows
    )
    sc = np.asarray(tbl["sc"], np.int64)
    p = np.asarray(tbl["p"], np.int64)
    q = np.asarray(tbl["q"], np.int64)
    order = np.argsort(sc)
    p, q = p[order], q[order]
    n1, n2 = int(p.sum()), int(q.sum())
    n = n1 + n2
    cq = np.concatenate([[0], np.cumsum(q)[:-1]])
    u = float(
        (p.astype(np.float64)
         * (cq.astype(np.float64) + q.astype(np.float64) / 2.0)).sum()
    )
    t = p + q
    tie = int((t * t * t - t).sum())
    mu = float(n1) * float(n2) / 2.0
    var = (
        float(n1) * float(n2) / 12.0
        * (float(n + 1) - float(tie) / (float(n) * float(n - 1)))
    )
    z = (u - mu) / np.sqrt(var) if var > 0 else None
    if z is not None:
        z = float(np.sign(z) * np.floor(abs(z) * 1e6 + 0.5) / 1e6)
    return pa.table(
        {
            "n_en": pa.array([n1], pa.int64()),
            "n_rest": pa.array([n2], pa.int64()),
            "u": pa.array([u], pa.float64()),
            "z": pa.array([z], pa.float64()),
        }
    )


def _sql_mann_whitney() -> str:
    return """
WITH s AS (
  SELECT n_chars AS sc, CASE WHEN lang = 'en' THEN 1 ELSE 0 END AS y
  FROM documents
),
c AS (
  SELECT sc, SUM(y)::BIGINT AS p, COUNT(*)::BIGINT - SUM(y)::BIGINT AS q
  FROM s GROUP BY sc
),
w AS (
  SELECT p, q,
         COALESCE(SUM(q) OVER (ORDER BY sc
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS cq
  FROM c
),
agg AS (
  SELECT (SELECT SUM(p) FROM c)::BIGINT AS n1,
         (SELECT SUM(q) FROM c)::BIGINT AS n2,
         SUM(p::DOUBLE * (cq::DOUBLE + q::DOUBLE / 2.0)) AS u,
         (SELECT SUM((p+q)*(p+q)*(p+q) - (p+q)) FROM c)::BIGINT AS tie
  FROM w
)
SELECT n1 AS n_en, n2 AS n_rest, u,
       CASE WHEN n1 > 0 AND n2 > 0 AND n1 + n2 > 1 THEN
         ROUND((u - n1::DOUBLE * n2::DOUBLE / 2.0)
               / sqrt(n1::DOUBLE * n2::DOUBLE / 12.0
                      * ((n1 + n2 + 1)::DOUBLE
                         - tie::DOUBLE / ((n1 + n2)::DOUBLE
                                          * (n1 + n2 - 1)::DOUBLE)))
               * 1e6) / 1e6
       ELSE NULL END AS z
FROM agg
"""


@query("kendall_tau", sql=lambda: _sql_kendall_tau())
def q_kendall_tau(sf_dir: str):
    """Kendall tau-b between the daily count series of every event-type
    pair (days where both types have events): C - D from sign products,
    tie corrections from integer value counts — all exact; one sqrt +
    divide mirrors the SQL twin.  Day-pair volume is span^2, driver
    scale at any corpus size (the events_acf reduce)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .relational import DAY_US

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts"]
    )

    def partial(b: pa.Table) -> pa.Table:
        import pandas as pd

        us = pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64())
        day = np.asarray(us, np.int64) // DAY_US
        df = pd.DataFrame(
            {"event_type": np.asarray(b["event_type"]).astype(object),
             "d": day}
        )
        g = df.groupby(["event_type", "d"], sort=False).size()
        out = g.reset_index(name="n")
        out["n"] = out["n"].astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    counts = (
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "d"])
        .aggregate(Sum("n", alias_name="n"))
    )
    tbl = pa.concat_tables(
        t
        for t in counts.iter_batches(batch_size=None, batch_format="pyarrow")
        if t.num_rows
    )
    et = np.asarray(tbl["event_type"]).astype(object)
    d = np.asarray(tbl["d"], np.int64)
    n = np.asarray(tbl["n"], np.int64)
    types = np.unique(et)
    series = {}
    for t in types:
        sel = et == t
        dd, nn = d[sel], n[sel]
        o = np.argsort(dd)
        series[t] = (dd[o], nn[o])
    out_a, out_b, out_m, out_tau = [], [], [], []
    for i in range(len(types)):
        for j in range(i + 1, len(types)):
            da, na = series[types[i]]
            db, nb = series[types[j]]
            pos = np.searchsorted(db, da)
            pos = np.clip(pos, 0, len(db) - 1)
            hit = db[pos] == da
            x = na[hit].astype(np.int64)
            y = nb[pos[hit]].astype(np.int64)
            m = len(x)
            if m < 2:
                continue
            sx = np.sign(x[:, None] - x[None, :])
            sy = np.sign(y[:, None] - y[None, :])
            iu = np.triu_indices(m, 1)
            cd = int((sx[iu] * sy[iu]).sum())
            n0 = m * (m - 1) // 2
            _, cx = np.unique(x, return_counts=True)
            _, cy = np.unique(y, return_counts=True)
            n1t = int((cx * (cx - 1) // 2).sum())
            n2t = int((cy * (cy - 1) // 2).sum())
            den = float(n0 - n1t) * float(n0 - n2t)
            if den <= 0:
                continue
            tau = float(cd) / np.sqrt(den)
            tau = float(np.sign(tau) * np.floor(abs(tau) * 1e6 + 0.5) / 1e6)
            out_a.append(types[i])
            out_b.append(types[j])
            out_m.append(m)
            out_tau.append(tau)
    return pa.table(
        {
            "type_a": pa.array(out_a, pa.string()),
            "type_b": pa.array(out_b, pa.string()),
            "n_days": pa.array(out_m, pa.int64()),
            "tau": pa.array(out_tau, pa.float64()),
        }
    )


def _sql_kendall_tau() -> str:
    from .relational import DAY_US

    return f"""
WITH c AS (
  SELECT event_type, epoch_us(ts) // {DAY_US} AS d, COUNT(*)::BIGINT AS n
  FROM events GROUP BY event_type, d
),
p AS (
  SELECT a.event_type AS ta, b.event_type AS tb, a.d AS d,
         a.n AS x, b.n AS y
  FROM c a JOIN c b ON b.d = a.d AND a.event_type < b.event_type
),
cd AS (
  SELECT p1.ta, p1.tb,
         SUM(SIGN(p2.x - p1.x) * SIGN(p2.y - p1.y))::BIGINT AS cd,
         (SELECT COUNT(*) FROM p q
          WHERE q.ta = p1.ta AND q.tb = p1.tb)::BIGINT AS m
  FROM p p1 JOIN p p2
    ON p2.ta = p1.ta AND p2.tb = p1.tb AND p2.d > p1.d
  GROUP BY p1.ta, p1.tb
),
tx AS (
  SELECT ta, tb, SUM(t * (t - 1) // 2)::BIGINT AS n1t
  FROM (SELECT ta, tb, x, COUNT(*)::BIGINT AS t FROM p GROUP BY ta, tb, x)
  GROUP BY ta, tb
),
ty AS (
  SELECT ta, tb, SUM(t * (t - 1) // 2)::BIGINT AS n2t
  FROM (SELECT ta, tb, y, COUNT(*)::BIGINT AS t FROM p GROUP BY ta, tb, y)
  GROUP BY ta, tb
)
SELECT cd.ta AS type_a, cd.tb AS type_b, cd.m AS n_days,
       ROUND(cd.cd::DOUBLE
             / sqrt((cd.m * (cd.m - 1) // 2 - tx.n1t)::DOUBLE
                    * (cd.m * (cd.m - 1) // 2 - ty.n2t)::DOUBLE)
             * 1e6) / 1e6 AS tau
FROM cd
JOIN tx ON tx.ta = cd.ta AND tx.tb = cd.tb
JOIN ty ON ty.ta = cd.ta AND ty.tb = cd.tb
WHERE cd.m >= 2
  AND cd.m * (cd.m - 1) // 2 - tx.n1t > 0
  AND cd.m * (cd.m - 1) // 2 - ty.n2t > 0
"""


@query("hits", sql=graph.sql_hits, bench=True)
def q_hits(sf_dir: str):
    """HITS hubs (suppliers) and authorities (parts) on the distinct
    supplier-part bipartite graph, 5 max-normalized power iterations
    (graph.hits_scores; the distinct-pair build is the kcore shape)."""
    import ray.data as rd

    from ..graph import (
        distinct_int_pairs,
        distinct_int_pairs_table,
        hits_scores,
        hits_scores_ds,
    )

    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_suppkey", "l_partkey"]
    )
    if line.count() <= KCORE_EDGE_GATE:  # raw-count gate (metadata)
        pairs = distinct_int_pairs_table(line, "l_suppkey", "l_partkey")
        return hits_scores(pairs, "l_suppkey", "l_partkey")
    return hits_scores_ds(
        distinct_int_pairs(line, "l_suppkey", "l_partkey"),
        "l_suppkey", "l_partkey",
    )


@query("doc_keywords", sql=text.sql_doc_keywords, bench=True)
def q_doc_keywords(sf_dir: str):
    """Top-3 TF-IDF keywords per document (text.doc_keywords): df
    vocabulary reduce -> broadcast -> per-batch score + total-order
    rank."""
    import ray.data as rd

    from ..text import doc_keywords

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return doc_keywords(docs)


@query("naive_bayes", sql=text.sql_naive_bayes_lang)
def q_naive_bayes(sf_dir: str):
    """Multinomial Naive Bayes language classifier, trained and applied
    over the documents corpus (text.naive_bayes_lang): count reduce ->
    broadcast dense log-likelihood model -> vectorized batch scoring."""
    import ray.data as rd

    from ..text import naive_bayes_lang

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    return naive_bayes_lang(docs)


@query(
    "raster_equalize",
    sql=lambda: raster.sql_equalize(raster.SyntheticRaster(**_RASTER_KW)),
)
def q_raster_equalize(sf_dir: str):
    """Histogram equalization of the elevation band
    (raster.equalize_raster): integer CDF law, exact on both sides."""
    from ..raster import SyntheticRaster, equalize_raster

    return equalize_raster(SyntheticRaster(**_RASTER_KW), tile_size_cell=64)


@query("props_stats", sql=lambda: _sql_props_stats())
def q_props_stats(sf_dir: str):
    """JSON property extraction + rollup: parse the integer ``k`` from
    the events ``props`` JSON column (vectorized regex — the column's
    schema is the flat ``{{"k": N}}`` law; a full JSON parser is only
    needed for open-schema props) and reduce per event type to count /
    sum / min / max / 6dp mean.  Integer sums — exact.

    Plan: per-batch (type, n, s, mn, mx) combiners -> one tiny groupby
    -> driver-final mean."""
    import ray.data as rd
    from ray.data.aggregate import Max, Min, Sum

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "props"]
    )

    def partial(b: pa.Table) -> pa.Table:
        import pandas as pd

        sp = pd.Series(b["props"].to_pylist(), dtype=object)
        kx = sp.str.extract(r'"k":\s*(-?\d+)', expand=False)
        ok = kx.notna().to_numpy()
        k = kx[ok].astype(np.int64).to_numpy()
        et = np.asarray(b["event_type"]).astype(object)[ok]
        df = pd.DataFrame({"event_type": et, "k": k})
        g = df.groupby("event_type", sort=False)["k"].agg(
            ["size", "sum", "min", "max"]
        )
        out = g.reset_index()
        return pa.table(
            {
                "event_type": pa.array(out["event_type"], pa.string()),
                "n": pa.array(out["size"].to_numpy(np.int64)),
                "s": pa.array(out["sum"].to_numpy(np.int64)),
                "mn": pa.array(out["min"].to_numpy(np.int64)),
                "mx": pa.array(out["max"].to_numpy(np.int64)),
            }
        )

    agg = (
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("s", alias_name="s"),
            Min("mn", alias_name="mn"),
            Max("mx", alias_name="mx"),
        )
    )
    tbl = pa.concat_tables(
        t
        for t in agg.iter_batches(batch_size=None, batch_format="pyarrow")
        if t.num_rows
    )
    n = np.asarray(tbl["n"], np.int64)
    s = np.asarray(tbl["s"], np.int64)
    mean = s.astype(np.float64) / n.astype(np.float64)
    mean = np.floor(mean * 1e6 + 0.5) / 1e6
    return pa.table(
        {
            "event_type": tbl["event_type"],
            "n": tbl["n"],
            "sum_k": tbl["s"],
            "min_k": tbl["mn"],
            "max_k": tbl["mx"],
            "mean_k": pa.array(mean),
        }
    )


def _sql_props_stats() -> str:
    return """
WITH e AS (
  SELECT event_type,
         CAST(json_extract_string(props, '$.k') AS BIGINT) AS k
  FROM events
)
SELECT event_type, COUNT(k)::BIGINT AS n, SUM(k)::BIGINT AS sum_k,
       MIN(k)::BIGINT AS min_k, MAX(k)::BIGINT AS max_k,
       ROUND(SUM(k)::DOUBLE / COUNT(k)::DOUBLE * 1e6) / 1e6 AS mean_k
FROM e WHERE k IS NOT NULL
GROUP BY event_type
"""


@query("raster_focal_median", sql=lambda: _sql_raster_focal_median())
def q_raster_focal_median(sf_dir: str):
    """3x3 focal MEDIAN filter over the elevation band (interior pixels,
    nodata excluded from each window, center must be valid): the robust
    smoothing stencil.  Median law = lo + (hi - lo)/2 over the two
    middle order statistics — DuckDB's double MEDIAN exactly.

    Scale shape: the hillshade tile + one-pixel-halo pattern; the
    median is one lane-sort over 9 stacked shifts per tile."""
    import math

    import ray.data as rd

    from ..raster import NODATA, SyntheticRaster

    r = SyntheticRaster(**_RASTER_KW)
    ts = 64
    nxt = math.ceil(r.width / ts)
    nyt = math.ceil(r.height / ts)
    specs = [{"xt": xt, "yt": yt} for yt in range(nyt) for xt in range(nxt)]

    def tile(b: pa.Table) -> pa.Table:
        outs = []
        for xt, yt in zip(
            np.asarray(b["xt"], np.int64), np.asarray(b["yt"], np.int64)
        ):
            row0 = r.height - (int(yt) + 1) * ts
            h = ts + min(row0, 0)
            row0 = max(row0, 0)
            col0 = int(xt) * ts
            if h <= 0 or col0 >= r.width:
                continue
            hr0 = max(row0 - 1, 0)
            hc0 = max(col0 - 1, 0)
            hh = min(row0 + h + 1, r.height) - hr0
            hw = min(col0 + ts + 1, r.width) - hc0
            z = r.read_window("elev", hr0, hc0, hh, hw)
            o_r0 = max(row0, 1)
            o_r1 = min(row0 + h, r.height - 1)
            o_c0 = max(col0, 1)
            o_c1 = min(col0 + ts, r.width - 1)
            if o_r0 >= o_r1 or o_c0 >= o_c1:
                continue
            lr0, lc0 = o_r0 - hr0, o_c0 - hc0
            nh, nw = o_r1 - o_r0, o_c1 - o_c0
            stack = np.stack(
                [
                    z[lr0 + dr : lr0 + dr + nh, lc0 + dc : lc0 + dc + nw]
                    for dr in (-1, 0, 1)
                    for dc in (-1, 0, 1)
                ],
                axis=-1,
            )
            center_ok = stack[:, :, 4] != NODATA
            vals = np.where(stack == NODATA, np.inf, stack)
            vals = np.sort(vals, axis=-1)
            m = (stack != NODATA).sum(axis=-1)
            lo = np.take_along_axis(
                vals, ((np.maximum(m, 1) - 1) // 2)[..., None], -1
            )[..., 0]
            hi = np.take_along_axis(
                vals, (np.maximum(m, 1) // 2)[..., None], -1
            )[..., 0]
            med = lo + (hi - lo) / 2.0
            rr, cc = np.nonzero(center_ok)
            outs.append(
                pa.table(
                    {
                        "x": pa.array(r.x_min + (o_c0 + cc) * r.resolution),
                        "y": pa.array(
                            r.y_min
                            + (r.height - (o_r0 + rr) - 1) * r.resolution
                        ),
                        "med": pa.array(med[rr, cc]),
                    }
                )
            )
        if outs:
            return pa.concat_tables(outs)
        return pa.table(
            {
                "x": pa.array([], pa.float64()),
                "y": pa.array([], pa.float64()),
                "med": pa.array([], pa.float64()),
            }
        )

    from ..cluster import default_num_partitions

    width = max(1, min(len(specs), default_num_partitions(per_cpu=1.0)))
    return rd.from_items(specs).repartition(width).map_batches(
        tile, batch_format="pyarrow", batch_size=4
    )


def _sql_raster_focal_median() -> str:
    from ..raster import _BAND_NODATA_PCT, _BAND_P1, _BAND_P2

    r = _RASTER_KW
    h, w, res = r["height"], r["width"], r["resolution"]
    p1, p2 = _BAND_P1["elev"], _BAND_P2["elev"]
    pct = _BAND_NODATA_PCT["elev"]
    branches = " UNION ALL ".join(
        f"SELECT ri, ci,"
        f" (((ri + {dr}) * {p1} + (ci + {dc}) * {p2}) % 1000)::DOUBLE AS v"
        f" FROM px WHERE (((ri + {dr}) * 7919 + (ci + {dc}) * 104729)"
        f" % 100) >= {pct}"
        for dr in (-1, 0, 1)
        for dc in (-1, 0, 1)
    )
    return f"""
WITH px AS (
  SELECT r.i AS ri, c.i AS ci
  FROM (SELECT UNNEST(generate_series(1, {h - 2})) AS i) r,
       (SELECT UNNEST(generate_series(1, {w - 2})) AS i) c
  WHERE ((r.i * 7919 + c.i * 104729) % 100) >= {pct}
),
win AS ({branches})
SELECT {r["x_min"]!r} + ci * {res!r} AS x,
       {r["y_min"]!r} + ({h} - ri - 1) * {res!r} AS y,
       MEDIAN(v) AS med
FROM win GROUP BY ri, ci
"""


CUSUM_K = 0.5  # CUSUM slack (allowance)


@query("hex_cusum", sql=lambda: _sql_hex_cusum())
def q_hex_cusum(sf_dir: str):
    """CUSUM upward change detection per hex over the observed weekly
    series: S_t = max(0, S_{t-1} + (n_t - mean - 0.5)); per hex the
    peak S, the 1-based ordinal week of the FIRST peak, and the week
    count — hexes with >= 2 active weeks.  6dp.

    Scale shape: the mann_kendall plan — (hex, week) partials, one
    composite aggregate, one coarse bucket pass whose scan loops over
    week ordinals (a handful) vectorized across all hexes."""
    import pandas as pd

    from ..hex import _unpack
    from .relational import _hex_week_counts

    agg = _hex_week_counts(sf_dir, HEX_SIZE)

    def kernel(tb: pa.Table, starts: np.ndarray) -> pd.DataFrame:
        k = np.asarray(tb["hkey"], np.int64)
        n = np.asarray(tb["n"], np.int64)
        L = np.diff(np.append(starts, len(k)))
        seg = np.repeat(np.arange(len(starts)), L)
        mu = np.bincount(seg, weights=n.astype(np.float64)) / L
        lmax = int(L.max()) if len(L) else 0
        S = np.zeros(len(starts))
        best = np.zeros(len(starts))
        # ordinal 1 is the tie-law floor: an all-zero series peaks at t=1
        best_t = np.ones(len(starts), np.int64)
        ord_in = np.arange(len(k)) - starts[seg]
        for t in range(lmax):
            m = ord_in == t
            hexi = seg[m]
            S[hexi] = np.maximum(
                0.0, S[hexi] + (n[m] - mu[hexi] - CUSUM_K)
            )
            better = S[hexi] > best[hexi]
            best[hexi[better]] = S[hexi[better]]
            best_t[hexi[better]] = t + 1
        keep = L >= 2
        hq, hr = _unpack(k[starts][keep])
        r6 = lambda v: np.sign(v) * np.floor(np.abs(v) * 1e6 + 0.5) / 1e6
        return pd.DataFrame(
            {
                "hq": hq,
                "hr": hr,
                "n_weeks": L[keep].astype(np.int64),
                "peak": r6(best[keep]),
                "peak_week": best_t[keep],
            }
        )

    return segment_apply(
        agg,
        "hkey",
        kernel,
        pa.schema(
            {"hq": pa.int64(), "hr": pa.int64(), "n_weeks": pa.int64(),
             "peak": pa.float64(), "peak_week": pa.int64()}
        ),
        order=("week",),
    )


def _sql_hex_cusum() -> str:
    from ..hex import sql_hex_cte
    from ..synth import SQL_X, SQL_Y

    ex = SQL_X.replace("doc_id", "event_id")
    ey = SQL_Y.replace("doc_id", "event_id")
    week_us = 7 * 86_400_000_000
    return f"""
WITH RECURSIVE pts AS (
  SELECT event_id, epoch_us(ts) // {week_us} AS week, {ex} AS x, {ey} AS y
  FROM events
),
{sql_hex_cte(HEX_SIZE)},
m AS (
  SELECT hq, hr, week, COUNT(*)::BIGINT AS n FROM hexed GROUP BY hq, hr, week
),
mo AS (
  SELECT hq, hr, n,
         ROW_NUMBER() OVER (PARTITION BY hq, hr ORDER BY week) AS t
  FROM m
),
st AS (
  SELECT hq, hr, AVG(n::DOUBLE) AS mu, COUNT(*)::BIGINT AS L
  FROM m GROUP BY hq, hr
),
walk(hq, hr, t, s) AS (
  SELECT mo.hq, mo.hr, 1,
         GREATEST(0.0, (mo.n - st.mu - {CUSUM_K!r}))
  FROM mo JOIN st ON st.hq = mo.hq AND st.hr = mo.hr WHERE mo.t = 1
  UNION ALL
  SELECT w.hq, w.hr, w.t + 1,
         GREATEST(0.0, w.s + (mo.n - st.mu - {CUSUM_K!r}))
  FROM walk w
  JOIN mo ON mo.hq = w.hq AND mo.hr = w.hr AND mo.t = w.t + 1
  JOIN st ON st.hq = w.hq AND st.hr = w.hr
)
SELECT w.hq, w.hr, st.L AS n_weeks,
       ROUND(w.s * 1e6) / 1e6 AS peak, w.t::BIGINT AS peak_week
FROM walk w JOIN st ON st.hq = w.hq AND st.hr = w.hr
WHERE st.L >= 2
QUALIFY ROW_NUMBER() OVER (PARTITION BY w.hq, w.hr
                           ORDER BY w.s DESC, w.t ASC) = 1
"""


# ---------------------------------------------------------------------------
# Geary's C + label propagation communities
# ---------------------------------------------------------------------------

LPA_ROUNDS = 8


@query("geary_c", sql=lambda: _sql_geary_c())
def q_geary_c(sf_dir: str):
    """Geary's C spatial autocorrelation of the per-hex doc density
    (the distance-based complement of Moran's I; C < 1 = clustering):
    C = (N-1) * sum_adj (n_i - n_j)^2 / (2 W sum (n_i - mean)^2).
    One row (n_hexes, w_pairs, geary_c 6dp).

    Scale shape: the morans_i scatter plan — density partials, one
    neighbor scatter with self markers, a second hash aggregate; the
    pairwise numerator folds EXACTLY in integers via
    cnt*n^2 - 2n*sum_nbr + sum_nbr^2 per target."""
    import ray.data as rd
    from ray.data.aggregate import Max, Sum

    from ..hex import _NEIGHBORS, _pack, hex_axial

    ds = docs_points(sf_dir)

    def partial(b: pa.Table) -> pa.Table:
        key = _pack(
            *hex_axial(
                np.asarray(b["x"], np.float64),
                np.asarray(b["y"], np.float64),
                HEX_SIZE,
            )
        )
        u, c = np.unique(key, return_counts=True)
        return pa.table({"hkey": u, "n": c.astype(np.int64)})

    dens = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("hkey")
        .aggregate(Sum("n", alias_name="n"))
        .materialize()
    )

    def scatter(b: pa.Table) -> pa.Table:
        from ..hex import _unpack

        q, r = _unpack(np.asarray(b["hkey"], np.int64))
        n = np.asarray(b["n"], np.int64)
        tkeys = [_pack(q + dq, r + dr) for dq, dr in _NEIGHBORS]
        nrep = len(_NEIGHBORS)
        nv = len(n)
        return pa.table(
            {
                "tkey": pa.array(np.concatenate(tkeys + [_pack(q, r)])),
                "nn": pa.array(
                    np.concatenate([np.tile(n, nrep), np.zeros(nv, np.int64)])
                ),
                "nn2": pa.array(
                    np.concatenate(
                        [np.tile(n * n, nrep), np.zeros(nv, np.int64)]
                    )
                ),
                "cnt": pa.array(
                    np.concatenate(
                        [np.ones(nrep * nv, np.int64), np.zeros(nv, np.int64)]
                    )
                ),
                "self_n": pa.array(
                    np.concatenate([np.zeros(nrep * nv, np.int64), n])
                ),
                "is_self": pa.array(
                    np.concatenate(
                        [np.zeros(nrep * nv, np.int64), np.ones(nv, np.int64)]
                    )
                ),
            }
        )

    tgt = (
        dens.map_batches(scatter, batch_format="pyarrow")
        .groupby("tkey")
        .aggregate(
            Sum("nn", alias_name="nn"),
            Sum("nn2", alias_name="nn2"),
            Sum("cnt", alias_name="cnt"),
            Sum("self_n", alias_name="self_n"),
            Max("is_self", alias_name="occupied"),
        )
    )

    def fold(b: pa.Table) -> pa.Table:
        occ = np.asarray(b["occupied"], np.int64) == 1
        nt = np.asarray(b["self_n"], np.int64)[occ]
        nn = np.asarray(b["nn"], np.int64)[occ]
        nn2 = np.asarray(b["nn2"], np.int64)[occ]
        cnt = np.asarray(b["cnt"], np.int64)[occ]
        num = cnt * nt * nt - 2 * nt * nn + nn2  # exact integers
        return pa.table(
            {
                "num": pa.array([int(num.sum())]),
                "w": pa.array([int(cnt.sum())]),
                "k": pa.array([int(occ.sum())]),
                "s": pa.array([int(nt.sum())]),
                "s2": pa.array([int((nt * nt).sum())]),
            }
        )

    tot = tgt.map_batches(fold, batch_format="pyarrow").sum(
        ["num", "w", "k", "s", "s2"]
    )
    num = float(tot["sum(num)"])
    w = float(tot["sum(w)"])
    k = float(tot["sum(k)"])
    s = float(tot["sum(s)"])
    s2 = float(tot["sum(s2)"])
    # sum (n - m)^2 = s2 - s^2/k, all from exact integer sums
    den = s2 - s * s / k
    c = ((k - 1.0) * num) / (2.0 * w * den)
    c = float(np.sign(c) * np.floor(np.abs(c) * 1e6 + 0.5) / 1e6)
    return pa.table(
        {
            "n_hexes": pa.array([int(k)], pa.int64()),
            "w_pairs": pa.array([int(w)], pa.int64()),
            "geary_c": pa.array([c]),
        }
    )


def _sql_geary_c() -> str:
    from ..hex import sql_hex_cte
    from ..synth import sql_points_cte

    return (
        f"WITH pts AS ({sql_points_cte()}), {sql_hex_cte(HEX_SIZE)}, "
        f"d AS (SELECT hq, hr, COUNT(*)::BIGINT AS n FROM hexed"
        f" GROUP BY hq, hr), "
        f"g AS (SELECT COUNT(*)::BIGINT AS k, SUM(n)::BIGINT AS s,"
        f" SUM(n * n)::BIGINT AS s2 FROM d), "
        f"off(dq, dr) AS (VALUES (1,0),(1,-1),(0,-1),(-1,0),(-1,1),(0,1)), "
        f"e AS (SELECT a.n AS na, b.n AS nb FROM d a CROSS JOIN off o"
        f" JOIN d b ON b.hq = a.hq + o.dq AND b.hr = a.hr + o.dr), "
        f"p AS (SELECT SUM((na - nb) * (na - nb))::BIGINT AS num,"
        f" COUNT(*)::BIGINT AS w FROM e) "
        f"SELECT g.k AS n_hexes, p.w AS w_pairs,"
        f" ROUND((((g.k::DOUBLE - 1.0) * p.num::DOUBLE)"
        f" / (2.0 * p.w::DOUBLE"
        f" * (g.s2::DOUBLE - g.s::DOUBLE * g.s::DOUBLE / g.k::DOUBLE)))"
        f" * 1e6) / 1e6 AS geary_c"
        f" FROM g CROSS JOIN p"
    )


@query("label_prop", sql=lambda: _sql_label_prop())
def q_label_prop(sf_dir: str):
    """Label-propagation communities on the supplier<->part bipartite
    graph: labels start as node ids; {LPA_ROUNDS} SYNCHRONOUS rounds of
    'adopt the most frequent neighbor label, tie -> smallest' (the op is
    defined by the fixed round count, so engine and oracle agree at any
    sf).  Output per community: (community, n_nodes).

    Scale shape: raw-count gated like kcore — driver-final distinct +
    vectorized mode rounds at or below the edge gate, and
    graph.label_prop_membership's sharded path above it (labels in a
    node-scale Dataset, one join + coarse count/argmax per round)."""
    import ray.data as rd

    from ..graph import (
        distinct_int_pairs,
        distinct_int_pairs_table,
        label_prop_membership,
    )

    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_suppkey", "l_partkey"]
    )

    def mirror(b: pa.Table) -> pa.Table:
        a = np.asarray(b["l_suppkey"], np.int64)
        bb = np.asarray(b["l_partkey"], np.int64) + KCORE_POFF
        return pa.table(
            {
                "a": pa.array(np.concatenate([a, bb])),
                "b": pa.array(np.concatenate([bb, a])),
            }
        )

    if line.count() <= KCORE_EDGE_GATE:
        tbl = distinct_int_pairs_table(line, "l_suppkey", "l_partkey")
        edges = rd.from_arrow(mirror(tbl))
        out = label_prop_membership(
            edges, rounds=LPA_ROUNDS, local_max_edges=1 << 62
        )
    else:
        edges = distinct_int_pairs(
            line, "l_suppkey", "l_partkey"
        ).map_batches(mirror, batch_format="pyarrow")
        out = label_prop_membership(
            edges, rounds=LPA_ROUNDS, local_max_edges=0
        )
    return out


def _sql_label_prop() -> str:
    parts = [
        (
            "ed AS (SELECT DISTINCT l_suppkey AS a,"
            f" l_partkey + {KCORE_POFF} AS b FROM lineitem)"
        ),
        "edges AS (SELECT a, b FROM ed UNION ALL SELECT b, a FROM ed)",
        "l0 AS (SELECT DISTINCT a AS n, a AS lab FROM edges)",
    ]
    for i in range(1, LPA_ROUNDS + 1):
        parts.append(
            f"l{i} AS MATERIALIZED (SELECT n, lab FROM ("
            f"SELECT e.a AS n, l.lab AS lab, COUNT(*) AS c"
            f" FROM edges e JOIN l{i - 1} l ON l.n = e.b"
            f" GROUP BY e.a, l.lab)"
            f" QUALIFY ROW_NUMBER() OVER (PARTITION BY n"
            f" ORDER BY c DESC, lab ASC) = 1)"
        )
    return (
        "WITH "
        + ", ".join(parts)
        + f" SELECT lab AS community, COUNT(*)::BIGINT AS n_nodes"
        f" FROM l{LPA_ROUNDS} GROUP BY lab"
    )


# ---------------------------------------------------------------------------
# IPF (Furness balancing) of the region OD matrix
# ---------------------------------------------------------------------------

IPF_ITERS = 6
IPF_RW = 500_000.0 / 3.0
IPF_RH = 501_000.0 / 3.0


@query("ipf_balance", sql=lambda: _sql_ipf_balance())
def q_ipf_balance(sf_dir: str):
    """Iterative proportional fitting (the Furness method) of the 3x3
    region OD matrix to UNIFORM target margins: per user one flow from
    the region of the first event to the region of the last; 6 rounds of
    row-then-column scaling toward total/9 per margin (zero margins keep
    their zeros — the guard is part of the law).  Rows (o_region,
    d_region, n, flow 6dp) over observed OD cells.

    Scale shape: one user-hash bucket pass collapses events to per-user
    endpoints; the 81-cell matrix balances on the driver (margins are
    region-scale — the broadcast-state superstep path at finer
    partitions)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts"]
    )

    def tag(b: pa.Table) -> pa.Table:
        uid = np.asarray(b["user_id"], np.int64)
        eid = np.asarray(pc.cast(b["event_id"], pa.int64()))
        x, y = derive_xy(eid)
        reg = (
            np.floor(x / IPF_RW).astype(np.int64) * 3
            + np.floor(y / IPF_RH).astype(np.int64)
        )
        return pa.table(
            {
                "user_id": pa.array(uid),
                "event_id": pa.array(eid),
                "us": pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64()),
                "reg": pa.array(reg),
            }
        )

    def kernel(t: pa.Table, starts: np.ndarray) -> dict:
        reg = np.asarray(t["reg"], np.int64)
        last = np.append(starts[1:], len(reg)) - 1
        u, c = np.unique(reg[starts] * 9 + reg[last], return_counts=True)
        return {"od": u, "n": c}

    flows = (
        segment_apply(
            ds.map_batches(tag, batch_format="pyarrow"),
            "user_id",
            kernel,
            pa.schema({"od": pa.int64(), "n": pa.int64()}),
            order=("us", "event_id"),
        )
        .groupby("od")
        .aggregate(Sum("n", alias_name="n"))
    )
    tbl = pa.concat_tables(flows.iter_batches(batch_size=None, batch_format="pyarrow"))
    od = np.asarray(tbl["od"], np.int64)
    n = np.asarray(tbl["n"], np.int64)
    M = np.zeros((3 * 3, 3 * 3))
    M[od // 9, od % 9] = n.astype(np.float64)
    T = float(n.sum()) / 9.0
    for _ in range(IPF_ITERS):
        rs = M.sum(axis=1)
        fac = np.where(rs > 0.0, T / np.where(rs > 0.0, rs, 1.0), 0.0)
        M = M * fac[:, None]
        cs = M.sum(axis=0)
        fac = np.where(cs > 0.0, T / np.where(cs > 0.0, cs, 1.0), 0.0)
        M = M * fac[None, :]
    oo, dd = od // 9, od % 9
    f = M[oo, dd]
    f = np.sign(f) * np.floor(np.abs(f) * 1e6 + 0.5) / 1e6
    order = np.argsort(od)
    return pa.table(
        {
            "o_region": pa.array(oo[order], pa.int64()),
            "d_region": pa.array(dd[order], pa.int64()),
            "n": pa.array(n[order]),
            "flow": pa.array(f[order]),
        }
    )


def _sql_ipf_balance() -> str:
    from ..synth import SQL_X, SQL_Y

    ex = SQL_X.replace("doc_id", "event_id")
    ey = SQL_Y.replace("doc_id", "event_id")
    reg = (
        f"(CAST(FLOOR(({ex}) / {IPF_RW!r}) AS BIGINT) * 3"
        f" + CAST(FLOOR(({ey}) / {IPF_RH!r}) AS BIGINT))"
    )
    parts = [
        (
            f"pe AS (SELECT user_id, {reg} AS region,"
            f" ROW_NUMBER() OVER (PARTITION BY user_id"
            f" ORDER BY ts, event_id) AS rn_a,"
            f" ROW_NUMBER() OVER (PARTITION BY user_id"
            f" ORDER BY ts DESC, event_id DESC) AS rn_d"
            f" FROM events)"
        ),
        (
            "m0 AS (SELECT a.region AS o, z.region AS d,"
            " COUNT(*)::BIGINT AS n, COUNT(*)::DOUBLE AS f"
            " FROM pe a JOIN pe z USING (user_id)"
            " WHERE a.rn_a = 1 AND z.rn_d = 1"
            " GROUP BY a.region, z.region)"
        ),
        "t AS (SELECT SUM(n)::DOUBLE / 9.0 AS tt FROM m0)",
    ]
    k = 0
    for _ in range(IPF_ITERS):
        k += 1
        parts.append(
            f"m{k} AS MATERIALIZED (SELECT o, d, n,"
            f" f * (CASE WHEN SUM(f) OVER (PARTITION BY o) > 0.0"
            f" THEN t.tt / SUM(f) OVER (PARTITION BY o)"
            f" ELSE 0.0 END) AS f FROM m{k - 1} CROSS JOIN t)"
        )
        k += 1
        parts.append(
            f"m{k} AS MATERIALIZED (SELECT o, d, n,"
            f" f * (CASE WHEN SUM(f) OVER (PARTITION BY d) > 0.0"
            f" THEN t.tt / SUM(f) OVER (PARTITION BY d)"
            f" ELSE 0.0 END) AS f FROM m{k - 1} CROSS JOIN t)"
        )
    return (
        "WITH "
        + ", ".join(parts)
        + f" SELECT o AS o_region, d AS d_region, n,"
        f" ROUND(f * 1e6) / 1e6 AS flow FROM m{k}"
        f" ORDER BY o_region, d_region"
    )


# ---------------------------------------------------------------------------
# region-week independence test + movement entropy
# ---------------------------------------------------------------------------


@query("region_week_chi2", sql=lambda: _sql_region_week_chi2())
def q_region_week_chi2(sf_dir: str):
    """Chi-square test of independence between event region (3x3) and
    epoch week: observed vs expected = row_total * col_total / N over
    the contingency table; one row (n, n_regions, n_weeks, chi2 6dp).

    Scale shape: composite (region, week) integer combiners -> a tiny
    contingency table folds on the driver."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    WEEK_US = 7 * 86_400_000_000

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts"]
    )

    def partial(b: pa.Table) -> pa.Table:
        eid = np.asarray(pc.cast(b["event_id"], pa.int64()))
        us = np.asarray(
            pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64())
        )
        x, y = derive_xy(eid)
        reg = (
            np.floor(x / IPF_RW).astype(np.int64) * 3
            + np.floor(y / IPF_RH).astype(np.int64)
        )
        week = us // WEEK_US
        key = reg * 1_000_000 + week
        u, c = np.unique(key, return_counts=True)
        return pa.table({"rw": u, "n": c.astype(np.int64)})

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("rw")
        .aggregate(Sum("n", alias_name="n"))
    )
    tbl = pa.concat_tables(agg.iter_batches(batch_size=None, batch_format="pyarrow"))
    rw = np.asarray(tbl["rw"], np.int64)
    n = np.asarray(tbl["n"], np.int64)
    reg = rw // 1_000_000
    week = rw % 1_000_000
    regs, ri = np.unique(reg, return_inverse=True)
    weeks, wi = np.unique(week, return_inverse=True)
    row = np.bincount(ri, weights=n, minlength=len(regs))
    col = np.bincount(wi, weights=n, minlength=len(weeks))
    tot = float(n.sum())
    # chi2 over OBSERVED cells plus the zero cells' expected mass:
    # sum (o - e)^2 / e  =  sum_obs (o - e)^2 / e + sum_zero e
    e_obs = row[ri] * col[wi] / tot
    chi = float(((n - e_obs) * (n - e_obs) / e_obs).sum())
    chi += float((row.sum() * col.sum() / tot) - e_obs.sum())
    chi = float(np.sign(chi) * np.floor(np.abs(chi) * 1e6 + 0.5) / 1e6)
    return pa.table(
        {
            "n": pa.array([int(tot)], pa.int64()),
            "n_regions": pa.array([len(regs)], pa.int64()),
            "n_weeks": pa.array([len(weeks)], pa.int64()),
            "chi2": pa.array([chi]),
        }
    )


def _sql_region_week_chi2() -> str:
    from ..synth import SQL_X, SQL_Y

    ex = SQL_X.replace("doc_id", "event_id")
    ey = SQL_Y.replace("doc_id", "event_id")
    week_us = 7 * 86_400_000_000
    reg = (
        f"(CAST(FLOOR(({ex}) / {IPF_RW!r}) AS BIGINT) * 3"
        f" + CAST(FLOOR(({ey}) / {IPF_RH!r}) AS BIGINT))"
    )
    return f"""
WITH pts AS (
  SELECT {reg} AS reg, epoch_us(ts) // {week_us} AS week FROM events
),
o AS (SELECT reg, week, COUNT(*)::BIGINT AS n FROM pts GROUP BY reg, week),
r AS (SELECT reg, SUM(n)::DOUBLE AS rn FROM o GROUP BY reg),
c AS (SELECT week, SUM(n)::DOUBLE AS cn FROM o GROUP BY week),
t AS (SELECT SUM(n)::DOUBLE AS tot FROM o),
obs AS (
  SELECT SUM((o.n - r.rn * c.cn / t.tot) * (o.n - r.rn * c.cn / t.tot)
             / (r.rn * c.cn / t.tot)) AS chi_obs,
         SUM(r.rn * c.cn / t.tot) AS e_obs
  FROM o JOIN r USING (reg) JOIN c USING (week) CROSS JOIN t
)
SELECT CAST(t.tot AS BIGINT) AS n,
       (SELECT COUNT(*) FROM r)::BIGINT AS n_regions,
       (SELECT COUNT(*) FROM c)::BIGINT AS n_weeks,
       ROUND((obs.chi_obs
              + ((SELECT SUM(rn) FROM r) * (SELECT SUM(cn) FROM c) / t.tot
                 - obs.e_obs)) * 1e6) / 1e6 AS chi2
FROM obs CROSS JOIN t
"""


@query("movement_entropy", sql=lambda: _sql_movement_entropy())
def q_movement_entropy(sf_dir: str):
    """Conditional movement entropy H(next region | current region) of
    the per-user region sequences (natural log): counts over observed
    region transitions, H = -sum p(x,y) ln(n_xy / n_x).  One row
    (n_transitions, n_states, h 6dp) — low H = predictable mobility.

    Scale shape: the one-coarse-bucket trajectory plan emitting integer
    (from, to) transition combiners; the 81-cell table folds on the
    driver."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts"]
    )

    def tag(b: pa.Table) -> pa.Table:
        uid = np.asarray(b["user_id"], np.int64)
        eid = np.asarray(pc.cast(b["event_id"], pa.int64()))
        x, y = derive_xy(eid)
        reg = (
            np.floor(x / IPF_RW).astype(np.int64) * 3
            + np.floor(y / IPF_RH).astype(np.int64)
        )
        return pa.table(
            {
                "user_id": pa.array(uid),
                "event_id": pa.array(eid),
                "us": pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64()),
                "reg": pa.array(reg),
            }
        )

    def kernel(t: pa.Table, starts: np.ndarray) -> dict:
        uid = np.asarray(t["user_id"], np.int64)
        reg = np.asarray(t["reg"], np.int64)
        same = uid[1:] == uid[:-1]
        u, c = np.unique(reg[:-1][same] * 9 + reg[1:][same], return_counts=True)
        return {"ft": u, "n": c}

    agg = (
        segment_apply(
            ds.map_batches(tag, batch_format="pyarrow"),
            "user_id",
            kernel,
            pa.schema({"ft": pa.int64(), "n": pa.int64()}),
            order=("us", "event_id"),
        )
        .groupby("ft")
        .aggregate(Sum("n", alias_name="n"))
    )
    tbl = pa.concat_tables(agg.iter_batches(batch_size=None, batch_format="pyarrow"))
    ft = np.asarray(tbl["ft"], np.int64)
    n = np.asarray(tbl["n"], np.int64)
    frm = ft // 9
    states, fi = np.unique(frm, return_inverse=True)
    row = np.bincount(fi, weights=n, minlength=len(states))
    tot = float(n.sum())
    h = float(-(n / tot * np.log(n / row[fi])).sum())
    h = float(np.sign(h) * np.floor(np.abs(h) * 1e6 + 0.5) / 1e6)
    return pa.table(
        {
            "n_transitions": pa.array([int(tot)], pa.int64()),
            "n_states": pa.array([len(states)], pa.int64()),
            "h": pa.array([h]),
        }
    )


def _sql_movement_entropy() -> str:
    from ..synth import SQL_X, SQL_Y

    ex = SQL_X.replace("doc_id", "event_id")
    ey = SQL_Y.replace("doc_id", "event_id")
    reg = (
        f"(CAST(FLOOR(({ex}) / {IPF_RW!r}) AS BIGINT) * 3"
        f" + CAST(FLOOR(({ey}) / {IPF_RH!r}) AS BIGINT))"
    )
    return f"""
WITH pts AS (
  SELECT user_id, event_id, epoch_us(ts) AS us, {reg} AS reg FROM events
),
tr AS (
  SELECT LAG(reg) OVER w AS f, reg AS t2
  FROM pts WINDOW w AS (PARTITION BY user_id ORDER BY us, event_id)
  QUALIFY LAG(reg) OVER w IS NOT NULL
),
o AS (SELECT f, t2, COUNT(*)::BIGINT AS n FROM tr GROUP BY f, t2),
r AS (SELECT f, SUM(n)::DOUBLE AS rn FROM o GROUP BY f),
t AS (SELECT SUM(n)::DOUBLE AS tot FROM o)
SELECT CAST(t.tot AS BIGINT) AS n_transitions,
       (SELECT COUNT(*) FROM r)::BIGINT AS n_states,
       ROUND((-(SELECT SUM(o.n / t2_.tot * ln(o.n / r.rn))
                FROM o JOIN r USING (f) CROSS JOIN t t2_)) * 1e6) / 1e6 AS h
FROM t
"""


def _anova_f_from_groups(ng, sg, qg):
    """Shared one-way-ANOVA driver fold: exact integer per-group
    (n, sum, sumsq) -> F.  The only float summation is the k-term
    sum of sg^2/ng (k tiny), whose ulp error is orders of magnitude
    below the 6dp rounding step — same budget as region_week_chi2.
    Returns (n, k, f_or_None)."""
    n = int(sum(int(v) for v in ng))
    k = len(ng)
    s = sum(int(v) for v in sg)
    sq = sum(int(v) for v in qg)
    tt = 0.0
    for sv, nv in zip(sg, ng):
        tt += float(int(sv) * int(sv)) / float(int(nv))
    ssb = tt - float(s * s) / float(n)
    ssw = float(sq) - tt
    if k < 2 or n <= k or ssw <= 0:
        return n, k, None
    f = (ssb / float(k - 1)) / (ssw / float(n - k))
    f = float(np.sign(f) * np.floor(np.abs(f) * 1e6 + 0.5) / 1e6)
    return n, k, f


_SQL_ANOVA_TAIL = """
SELECT n, k,
       CASE WHEN k >= 2 AND n > k AND (q::DOUBLE - tt) > 0 THEN
         ROUND(((tt - (s*s)::DOUBLE / n::DOUBLE) / (k - 1)::DOUBLE)
               / ((q::DOUBLE - tt) / (n - k)::DOUBLE) * 1e6) / 1e6
       ELSE NULL END AS f
FROM t
"""


@query("anova_f", sql=lambda: _sql_anova_f())
def q_anova_f(sf_dir: str):
    """One-way ANOVA F test: does order value differ across the five
    o_orderpriority classes?  Values quantized to whole dollars
    (ROUND half-away, both sides), so every per-group (n, sum, sumsq)
    is an exact int64; F folds from five exact terms on the driver.

    Scale shape: reduceat combiners inside map_batches -> a k-row
    groupby -> closed-form driver fold; nothing wide."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderpriority", "o_totalprice"],
    )

    def partial(b: pa.Table) -> pa.Table:
        g = np.asarray(b["o_orderpriority"]).astype(str)
        x = np.floor(
            np.asarray(b["o_totalprice"], np.float64) + 0.5
        ).astype(np.int64)
        if not len(x):
            return pa.table(
                {"g": pa.array([], pa.string()),
                 "n": pa.array([], pa.int64()),
                 "s": pa.array([], pa.int64()),
                 "q": pa.array([], pa.int64())}
            )
        keys, inv = np.unique(g, return_inverse=True)
        order = np.argsort(inv, kind="stable")
        xi, gi = x[order], inv[order]
        starts = np.flatnonzero(
            np.concatenate([[True], gi[1:] != gi[:-1]])
        )
        return pa.table(
            {
                "g": pa.array(keys[gi[starts]], pa.string()),
                "n": pa.array(
                    np.diff(np.append(starts, len(xi))).astype(np.int64)
                ),
                "s": pa.array(np.add.reduceat(xi, starts)),
                "q": pa.array(np.add.reduceat(xi * xi, starts)),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("g")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("s", alias_name="s"),
            Sum("q", alias_name="q"),
        )
    )
    tbl = pa.concat_tables(
        t
        for t in agg.iter_batches(batch_size=None, batch_format="pyarrow")
        if t.num_rows
    )
    gk = np.asarray(tbl["g"]).astype(object)
    order = np.argsort(gk.astype(str))
    ng = np.asarray(tbl["n"], np.int64)[order]
    sg = np.asarray(tbl["s"], np.int64)[order]
    qg = np.asarray(tbl["q"], np.int64)[order]
    n, k, f = _anova_f_from_groups(ng, sg, qg)
    return pa.table(
        {
            "n": pa.array([n], pa.int64()),
            "k": pa.array([k], pa.int64()),
            "f": pa.array([f], pa.float64()),
        }
    )


def _sql_anova_f() -> str:
    return f"""
WITH v AS (
  SELECT o_orderpriority AS g,
         CAST(ROUND(o_totalprice) AS BIGINT) AS x
  FROM orders
),
gr AS (
  SELECT g, COUNT(*)::BIGINT AS n, SUM(x) AS s, SUM(x*x) AS q
  FROM v GROUP BY g
),
t AS (
  SELECT SUM(n)::BIGINT AS n, COUNT(*)::BIGINT AS k,
         SUM(s) AS s, SUM(q) AS q,
         SUM((s*s)::DOUBLE / n::DOUBLE) AS tt
  FROM gr
)
{_SQL_ANOVA_TAIL}
"""


@query("ks_test", sql=lambda: _sql_ks_test())
def q_ks_test(sf_dir: str):
    """Two-sample Kolmogorov-Smirnov: D = max |ECDF_en - ECDF_rest|
    over document length (n_chars) — the distribution-shape companion
    of q_mann_whitney (which only sees location).  D's numerator
    max|cp*n2 - cq*n1| is an exact int64 on both sides; D and the
    scaled statistic ks = D*sqrt(n1*n2/(n1+n2)) are single fixed-order
    float expressions, rounded 6dp.

    Scale shape: the mann_whitney per-value combiner -> Sum groupby on
    the bounded score domain -> exact driver cumsum."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["n_chars", "lang"]
    )

    def partial(b: pa.Table) -> pa.Table:
        sc = np.asarray(b["n_chars"], np.int64)
        pos = (np.asarray(b["lang"]).astype(object) == "en").astype(np.int64)
        if not len(sc):
            return pa.table(
                {"sc": pa.array([], pa.int64()),
                 "p": pa.array([], pa.int64()),
                 "q": pa.array([], pa.int64())}
            )
        order = np.argsort(sc, kind="stable")
        sc, pos = sc[order], pos[order]
        starts = np.flatnonzero(np.concatenate([[True], sc[1:] != sc[:-1]]))
        p = np.add.reduceat(pos, starts)
        tot = np.diff(np.append(starts, len(sc)))
        return pa.table(
            {"sc": pa.array(sc[starts]), "p": pa.array(p),
             "q": pa.array(tot - p)}
        )

    agg = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("sc")
        .aggregate(Sum("p", alias_name="p"), Sum("q", alias_name="q"))
    )
    tbl = pa.concat_tables(
        t
        for t in agg.iter_batches(batch_size=None, batch_format="pyarrow")
        if t.num_rows
    )
    sc = np.asarray(tbl["sc"], np.int64)
    order = np.argsort(sc)
    p = np.asarray(tbl["p"], np.int64)[order]
    q = np.asarray(tbl["q"], np.int64)[order]
    n1, n2 = int(p.sum()), int(q.sum())
    cp, cq = np.cumsum(p), np.cumsum(q)
    dnum = int(np.abs(cp * n2 - cq * n1).max()) if len(p) else 0
    if n1 > 0 and n2 > 0:
        d = float(dnum) / float(n1 * n2)
        ks = (
            float(dnum) / float(n1 * n2)
            * np.sqrt(float(n1) * float(n2) / float(n1 + n2))
        )
        d = float(np.floor(d * 1e6 + 0.5) / 1e6)
        ks = float(np.floor(ks * 1e6 + 0.5) / 1e6)
    else:
        d = ks = None
    return pa.table(
        {
            "n_en": pa.array([n1], pa.int64()),
            "n_rest": pa.array([n2], pa.int64()),
            "d": pa.array([d], pa.float64()),
            "ks": pa.array([ks], pa.float64()),
        }
    )


def _sql_ks_test() -> str:
    return """
WITH s AS (
  SELECT n_chars AS sc, CASE WHEN lang = 'en' THEN 1 ELSE 0 END AS y
  FROM documents
),
c AS (
  SELECT sc, SUM(y)::BIGINT AS p, COUNT(*)::BIGINT - SUM(y)::BIGINT AS q
  FROM s GROUP BY sc
),
t AS (SELECT SUM(p)::BIGINT AS n1, SUM(q)::BIGINT AS n2 FROM c),
w AS (
  SELECT SUM(p) OVER (ORDER BY sc) AS cp,
         SUM(q) OVER (ORDER BY sc) AS cq
  FROM c
),
m AS (
  SELECT MAX(ABS(cp * t.n2 - cq * t.n1))::BIGINT AS dnum
  FROM w CROSS JOIN t
)
SELECT t.n1 AS n_en, t.n2 AS n_rest,
       CASE WHEN t.n1 > 0 AND t.n2 > 0 THEN
         ROUND(m.dnum::DOUBLE / (t.n1 * t.n2)::DOUBLE * 1e6) / 1e6
       ELSE NULL END AS d,
       CASE WHEN t.n1 > 0 AND t.n2 > 0 THEN
         ROUND(m.dnum::DOUBLE / (t.n1 * t.n2)::DOUBLE
               * sqrt(t.n1::DOUBLE * t.n2::DOUBLE
                      / (t.n1 + t.n2)::DOUBLE) * 1e6) / 1e6
       ELSE NULL END AS ks
FROM m CROSS JOIN t
"""


@query("brown_forsythe", sql=lambda: _sql_brown_forsythe())
def q_brown_forsythe(sf_dir: str):
    """Brown-Forsythe homogeneity-of-variance test: one-way ANOVA F on
    z = |n_chars - median(lang)| across document languages.  The group
    median is the explicit lower-median law (min value whose cumulative
    count reaches (n+1)//2) so z is an exact integer on both sides; the
    F fold reuses _anova_f_from_groups.

    Scale shape: per-(lang, value) count combiners over the bounded
    n_chars domain -> small groupby -> driver fold (medians + F) on the
    (langs x values) table only."""
    import pandas as pd
    import ray.data as rd
    from ray.data.aggregate import Sum

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["n_chars", "lang"]
    )

    def partial(b: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {"g": np.asarray(b["lang"]).astype(object),
             "v": np.asarray(b["n_chars"], np.int64)}
        )
        out = df.groupby(["g", "v"], sort=False).size().reset_index(name="n")
        out["n"] = out["n"].astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    agg = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby(["g", "v"])
        .aggregate(Sum("n", alias_name="n"))
    )
    tbl = pa.concat_tables(
        t
        for t in agg.iter_batches(batch_size=None, batch_format="pyarrow")
        if t.num_rows
    )
    gk = np.asarray(tbl["g"]).astype(str)
    v = np.asarray(tbl["v"], np.int64)
    n = np.asarray(tbl["n"], np.int64)
    langs = np.unique(gk)
    ng_l, sz_l, qz_l = [], [], []
    for lang in langs:
        sel = gk == lang
        vv, nn = v[sel], n[sel]
        o = np.argsort(vv)
        vv, nn = vv[o], nn[o]
        cum = np.cumsum(nn)
        tot = int(cum[-1])
        rank = (tot + 1) // 2
        med = int(vv[np.searchsorted(cum, rank, side="left")])
        z = np.abs(vv - med)
        ng_l.append(tot)
        sz_l.append(int((nn * z).sum()))
        qz_l.append(int((nn * z * z).sum()))
    nt, k, f = _anova_f_from_groups(ng_l, sz_l, qz_l)
    return pa.table(
        {
            "n": pa.array([nt], pa.int64()),
            "k": pa.array([k], pa.int64()),
            "f": pa.array([f], pa.float64()),
        }
    )


def _sql_brown_forsythe() -> str:
    return f"""
WITH c AS (
  SELECT lang AS g, n_chars AS v, COUNT(*)::BIGINT AS n
  FROM documents GROUP BY g, v
),
w AS (
  SELECT g, v, n,
         SUM(n) OVER (PARTITION BY g ORDER BY v) AS cum,
         SUM(n) OVER (PARTITION BY g) AS ng
  FROM c
),
med AS (
  SELECT g, MIN(v) AS med FROM w WHERE cum >= (ng + 1) // 2 GROUP BY g
),
z AS (
  SELECT c.g, ABS(c.v - med.med)::BIGINT AS z, c.n
  FROM c JOIN med USING (g)
),
gr AS (
  SELECT g, SUM(n)::BIGINT AS n, SUM(n*z) AS s, SUM(n*z*z) AS q
  FROM z GROUP BY g
),
t AS (
  SELECT SUM(n)::BIGINT AS n, COUNT(*)::BIGINT AS k,
         SUM(s) AS s, SUM(q) AS q,
         SUM((s*s)::DOUBLE / n::DOUBLE) AS tt
  FROM gr
)
{_SQL_ANOVA_TAIL}
"""


@query("welch_t", sql=lambda: _sql_welch_t())
def q_welch_t(sf_dir: str):
    """Welch's unequal-variance t-test on document length (n_chars),
    lang='en' vs the rest — the parametric companion of q_mann_whitney.
    Per-side (n, sum, sumsq) are exact int64; t and the
    Welch-Satterthwaite df are single fixed-order float expressions
    mirrored verbatim in the SQL twin, rounded 6dp.

    Scale shape: one reduceat combiner -> 2-row groupby -> driver
    closed form."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["n_chars", "lang"]
    )

    def partial(b: pa.Table) -> pa.Table:
        x = np.asarray(b["n_chars"], np.int64)
        g = (np.asarray(b["lang"]).astype(object) == "en").astype(np.int64)
        if not len(x):
            return pa.table(
                {"g": pa.array([], pa.int64()),
                 "n": pa.array([], pa.int64()),
                 "s": pa.array([], pa.int64()),
                 "q": pa.array([], pa.int64())}
            )
        order = np.argsort(g, kind="stable")
        xi, gi = x[order], g[order]
        starts = np.flatnonzero(np.concatenate([[True], gi[1:] != gi[:-1]]))
        return pa.table(
            {
                "g": pa.array(gi[starts]),
                "n": pa.array(
                    np.diff(np.append(starts, len(xi))).astype(np.int64)
                ),
                "s": pa.array(np.add.reduceat(xi, starts)),
                "q": pa.array(np.add.reduceat(xi * xi, starts)),
            }
        )

    agg = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("g")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("s", alias_name="s"),
            Sum("q", alias_name="q"),
        )
    )
    tbl = pa.concat_tables(
        t
        for t in agg.iter_batches(batch_size=None, batch_format="pyarrow")
        if t.num_rows
    )
    gk = np.asarray(tbl["g"], np.int64)
    nn = np.asarray(tbl["n"], np.int64)
    ss = np.asarray(tbl["s"], np.int64)
    qq = np.asarray(tbl["q"], np.int64)
    stat = {int(k): (int(n), int(s), int(q))
            for k, n, s, q in zip(gk, nn, ss, qq)}
    n1, s1, q1 = stat.get(1, (0, 0, 0))
    n2, s2, q2 = stat.get(0, (0, 0, 0))
    if n1 > 1 and n2 > 1:
        v1 = (float(q1) - float(s1 * s1) / float(n1)) / float(n1 - 1)
        v2 = (float(q2) - float(s2 * s2) / float(n2)) / float(n2 - 1)
        se2 = v1 / float(n1) + v2 / float(n2)
        t = (float(s1) / float(n1) - float(s2) / float(n2)) / np.sqrt(se2)
        df = se2 * se2 / (
            (v1 / float(n1)) * (v1 / float(n1)) / float(n1 - 1)
            + (v2 / float(n2)) * (v2 / float(n2)) / float(n2 - 1)
        )
        t = float(np.sign(t) * np.floor(np.abs(t) * 1e6 + 0.5) / 1e6)
        df = float(np.floor(df * 1e6 + 0.5) / 1e6)
    else:
        t = df = None
    return pa.table(
        {
            "n_en": pa.array([n1], pa.int64()),
            "n_rest": pa.array([n2], pa.int64()),
            "t": pa.array([t], pa.float64()),
            "df": pa.array([df], pa.float64()),
        }
    )


def _sql_welch_t() -> str:
    return """
WITH s AS (
  SELECT n_chars AS x, CASE WHEN lang = 'en' THEN 1 ELSE 0 END AS g
  FROM documents
),
gr AS (
  SELECT g, COUNT(*)::BIGINT AS n, SUM(x) AS s, SUM(x*x) AS q
  FROM s GROUP BY g
),
t AS (
  SELECT
    (SELECT n FROM gr WHERE g = 1) AS n1,
    (SELECT s FROM gr WHERE g = 1) AS s1,
    (SELECT q FROM gr WHERE g = 1) AS q1,
    (SELECT n FROM gr WHERE g = 0) AS n2,
    (SELECT s FROM gr WHERE g = 0) AS s2,
    (SELECT q FROM gr WHERE g = 0) AS q2
),
v AS (
  SELECT n1, n2,
         (q1::DOUBLE - (s1*s1)::DOUBLE / n1::DOUBLE) / (n1 - 1)::DOUBLE AS v1,
         (q2::DOUBLE - (s2*s2)::DOUBLE / n2::DOUBLE) / (n2 - 1)::DOUBLE AS v2,
         s1::DOUBLE / n1::DOUBLE AS m1, s2::DOUBLE / n2::DOUBLE AS m2
  FROM t WHERE n1 > 1 AND n2 > 1
)
SELECT n1 AS n_en, n2 AS n_rest,
       ROUND((m1 - m2) / sqrt(v1 / n1::DOUBLE + v2 / n2::DOUBLE) * 1e6)
         / 1e6 AS t,
       ROUND((v1 / n1::DOUBLE + v2 / n2::DOUBLE)
             * (v1 / n1::DOUBLE + v2 / n2::DOUBLE)
             / ((v1 / n1::DOUBLE) * (v1 / n1::DOUBLE) / (n1 - 1)::DOUBLE
                + (v2 / n2::DOUBLE) * (v2 / n2::DOUBLE) / (n2 - 1)::DOUBLE)
             * 1e6) / 1e6 AS df
FROM v
"""


@query("wilcoxon_signed", sql=lambda: _sql_wilcoxon_signed())
def q_wilcoxon_signed(sf_dir: str):
    """Wilcoxon signed-rank test on the paired daily counts of 'click'
    vs 'view' events (days where both types occur; zero differences
    dropped).  2*W+ folds exactly over the |d|-value count table
    (tie-averaged ranks are integer halves, as in q_mann_whitney); z
    uses the tie-corrected normal approximation, 6dp.

    Scale shape: the kendall_tau per-(type, day) combiner -> Sum
    groupby -> driver closed form over the bounded |d| domain."""
    import pandas as pd
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .relational import DAY_US

    ev = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts"]
    ).filter(expr="event_type == 'click' or event_type == 'view'")

    def partial(b: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64())
        day = np.asarray(us, np.int64) // DAY_US
        df = pd.DataFrame(
            {"event_type": np.asarray(b["event_type"]).astype(object),
             "d": day}
        )
        g = df.groupby(["event_type", "d"], sort=False).size()
        out = g.reset_index(name="n")
        out["n"] = out["n"].astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    counts = (
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "d"])
        .aggregate(Sum("n", alias_name="n"))
    )
    tbl = pa.concat_tables(
        t
        for t in counts.iter_batches(batch_size=None, batch_format="pyarrow")
        if t.num_rows
    )
    et = np.asarray(tbl["event_type"]).astype(object)
    d = np.asarray(tbl["d"], np.int64)
    n = np.asarray(tbl["n"], np.int64)
    sa = et == "click"
    sb = et == "view"
    da, na_ = d[sa], n[sa]
    db, nb_ = d[sb], n[sb]
    oa, ob = np.argsort(da), np.argsort(db)
    da, na_, db, nb_ = da[oa], na_[oa], db[ob], nb_[ob]
    pos = np.searchsorted(db, da)
    pos = np.clip(pos, 0, max(len(db) - 1, 0))
    hit = (db[pos] == da) if len(db) else np.zeros(len(da), bool)
    diff = na_[hit].astype(np.int64) - nb_[pos[hit]].astype(np.int64)
    diff = diff[diff != 0]
    m = len(diff)
    if m == 0:
        w = z = None
        return pa.table(
            {"n_pairs": pa.array([0], pa.int64()),
             "w": pa.array([w], pa.float64()),
             "z": pa.array([z], pa.float64())}
        )
    absd = np.abs(diff)
    vals, inv = np.unique(absd, return_inverse=True)
    tot = np.bincount(inv).astype(np.int64)
    p = np.bincount(inv, weights=(diff > 0).astype(np.int64)).astype(np.int64)
    cb = np.concatenate([[0], np.cumsum(tot)[:-1]])
    w2 = int((p * (2 * cb + tot + 1)).sum())
    tie3 = int((tot * tot * tot - tot).sum())
    var = (
        float(m) * float(m + 1) * float(2 * m + 1) / 24.0
        - float(tie3) / 48.0
    )
    w = float(w2) / 2.0
    if var > 0:
        z = (float(w2) / 2.0 - float(m) * float(m + 1) / 4.0) / np.sqrt(var)
        z = float(np.sign(z) * np.floor(np.abs(z) * 1e6 + 0.5) / 1e6)
    else:
        z = None
    return pa.table(
        {
            "n_pairs": pa.array([m], pa.int64()),
            "w": pa.array([w], pa.float64()),
            "z": pa.array([z], pa.float64()),
        }
    )


def _sql_wilcoxon_signed() -> str:
    from .relational import DAY_US

    return f"""
WITH c AS (
  SELECT epoch_us(ts) // {DAY_US} AS d,
         SUM(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END)::BIGINT AS na,
         SUM(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END)::BIGINT AS nb
  FROM events
  WHERE event_type IN ('click', 'view')
  GROUP BY d
),
p AS (
  SELECT na - nb AS diff FROM c WHERE na > 0 AND nb > 0 AND na <> nb
),
a AS (
  SELECT ABS(diff) AS v, COUNT(*)::BIGINT AS tot,
         SUM(CASE WHEN diff > 0 THEN 1 ELSE 0 END)::BIGINT AS p
  FROM p GROUP BY v
),
w AS (
  SELECT v, tot, p,
         COALESCE(SUM(tot) OVER (ORDER BY v
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS cb
  FROM a
),
agg AS (
  SELECT SUM(p * (2*cb + tot + 1))::BIGINT AS w2,
         SUM(tot)::BIGINT AS m,
         SUM(tot*tot*tot - tot)::BIGINT AS tie3
  FROM w
)
SELECT COALESCE(m, 0) AS n_pairs,
       w2::DOUBLE / 2.0 AS w,
       CASE WHEN m::DOUBLE * (m+1)::DOUBLE * (2*m+1)::DOUBLE / 24.0
                 - tie3::DOUBLE / 48.0 > 0 THEN
         ROUND((w2::DOUBLE / 2.0 - m::DOUBLE * (m+1)::DOUBLE / 4.0)
               / sqrt(m::DOUBLE * (m+1)::DOUBLE * (2*m+1)::DOUBLE / 24.0
                      - tie3::DOUBLE / 48.0) * 1e6) / 1e6
       ELSE NULL END AS z
FROM agg
"""


@query("mutual_info", sql=lambda: _sql_mutual_info())
def q_mutual_info(sf_dir: str):
    """Mutual information (and NMI) between document lang and source —
    the feature-selection companion to cramers_v: MI over the OBSERVED
    contingency cells (zero cells contribute exactly 0), entropies from
    the margins, NMI = mi / sqrt(h_lang * h_src) computed from the
    6dp-ROUNDED terms so both sides divide bit-identical inputs.

    Scale shape: composite-key integer count combiners -> tiny
    contingency fold on the driver (bounded lang x source domain);
    factor order inside ln mirrored in the twin."""
    import pandas as pd
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "source"]
    )

    def partial(b: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {"lang": np.asarray(b["lang"]).astype(object),
             "source": np.asarray(b["source"]).astype(object)}
        )
        out = (
            df.groupby(["lang", "source"], sort=False)
            .size()
            .reset_index(name="n")
        )
        out["n"] = out["n"].astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["lang", "source"])
        .aggregate(Sum("n", alias_name="n"))
    )
    tabs = [
        t
        for t in agg.iter_batches(batch_size=None, batch_format="pyarrow")
        if t.num_rows
    ]
    if not tabs:  # empty corpus: one null-filled row, not a ValueError
        return pa.table(
            {
                "n": pa.array([0], pa.int64()),
                "n_langs": pa.array([0], pa.int64()),
                "n_sources": pa.array([0], pa.int64()),
                "mi": pa.array([None], pa.float64()),
                "h_lang": pa.array([None], pa.float64()),
                "h_source": pa.array([None], pa.float64()),
                "nmi": pa.array([None], pa.float64()),
            }
        )
    tbl = pa.concat_tables(tabs)
    lg = np.asarray(tbl["lang"]).astype(str)
    sc = np.asarray(tbl["source"]).astype(str)
    n = np.asarray(tbl["n"], np.int64).astype(np.float64)
    langs, li = np.unique(lg, return_inverse=True)
    srcs, si = np.unique(sc, return_inverse=True)
    row = np.bincount(li, weights=n, minlength=len(langs))
    col = np.bincount(si, weights=n, minlength=len(srcs))
    tot = float(n.sum())

    def r6(x: float) -> float:
        return float(np.sign(x) * np.floor(np.abs(x) * 1e6 + 0.5) / 1e6)

    mi = r6(float(
        ((n * 1.0 / tot) * np.log((n * 1.0 * tot) / (row[li] * 1.0 * col[si]))).sum()
    ))
    hl = r6(float(-((row * 1.0 / tot) * np.log(row * 1.0 / tot)).sum()))
    hs = r6(float(-((col * 1.0 / tot) * np.log(col * 1.0 / tot)).sum()))
    nmi = r6(mi / float(np.sqrt(hl * hs))) if hl > 0 and hs > 0 else None
    return pa.table(
        {
            "n": pa.array([int(tot)], pa.int64()),
            "n_langs": pa.array([len(langs)], pa.int64()),
            "n_sources": pa.array([len(srcs)], pa.int64()),
            "mi": pa.array([mi], pa.float64()),
            "h_lang": pa.array([hl], pa.float64()),
            "h_source": pa.array([hs], pa.float64()),
            "nmi": pa.array([nmi], pa.float64()),
        }
    )


def _sql_mutual_info() -> str:
    return """
WITH cell AS (
  SELECT lang, source, COUNT(*)::BIGINT AS n
  FROM documents GROUP BY lang, source
),
tot AS (SELECT SUM(n)::BIGINT AS t FROM cell),
r AS (SELECT lang, SUM(n)::BIGINT AS rn FROM cell GROUP BY lang),
c AS (SELECT source, SUM(n)::BIGINT AS cn FROM cell GROUP BY source),
terms AS (
  SELECT
    ROUND(SUM((cell.n * 1.0 / t.t)
              * ln((cell.n * 1.0 * t.t) / (r.rn * 1.0 * c.cn))) * 1e6)
      / 1e6 AS mi,
    (SELECT COUNT(*) FROM r)::BIGINT AS n_langs,
    (SELECT COUNT(*) FROM c)::BIGINT AS n_sources,
    (SELECT t FROM tot) AS n
  FROM cell
  JOIN r USING (lang) JOIN c USING (source), tot t
),
ent AS (
  SELECT
    ROUND(-SUM((rn * 1.0 / (SELECT t FROM tot))
               * ln(rn * 1.0 / (SELECT t FROM tot))) * 1e6) / 1e6 AS h_lang,
    (SELECT ROUND(-SUM((cn * 1.0 / (SELECT t FROM tot))
               * ln(cn * 1.0 / (SELECT t FROM tot))) * 1e6) / 1e6
     FROM c) AS h_source
  FROM r
)
SELECT terms.n, terms.n_langs, terms.n_sources, terms.mi,
       ent.h_lang, ent.h_source,
       CASE WHEN ent.h_lang > 0 AND ent.h_source > 0
            THEN ROUND(terms.mi / sqrt(ent.h_lang * ent.h_source) * 1e6)
                 / 1e6 END AS nmi
FROM terms, ent
"""


@query("cramers_v", sql=lambda: _sql_cramers_v())
def q_cramers_v(sf_dir: str):
    """Cramer's V association between document lang and source: the
    chi-square of the (lang x source) contingency table normalized by
    n*(min(r,c)-1), then sqrt — the region_week_chi2 law on a pure
    categorical pair, one row (n, n_langs, n_sources, v 6dp).

    Scale shape: composite-key integer count combiners -> tiny
    contingency fold on the driver."""
    import pandas as pd
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "source"]
    )

    def partial(b: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {"lang": np.asarray(b["lang"]).astype(object),
             "source": np.asarray(b["source"]).astype(object)}
        )
        out = (
            df.groupby(["lang", "source"], sort=False)
            .size()
            .reset_index(name="n")
        )
        out["n"] = out["n"].astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["lang", "source"])
        .aggregate(Sum("n", alias_name="n"))
    )
    tbl = pa.concat_tables(
        t
        for t in agg.iter_batches(batch_size=None, batch_format="pyarrow")
        if t.num_rows
    )
    lg = np.asarray(tbl["lang"]).astype(str)
    sc = np.asarray(tbl["source"]).astype(str)
    n = np.asarray(tbl["n"], np.int64)
    langs, li = np.unique(lg, return_inverse=True)
    srcs, si = np.unique(sc, return_inverse=True)
    row = np.bincount(li, weights=n, minlength=len(langs))
    col = np.bincount(si, weights=n, minlength=len(srcs))
    tot = float(n.sum())
    e_obs = row[li] * col[si] / tot
    chi = float(((n - e_obs) * (n - e_obs) / e_obs).sum())
    chi += float((row.sum() * col.sum() / tot) - e_obs.sum())
    kmin = min(len(langs), len(srcs)) - 1
    v = (
        float(np.floor(np.sqrt(chi / (tot * float(kmin))) * 1e6 + 0.5) / 1e6)
        if kmin > 0
        else None
    )
    return pa.table(
        {
            "n": pa.array([int(tot)], pa.int64()),
            "n_langs": pa.array([len(langs)], pa.int64()),
            "n_sources": pa.array([len(srcs)], pa.int64()),
            "v": pa.array([v], pa.float64()),
        }
    )


def _sql_cramers_v() -> str:
    return """
WITH o AS (
  SELECT lang, source, COUNT(*)::BIGINT AS n
  FROM documents GROUP BY lang, source
),
r AS (SELECT lang, SUM(n)::DOUBLE AS rn FROM o GROUP BY lang),
c AS (SELECT source, SUM(n)::DOUBLE AS cn FROM o GROUP BY source),
t AS (SELECT SUM(n)::DOUBLE AS tot FROM o),
obs AS (
  SELECT SUM((o.n - r.rn * c.cn / t.tot) * (o.n - r.rn * c.cn / t.tot)
             / (r.rn * c.cn / t.tot)) AS chi_obs,
         SUM(r.rn * c.cn / t.tot) AS e_obs
  FROM o JOIN r USING (lang) JOIN c USING (source) CROSS JOIN t
),
dims AS (
  SELECT (SELECT COUNT(*) FROM r)::BIGINT AS nr,
         (SELECT COUNT(*) FROM c)::BIGINT AS nc
)
SELECT CAST(t.tot AS BIGINT) AS n,
       dims.nr AS n_langs, dims.nc AS n_sources,
       CASE WHEN LEAST(dims.nr, dims.nc) > 1 THEN
         ROUND(sqrt((obs.chi_obs
                     + ((SELECT SUM(rn) FROM r) * (SELECT SUM(cn) FROM c)
                        / t.tot - obs.e_obs))
                    / (t.tot
                       * (LEAST(dims.nr, dims.nc) - 1)::DOUBLE)) * 1e6) / 1e6
       ELSE NULL END AS v
FROM obs CROSS JOIN t CROSS JOIN dims
"""


@query("ols_fit", sql=lambda: _sql_ols_fit())
def q_ols_fit(sf_dir: str):
    """Two-regressor OLS by distributed normal equations: regress
    lineitem revenue (whole dollars) on quantity and discount points
    (l_discount*100).  One combiner pass emits the nine exact-integer
    moments (X'X, X'y, y'y); the driver solves the 3x3 system by
    Cramer's rule in exact big-int arithmetic (HUGEINT in the twin), so
    betas are identical int-ratio doubles on both sides; r2 follows the
    same fixed-order float law.  One row (n, b0, b1, b2, r2), 6dp.

    Scale shape: a single map_batches combiner -> one 9-integer fold;
    no wide operation at any corpus size."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_quantity", "l_discount", "l_extendedprice"],
    )

    cols = ["n", "sx1", "sx2", "sy", "s11", "s22", "s12", "s1y", "s2y",
            "syy"]

    def partial(b: pa.Table) -> pa.Table:
        x1 = np.floor(
            np.asarray(b["l_quantity"], np.float64) + 0.5
        ).astype(np.int64)
        x2 = np.floor(
            np.asarray(b["l_discount"], np.float64) * 100.0 + 0.5
        ).astype(np.int64)
        y = np.floor(
            np.asarray(b["l_extendedprice"], np.float64) + 0.5
        ).astype(np.int64)
        vals = [
            len(y),
            int(x1.sum()), int(x2.sum()), int(y.sum()),
            int((x1 * x1).sum()), int((x2 * x2).sum()),
            int((x1 * x2).sum()), int((x1 * y).sum()),
            int((x2 * y).sum()), int((y * y).sum()),
        ]
        return pa.table(
            {c: pa.array([v], pa.int64()) for c, v in zip(cols, vals)}
        )

    agg = ds.map_batches(partial, batch_format="pyarrow").aggregate(
        *[Sum(c, alias_name=c) for c in cols]
    )
    n = int(agg["n"])
    sx1, sx2, sy = int(agg["sx1"]), int(agg["sx2"]), int(agg["sy"])
    s11, s22, s12 = int(agg["s11"]), int(agg["s22"]), int(agg["s12"])
    s1y, s2y, syy = int(agg["s1y"]), int(agg["s2y"]), int(agg["syy"])

    def det3(a, b, c, d, e, f, g, h, i):
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

    da = det3(n, sx1, sx2, sx1, s11, s12, sx2, s12, s22)
    d0 = det3(sy, sx1, sx2, s1y, s11, s12, s2y, s12, s22)
    d1 = det3(n, sy, sx2, sx1, s1y, s12, sx2, s2y, s22)
    d2 = det3(n, sx1, sy, sx1, s11, s1y, sx2, s12, s2y)
    if da == 0:
        b0 = b1 = b2 = r2 = None
    else:
        b0 = float(d0) / float(da)
        b1 = float(d1) / float(da)
        b2 = float(d2) / float(da)
        sse = float(syy) - b0 * float(sy) - b1 * float(s1y) - b2 * float(s2y)
        sst = float(syy) - float(sy * sy) / float(n)
        r2 = 1.0 - sse / sst if sst > 0 else None
        rnd = lambda x: (
            None if x is None
            else float(np.sign(x) * np.floor(np.abs(x) * 1e6 + 0.5) / 1e6)
        )
        b0, b1, b2, r2 = rnd(b0), rnd(b1), rnd(b2), rnd(r2)
    return pa.table(
        {
            "n": pa.array([n], pa.int64()),
            "b0": pa.array([b0], pa.float64()),
            "b1": pa.array([b1], pa.float64()),
            "b2": pa.array([b2], pa.float64()),
            "r2": pa.array([r2], pa.float64()),
        }
    )


def _sql_ols_fit() -> str:
    return """
WITH v AS (
  SELECT CAST(ROUND(l_quantity) AS BIGINT) AS x1,
         CAST(ROUND(l_discount * 100.0) AS BIGINT) AS x2,
         CAST(ROUND(l_extendedprice) AS BIGINT) AS y
  FROM lineitem
),
m AS (
  SELECT COUNT(*)::HUGEINT AS n,
         SUM(x1)::HUGEINT AS sx1, SUM(x2)::HUGEINT AS sx2,
         SUM(y)::HUGEINT AS sy,
         SUM(x1*x1)::HUGEINT AS s11, SUM(x2*x2)::HUGEINT AS s22,
         SUM(x1*x2)::HUGEINT AS s12, SUM(x1*y)::HUGEINT AS s1y,
         SUM(x2*y)::HUGEINT AS s2y, SUM(y*y)::HUGEINT AS syy
  FROM v
),
d AS (
  SELECT n, sy, s1y, s2y, syy,
         n*(s11*s22 - s12*s12) - sx1*(sx1*s22 - s12*sx2)
           + sx2*(sx1*s12 - s11*sx2) AS da,
         sy*(s11*s22 - s12*s12) - sx1*(s1y*s22 - s12*s2y)
           + sx2*(s1y*s12 - s11*s2y) AS d0,
         n*(s1y*s22 - s12*s2y) - sy*(sx1*s22 - s12*sx2)
           + sx2*(sx1*s2y - s1y*sx2) AS d1,
         n*(s11*s2y - s1y*s12) - sx1*(sx1*s2y - s1y*sx2)
           + sy*(sx1*s12 - s11*sx2) AS d2
  FROM m
),
b AS (
  SELECT CAST(n AS BIGINT) AS n, sy, s1y, s2y, syy,
         d0::DOUBLE / da::DOUBLE AS b0,
         d1::DOUBLE / da::DOUBLE AS b1,
         d2::DOUBLE / da::DOUBLE AS b2
  FROM d WHERE da <> 0
)
SELECT n,
       ROUND(b0 * 1e6) / 1e6 AS b0,
       ROUND(b1 * 1e6) / 1e6 AS b1,
       ROUND(b2 * 1e6) / 1e6 AS b2,
       CASE WHEN syy::DOUBLE - (sy*sy)::DOUBLE / n::DOUBLE > 0 THEN
         ROUND((1.0 - (syy::DOUBLE - b0 * sy::DOUBLE - b1 * s1y::DOUBLE
                       - b2 * s2y::DOUBLE)
                      / (syy::DOUBLE - (sy*sy)::DOUBLE / n::DOUBLE))
               * 1e6) / 1e6
       ELSE NULL END AS r2
FROM b
"""


@query("cohens_kappa", sql=lambda: _sql_cohens_kappa())
def q_cohens_kappa(sf_dir: str):
    """Cohen's kappa agreement between the lang_id heuristic and the
    labeled language — the chance-corrected summary of q_lang_confusion.
    kappa = (N*sum(diag) - sum(row_i*col_i)) / (N^2 - sum(row_i*col_i))
    folds from exact integer confusion counts (Python bigint / HUGEINT),
    one float division, 6dp.

    Scale shape: classify in map_batches -> tiny (lang, pred) groupby ->
    driver fold on the k x k table."""
    from ray.data.aggregate import Count

    from ..text import lang_id

    preds = _docs(sf_dir, ("doc_id", "text", "lang")).map_batches(
        lang_id, batch_format="pyarrow"
    )
    conf = (
        preds.select_columns(["lang", "lang_pred"])
        .groupby(["lang", "lang_pred"])
        .aggregate(Count(alias_name="n"))
    )
    tbl = pa.concat_tables(
        t
        for t in conf.iter_batches(batch_size=None, batch_format="pyarrow")
        if t.num_rows
    )
    a = np.asarray(tbl["lang"]).astype(str)
    b = np.asarray(tbl["lang_pred"]).astype(str)
    n = np.asarray(tbl["n"], np.int64)
    labs = np.unique(np.concatenate([a, b]))
    ai = np.searchsorted(labs, a)
    bi = np.searchsorted(labs, b)
    row = np.bincount(ai, weights=n, minlength=len(labs)).astype(np.int64)
    col = np.bincount(bi, weights=n, minlength=len(labs)).astype(np.int64)
    tot = int(n.sum())
    diag = int(n[ai == bi].sum())
    pe_num = int(sum(int(r) * int(c) for r, c in zip(row, col)))
    den = tot * tot - pe_num
    kappa = (
        float(np.sign(tot * diag - pe_num)
              * np.floor(np.abs(float(tot * diag - pe_num) / float(den))
                         * 1e6 + 0.5) / 1e6)
        if den != 0
        else None
    )
    return pa.table(
        {
            "n": pa.array([tot], pa.int64()),
            "agree": pa.array([diag], pa.int64()),
            "kappa": pa.array([kappa], pa.float64()),
        }
    )


def _sql_cohens_kappa() -> str:
    from ..text import sql_lang_id

    return f"""
WITH conf AS (
  SELECT lang, lang_pred, COUNT(*)::BIGINT AS n
  FROM ({sql_lang_id()}) GROUP BY lang, lang_pred
),
r AS (SELECT lang AS lab, SUM(n)::BIGINT AS rn FROM conf GROUP BY lang),
c AS (SELECT lang_pred AS lab, SUM(n)::BIGINT AS cn FROM conf
      GROUP BY lang_pred),
t AS (
  SELECT (SELECT SUM(n) FROM conf)::BIGINT AS tot,
         (SELECT COALESCE(SUM(n), 0) FROM conf
          WHERE lang = lang_pred)::BIGINT AS diag,
         (SELECT SUM(COALESCE(r.rn, 0)::HUGEINT * COALESCE(c.cn, 0)::HUGEINT)
          FROM r FULL OUTER JOIN c USING (lab)) AS pe
)
SELECT tot AS n, diag AS agree,
       CASE WHEN tot::HUGEINT * tot::HUGEINT - pe <> 0 THEN
         ROUND((tot::HUGEINT * diag::HUGEINT - pe)::DOUBLE
               / (tot::HUGEINT * tot::HUGEINT - pe)::DOUBLE * 1e6) / 1e6
       ELSE NULL END AS kappa
FROM t
"""


@query("jensen_shannon", sql=lambda: _sql_jensen_shannon())
def q_jensen_shannon(sf_dir: str):
    """Jensen-Shannon divergence (natural log) between the event-type
    mix on weekdays vs weekends: integer (is_weekend, type) counts ->
    driver fold JSD = (KL(P||M)+KL(Q||M))/2 over the tiny type table,
    6dp.  Day-of-week from the epoch-day law (1970-01-01 = Thursday).

    Scale shape: composite integer count combiners -> k-row driver
    fold."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .relational import DAY_US

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts"]
    )

    def partial(b: pa.Table) -> pa.Table:
        import pandas as pd

        us = pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64())
        day = np.asarray(us, np.int64) // DAY_US
        dow = (day + 4) % 7
        we = ((dow == 0) | (dow == 6)).astype(np.int64)
        df = pd.DataFrame(
            {"event_type": np.asarray(b["event_type"]).astype(object),
             "we": we}
        )
        out = (
            df.groupby(["event_type", "we"], sort=False)
            .size()
            .reset_index(name="n")
        )
        out["n"] = out["n"].astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "we"])
        .aggregate(Sum("n", alias_name="n"))
    )
    tbl = pa.concat_tables(
        t
        for t in agg.iter_batches(batch_size=None, batch_format="pyarrow")
        if t.num_rows
    )
    et = np.asarray(tbl["event_type"]).astype(str)
    we = np.asarray(tbl["we"], np.int64)
    n = np.asarray(tbl["n"], np.int64)
    types = np.unique(et)
    ti = np.searchsorted(types, et)
    wd_c = np.bincount(ti[we == 0], weights=n[we == 0],
                       minlength=len(types)).astype(np.int64)
    we_c = np.bincount(ti[we == 1], weights=n[we == 1],
                       minlength=len(types)).astype(np.int64)
    n_wd, n_we = int(wd_c.sum()), int(we_c.sum())
    if n_wd == 0 or n_we == 0:
        jsd = None
    else:
        jsd = 0.0
        # types in sorted order on both sides; zero-count terms drop out
        for i in range(len(types)):
            p = float(wd_c[i]) / float(n_wd)
            q = float(we_c[i]) / float(n_we)
            m = (p + q) / 2.0
            if p > 0:
                jsd += 0.5 * p * np.log(p / m)
            if q > 0:
                jsd += 0.5 * q * np.log(q / m)
        jsd = float(np.floor(jsd * 1e6 + 0.5) / 1e6)
    return pa.table(
        {
            "n_weekday": pa.array([n_wd], pa.int64()),
            "n_weekend": pa.array([n_we], pa.int64()),
            "jsd": pa.array([jsd], pa.float64()),
        }
    )


def _sql_jensen_shannon() -> str:
    from .relational import DAY_US

    return f"""
WITH e AS (
  SELECT event_type,
         CASE WHEN ((epoch_us(ts) // {DAY_US}) + 4) % 7 IN (0, 6)
              THEN 1 ELSE 0 END AS we
  FROM events
),
c AS (
  SELECT event_type,
         SUM(CASE WHEN we = 0 THEN 1 ELSE 0 END)::BIGINT AS nwd,
         SUM(CASE WHEN we = 1 THEN 1 ELSE 0 END)::BIGINT AS nwe
  FROM e GROUP BY event_type
),
t AS (SELECT SUM(nwd)::BIGINT AS n_wd, SUM(nwe)::BIGINT AS n_we FROM c),
terms AS (
  SELECT
    CASE WHEN c.nwd > 0 THEN
      0.5 * (c.nwd::DOUBLE / t.n_wd::DOUBLE)
          * ln((c.nwd::DOUBLE / t.n_wd::DOUBLE)
               / ((c.nwd::DOUBLE / t.n_wd::DOUBLE
                   + c.nwe::DOUBLE / t.n_we::DOUBLE) / 2.0))
    ELSE 0.0 END
    + CASE WHEN c.nwe > 0 THEN
      0.5 * (c.nwe::DOUBLE / t.n_we::DOUBLE)
          * ln((c.nwe::DOUBLE / t.n_we::DOUBLE)
               / ((c.nwd::DOUBLE / t.n_wd::DOUBLE
                   + c.nwe::DOUBLE / t.n_we::DOUBLE) / 2.0))
    ELSE 0.0 END AS term
  FROM c CROSS JOIN t
)
SELECT t.n_wd AS n_weekday, t.n_we AS n_weekend,
       CASE WHEN t.n_wd > 0 AND t.n_we > 0 THEN
         ROUND((SELECT SUM(term) FROM terms) * 1e6) / 1e6
       ELSE NULL END AS jsd
FROM t
"""


@query("grouped_regression", sql=lambda: _sql_grouped_regression())
def q_grouped_regression(sf_dir: str):
    """Per-language simple OLS: slope/intercept/Pearson r of n_chars
    on the whitespace token count.  One combiner pass emits per-(lang)
    exact integer moments; slope and r are exact big-int ratios
    (HUGEINT in the twin) converted once to double, intercept follows
    the same fixed-order law, 6dp.  Degenerate (zero-variance) groups
    drop on both sides.

    Scale shape: reduceat combiners -> k-row groupby -> vectorized
    driver fold; no wide op."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..text import TOKEN_PATTERN

    docs = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text", "lang", "n_chars"]
    )

    def partial(b: pa.Table) -> pa.Table:
        x = np.asarray(
            pc.cast(pc.count_substring_regex(b["text"], TOKEN_PATTERN),
                    pa.int64())
        )
        y = np.asarray(b["n_chars"], np.int64)
        g = np.asarray(b["lang"]).astype(str)
        if not len(x):
            return pa.table(
                {"lang": pa.array([], pa.string())}
                | {c: pa.array([], pa.int64())
                   for c in ("n", "sx", "sy", "sxx", "sxy", "syy")}
            )
        keys, inv = np.unique(g, return_inverse=True)
        order = np.argsort(inv, kind="stable")
        xi, yi, gi = x[order], y[order], inv[order]
        st = np.flatnonzero(np.concatenate([[True], gi[1:] != gi[:-1]]))
        return pa.table(
            {
                "lang": pa.array(keys[gi[st]], pa.string()),
                "n": pa.array(
                    np.diff(np.append(st, len(xi))).astype(np.int64)
                ),
                "sx": pa.array(np.add.reduceat(xi, st)),
                "sy": pa.array(np.add.reduceat(yi, st)),
                "sxx": pa.array(np.add.reduceat(xi * xi, st)),
                "sxy": pa.array(np.add.reduceat(xi * yi, st)),
                "syy": pa.array(np.add.reduceat(yi * yi, st)),
            }
        )

    agg = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(
            *[Sum(c, alias_name=c)
              for c in ("n", "sx", "sy", "sxx", "sxy", "syy")]
        )
    )
    tbl = pa.concat_tables(
        t
        for t in agg.iter_batches(batch_size=None, batch_format="pyarrow")
        if t.num_rows
    )
    langs = np.asarray(tbl["lang"]).astype(str)
    order = np.argsort(langs)
    out = {"lang": [], "n": [], "slope": [], "intercept": [], "r": []}
    rnd6 = lambda x: float(np.sign(x) * np.floor(np.abs(x) * 1e6 + 0.5) / 1e6)
    for i in order:
        n = int(tbl["n"][i].as_py())
        sx, sy = int(tbl["sx"][i].as_py()), int(tbl["sy"][i].as_py())
        sxx = int(tbl["sxx"][i].as_py())
        sxy = int(tbl["sxy"][i].as_py())
        syy = int(tbl["syy"][i].as_py())
        dx = n * sxx - sx * sx
        dy = n * syy - sy * sy
        if dx <= 0 or dy <= 0:
            continue
        num = n * sxy - sx * sy
        slope = float(num) / float(dx)
        intercept = (float(sy) - slope * float(sx)) / float(n)
        r = float(num) / np.sqrt(float(dx * dy))
        out["lang"].append(str(langs[i]))
        out["n"].append(n)
        out["slope"].append(rnd6(slope))
        out["intercept"].append(rnd6(intercept))
        out["r"].append(rnd6(r))
    return pa.table(
        {
            "lang": pa.array(out["lang"], pa.string()),
            "n": pa.array(out["n"], pa.int64()),
            "slope": pa.array(out["slope"], pa.float64()),
            "intercept": pa.array(out["intercept"], pa.float64()),
            "r": pa.array(out["r"], pa.float64()),
        }
    )


def _sql_grouped_regression() -> str:
    return r"""
WITH v AS (
  SELECT lang, len(regexp_extract_all(text, '\S+'))::BIGINT AS x,
         n_chars AS y
  FROM documents
),
g AS (
  SELECT lang, COUNT(*)::HUGEINT AS n,
         SUM(x)::HUGEINT AS sx, SUM(y)::HUGEINT AS sy,
         SUM(x*x)::HUGEINT AS sxx, SUM(x*y)::HUGEINT AS sxy,
         SUM(y*y)::HUGEINT AS syy
  FROM v GROUP BY lang
)
SELECT lang, CAST(n AS BIGINT) AS n,
       ROUND((n*sxy - sx*sy)::DOUBLE / (n*sxx - sx*sx)::DOUBLE * 1e6)
         / 1e6 AS slope,
       ROUND((sy::DOUBLE
              - ((n*sxy - sx*sy)::DOUBLE / (n*sxx - sx*sx)::DOUBLE)
                * sx::DOUBLE) / n::DOUBLE * 1e6) / 1e6 AS intercept,
       ROUND((n*sxy - sx*sy)::DOUBLE
             / sqrt(((n*sxx - sx*sx) * (n*syy - sy*sy))::DOUBLE) * 1e6)
         / 1e6 AS r
FROM g
WHERE (n*sxx - sx*sx) > 0 AND (n*syy - sy*sy) > 0
ORDER BY lang
"""


@query("heal_area", sql=lambda: _sql_heal_area())
def q_heal_area(sf_dir: str):
    """Parity (even-odd) healing of self-intersecting polygons — the
    engine's answer to the reference's TopologyException retry
    (``unary_union`` + ``buffer``, reference overlay.py:299-309), whose
    node-and-rebuild yields the even-odd interior (a bowtie becomes its
    two lobes).  Quadrilaterals are traced A->B->C->D through four
    derived points per qid (roughly two thirds self-intersect), and each
    row reports which opposite-edge pair crossed plus the HEALED area
    via ``geom.kernels.quad_parity_area`` — the vectorized closed-form
    specialization of the general scanline healer
    ``geom.kernels.parity_area`` (pytest ties the two together; the
    general kernel also backs ``parity_clip_area_rect`` /
    ``cells_coverage_parity`` for healed overlay paths).  Map-only: the
    corner coordinates are closed-form in qid, so no shuffle exists."""
    import ray.data as rd

    from ..geom.kernels import quad_parity_area
    from ..synth import derive_xy

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def f(b: pa.Table) -> pa.Table:
        did = np.asarray(b["doc_id"], np.int64)
        did = did[did % 4 == 0]
        qid = did // 4
        cs = []
        for k in range(4):
            x, y = derive_xy(did + k)
            cs.extend([x / 1000.0, y / 1000.0])
        ax, ay, bx, by, cx, cy, dx, dy = cs
        # crossing detector mirrors quad_parity_area's branch order
        def _cross(px, py, qx, qy, rx, ry, sx, sy):
            d1 = (qx - px) * (ry - py) - (qy - py) * (rx - px)
            d2 = (qx - px) * (sy - py) - (qy - py) * (sx - px)
            d3 = (sx - rx) * (py - ry) - (sy - ry) * (px - rx)
            d4 = (sx - rx) * (qy - ry) - (sy - ry) * (qx - rx)
            return (d1 * d2 < 0.0) & (d3 * d4 < 0.0)

        c1 = _cross(ax, ay, bx, by, cx, cy, dx, dy)
        c2 = _cross(bx, by, cx, cy, dx, dy, ax, ay)
        crossing = np.where(c1, 1, np.where(c2, 2, 0)).astype(np.int64)
        healed = quad_parity_area(ax, ay, bx, by, cx, cy, dx, dy)
        t = pa.table(
            {
                "qid": pa.array(qid),
                "crossing": pa.array(crossing),
                "healed_area": pa.array(healed),
            }
        )
        return round6(t, ["healed_area"])

    return ds.map_batches(f, batch_format="pyarrow")


def _sql_heal_area() -> str:
    from ..synth import SQL_X, SQL_Y

    def at(k: int) -> tuple[str, str]:
        if k == 0:
            return SQL_X, SQL_Y
        rep = f"(doc_id + {k})"
        return SQL_X.replace("doc_id", rep), SQL_Y.replace("doc_id", rep)

    corners = []
    for name, k in (("a", 0), ("b", 1), ("c", 2), ("d", 3)):
        sx, sy = at(k)
        corners.append(f"({sx})/1000.0 AS {name}x, ({sy})/1000.0 AS {name}y")
    tri = (
        "ABS(({2} - {0}) * ({5} - {1}) - ({3} - {1}) * ({4} - {0})) / 2.0"
    )

    def lobe_sql(p, q, r, s, m1, m2):
        """Segments PQ x RS; healed area = tri(X,Q,M1) + tri(X,S,M2)."""
        d3 = f"(({s}x - {r}x) * ({p}y - {r}y) - ({s}y - {r}y) * ({p}x - {r}x))"
        d4 = f"(({s}x - {r}x) * ({q}y - {r}y) - ({s}y - {r}y) * ({q}x - {r}x))"
        t = f"({d3} / ({d3} - {d4}))"
        xx = f"({p}x + {t} * ({q}x - {p}x))"
        xy = f"({p}y + {t} * ({q}y - {p}y))"
        t1 = tri.format(xx, xy, f"{q}x", f"{q}y", f"{m1}x", f"{m1}y")
        t2 = tri.format(xx, xy, f"{s}x", f"{s}y", f"{m2}x", f"{m2}y")
        return f"({t1} + {t2})"

    def cross_sql(p, q, r, s):
        d1 = f"(({q}x - {p}x) * ({r}y - {p}y) - ({q}y - {p}y) * ({r}x - {p}x))"
        d2 = f"(({q}x - {p}x) * ({s}y - {p}y) - ({q}y - {p}y) * ({s}x - {p}x))"
        d3 = f"(({s}x - {r}x) * ({p}y - {r}y) - ({s}y - {r}y) * ({p}x - {r}x))"
        d4 = f"(({s}x - {r}x) * ({q}y - {r}y) - ({s}y - {r}y) * ({q}x - {r}x))"
        return f"({d1} * {d2} < 0.0 AND {d3} * {d4} < 0.0)"

    shoe = (
        "(((ax * by - bx * ay) + (bx * cy - cx * by))"
        " + (cx * dy - dx * cy)) + (dx * ay - ax * dy)"
    )
    c1 = cross_sql("a", "b", "c", "d")
    c2 = cross_sql("b", "c", "d", "a")
    a1 = lobe_sql("a", "b", "c", "d", "c", "a")
    a2 = lobe_sql("b", "c", "d", "a", "d", "b")
    return f"""
WITH pts AS (
  SELECT doc_id // 4 AS qid, {", ".join(corners)}
  FROM documents WHERE doc_id % 4 = 0
)
SELECT qid,
       CAST(CASE WHEN {c1} THEN 1 WHEN {c2} THEN 2 ELSE 0 END AS BIGINT)
         AS crossing,
       ROUND((CASE WHEN {c1} THEN {a1} WHEN {c2} THEN {a2}
              ELSE ABS({shoe}) / 2.0 END) * 1e6) / 1e6 AS healed_area
FROM pts
ORDER BY qid
"""


@query(
    "dsir_weights",
    sql=lambda: text.sql_dsir_weights(f"doc_id % {DECON_MOD} = {DECON_RES}"),
)
def q_dsir_weights(sf_dir: str):
    """DSIR importance weights (Xie et al. 2023): per-doc hashed-unigram
    importance log-weight of the eval slice (doc_id % 13 == 5, the
    decontamination split) vs the rest of the corpus — the resampling
    key a domain-matched pretraining mix selects on.  One bucket-count
    reduce + broadcast + stateless vectorized scoring; no corpus-scale
    shuffle (see ``text.dsir_weights``)."""
    from ..text import dsir_weights

    docs = _docs(sf_dir, ("doc_id", "text"))
    out = dsir_weights(
        docs,
        target_mask_fn=lambda ids: (ids % DECON_MOD) == DECON_RES,
    )
    return out.map_batches(
        lambda b: round6(b, ["dsir_logw"]), batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@query("ann_recall", sql=lambda: _sql_ann_recall(), quadratic=True)
def q_ann_recall(sf_dir: str):
    """ANN index-quality evaluation: recall@k of the IVF(nprobe=3) path
    against the exact brute-force top-k, per query — the acceptance
    metric an index build pipeline gates on.  Both sides run the
    engine's own pipelines (broadcast queries, streamed corpus); the
    comparison is a driver-final join on (query, neighbor) over
    Q x k rows only."""
    import ray.data as rd

    from ..ann import ann_topk, ivf_topk

    qids, qmat = _head_vectors(sf_dir, 10)
    _, cents = _head_vectors(sf_dir, 8)
    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    exact = ann_topk(
        ds, {"ids": qids, "matrix": qmat}, k=5
    ).select_columns(["query_id", "neighbor_id"]).to_pandas()
    approx = ivf_topk(
        ds, {"ids": qids, "matrix": qmat}, cents, k=5, nprobe=3
    ).select_columns(["query_id", "neighbor_id"]).to_pandas()
    return _recall_table(exact, approx, k=5)


def _recall_table(exact, approx, *, k: int) -> pa.Table:
    """Shared recall@k fold of the index acceptance gates (ann_recall,
    sq8_recall, trunc_recall): fraction of each query's exact top-k that
    the approximate side recovered, 6dp half-away — the driver-final
    join runs over Q x k rows only."""
    hits = exact.merge(approx, on=["query_id", "neighbor_id"])
    per_q = hits.groupby("query_id").size()
    qs = np.sort(exact["query_id"].unique())
    rec = np.array([per_q.get(q, 0) for q in qs], np.float64) / float(k)
    rec = np.sign(rec) * np.floor(np.abs(rec) * 1e6 + 0.5) / 1e6
    return pa.table(
        {"query_id": pa.array(qs.astype(np.int64)),
         "recall": pa.array(rec)}
    )


@query(
    "sq8_recall",
    sql=lambda: ann.sql_sq_recall(5, 10, 64, 15),
    bench=True,
    quadratic=True,
)
def q_sq8_recall(sf_dir: str):
    """Embedding-compression acceptance gate: recall@k of brute-force
    search over the scalar quantize->dequantize corpus (asymmetric:
    float queries, compressed store — the layout an ANN service actually
    serves) against the float-exact top-k.  The quantization law is
    :func:`pygridmap_ray.ann.quantize_embeddings`'s at 16 levels (int4 —
    int8/255 is rank-lossless on this corpus, so the 4-bit store is the
    regime where the gate discriminates); search reuses ann_topk
    unchanged on the reconstructed column."""
    import ray.data as rd

    from ..ann import ann_topk, dequantize_embeddings

    qids, qmat = _head_vectors(sf_dir, 10)
    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    exact = ann_topk(
        ds, {"ids": qids, "matrix": qmat}, k=5
    ).select_columns(["query_id", "neighbor_id"]).to_pandas()
    approx = ann_topk(
        dequantize_embeddings(ds, levels=15), {"ids": qids, "matrix": qmat},
        k=5,
    ).select_columns(["query_id", "neighbor_id"]).to_pandas()
    return _recall_table(exact, approx, k=5)


@query(
    "pq_recall",
    sql=lambda: ann.sql_pq_recall(5, 10, 64, 4, 8, 1),
    bench=True,
    quadratic=True,
)
def q_pq_recall(sf_dir: str):
    """Product-quantization acceptance gate: recall@k of brute-force
    search over the PQ-reconstructed corpus (4 subspaces x 8 centroids
    = 12-bit codes vs 2048-bit float vectors) against the float-exact
    top-k — the compression regime where recall genuinely degrades, so
    the gate discriminates.  Codebooks are per-subspace kmeans_fit
    sweeps (broadcast partials, never an assignment shuffle); search
    reuses ann_topk unchanged on the reconstructed column."""
    import ray.data as rd

    from ..ann import ann_topk, pq_reconstruct

    qids, qmat = _head_vectors(sf_dir, 10)
    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    exact = ann_topk(
        ds, {"ids": qids, "matrix": qmat}, k=5
    ).select_columns(["query_id", "neighbor_id"]).to_pandas()
    approx = ann_topk(
        pq_reconstruct(ds), {"ids": qids, "matrix": qmat}, k=5
    ).select_columns(["query_id", "neighbor_id"]).to_pandas()
    return _recall_table(exact, approx, k=5)


@query("trunc_recall", sql=lambda: ann.sql_trunc_recall(5, 10, 16), quadratic=True)
def q_trunc_recall(sf_dir: str):
    """Matryoshka dimension-truncation acceptance gate: recall@k when
    both queries and corpus keep only the first 16 of 64 coordinates
    (cosine re-normalizes inside ann_topk) vs the full-dimension exact
    top-k — the storage/recall trade measured before shrinking an
    embedding store 4x."""
    import ray.data as rd

    from ..ann import ann_topk, truncate_embeddings

    dims = 16
    qids, qmat = _head_vectors(sf_dir, 10)
    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    exact = ann_topk(
        ds, {"ids": qids, "matrix": qmat}, k=5
    ).select_columns(["query_id", "neighbor_id"]).to_pandas()
    approx = ann_topk(
        truncate_embeddings(ds, dims),
        {"ids": qids, "matrix": qmat[:, :dims]}, k=5,
    ).select_columns(["query_id", "neighbor_id"]).to_pandas()
    return _recall_table(exact, approx, k=5)


@query("simhash_screen", sql=lambda: _sql_simhash_screen(), bench=True, quadratic=True)
def q_simhash_screen(sf_dir: str):
    """Near-dup screen quality gate: precision/recall of the SimHash
    hamming<=3 candidate screen against exact n-gram Jaccard >= 0.3
    ground truth, both sides the engine's own pipelines over the real
    corpus.  At 100 TB this gate runs on a corpus SAMPLE (the pair sets
    are sample-bounded); the fold packs (id_a, id_b) into int64 keys and
    counts overlap with one sorted isin — no per-pair Python."""
    from ..dedup import ngram_jaccard_pairs, simhash_pairs

    truth = (
        ngram_jaccard_pairs(_docs(sf_dir, ("doc_id", "text")), threshold=0.3)
        .select_columns(["id_a", "id_b"])
        .to_pandas()
    )
    screen = (
        simhash_pairs(_docs(sf_dir, ("doc_id", "text")))
        .select_columns(["id_a", "id_b"])
        .to_pandas()
    )

    def pack(df) -> np.ndarray:
        return (
            df["id_a"].to_numpy(np.int64) * np.int64(2**32)
            + df["id_b"].to_numpy(np.int64)
        )

    tk, sk = pack(truth), pack(screen)
    n_truth, n_screen = len(tk), len(sk)
    n_overlap = int(np.isin(sk, tk).sum())
    recall = n_overlap / max(n_truth, 1)
    prec = n_overlap / max(n_screen, 1)
    r6 = lambda v: np.floor(v * 1e6 + 0.5) / 1e6  # noqa: E731 — v >= 0
    return pa.table(
        {
            "n_truth": pa.array([n_truth], pa.int64()),
            "n_screen": pa.array([n_screen], pa.int64()),
            "n_overlap": pa.array([n_overlap], pa.int64()),
            "recall": pa.array([float(r6(recall))]),
            "prec": pa.array([float(r6(prec))]),
        }
    )


def _sql_simhash_screen() -> str:
    from ..dedup import sql_ngram_jaccard, sql_simhash_pairs

    return f"""
WITH sp AS ({sql_simhash_pairs(3)}),
tj AS ({sql_ngram_jaccard(0.3)}),
m AS (SELECT
  (SELECT COUNT(*) FROM tj)::BIGINT AS n_truth,
  (SELECT COUNT(*) FROM sp)::BIGINT AS n_screen,
  (SELECT COUNT(*) FROM sp JOIN tj
     ON sp.id_a = tj.id_a AND sp.id_b = tj.id_b)::BIGINT AS n_overlap)
SELECT n_truth, n_screen, n_overlap,
       ROUND(n_overlap / GREATEST(n_truth, 1) * 1e6) / 1e6 AS recall,
       ROUND(n_overlap / GREATEST(n_screen, 1) * 1e6) / 1e6 AS prec
FROM m
"""


@query("lsh_screen", sql=lambda: _sql_lsh_screen())
def q_lsh_screen(sf_dir: str):
    """Hyperplane-LSH band-recall gate: the fraction of the EXACT
    cosine>=0.35 near-dup pair set that sign-band collisions recover
    (embedding_lsh_pairs verifies cosine in-bucket, so its pairs are a
    subset of truth and precision is 1 by construction — the number an
    engineer tunes hyperplane/band counts against).  Same packed-int64
    overlap fold as simhash_screen; at 100 TB the gate runs on a corpus
    sample (pair sets are sample-bounded)."""
    import ray.data as rd

    from ..dedup import embedding_lsh_pairs, embedding_neardup_pairs

    _, cents = _head_vectors(sf_dir, 8)
    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    truth = (
        embedding_neardup_pairs(ds, cents, threshold=0.35)
        .select_columns(["id_a", "id_b"])
        .to_pandas()
    )
    screen = (
        embedding_lsh_pairs(ds, threshold=0.35)
        .select_columns(["id_a", "id_b"])
        .to_pandas()
    )

    def pack(df) -> np.ndarray:
        return (
            df["id_a"].to_numpy(np.int64) * np.int64(2**32)
            + df["id_b"].to_numpy(np.int64)
        )

    tk, sk = pack(truth), pack(screen)
    n_truth, n_screen = len(tk), len(sk)
    n_overlap = int(np.isin(sk, tk).sum())
    recall = n_overlap / max(n_truth, 1)
    prec = n_overlap / max(n_screen, 1)
    r6 = lambda v: np.floor(v * 1e6 + 0.5) / 1e6  # noqa: E731 — v >= 0
    return pa.table(
        {
            "n_truth": pa.array([n_truth], pa.int64()),
            "n_screen": pa.array([n_screen], pa.int64()),
            "n_overlap": pa.array([n_overlap], pa.int64()),
            "recall": pa.array([float(r6(recall))]),
            "prec": pa.array([float(r6(prec))]),
        }
    )


def _sql_lsh_screen() -> str:
    from ..dedup import sql_embedding_lsh, sql_embedding_neardup

    return f"""
WITH sc AS ({sql_embedding_lsh(0.35, 64)}),
tj AS ({sql_embedding_neardup(0.35)}),
m AS (SELECT
  (SELECT COUNT(*) FROM tj)::BIGINT AS n_truth,
  (SELECT COUNT(*) FROM sc)::BIGINT AS n_screen,
  (SELECT COUNT(*) FROM sc JOIN tj
     ON sc.id_a = tj.id_a AND sc.id_b = tj.id_b)::BIGINT AS n_overlap)
SELECT n_truth, n_screen, n_overlap,
       ROUND(n_overlap / GREATEST(n_truth, 1) * 1e6) / 1e6 AS recall,
       ROUND(n_overlap / GREATEST(n_screen, 1) * 1e6) / 1e6 AS prec
FROM m
"""


def _sql_ann_recall() -> str:
    from ..ann import sql_ann_topk, sql_ivf_topk

    return f"""
WITH exact AS (SELECT * FROM ({sql_ann_topk(5, 10)}) t),
     approx AS (SELECT * FROM ({sql_ivf_topk(5, 3, 10, 8)}) t)
SELECT e.query_id,
       ROUND(COUNT(a.neighbor_id) / 5.0 * 1e6) / 1e6 AS recall
FROM exact e LEFT JOIN approx a
  ON a.query_id = e.query_id AND a.neighbor_id = e.neighbor_id
GROUP BY e.query_id
ORDER BY e.query_id
"""


@query("gopher_rules", sql=text.sql_gopher_rules, bench=True)
def q_gopher_rules(sf_dir: str):
    """Gopher quality-rule gate (first-fail reason codes, integer
    cross-multiplied boundaries)."""
    import ray.data as rd

    from ..text import gopher_rules

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return ds.map_batches(gopher_rules, batch_format="pyarrow").sort("doc_id")


@query("ccnet_buckets", sql=lambda: _sql_ccnet_buckets(), bench=True)
def q_ccnet_buckets(sf_dir: str):
    """CCNet-style per-language perplexity bucketing: the corpus-own
    unigram logprob proxy (aggregate -> broadcast -> vectorized score),
    rounded 6dp, then NTILE(3) head/middle/tail per language via the
    integer-rank tile law — the float threshold never exists, so the
    bucket boundary cannot flip on summation noise."""
    import ray.data as rd

    from ..stats import ntile
    from ..text import unigram_logprob_score

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "text"]
    )
    scored = unigram_logprob_score(ds, keep_cols=("lang",))

    def prep(b: pa.Table) -> pa.Table:
        lp = np.asarray(b["logprob"], np.float64)
        null = np.asarray(pc.is_null(b["logprob"]).combine_chunks())
        r = np.sign(lp) * np.floor(np.abs(lp) * 1e6 + 0.5) / 1e6
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "lang": b["lang"],
                "logprob": pa.array(r, mask=null),
                # ascending tile order == logprob DESC; NaN sorts last
                # on both sides (DuckDB DESC NULLS LAST)
                "neg_lp": pa.array(np.where(null, np.nan, -r)),
            }
        )

    tiled = ntile(
        scored.map_batches(prep, batch_format="pyarrow"),
        group_col="lang",
        order_col="neg_lp",
        tiebreak_col="doc_id",
        n=3,
    )

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "lang": b["lang"],
                "logprob": b["logprob"],
                "bucket": b["tile"],
            }
        )

    return tiled.map_batches(finish, batch_format="pyarrow").sort("doc_id")


def _sql_ccnet_buckets() -> str:
    from ..text import sql_unigram_logprob

    return f"""
WITH scored AS (SELECT * FROM ({sql_unigram_logprob("documents")}) t)
SELECT s.doc_id, d.lang, s.logprob,
       NTILE(3) OVER (PARTITION BY d.lang
                      ORDER BY s.logprob DESC NULLS LAST, s.doc_id)::BIGINT
           AS bucket
FROM scored s JOIN documents d USING (doc_id)
ORDER BY s.doc_id
"""


@query(
    "semdedup",
    sql=lambda: dedup.sql_semdedup(k=8, iters=2, tau=SEMDEDUP_TAU),
    bench=True,
    quadratic=True,
)
def q_semdedup(sf_dir: str):
    """SemDeDup semantic dedup: k-means-bucketed within-cluster cosine
    keep/remove marking over the embeddings table."""
    import ray.data as rd

    from ..dedup import semdedup

    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return semdedup(ds, k=8, iters=2, tau=SEMDEDUP_TAU)


SEMDEDUP_TAU = 0.3


def _sql_pii_scrub() -> str:
    from ..text import sql_pii_scrub

    d = "CAST(doc_id AS VARCHAR)"
    pii_text = (
        f"text || ' reach user' || {d} || '@example.com' || "
        f"CASE WHEN doc_id % 2 = 0 THEN ' or 10.' || CAST(doc_id % 256 AS VARCHAR) "
        f"|| '.0.' || CAST(doc_id % 100 AS VARCHAR) ELSE '' END || "
        f"CASE WHEN doc_id % 3 = 0 THEN ' tel 555-' || CAST(100 + doc_id % 900 AS VARCHAR) "
        f"|| '-' || CAST(1000 + doc_id % 9000 AS VARCHAR) ELSE '' END"
    )
    inner = f"SELECT doc_id, {pii_text} AS text FROM documents"
    return sql_pii_scrub(source=f"({inner})")


def _sql_repetition() -> str:
    from ..text import sql_repetition_stats

    inner = sql_repetition_stats(source="(SELECT doc_id, text FROM documents)")
    return (
        f"SELECT doc_id, ROUND(top_bigram_frac * 1e6) / 1e6 AS top_bigram_frac, "
        f"ROUND(dup_trigram_frac * 1e6) / 1e6 AS dup_trigram_frac FROM ({inner})"
    )


def _sql_hier_codes_cte() -> str:
    """CTE chain points -> integer cells -> Morton codes (bit-identical
    twin of hier.with_hier_cells: same floor law, same magic constants)."""
    from ..hier import sql_morton_expr
    from ..synth import sql_points_cte

    return (
        f"WITH points AS ({sql_points_cte()}), cells AS ("
        f"SELECT doc_id, CAST(FLOOR(x / {RES}) AS BIGINT) AS ix, "
        f"CAST(FLOOR(y / {RES}) AS BIGINT) AS iy FROM points"
        f"), codes AS (SELECT doc_id, {sql_morton_expr('ix', 'iy')} AS cell_code "
        f"FROM cells)"
    )


def _sql_cell_hier() -> str:
    from ..hier import sql_quadkey_expr

    return (
        f"{_sql_hier_codes_cte()} SELECT doc_id, cell_code, "
        f"{sql_quadkey_expr('cell_code', HIER_LEVEL)} AS quadkey FROM codes"
    )


def _sql_hex_assign() -> str:
    from ..hex import sql_hex_cte
    from ..synth import sql_points_cte

    return (
        f"WITH pts AS ({sql_points_cte()}), {sql_hex_cte(HEX_SIZE)} "
        f"SELECT doc_id, hq, hr, "
        f"CAST(hq AS VARCHAR) || ':' || CAST(hr AS VARCHAR) AS hex_key "
        f"FROM hexed"
    )


def _sql_s2_assign() -> str:
    from ..s2 import sql_s2_cte
    from ..synth import sql_xyz_cte

    return (
        f"WITH xyz AS ({sql_xyz_cte()}), {sql_s2_cte(S2_LEVEL)} "
        f"SELECT doc_id, face, si, ti, s2_cell,"
        f" (s2_cell >> 8) AS s2_parent FROM s2"
    )


def _sql_s2_density() -> str:
    from ..s2 import sql_s2_cte
    from ..synth import sql_xyz_cte

    shift = 2 * (S2_LEVEL - 6)
    return (
        f"WITH xyz AS ({sql_xyz_cte()}), {sql_s2_cte(S2_LEVEL)} "
        f"SELECT (s2_cell >> {shift}) AS s2_cell6,"
        f" COUNT(*)::BIGINT AS n_docs FROM s2 GROUP BY 1"
    )


def _sql_hex_triangles() -> str:
    from ..hex import _CYCLE, sql_hex_cte
    from ..synth import sql_points_cte

    def nb_join(alias, dq, dr):
        return (
            f"JOIN cells {alias} ON {alias}.hq = c.hq + {dq}"
            f" AND {alias}.hr = c.hr + {dr}"
        )

    tri_branches = " UNION ALL ".join(
        f"SELECT 1 FROM cells c {nb_join('a', *_CYCLE[i])}"
        f" {nb_join('b', *_CYCLE[(i + 1) % 6])}"
        for i in range(6)
    )
    edge_branches = " UNION ALL ".join(
        f"SELECT 1 FROM cells c {nb_join('a', dq, dr)}" for dq, dr in _CYCLE
    )
    return (
        f"WITH pts AS ({sql_points_cte()}), {sql_hex_cte(HEX_SIZE)}, "
        f"cells AS (SELECT DISTINCT hq, hr FROM hexed) "
        f"SELECT (SELECT COUNT(*) FROM cells)::BIGINT AS n_cells,"
        f" ((SELECT COUNT(*) FROM ({edge_branches})) // 2)::BIGINT AS n_edges,"
        f" ((SELECT COUNT(*) FROM ({tri_branches})) // 3)::BIGINT"
        f" AS n_triangles"
    )


def _sql_hex_spatial_lag() -> str:
    from ..hex import kring_offsets, sql_hex_cte
    from ..synth import sql_points_cte

    vals = ", ".join(
        f"({dq}, {dr})" for dq, dr in kring_offsets(1) if (dq, dr) != (0, 0)
    )
    rnd = lambda e: f"(ROUND(({e}) * 1000000.0) / 1000000.0)"
    return (
        f"WITH pts AS ({sql_points_cte()}), {sql_hex_cte(HEX_SIZE)}, "
        f"cells AS (SELECT hq, hr, COUNT(*)::BIGINT AS n FROM hexed"
        f" GROUP BY hq, hr), "
        f"offs(dq, dr) AS (VALUES {vals}), "
        f"lagged AS (SELECT c.hq, c.hr, any_value(c.n) AS n,"
        f" COALESCE(SUM(nb.n), 0)::DOUBLE / 6.0 AS lag"
        f" FROM cells c CROSS JOIN offs o LEFT JOIN cells nb"
        f" ON nb.hq = c.hq + o.dq AND nb.hr = c.hr + o.dr"
        f" GROUP BY c.hq, c.hr), "
        f"s AS (SELECT COUNT(*)::DOUBLE AS nn, SUM(lag) AS sx,"
        f" SUM(n::DOUBLE) AS sy, SUM(lag * lag) AS sxx,"
        f" SUM(lag * n::DOUBLE) AS sxy,"
        f" SUM(n::DOUBLE * n::DOUBLE) AS syy FROM lagged) "
        f"SELECT CAST(nn AS BIGINT) AS n_cells,"
        f" {rnd('(sy - ((nn * sxy - sx * sy) / (nn * sxx - sx * sx)) * sx) / nn')}"
        f" AS beta0,"
        f" {rnd('(nn * sxy - sx * sy) / (nn * sxx - sx * sx)')} AS beta1,"
        f" {rnd('((nn * sxy - sx * sy) * (nn * sxy - sx * sy)) / ((nn * sxx - sx * sx) * (nn * syy - sy * sy))')}"
        f" AS r2 FROM s"
    )


def _sql_idw_interpolate() -> str:
    from ..hex import kring_offsets, sql_hex_cte
    from ..synth import SQL_X, SQL_Y

    s = repr(float(HEX_SIZE))
    vals = ", ".join(f"({dq}, {dr})" for dq, dr in kring_offsets(1))
    cx = f"({s} * ((3.0/2.0) * thq))"
    cy = f"({s} * ((sqrt(3.0)/2.0) * thq + sqrt(3.0) * thr))"
    d2 = f"((x - {cx}) * (x - {cx}) + (y - {cy}) * (y - {cy}))"
    w = f"(1.0 / ({d2} + 1.0))"
    return (
        f"WITH pts AS (SELECT doc_id, {SQL_X} AS x, {SQL_Y} AS y,"
        f" CAST(n_chars AS DOUBLE) AS val FROM documents), "
        f"{sql_hex_cte(HEX_SIZE)}, "
        f"cells AS (SELECT DISTINCT hq, hr FROM hexed), "
        f"offs(dq, dr) AS (VALUES {vals}), "
        f"contrib AS (SELECT c.hq AS thq, c.hr AS thr, p.x, p.y, p.val"
        f" FROM cells c CROSS JOIN offs o JOIN hexed p"
        f" ON p.hq = c.hq + o.dq AND p.hr = c.hr + o.dr) "
        f"SELECT thq AS hq, thr AS hr,"
        f" ROUND((sum({w} * val) / sum({w})) * 1000000.0) / 1000000.0"
        f" AS idw_val FROM contrib GROUP BY thq, thr"
    )


def _sql_geohash_assign() -> str:
    from ..hier import sql_geohash_expr
    from ..synth import sql_lonlat_cte

    gh = sql_geohash_expr("lon", "lat", 8)
    return (
        f"WITH ll AS ({sql_lonlat_cte()}), "
        f"g AS (SELECT doc_id, {gh} AS geohash FROM ll) "
        f"SELECT doc_id, geohash, substr(geohash, 1, 4) AS gh4 FROM g"
    )


def _sql_hex_density() -> str:
    from ..hex import sql_hex_cte
    from ..synth import sql_points_cte

    s = repr(float(HEX_SIZE))
    cx = f"ROUND(({s} * ((3.0/2.0) * hq)) * 1e6) / 1e6"
    cy = f"ROUND(({s} * ((sqrt(3.0)/2.0) * hq + sqrt(3.0) * hr)) * 1e6) / 1e6"
    return (
        f"WITH pts AS ({sql_points_cte()}), {sql_hex_cte(HEX_SIZE)} "
        f"SELECT hq, hr, {cx} AS cx, {cy} AS cy, "
        f"COUNT(*)::BIGINT AS n_docs FROM hexed GROUP BY hq, hr"
    )


def _sql_hex_media_density() -> str:
    from ..hex import sql_hex_cte
    from ..synth import sql_points_cte, sql_span_summary_cte

    return (
        f"WITH pts AS ({sql_points_cte()}), {sql_hex_cte(HEX_SIZE)} "
        f"SELECT h.hq, h.hr, COUNT(*)::BIGINT AS n_docs, "
        f"SUM(ss.n_spans)::BIGINT AS n_spans, "
        f"SUM(ss.n_spans - ss.n_text)::BIGINT AS n_media "
        f"FROM hexed h JOIN ({sql_span_summary_cte()}) ss "
        f"ON h.doc_id = ss.doc_id GROUP BY h.hq, h.hr"
    )


def _sql_hex_focal() -> str:
    from ..hex import sql_hex_cte
    from ..synth import sql_points_cte

    return (
        f"WITH pts AS ({sql_points_cte()}), {sql_hex_cte(HEX_SIZE)}, "
        f"d AS (SELECT hq, hr, COUNT(*)::BIGINT AS n FROM hexed GROUP BY hq, hr), "
        f"off(dq, dr) AS (VALUES (0,0),(1,0),(1,-1),(0,-1),(-1,0),(-1,1),(0,1)), "
        f"sc AS (SELECT d.hq + o.dq AS tq, d.hr + o.dr AS tr, d.n "
        f"FROM d CROSS JOIN off o) "
        f"SELECT d2.hq, d2.hr, d2.n AS n_docs, SUM(sc.n)::BIGINT AS focal_docs "
        f"FROM d d2 JOIN sc ON sc.tq = d2.hq AND sc.tr = d2.hr "
        f"GROUP BY d2.hq, d2.hr, d2.n"
    )


def _sql_hex_zscore() -> str:
    from ..hex import sql_hex_cte
    from ..synth import sql_points_cte

    return (
        f"WITH pts AS ({sql_points_cte()}), {sql_hex_cte(HEX_SIZE)}, "
        f"d AS (SELECT hq, hr, COUNT(*)::BIGINT AS n FROM hexed GROUP BY hq, hr), "
        f"g AS (SELECT SUM(n)::DOUBLE AS s, SUM(n*n)::DOUBLE AS ss, "
        f"COUNT(*)::DOUBLE AS k FROM d) "
        f"SELECT d.hq, d.hr, d.n AS n_docs, "
        f"ROUND(((d.n - (g.s / g.k)) / sqrt(g.ss / g.k - (g.s / g.k) * (g.s / g.k)))"
        f" * 1e6) / 1e6 AS z FROM d, g"
    )


def _sql_nearest_hub() -> str:
    from ..geodesic import sql_haversine_expr, sql_hubs_cte
    from ..synth import sql_lonlat_cte

    hav = sql_haversine_expr("lon", "lat", "hlon", "hlat")
    return (
        f"WITH ll AS ({sql_lonlat_cte()}), {sql_hubs_cte()}, "
        f"d AS (SELECT doc_id, hub_id, {hav} AS dist "
        f"FROM ll CROSS JOIN hubs) "
        f"SELECT doc_id, hub_id, ROUND(dist * 1e3) / 1e3 AS hub_km FROM d "
        f"QUALIFY ROW_NUMBER() OVER (PARTITION BY doc_id "
        f"ORDER BY dist, hub_id) = 1"
    )


def _sql_zrange_query() -> str:
    from ..hier import sql_morton_expr
    from ..synth import sql_points_cte

    x0, y0, x1, y1 = ZQ_BBOX
    return (
        f"WITH points AS ({sql_points_cte()}), f AS ("
        f"SELECT doc_id, x, y FROM points WHERE x >= {x0!r} AND x < {x1!r} "
        f"AND y >= {y0!r} AND y < {y1!r}), cells AS ("
        f"SELECT doc_id, CAST(FLOOR(x / {RES}) AS BIGINT) AS ix, "
        f"CAST(FLOOR(y / {RES}) AS BIGINT) AS iy FROM f) "
        f"SELECT doc_id, {sql_morton_expr('ix', 'iy')} AS cell_code FROM cells"
    )


def _sql_hier_rollup() -> str:
    shift = 2 * (HIER_LEVEL - HIER_PARENT)
    return (
        f"{_sql_hier_codes_cte()} "
        f"SELECT cell_code >> {shift} AS parent_code, "
        f"COUNT(*)::BIGINT AS n_docs, "
        f"COUNT(DISTINCT cell_code)::BIGINT AS n_cells "
        f"FROM codes GROUP BY parent_code"
    )


def _sql_reproject() -> str:
    esql, nsql = sql_laea_forward("lon", "lat")
    return (
        f"WITH ll AS ({sql_lonlat_cte()}) "
        f"SELECT doc_id, ROUND({esql} * 1e3) / 1e3 AS easting, "
        f"ROUND({nsql} * 1e3) / 1e3 AS northing FROM ll"
    )


def _sql_corpus_curate() -> str:
    """Recursive-CTE twin of q_corpus_curate: transitive closure of the
    symmetrized exact-Jaccard pair graph -> min-reachable component ->
    keep doc_id == component -> same rounded quality gate."""
    from ..dedup import sql_ngram_jaccard
    from ..text import sql_quality_score

    return f"""
WITH RECURSIVE pairs AS ({sql_ngram_jaccard(0.3)}),
edges AS (
  SELECT id_a AS a, id_b AS b FROM pairs
  UNION SELECT id_b, id_a FROM pairs
),
reach(a, b) AS (
  SELECT a, b FROM edges
  UNION
  SELECT r.a, e.b FROM reach r JOIN edges e ON r.b = e.a
),
lab AS (
  SELECT d.doc_id,
         LEAST(d.doc_id, COALESCE(MIN(r.b), d.doc_id)) AS component
  FROM documents d LEFT JOIN reach r ON r.a = d.doc_id
  GROUP BY d.doc_id
),
q AS (SELECT doc_id, lang, ROUND(quality * 1e6) / 1e6 AS quality
      FROM ({sql_quality_score()}))
SELECT l.doc_id, q.lang, q.quality
FROM lab l JOIN q ON q.doc_id = l.doc_id
WHERE l.doc_id = l.component AND q.quality >= {CURATE_MIN_QUALITY}
"""


def _sql_train_split():
    from ..stats import sql_split_by_hash

    return ("SELECT doc_id, lang, split FROM (" + sql_split_by_hash("doc_id") + ")")


def _sql_disaggregate():
    from ..overlay import sql_disaggregate

    spec = plan_grid(DOMAIN, OVL_CELL, tile=(8, 8))
    return sql_disaggregate(spec, ["pop"])


def _sql_zonal_stats():
    from ..synth import sql_polygon_rects_cte

    return f"""
WITH cells AS ({_sql_raster_cells()}),
poly_rects AS ({sql_polygon_rects_cte()})
SELECT r.poly_id,
       COUNT(*)::BIGINT AS n_cells,
       ROUND(SUM(p.elev) * 1e2) / 1e2 AS elev_sum,
       ROUND((SUM(p.elev) / COUNT(*)) * 1e6) / 1e6 AS elev_mean
FROM cells p
JOIN poly_rects r
  ON p.x >= r.rxmin AND p.x < r.rxmax AND p.y >= r.rymin AND p.y < r.rymax
GROUP BY r.poly_id
"""


def _sql_raster_cells():
    from ..raster import SyntheticRaster, sql_raster_cells

    return sql_raster_cells(SyntheticRaster(**_RASTER_KW), tile_size_cell=64)


def _sql_ngram():
    from ..dedup import sql_ngram_jaccard

    return (
        "SELECT id_a, id_b, ROUND(jaccard * 1e6) / 1e6 AS jaccard FROM ("
        + sql_ngram_jaccard(0.3)
        + ")"
    )


def _sql_ivf():
    from ..ann import sql_ivf_topk

    return sql_ivf_topk(5, 3, 10, 8)


