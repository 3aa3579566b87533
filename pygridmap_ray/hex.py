"""Hexagonal cell indexing (H3-style) over the planar domain.

The north rule asks for "batched H3/S2 indexing inside map_batches".
:mod:`pygridmap_ray.hier` covers the S2 family (square Morton/quadkey
cells); this module adds the H3 family: a flat-top hexagonal lattice in
axial coordinates (q, r), assigned by the classic fractional-axial +
cube-rounding construction (Amit Patel's public hex-grid notes; the same
point→cell law H3 uses on each gnomonic face).

Hexagons are the H3 pitch for spatial joins because every cell has six
EQUIDISTANT neighbours (square grids have two neighbour distances), so
k-ring smoothing and density contours are isotropic.

Laws (bit-identical DuckDB twins in ``sql_hex_cte`` — same constant
expressions, same op order; ``sqrt`` is IEEE-754 correctly rounded in
both engines, so ``sqrt(3.0)`` is the same double):

    fq = ((2.0/3.0) * x) / size
    fr = ((-1.0/3.0) * x + (sqrt(3.0)/3.0) * y) / size
    fs = -fq - fr                      (cube constraint q + r + s = 0)
    rq, rr, rs = floor(f? + 0.5)       (shared half-up law, both sides)
    fix the axis with the largest |r? - f?|:
        if dq > dr and dq > ds:  q = -rr - rs   else q = rq
        elif dr > ds:            r = -rq - rs   else r = rr

Centers (axial → pixel, flat-top): cx = size * ((3.0/2.0) * q),
cy = size * ((sqrt(3.0)/2.0) * q + sqrt(3.0) * r).

Scale shape: assignment is a stateless zero-copy Arrow ``map_batches``
stage (reference parity: pygridmap gridtiler.py grid_tiling assigns
square cells per chunk; here the lattice is hexagonal).  Density is
two-phase: per-batch packed-int ``np.unique`` partials -> one hash
aggregate on at most O(domain/size²) keys -> decode.  No map_groups,
no per-row Python.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = [
    "hex_axial",
    "hex_center",
    "correlogram",
    "general_g",
    "hex_idw",
    "hex_kde",
    "hex_lattice_stats",
    "hex_neighbors",
    "hex_spatial_lag",
    "with_hex_cells",
    "hex_density",
    "hex_focal",
    "hex_rollup",
    "hex_zscore",
    "kring_offsets",
    "gi_star",
    "local_morans_i",
    "morans_i",
    "sql_hex_cte",
]

# constants are COMPUTED (not inlined decimals) so the Python floats and
# the DuckDB twin's folded expressions are the same doubles by shared law
_C_Q = 2.0 / 3.0
_C_RX = -1.0 / 3.0
_SQRT3 = np.sqrt(3.0)
_SQRT3_3 = _SQRT3 / 3.0
_SQRT3_2 = _SQRT3 / 2.0
_C_CX = 3.0 / 2.0

#: the six axial neighbour offsets (flat-top), fixed public order
_NEIGHBORS = ((1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1))


def hex_axial(
    x: np.ndarray, y: np.ndarray, size: float
) -> tuple[np.ndarray, np.ndarray]:
    """Axial (q, r) of each point on the flat-top hex lattice of
    circumradius `size` (cube-rounding law above)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    fq = (_C_Q * x) / size
    fr = (_C_RX * x + _SQRT3_3 * y) / size
    fs = -fq - fr
    rq = np.floor(fq + 0.5)
    rr = np.floor(fr + 0.5)
    rs = np.floor(fs + 0.5)
    dq = np.abs(rq - fq)
    dr = np.abs(rr - fr)
    ds_ = np.abs(rs - fs)
    fix_q = (dq > dr) & (dq > ds_)
    fix_r = ~fix_q & (dr > ds_)
    q = np.where(fix_q, -rr - rs, rq).astype(np.int64)
    r = np.where(fix_r, -rq - rs, rr).astype(np.int64)
    return q, r


def hex_center(
    q: np.ndarray, r: np.ndarray, size: float
) -> tuple[np.ndarray, np.ndarray]:
    """Center (cx, cy) of axial cell (q, r) — flat-top axial→pixel."""
    qf = np.asarray(q, dtype=np.float64)
    rf = np.asarray(r, dtype=np.float64)
    return size * (_C_CX * qf), size * (_SQRT3_2 * qf + _SQRT3 * rf)


def hex_neighbors(q: int, r: int) -> list[tuple[int, int]]:
    """The six axial neighbours of (q, r), fixed order."""
    return [(q + dq, r + dr) for dq, dr in _NEIGHBORS]


def _pack(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """(q, r) -> one int64 key: (q << 32) | (r & 0xFFFFFFFF).  Signed-safe
    on both fields (arithmetic shifts recover them in :func:`_unpack`)."""
    return (np.asarray(q, np.int64) << 32) | (
        np.asarray(r, np.int64) & np.int64(4294967295)
    )


def _unpack(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    key = np.asarray(key, dtype=np.int64)
    return key >> 32, (key << 32) >> 32


def _assign_batch(
    batch: pa.Table, *, size: float, x_col: str, y_col: str
) -> pa.Table:
    x = np.asarray(batch[x_col], dtype=np.float64)
    y = np.asarray(batch[y_col], dtype=np.float64)
    q, r = hex_axial(x, y, size)
    key = pc.binary_join_element_wise(
        pc.cast(pa.array(q), pa.string()),
        pc.cast(pa.array(r), pa.string()),
        ":",
    )
    return (
        batch.append_column("hq", pa.array(q))
        .append_column("hr", pa.array(r))
        .append_column("hex_key", key)
    )


def with_hex_cells(
    ds,
    *,
    size: float,
    x_col: str = "x",
    y_col: str = "y",
):
    """Dataset -> Dataset with (hq, hr, hex_key) appended: the H3-style
    batched indexing stage (stateless Arrow tasks, zero-copy in)."""
    return ds.map_batches(
        _assign_batch,
        batch_format="pyarrow",
        fn_kwargs=dict(size=size, x_col=x_col, y_col=y_col),
    )


def hex_density(ds, *, size: float):
    """(hq, hr) Dataset -> per-hex doc count with cell centers.

    Two-phase: per-batch packed-key ``np.unique`` partials (the shuffle
    carries at most one row per hex per batch) -> one hash aggregate on
    O((domain/size)²) keys -> unpack + centers.  Float centers are
    rounded half-away to 6dp (house float-output law).
    """
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        key = _pack(np.asarray(b["hq"], np.int64), np.asarray(b["hr"], np.int64))
        u, c = np.unique(key, return_counts=True)
        return pa.table({"hkey": u, "docs": c.astype(np.int64)})

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("hkey")
        .aggregate(Sum("docs", alias_name="n_docs"))
    )

    def finish(b: pa.Table) -> pa.Table:
        q, r = _unpack(np.asarray(b["hkey"], np.int64))
        cx, cy = hex_center(q, r, size)
        rnd = lambda v: np.sign(v) * np.floor(np.abs(v) * 1e6 + 0.5) / 1e6
        return pa.table(
            {
                "hq": pa.array(q),
                "hr": pa.array(r),
                "cx": pa.array(rnd(cx)),
                "cy": pa.array(rnd(cy)),
                "n_docs": b["n_docs"],
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def hex_rollup(ds, *, sum_cols: dict[str, str]):
    """(hq, hr, *cols) Dataset -> per-hex n_docs plus SUM of each named
    integer column (`sum_cols` maps output name -> input column).

    Same two-phase shape as :func:`hex_density`: per-batch packed-key
    ``np.unique`` partials (heavy payload columns never shuffle — one
    partial row per hex per batch) -> one small hash aggregate -> unpack.
    """
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        key = _pack(np.asarray(b["hq"], np.int64), np.asarray(b["hr"], np.int64))
        u, inv = np.unique(key, return_inverse=True)
        cols: dict[str, pa.Array] = {
            "hkey": pa.array(u),
            "docs": pa.array(np.bincount(inv, minlength=len(u)).astype(np.int64)),
        }
        for out, src in sum_cols.items():
            v = np.asarray(b[src], dtype=np.int64)
            # per-batch sums stay < 2**53 (batch-bounded), so the float
            # bincount accumulator is exact before the int64 cast
            cols[out] = pa.array(
                np.bincount(inv, weights=v, minlength=len(u)).astype(np.int64)
            )
        return pa.table(cols)

    aggs = [Sum("docs", alias_name="n_docs")] + [
        Sum(out, alias_name=out) for out in sum_cols
    ]
    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("hkey")
        .aggregate(*aggs)
    )

    def finish(b: pa.Table) -> pa.Table:
        q, r = _unpack(np.asarray(b["hkey"], np.int64))
        out_cols = {"hq": pa.array(q), "hr": pa.array(r), "n_docs": b["n_docs"]}
        for out in sum_cols:
            out_cols[out] = b[out]
        return pa.table(out_cols)

    return agg.map_batches(finish, batch_format="pyarrow")


def kring_offsets(k: int) -> list[tuple[int, int]]:
    """All axial offsets within hex distance <= k (hex distance =
    (|dq| + |dr| + |dq+dr|) / 2), self included; (2k+1)·(k+1) + k²
    offsets — 7 for k=1, 19 for k=2."""
    out = []
    for dq in range(-k, k + 1):
        for dr in range(-k, k + 1):
            if (abs(dq) + abs(dr) + abs(dq + dr)) // 2 <= k:
                out.append((dq, dr))
    return out


def hex_focal(ds, *, size: float, k: int = 1):
    """(hq, hr) Dataset -> per-occupied-hex focal (k-ring 1) doc count:
    for every hex that contains at least one doc, the total docs in
    itself plus its six neighbours.

    Scale shape: after the tiny per-hex aggregate, each hex SCATTERS its
    count to its k-ring targets (7 for k=1, 19 for k=2) plus one self
    marker row, and a single
    second hash aggregate resolves both the focal sum and the
    occupied-filter — no join anywhere (the marker-row trick replaces the
    usual focal self-join), and the second shuffle carries at most
    ring-size rows per occupied hex.
    """
    from ray.data.aggregate import Max, Sum

    offs = kring_offsets(k)
    n_offs = len(offs)

    def partial(b: pa.Table) -> pa.Table:
        key = _pack(np.asarray(b["hq"], np.int64), np.asarray(b["hr"], np.int64))
        u, c = np.unique(key, return_counts=True)
        return pa.table({"hkey": u, "docs": c.astype(np.int64)})

    dens = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("hkey")
        .aggregate(Sum("docs", alias_name="n"))
    )

    def scatter(b: pa.Table) -> pa.Table:
        q, r = _unpack(np.asarray(b["hkey"], np.int64))
        n = np.asarray(b["n"], np.int64)
        tkeys = [_pack(q + dq, r + dr) for dq, dr in offs]
        tkey = np.concatenate(tkeys + [_pack(q, r)])
        contrib = np.concatenate(
            [np.tile(n, n_offs), np.zeros(len(n), np.int64)]
        )
        self_n = np.concatenate([np.zeros(n_offs * len(n), np.int64), n])
        return pa.table({"tkey": tkey, "contrib": contrib, "self_n": self_n})

    focal = (
        dens.map_batches(scatter, batch_format="pyarrow")
        .groupby("tkey")
        .aggregate(
            Sum("contrib", alias_name="focal_docs"),
            Max("self_n", alias_name="n_docs"),
        )
    )

    def finish(b: pa.Table) -> pa.Table:
        keep = np.asarray(b["n_docs"], np.int64) > 0
        q, r = _unpack(np.asarray(b["tkey"], np.int64)[keep])
        return pa.table(
            {
                "hq": pa.array(q),
                "hr": pa.array(r),
                "n_docs": pa.array(np.asarray(b["n_docs"], np.int64)[keep]),
                "focal_docs": pa.array(
                    np.asarray(b["focal_docs"], np.int64)[keep]
                ),
            }
        )

    return focal.map_batches(finish, batch_format="pyarrow")


def hex_idw(ds, *, size: float, k: int = 1, val_col: str = "val"):
    """Inverse-distance-weighted field estimate at occupied hex centers.

    Each point carries a value; the estimate at cell c is
    ``sum(w_p * v_p) / sum(w_p)`` over every point p whose hex lies in
    c's k-ring, with ``w = 1 / (d2 + 1.0)`` and ``d2`` the squared planar
    distance from the point to c's CENTER (the +1 m^2 floor caps the
    weight of points sitting on the center).  Output rounded half-away
    at 6 dp (the twin replays identical constants; residual divergence is
    summation-order ulps, orders below the step).

    Scale shape: one pass over the points — each point scatters its
    (w*v, w) contribution to its ring's target keys, PRE-AGGREGATED per
    batch with a packed-key unique, plus a self marker row; ONE hash
    aggregate resolves sums and the occupied filter (marker-row trick,
    no join).  Shuffle rows <= ring_size * occupied cells per batch.
    """
    from ray.data.aggregate import Max, Sum

    offs = kring_offsets(k)

    def partial(b: pa.Table) -> pa.Table:
        q = np.asarray(b["hq"], np.int64)
        r = np.asarray(b["hr"], np.int64)
        x = np.asarray(b["x"], np.float64)
        y = np.asarray(b["y"], np.float64)
        v = np.asarray(b[val_col], np.float64)
        n = len(q)
        tkeys, wvs, ws = [], [], []
        for dq, dr in offs:
            tq, tr = q + dq, r + dr
            cx, cy = hex_center(tq, tr, size)
            d2 = (x - cx) * (x - cx) + (y - cy) * (y - cy)
            w = 1.0 / (d2 + 1.0)
            tkeys.append(_pack(tq, tr))
            wvs.append(w * v)
            ws.append(w)
        tkey = np.concatenate(tkeys)
        wv = np.concatenate(wvs)
        w = np.concatenate(ws)
        occ = np.zeros(len(tkey), np.int64)
        # self marker rows flag occupied cells (zero-weight contributions)
        tkey = np.concatenate([tkey, _pack(q, r)])
        wv = np.concatenate([wv, np.zeros(n)])
        w = np.concatenate([w, np.zeros(n)])
        occ = np.concatenate([occ, np.ones(n, np.int64)])
        # in-batch combiner: collapse duplicate targets before the shuffle
        u, inv = np.unique(tkey, return_inverse=True)
        return pa.table(
            {
                "tkey": u,
                "wv": np.bincount(inv, weights=wv),
                "w": np.bincount(inv, weights=w),
                "occ": np.bincount(
                    inv, weights=occ.astype(np.float64)
                ).astype(np.int64),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("tkey")
        .aggregate(
            Sum("wv", alias_name="swv"),
            Sum("w", alias_name="sw"),
            Max("occ", alias_name="occ"),
        )
    )

    def finish(b: pa.Table) -> pa.Table:
        keep = np.asarray(b["occ"], np.int64) > 0
        q, r = _unpack(np.asarray(b["tkey"], np.int64)[keep])
        swv = np.asarray(b["swv"], np.float64)[keep]
        sw = np.asarray(b["sw"], np.float64)[keep]
        idw = np.floor(np.abs(swv / sw) * 1e6 + 0.5) / 1e6 * np.sign(swv / sw)
        return pa.table(
            {"hq": pa.array(q), "hr": pa.array(r), "idw_val": pa.array(idw)}
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def hex_zscore(ds, *, size: float):
    """(hq, hr) Dataset -> per-occupied-hex density z-score (the
    Getis-Ord-style hotspot screen): z = (n - mean) / std over the
    population of occupied hexes.

    Scale shape: per-hex counts via the usual packed-key partials; the
    GLOBAL moments reduce as one (k, s, ss) integer row per batch (sums
    of counts and squared counts are < 2**53, so they are EXACT and
    addition-order-free — the z law is bit-identical to the SQL twin),
    then ride the closure as two scalars.  The density table is
    materialized once (it is the small aggregate, never raw rows).
    """
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        key = _pack(np.asarray(b["hq"], np.int64), np.asarray(b["hr"], np.int64))
        u, c = np.unique(key, return_counts=True)
        return pa.table({"hkey": u, "n": c.astype(np.int64)})

    dens = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("hkey")
        .aggregate(Sum("n", alias_name="n"))
        .materialize()
    )

    def gpart(b: pa.Table) -> pa.Table:
        n = np.asarray(b["n"], np.int64)
        return pa.table(
            {
                "k": pa.array([np.int64(len(n))]),
                "s": pa.array([n.sum()]),
                "ss": pa.array([(n * n).sum()]),
            }
        )

    g = dens.map_batches(gpart, batch_format="pyarrow").sum(["k", "s", "ss"])
    k = float(g["sum(k)"])
    s = float(g["sum(s)"])
    ss = float(g["sum(ss)"])
    m = s / k
    denom = np.sqrt(ss / k - (s / k) * (s / k))

    def finish(b: pa.Table) -> pa.Table:
        q, r = _unpack(np.asarray(b["hkey"], np.int64))
        n = np.asarray(b["n"], np.int64).astype(np.float64)
        z = (n - m) / denom
        z = np.sign(z) * np.floor(np.abs(z) * 1e6 + 0.5) / 1e6
        return pa.table(
            {
                "hq": pa.array(q),
                "hr": pa.array(r),
                "n_docs": b["n"],
                "z": pa.array(z),
            }
        )

    return dens.map_batches(finish, batch_format="pyarrow")


# axial neighbor directions in CYCLIC order (consecutive entries are
# themselves adjacent — the corner-triple property triangle counting uses)
_CYCLE = ((1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1))


def hex_lattice_stats(ds, *, size: float):
    """Graph profile of the occupied-hex adjacency lattice: one row
    (n_cells, n_edges, n_triangles) where edges join adjacent occupied
    cells and triangles are 3-cliques (corner triples of mutually
    adjacent cells).

    Law: every occupied cell scatters an occupancy bit to each of its 6
    neighbors; per occupied cell the 6-bit mask m gives popcount(m)
    half-edges and ``sum_i m_i & m_{(i+1) mod 6}`` triangle corners
    (consecutive cyclic directions are mutually adjacent) — so
    ``E = sum popcount / 2`` and ``T = sum corners / 3``.  Exact
    integers, no float law.

    Scale shape: unique-cell partials -> scatter (6 rows/cell + self
    marker) -> ONE hash aggregate -> int partials -> global sum.  The
    same no-join marker-row plan as :func:`hex_focal`; never an
    edge-list materialization.
    """
    from ray.data.aggregate import Max, Sum

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
            # target t = c + d_i sees c as its neighbor in the OPPOSITE
            # direction (i + 3) mod 6
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

    def counts(b: pa.Table) -> pa.Table:
        occ = np.asarray(b["occ"], np.int64) > 0
        m = np.asarray(b["mask"], np.int64)[occ]
        half = np.zeros(len(m), np.int64)
        corners = np.zeros(len(m), np.int64)
        for i in range(6):
            bi = (m >> i) & 1
            half += bi
            corners += bi & ((m >> ((i + 1) % 6)) & 1)
        return pa.table(
            {
                "cells": np.array([int(occ.sum())], np.int64),
                "half_edges": np.array([int(half.sum())], np.int64),
                "corners": np.array([int(corners.sum())], np.int64),
            }
        )

    tot = masked.map_batches(counts, batch_format="pyarrow").sum(
        ["cells", "half_edges", "corners"]
    )

    import ray.data as rd

    return rd.from_arrow(
        pa.table(
            {
                "n_cells": pa.array([int(tot["sum(cells)"])], pa.int64()),
                "n_edges": pa.array(
                    [int(tot["sum(half_edges)"]) // 2], pa.int64()
                ),
                "n_triangles": pa.array(
                    [int(tot["sum(corners)"]) // 3], pa.int64()
                ),
            }
        )
    )


def general_g(ds, *, size: float):
    """Getis-Ord General G over the occupied-hex density field with
    binary ring-1 lattice weights: ``G = sum_{i!=j} w_ij x_i x_j /
    sum_{i!=j} x_i x_j`` plus its expectation ``E[G] = W / (n(n-1))``
    (universe = occupied cells; x = cell doc count; W = directed
    adjacent-pair count).  One row (n_cells, w_sum, g, e_g), g/e_g
    rounded 6dp — the global clustering companion to :func:`gi_star`.

    Scale shape: the same density -> neighbor-scatter -> single hash
    aggregate plan as :func:`hex_spatial_lag` (the scatter additionally
    carries a 1 per contribution to count W); all sums are exact
    integers, reduced to four scalars.
    """
    from ray.data.aggregate import Max, Sum

    neigh = [o for o in kring_offsets(1) if o != (0, 0)]

    def partial(b: pa.Table) -> pa.Table:
        key = _pack(np.asarray(b["hq"], np.int64), np.asarray(b["hr"], np.int64))
        u, c = np.unique(key, return_counts=True)
        return pa.table({"hkey": u, "docs": c.astype(np.int64)})

    dens = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("hkey")
        .aggregate(Sum("docs", alias_name="n"))
    )

    def scatter(b: pa.Table) -> pa.Table:
        q, r = _unpack(np.asarray(b["hkey"], np.int64))
        n = np.asarray(b["n"], np.int64)
        tkey = np.concatenate(
            [_pack(q + dq, r + dr) for dq, dr in neigh] + [_pack(q, r)]
        )
        contrib = np.concatenate(
            [np.tile(n, len(neigh)), np.zeros(len(n), np.int64)]
        )
        links = np.concatenate(
            [np.ones(len(neigh) * len(n), np.int64), np.zeros(len(n), np.int64)]
        )
        self_n = np.concatenate([np.zeros(len(neigh) * len(n), np.int64), n])
        return pa.table(
            {"tkey": tkey, "contrib": contrib, "links": links, "self_n": self_n}
        )

    lagged = (
        dens.map_batches(scatter, batch_format="pyarrow")
        .groupby("tkey")
        .aggregate(
            Sum("contrib", alias_name="ring_sum"),
            Sum("links", alias_name="nbrs"),
            Max("self_n", alias_name="n"),
        )
    )

    def sums(b: pa.Table) -> pa.Table:
        n = np.asarray(b["n"], np.int64)
        keep = n > 0
        x = n[keep]
        ring = np.asarray(b["ring_sum"], np.int64)[keep]
        nbrs = np.asarray(b["nbrs"], np.int64)[keep]
        return pa.table(
            {
                "cnt": np.array([int(keep.sum())], np.int64),
                "num": np.array([int((x * ring).sum())], np.int64),
                "w": np.array([int(nbrs.sum())], np.int64),
                "sx": np.array([int(x.sum())], np.int64),
                "sxx": np.array([int((x * x).sum())], np.int64),
            }
        )

    tot = lagged.map_batches(sums, batch_format="pyarrow").sum(
        ["cnt", "num", "w", "sx", "sxx"]
    )

    import ray.data as rd

    nn = int(tot["sum(cnt)"])
    num = float(tot["sum(num)"])
    w = int(tot["sum(w)"])
    sx = float(tot["sum(sx)"])
    sxx = float(tot["sum(sxx)"])
    g = num / (sx * sx - sxx)
    e_g = float(w) / (float(nn) * (float(nn) - 1.0))
    rnd = lambda v: float(np.sign(v) * np.floor(np.abs(v) * 1e6 + 0.5) / 1e6)
    return rd.from_arrow(
        pa.table(
            {
                "n_cells": pa.array([nn], pa.int64()),
                "w_sum": pa.array([w], pa.int64()),
                "g": pa.array([rnd(g)]),
                "e_g": pa.array([rnd(e_g)]),
            }
        )
    )


def hex_kde(ds, *, size: float, bandwidth: float, k: int = 2):
    """Gaussian kernel density surface at occupied hex centers:
    ``kde = sum_p exp(-d2 / (2 h^2))`` over every point p whose hex lies
    in the cell's k-ring (the kernel is truncated at the ring — the
    documented finite-support law), d2 = squared planar distance to the
    CENTER, rounded 6dp.  The heatmap operator; unnormalized so the
    value is a smoothed count, not a density per m².

    Scale shape: identical to :func:`hex_idw` — per-point scatter with
    per-batch packed-key combiners and ONE marker-row hash aggregate.
    """
    from ray.data.aggregate import Max, Sum

    offs = kring_offsets(k)
    h2 = 2.0 * (float(bandwidth) * float(bandwidth))

    def partial(b: pa.Table) -> pa.Table:
        q = np.asarray(b["hq"], np.int64)
        r = np.asarray(b["hr"], np.int64)
        x = np.asarray(b["x"], np.float64)
        y = np.asarray(b["y"], np.float64)
        n = len(q)
        tkeys, ws = [], []
        for dq, dr in offs:
            tq, tr = q + dq, r + dr
            cx, cy = hex_center(tq, tr, size)
            d2 = (x - cx) * (x - cx) + (y - cy) * (y - cy)
            tkeys.append(_pack(tq, tr))
            ws.append(np.exp(-d2 / h2))
        tkey = np.concatenate(tkeys + [_pack(q, r)])
        w = np.concatenate(ws + [np.zeros(n)])
        occ = np.concatenate(
            [np.zeros(len(tkey) - n, np.int64), np.ones(n, np.int64)]
        )
        u, inv = np.unique(tkey, return_inverse=True)
        return pa.table(
            {
                "tkey": u,
                "w": np.bincount(inv, weights=w),
                "occ": np.bincount(
                    inv, weights=occ.astype(np.float64)
                ).astype(np.int64),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("tkey")
        .aggregate(Sum("w", alias_name="kde"), Max("occ", alias_name="occ"))
    )

    def finish(b: pa.Table) -> pa.Table:
        keep = np.asarray(b["occ"], np.int64) > 0
        q, r = _unpack(np.asarray(b["tkey"], np.int64)[keep])
        v = np.asarray(b["kde"], np.float64)[keep]
        v = np.sign(v) * np.floor(np.abs(v) * 1e6 + 0.5) / 1e6
        return pa.table(
            {"hq": pa.array(q), "hr": pa.array(r), "kde": pa.array(v)}
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def hex_spatial_lag(ds, *, size: float):
    """Spatial-lag OLS over the hex density field: regress each occupied
    cell's count on its NEIGHBOR-MEAN count (lag = ring-1 sum / 6.0,
    absent neighbors counting 0) and return the closed-form fit — one row
    (beta0, beta1, r2, n_cells), rounded 6dp.  The autoregressive
    companion to :func:`morans_i`: beta1 estimates the strength of
    spatial dependence as a slope instead of a cross-moment.

    Scale shape: density partials -> scatter to the SIX neighbors plus a
    self marker -> one hash aggregate resolves (n, lag) per cell -> tiny
    (1, x, y, xx, xy, yy) sum partials -> one global reduce; closed form
    on six scalars.  No join, no materialization.
    """
    from ray.data.aggregate import Max, Sum

    neigh = [o for o in kring_offsets(1) if o != (0, 0)]

    def partial(b: pa.Table) -> pa.Table:
        key = _pack(np.asarray(b["hq"], np.int64), np.asarray(b["hr"], np.int64))
        u, c = np.unique(key, return_counts=True)
        return pa.table({"hkey": u, "docs": c.astype(np.int64)})

    dens = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("hkey")
        .aggregate(Sum("docs", alias_name="n"))
    )

    def scatter(b: pa.Table) -> pa.Table:
        q, r = _unpack(np.asarray(b["hkey"], np.int64))
        n = np.asarray(b["n"], np.int64)
        tkey = np.concatenate(
            [_pack(q + dq, r + dr) for dq, dr in neigh] + [_pack(q, r)]
        )
        contrib = np.concatenate(
            [np.tile(n, len(neigh)), np.zeros(len(n), np.int64)]
        )
        self_n = np.concatenate([np.zeros(len(neigh) * len(n), np.int64), n])
        return pa.table({"tkey": tkey, "contrib": contrib, "self_n": self_n})

    lagged = (
        dens.map_batches(scatter, batch_format="pyarrow")
        .groupby("tkey")
        .aggregate(
            Sum("contrib", alias_name="ring_sum"),
            Max("self_n", alias_name="n"),
        )
    )

    def sums(b: pa.Table) -> pa.Table:
        n = np.asarray(b["n"], np.int64)
        keep = n > 0
        y = n[keep].astype(np.float64)
        x = np.asarray(b["ring_sum"], np.int64)[keep].astype(np.float64) / 6.0
        return pa.table(
            {
                "cnt": np.array([len(y)], np.int64),
                "sx": np.array([x.sum()]),
                "sy": np.array([y.sum()]),
                "sxx": np.array([(x * x).sum()]),
                "sxy": np.array([(x * y).sum()]),
                "syy": np.array([(y * y).sum()]),
            }
        )

    tot = (
        lagged.map_batches(sums, batch_format="pyarrow")
        .sum(["cnt", "sx", "sy", "sxx", "sxy", "syy"])
    )

    import ray.data as rd

    nn = float(tot["sum(cnt)"])
    sx, sy = tot["sum(sx)"], tot["sum(sy)"]
    sxx, sxy, syy = tot["sum(sxx)"], tot["sum(sxy)"], tot["sum(syy)"]
    cov = nn * sxy - sx * sy
    varx = nn * sxx - sx * sx
    vary = nn * syy - sy * sy
    beta1 = cov / varx
    beta0 = (sy - beta1 * sx) / nn
    r2 = (cov * cov) / (varx * vary)
    rnd = lambda v: float(np.sign(v) * np.floor(np.abs(v) * 1e6 + 0.5) / 1e6)
    return rd.from_arrow(
        pa.table(
            {
                "n_cells": pa.array([int(nn)], pa.int64()),
                "beta0": pa.array([rnd(beta0)]),
                "beta1": pa.array([rnd(beta1)]),
                "r2": pa.array([rnd(r2)]),
            }
        )
    )


def morans_i(ds, *, size: float):
    """Global Moran's I spatial autocorrelation of the per-hex doc
    density under 6-neighbour lattice adjacency (binary weights):

        I = ((N / W) * SUM_ij dv_i * dv_j) / SUM_i dv_i**2,
        dv_i = n_i - mean(n),  W = number of directed adjacent pairs.

    Scale shape: density partials -> tiny aggregate; ONE exact integer
    (k, s) reduce broadcasts the mean; each hex scatters its deviation
    to its 6 neighbours plus a self marker, and a single second
    aggregate yields per-target (neighbour-deviation sum, pair count,
    own deviation); the scalars reduce with one more pass.  Raw rows
    never shuffle; everything after the first aggregate is
    lattice-bounded.  Returns a ONE-ROW Dataset
    (n_hexes, w_pairs, moran_i) with moran_i rounded 6dp.
    """
    import ray.data as rd
    from ray.data.aggregate import Max, Sum

    def partial(b: pa.Table) -> pa.Table:
        key = _pack(np.asarray(b["hq"], np.int64), np.asarray(b["hr"], np.int64))
        u, c = np.unique(key, return_counts=True)
        return pa.table({"hkey": u, "n": c.astype(np.int64)})

    dens = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("hkey")
        .aggregate(Sum("n", alias_name="n"))
        .materialize()
    )

    def gpart(b: pa.Table) -> pa.Table:
        n = np.asarray(b["n"], np.int64)
        return pa.table(
            {"k": pa.array([np.int64(len(n))]), "s": pa.array([n.sum()])}
        )

    g = dens.map_batches(gpart, batch_format="pyarrow").sum(["k", "s"])
    n_hexes = int(g["sum(k)"])
    m = float(g["sum(s)"]) / float(n_hexes)

    def scatter(b: pa.Table) -> pa.Table:
        q, r = _unpack(np.asarray(b["hkey"], np.int64))
        dv = np.asarray(b["n"], np.int64).astype(np.float64) - m
        tkeys = [_pack(q + dq, r + dr) for dq, dr in _NEIGHBORS]
        nrep = len(_NEIGHBORS)
        tkey = np.concatenate(tkeys + [_pack(q, r)])
        nv = len(dv)
        return pa.table(
            {
                "tkey": pa.array(tkey),
                "ndv": pa.array(
                    np.concatenate([np.tile(dv, nrep), np.zeros(nv)])
                ),
                "npairs": pa.array(
                    np.concatenate(
                        [np.ones(nrep * nv, np.int64), np.zeros(nv, np.int64)]
                    )
                ),
                "self_dv": pa.array(np.concatenate([np.zeros(nrep * nv), dv])),
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
            Sum("ndv", alias_name="ndv"),
            Sum("npairs", alias_name="npairs"),
            Sum("self_dv", alias_name="self_dv"),
            Max("is_self", alias_name="occupied"),
        )
    )

    def fpart(b: pa.Table) -> pa.Table:
        occ = np.asarray(b["occupied"], np.int64) == 1
        sdv = np.asarray(b["self_dv"], np.float64)[occ]
        ndv = np.asarray(b["ndv"], np.float64)[occ]
        npairs = np.asarray(b["npairs"], np.int64)[occ]
        return pa.table(
            {
                "num": pa.array([float(np.sum(sdv * ndv))]),
                "den": pa.array([float(np.sum(sdv * sdv))]),
                "w": pa.array([np.int64(npairs.sum())]),
            }
        )

    f = tgt.map_batches(fpart, batch_format="pyarrow").sum(["num", "den", "w"])
    num = float(f["sum(num)"])
    den = float(f["sum(den)"])
    w = int(f["sum(w)"])
    moran = ((float(n_hexes) / float(w)) * num) / den
    moran = float(np.sign(moran) * np.floor(np.abs(moran) * 1e6 + 0.5) / 1e6)
    return rd.from_arrow(
        pa.table(
            {
                "n_hexes": pa.array([n_hexes], pa.int64()),
                "w_pairs": pa.array([w], pa.int64()),
                "moran_i": pa.array([moran], pa.float64()),
            }
        )
    )


def ring_offsets(k: int) -> list[tuple[int, int]]:
    """Axial offsets at hex distance EXACTLY k (the annulus), 6k cells."""
    inner = set(kring_offsets(k - 1)) if k > 0 else set()
    return [o for o in kring_offsets(k) if o not in inner]


def correlogram(ds, *, size: float, ks: tuple[int, ...] = (1, 2, 3)):
    """Spatial correlogram: global Moran's I of the hex density field at
    each ring distance k (binary weights on the ANNULUS of cells exactly
    k steps away) — one row per k (ring, n_hexes, w_pairs, moran_i),
    moran_i rounded 6dp.  The distance-decay profile of spatial
    autocorrelation; I(k) falling toward 0 locates the cluster scale.

    Scale shape: the :func:`morans_i` plan with ONE widened scatter —
    each cell emits its deviation once per annulus offset with per-ring
    columns, one hash aggregate resolves every ring simultaneously, and
    the shared denominator reduces once.  Scatter volume is
    sum_k 6k rows per occupied cell.
    """
    import ray.data as rd
    from ray.data.aggregate import Max, Sum

    rings = {k: ring_offsets(k) for k in ks}

    def partial(b: pa.Table) -> pa.Table:
        key = _pack(np.asarray(b["hq"], np.int64), np.asarray(b["hr"], np.int64))
        u, c = np.unique(key, return_counts=True)
        return pa.table({"hkey": u, "n": c.astype(np.int64)})

    dens = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("hkey")
        .aggregate(Sum("n", alias_name="n"))
        .materialize()
    )

    def gpart(b: pa.Table) -> pa.Table:
        n = np.asarray(b["n"], np.int64)
        return pa.table(
            {"k": pa.array([np.int64(len(n))]), "s": pa.array([n.sum()])}
        )

    g = dens.map_batches(gpart, batch_format="pyarrow").sum(["k", "s"])
    n_hexes = int(g["sum(k)"])
    m = float(g["sum(s)"]) / float(n_hexes)

    def scatter(b: pa.Table) -> pa.Table:
        q, r = _unpack(np.asarray(b["hkey"], np.int64))
        dv = np.asarray(b["n"], np.int64).astype(np.float64) - m
        nv = len(dv)
        tkeys, blocks = [], []
        for k in ks:
            for dq, dr in rings[k]:
                tkeys.append(_pack(q + dq, r + dr))
                blocks.append(k)
        tkey = np.concatenate(tkeys + [_pack(q, r)])
        total = len(blocks) * nv
        out = {"tkey": pa.array(tkey)}
        for k in ks:
            ndv = np.concatenate(
                [dv if bk == k else np.zeros(nv) for bk in blocks]
                + [np.zeros(nv)]
            )
            npr = np.concatenate(
                [
                    np.full(nv, 1 if bk == k else 0, np.int64)
                    for bk in blocks
                ]
                + [np.zeros(nv, np.int64)]
            )
            out[f"ndv{k}"] = pa.array(ndv)
            out[f"np{k}"] = pa.array(npr)
        out["self_dv"] = pa.array(np.concatenate([np.zeros(total), dv]))
        out["is_self"] = pa.array(
            np.concatenate([np.zeros(total, np.int64), np.ones(nv, np.int64)])
        )
        return pa.table(out)

    aggs = []
    for k in ks:
        aggs.append(Sum(f"ndv{k}", alias_name=f"ndv{k}"))
        aggs.append(Sum(f"np{k}", alias_name=f"np{k}"))
    aggs.append(Sum("self_dv", alias_name="self_dv"))
    aggs.append(Max("is_self", alias_name="occupied"))
    tgt = (
        dens.map_batches(scatter, batch_format="pyarrow")
        .groupby("tkey")
        .aggregate(*aggs)
    )

    def fpart(b: pa.Table) -> pa.Table:
        cols = {}
        occ = np.asarray(b["occupied"], np.int64) == 1
        sdv = np.asarray(b["self_dv"], np.float64)[occ]
        cols["den"] = pa.array([float(np.sum(sdv * sdv))])
        for k in ks:
            ndv = np.asarray(b[f"ndv{k}"], np.float64)[occ]
            npr = np.asarray(b[f"np{k}"], np.int64)[occ]
            cols[f"num{k}"] = pa.array([float(np.sum(sdv * ndv))])
            cols[f"w{k}"] = pa.array([np.int64(npr.sum())])
        return pa.table(cols)

    names = [f"num{k}" for k in ks] + [f"w{k}" for k in ks] + ["den"]
    f = tgt.map_batches(fpart, batch_format="pyarrow").sum(names)
    den = float(f["sum(den)"])
    rows = {"ring": [], "n_hexes": [], "w_pairs": [], "moran_i": []}
    for k in ks:
        num = float(f[f"sum(num{k})"])
        w = int(f[f"sum(w{k})"])
        moran = ((float(n_hexes) / float(w)) * num) / den if w else 0.0
        rows["ring"].append(k)
        rows["n_hexes"].append(n_hexes)
        rows["w_pairs"].append(w)
        rows["moran_i"].append(
            float(np.sign(moran) * np.floor(np.abs(moran) * 1e6 + 0.5) / 1e6)
        )
    return rd.from_arrow(
        pa.table(
            {
                "ring": pa.array(rows["ring"], pa.int64()),
                "n_hexes": pa.array(rows["n_hexes"], pa.int64()),
                "w_pairs": pa.array(rows["w_pairs"], pa.int64()),
                "moran_i": pa.array(rows["moran_i"], pa.float64()),
            }
        )
    )


def local_morans_i(ds, *, size: float):
    """Local Moran's I (LISA) per occupied hex:

        I_i = (N * dv_i * SUM_{j in N(i)} dv_j) / SUM_k dv_k**2

    Same plan as :func:`morans_i` (mean broadcast, deviation scatter,
    marker-row aggregate) but finished PER TARGET instead of reduced to
    a scalar — the hotspot/coldspot classifier.  Output: (hq, hr,
    n_docs... ) one row per occupied hex with `lisa` rounded 6dp."""
    from ray.data.aggregate import Max, Sum

    def partial(b: pa.Table) -> pa.Table:
        key = _pack(np.asarray(b["hq"], np.int64), np.asarray(b["hr"], np.int64))
        u, c = np.unique(key, return_counts=True)
        return pa.table({"hkey": u, "n": c.astype(np.int64)})

    dens = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("hkey")
        .aggregate(Sum("n", alias_name="n"))
        .materialize()
    )

    def gpart(b: pa.Table) -> pa.Table:
        n = np.asarray(b["n"], np.int64)
        return pa.table(
            {"k": pa.array([np.int64(len(n))]), "s": pa.array([n.sum()])}
        )

    g = dens.map_batches(gpart, batch_format="pyarrow").sum(["k", "s"])
    n_hexes = int(g["sum(k)"])
    m = float(g["sum(s)"]) / float(n_hexes)

    def dpart(b: pa.Table) -> pa.Table:
        dv = np.asarray(b["n"], np.int64).astype(np.float64) - m
        return pa.table({"d2": pa.array([float(np.sum(dv * dv))])})

    den = float(dens.map_batches(dpart, batch_format="pyarrow").sum("d2"))

    def scatter(b: pa.Table) -> pa.Table:
        q, r = _unpack(np.asarray(b["hkey"], np.int64))
        nv = np.asarray(b["n"], np.int64)
        dv = nv.astype(np.float64) - m
        tkeys = [_pack(q + dq, r + dr) for dq, dr in _NEIGHBORS]
        nrep = len(_NEIGHBORS)
        k = len(dv)
        return pa.table(
            {
                "tkey": pa.array(np.concatenate(tkeys + [_pack(q, r)])),
                "ndv": pa.array(np.concatenate([np.tile(dv, nrep), np.zeros(k)])),
                "self_dv": pa.array(np.concatenate([np.zeros(nrep * k), dv])),
                "self_n": pa.array(
                    np.concatenate([np.zeros(nrep * k, np.int64), nv])
                ),
            }
        )

    tgt = (
        dens.map_batches(scatter, batch_format="pyarrow")
        .groupby("tkey")
        .aggregate(
            Sum("ndv", alias_name="ndv"),
            Sum("self_dv", alias_name="self_dv"),
            Max("self_n", alias_name="n_docs"),
        )
    )

    nf = float(n_hexes)

    def finish(b: pa.Table) -> pa.Table:
        occ = np.asarray(b["n_docs"], np.int64) > 0
        q, r = _unpack(np.asarray(b["tkey"], np.int64)[occ])
        sdv = np.asarray(b["self_dv"], np.float64)[occ]
        ndv = np.asarray(b["ndv"], np.float64)[occ]
        lisa = (nf * sdv * ndv) / den
        lisa = np.sign(lisa) * np.floor(np.abs(lisa) * 1e6 + 0.5) / 1e6
        return pa.table(
            {
                "hq": pa.array(q),
                "hr": pa.array(r),
                "n_docs": pa.array(np.asarray(b["n_docs"], np.int64)[occ]),
                "lisa": pa.array(lisa),
            }
        )

    return tgt.map_batches(finish, batch_format="pyarrow")


def gi_star(ds, *, size: float):
    """Getis-Ord Gi* hotspot z-statistic per occupied hex (binary
    self-inclusive 7-cell weights):

        Gi* = (F_i - m*W_i) / (S * sqrt((N*W_i - W_i^2) / (N - 1)))

    with F_i the focal count sum over occupied ring members, W_i the
    occupied ring size (self included), m/S the global mean/population
    std of per-hex counts.  Same machinery as `hex_focal` + `hex_zscore`
    composed: exact integer (k, s, ss) global reduce -> closure
    scalars; count scatter to the 7-cell ring with self markers; one
    second aggregate; vectorized finish.  Gi* rounded 6dp."""
    from ray.data.aggregate import Max, Sum

    def partial(b: pa.Table) -> pa.Table:
        key = _pack(np.asarray(b["hq"], np.int64), np.asarray(b["hr"], np.int64))
        u, c = np.unique(key, return_counts=True)
        return pa.table({"hkey": u, "n": c.astype(np.int64)})

    dens = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("hkey")
        .aggregate(Sum("n", alias_name="n"))
        .materialize()
    )

    def gpart(b: pa.Table) -> pa.Table:
        n = np.asarray(b["n"], np.int64)
        return pa.table(
            {
                "k": pa.array([np.int64(len(n))]),
                "s": pa.array([n.sum()]),
                "ss": pa.array([(n * n).sum()]),
            }
        )

    g = dens.map_batches(gpart, batch_format="pyarrow").sum(["k", "s", "ss"])
    kN = float(g["sum(k)"])
    m = float(g["sum(s)"]) / kN
    S = np.sqrt(float(g["sum(ss)"]) / kN - m * m)

    def scatter(b: pa.Table) -> pa.Table:
        q, r = _unpack(np.asarray(b["hkey"], np.int64))
        n = np.asarray(b["n"], np.int64)
        offs = ((0, 0), *_NEIGHBORS)
        tkeys = [_pack(q + dq, r + dr) for dq, dr in offs]
        nrep = len(offs)
        k = len(n)
        return pa.table(
            {
                "tkey": pa.array(np.concatenate(tkeys + [_pack(q, r)])),
                "fsum": pa.array(
                    np.concatenate([np.tile(n, nrep), np.zeros(k, np.int64)])
                ),
                "w": pa.array(
                    np.concatenate(
                        [np.ones(nrep * k, np.int64), np.zeros(k, np.int64)]
                    )
                ),
                "self_n": pa.array(
                    np.concatenate([np.zeros(nrep * k, np.int64), n])
                ),
            }
        )

    tgt = (
        dens.map_batches(scatter, batch_format="pyarrow")
        .groupby("tkey")
        .aggregate(
            Sum("fsum", alias_name="fsum"),
            Sum("w", alias_name="w"),
            Max("self_n", alias_name="n_docs"),
        )
    )

    def finish(b: pa.Table) -> pa.Table:
        occ = np.asarray(b["n_docs"], np.int64) > 0
        q, r = _unpack(np.asarray(b["tkey"], np.int64)[occ])
        fsum = np.asarray(b["fsum"], np.int64)[occ].astype(np.float64)
        w = np.asarray(b["w"], np.int64)[occ].astype(np.float64)
        gi = (fsum - m * w) / (S * np.sqrt((kN * w - w * w) / (kN - 1.0)))
        gi = np.sign(gi) * np.floor(np.abs(gi) * 1e6 + 0.5) / 1e6
        return pa.table(
            {
                "hq": pa.array(q),
                "hr": pa.array(r),
                "n_docs": pa.array(np.asarray(b["n_docs"], np.int64)[occ]),
                "gi_star": pa.array(gi),
            }
        )

    return tgt.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# DuckDB twin (same constant expressions, same op order)
# ---------------------------------------------------------------------------


def sql_hex_cte(size: float, points_cte: str = "pts", prefix: str = "") -> str:
    """CTE chain `{p}frac, {p}cube, {p}hexed` over `points_cte(doc_id,
    x, y)`: `{p}hexed` carries (doc_id, x, y, ..., hq, hr) — twin of
    :func:`hex_axial`.  Append after a points CTE:
    ``WITH pts AS (...), {sql_hex_cte(...)} SELECT ... FROM hexed``.
    ``prefix`` disambiguates multiple lattices in one statement."""
    s = repr(float(size))
    p = prefix
    fixq = "(abs(rq - fq) > abs(rr - fr) AND abs(rq - fq) > abs(rs - fs))"
    return (
        f"{p}frac AS (SELECT *, ((2.0/3.0) * x) / {s} AS fq,"
        f" ((-1.0/3.0) * x + (sqrt(3.0)/3.0) * y) / {s} AS fr"
        f" FROM {points_cte}),"
        f" {p}cube AS (SELECT *, (-fq - fr) AS fs,"
        f" floor(fq + 0.5) AS rq, floor(fr + 0.5) AS rr,"
        f" floor((-fq - fr) + 0.5) AS rs FROM {p}frac),"
        f" {p}hexed AS (SELECT *,"
        f" CAST(CASE WHEN {fixq} THEN (-rr - rs) ELSE rq END AS BIGINT) AS hq,"
        f" CAST(CASE WHEN NOT {fixq} AND abs(rr - fr) > abs(rs - fs)"
        f" THEN (-rq - rs) ELSE rr END AS BIGINT) AS hr"
        f" FROM {p}cube)"
    )
