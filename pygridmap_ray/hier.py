"""Hierarchical cell indexing (S2/H3-style) over the planar grid.

The reference grids are flat (ix, iy) lattices (pygridmap gridding.py /
gridtiler.py); web-scale spatial pipelines additionally want a single
HIERARCHICAL cell id — one integer whose prefix IS the parent cell at
every coarser level — so that

* coarsening is a shift (`code >> 2*levels`), never a re-join,
* per-level rollups reuse ONE partitioning key across stages (the
  engine-wide rule: pick one key, keep it), and
* range scans over a Z-ordered sort are spatially local.

This module provides the Morton (Z-order) curve used by S2/quadkeys:
``code = interleave(ix, iy)`` with quadkey digit ``d_j = x_bit + 2*y_bit``
from the most significant level down.  Everything is vectorized int64
numpy, and every law has a bit-identical DuckDB twin (`sql_*` builders)
so the driver gate can hash-compare outputs — same magic constants,
same op order, signed-64 semantics on both sides.

Scale shape: encoding is a stateless Arrow `map_batches` stage; rollups
are two-phase (per-batch unique-code partials -> one hash aggregate on
at most 4**level keys -> shift + tiny re-aggregate per coarser level).
No map_groups, no per-group Python.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = [
    "morton_encode",
    "morton_decode",
    "quadkey",
    "parent_code",
    "children_codes",
    "with_hier_cells",
    "hier_rollup",
    "zrange_cover",
    "zrange_filter",
    "sql_spread_expr",
    "sql_morton_expr",
    "sql_quadkey_expr",
    "geohash_encode",
    "with_geohash",
    "sql_geohash_expr",
    "GEOHASH_ALPHABET",
]

# "Interleave bits by binary magic numbers" — the classic public-domain
# bit-twiddling identity (Stanford graphics bithacks).  Decimal (not hex)
# because the DuckDB twin must use the same literals and DuckDB treats
# 0x... literals as non-integers.
_MASKS = (
    281470681808895,  # 0x0000FFFF0000FFFF
    71777214294589695,  # 0x00FF00FF00FF00FF
    1085102592571150095,  # 0x0F0F0F0F0F0F0F0F
    3689348814741910323,  # 0x3333333333333333
    6148914691236517205,  # 0x5555555555555555
)
_SHIFTS = (16, 8, 4, 2, 1)

MAX_LEVEL = 31  # 2 * 31 = 62 code bits, keeps int64 positive


def _spread(v: np.ndarray) -> np.ndarray:
    """Spread the low 32 bits of v onto the even bit positions (int64)."""
    v = np.asarray(v, dtype=np.int64)
    for m, s in zip(_MASKS, _SHIFTS):
        v = (v | (v << s)) & m
    return v


def morton_encode(ix: np.ndarray, iy: np.ndarray, level: int) -> np.ndarray:
    """Z-order code of (ix, iy) at `level` (both must be in [0, 2**level))."""
    if not 0 < level <= MAX_LEVEL:
        raise ValueError(f"level must be in 1..{MAX_LEVEL}, got {level}")
    ix = np.asarray(ix, dtype=np.int64)
    iy = np.asarray(iy, dtype=np.int64)
    lim = np.int64(1) << level
    if len(ix) and (
        ix.min() < 0 or iy.min() < 0 or ix.max() >= lim or iy.max() >= lim
    ):
        raise ValueError(f"cell indices out of range for level {level}")
    return _spread(ix) | (_spread(iy) << 1)


def morton_decode(code: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`morton_encode` (level-independent)."""
    code = np.asarray(code, dtype=np.int64)

    def compact(v: np.ndarray) -> np.ndarray:
        v = v & _MASKS[4]
        # inverse pairing: shift k gathers into mask of 2k-bit runs
        for m, s in zip(_MASKS[3::-1], (1, 2, 4, 8)):
            v = (v | (v >> s)) & m
        # final gather of the two 16-bit halves
        v = (v | (v >> 16)) & 4294967295
        return v

    return compact(code), compact(code >> 1)


def quadkey(code: np.ndarray, level: int) -> np.ndarray:
    """Quadkey digit strings (most-significant level first), one char per
    level, digit = x_bit + 2*y_bit — the Bing-maps/S2-face convention."""
    code = np.asarray(code, dtype=np.int64)
    digits = np.empty((level, len(code)), dtype=np.uint8)
    for j in range(level):
        digits[j] = ((code >> (2 * (level - 1 - j))) & 3).astype(np.uint8)
    chars = digits + ord("0")
    return chars.T.copy().view(f"S{level}").ravel().astype(str)


def parent_code(code: np.ndarray, levels_up: int = 1) -> np.ndarray:
    """Ancestor code `levels_up` levels coarser (prefix property)."""
    return np.asarray(code, dtype=np.int64) >> (2 * levels_up)


def children_codes(code: int, levels_down: int = 1) -> np.ndarray:
    """All descendant codes `levels_down` levels finer, Z-ordered."""
    base = np.int64(code) << (2 * levels_down)
    return base + np.arange(4**levels_down, dtype=np.int64)


# ---------------------------------------------------------------------------
# Dataset stages
# ---------------------------------------------------------------------------


def _encode_batch(
    batch: pa.Table,
    *,
    resolution: float,
    level: int,
    x_origin: float,
    y_origin: float,
    x_col: str,
    y_col: str,
) -> pa.Table:
    x = np.asarray(batch[x_col], dtype=np.float64)
    y = np.asarray(batch[y_col], dtype=np.float64)
    ix = np.floor((x - x_origin) / resolution).astype(np.int64)
    iy = np.floor((y - y_origin) / resolution).astype(np.int64)
    code = morton_encode(ix, iy, level)
    return batch.append_column("cell_code", pa.array(code)).append_column(
        "quadkey", pa.array(quadkey(code, level), pa.string())
    )


def with_hier_cells(
    ds,
    *,
    resolution: float,
    level: int,
    x_origin: float = 0.0,
    y_origin: float = 0.0,
    x_col: str = "x",
    y_col: str = "y",
):
    """Dataset -> Dataset with (cell_code, quadkey) at `level`; the batched
    H3/S2-style indexing stage of the north rule (stateless Arrow tasks,
    zero-copy in, two appended columns out)."""
    return ds.map_batches(
        _encode_batch,
        batch_format="pyarrow",
        fn_kwargs=dict(
            resolution=resolution,
            level=level,
            x_origin=x_origin,
            y_origin=y_origin,
            x_col=x_col,
            y_col=y_col,
        ),
    )


def hier_rollup(ds, *, parent_level: int, level: int):
    """(cell_code at `level`) Dataset -> per-parent rollup at
    `parent_level`: n_docs (doc count) and n_cells (distinct fine cells).

    Two-phase: per-batch unique-code partial counts (the shuffle carries
    at most one row per fine cell per batch, never raw rows) -> one hash
    aggregate keyed by fine code (<= 4**level keys) -> shift to the
    parent prefix -> tiny second aggregate (<= 4**parent_level keys).
    """
    from ray.data.aggregate import Count, Sum

    if parent_level >= level:
        raise ValueError("parent_level must be coarser (smaller) than level")
    shift = 2 * (level - parent_level)

    def partial(batch: pa.Table) -> pa.Table:
        codes = np.asarray(batch["cell_code"], dtype=np.int64)
        u, c = np.unique(codes, return_counts=True)
        return pa.table({"cell_code": u, "docs": c.astype(np.int64)})

    fine = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("cell_code")
        .aggregate(Sum("docs", alias_name="docs"))
    )

    def to_parent(batch: pa.Table) -> pa.Table:
        codes = np.asarray(batch["cell_code"], dtype=np.int64)
        return pa.table(
            {
                "parent_code": codes >> shift,
                "docs": batch["docs"],
            }
        )

    return (
        fine.map_batches(to_parent, batch_format="pyarrow")
        .groupby("parent_code")
        .aggregate(
            Sum("docs", alias_name="n_docs"),
            Count(alias_name="n_cells"),
        )
    )


def zrange_cover(
    bbox: tuple[float, float, float, float],
    *,
    resolution: float,
    level: int,
    x_origin: float = 0.0,
    y_origin: float = 0.0,
    max_depth: int | None = None,
) -> np.ndarray:
    """Covering Morton code ranges for all level-`level` cells that
    intersect ``bbox`` (x0, y0, x1, y1; half-open on the high edges).

    Classic quadtree descent: a node fully inside the bbox emits its
    whole code range; a disjoint node is skipped; a straddling node
    recurses.  ``max_depth`` (default: full descent) bounds the range
    count — a shallower descent emits a SUPERSET, which is safe because
    :func:`zrange_filter` always refines exactly on x/y.  Returns an
    (n, 2) int64 array of inclusive [lo, hi] ranges, sorted, adjacent
    ranges merged.

    This is the Z-ORDER RANGE SCAN of the north rule's storage story: on
    a cell-code-sorted tile store the same ranges prune row groups /
    partitions at the read instead of rows in memory.
    """
    x0, y0, x1, y1 = bbox
    qx0 = int(np.floor((x0 - x_origin) / resolution))
    qy0 = int(np.floor((y0 - y_origin) / resolution))
    qx1 = int(np.floor((x1 - x_origin) / resolution))
    qy1 = int(np.floor((y1 - y_origin) / resolution))
    lim = 1 << level
    qx0, qy0 = max(qx0, 0), max(qy0, 0)
    qx1, qy1 = min(qx1, lim - 1), min(qy1, lim - 1)
    if qx0 > qx1 or qy0 > qy1:
        return np.empty((0, 2), dtype=np.int64)
    depth_cap = level if max_depth is None else min(max_depth, level)
    out: list[tuple[int, int]] = []

    def descend(code: int, d: int, ix: int, iy: int) -> None:
        side = 1 << (level - d)
        nx1, ny1 = ix + side - 1, iy + side - 1
        if nx1 < qx0 or ix > qx1 or ny1 < qy0 or iy > qy1:
            return
        span = 1 << (2 * (level - d))
        lo = code << (2 * (level - d))
        if (ix >= qx0 and nx1 <= qx1 and iy >= qy0 and ny1 <= qy1) or d >= depth_cap:
            out.append((lo, lo + span - 1))
            return
        half = side >> 1
        for child in range(4):
            descend(
                (code << 2) | child,
                d + 1,
                ix + (child & 1) * half,
                iy + ((child >> 1) & 1) * half,
            )

    descend(0, 0, 0, 0)
    out.sort()
    merged: list[list[int]] = []
    for lo, hi in out:
        if merged and lo == merged[-1][1] + 1:
            merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return np.asarray(merged, dtype=np.int64).reshape(-1, 2)


def zrange_filter(
    ds,
    bbox: tuple[float, float, float, float],
    *,
    resolution: float,
    level: int,
    x_origin: float = 0.0,
    y_origin: float = 0.0,
    max_depth: int | None = None,
    x_col: str = "x",
    y_col: str = "y",
):
    """Dataset(cell_code, x, y, ...) -> rows with (x, y) inside ``bbox``
    (half-open high edges), pruned FIRST by the Morton cover ranges
    (vectorized searchsorted — candidates never leave the prune mask)
    and then refined exactly on the coordinates."""
    ranges = zrange_cover(
        bbox,
        resolution=resolution,
        level=level,
        x_origin=x_origin,
        y_origin=y_origin,
        max_depth=max_depth,
    )
    starts = np.ascontiguousarray(ranges[:, 0])
    ends = np.ascontiguousarray(ranges[:, 1])
    x0, y0, x1, y1 = bbox

    def filt(b: pa.Table) -> pa.Table:
        if len(starts) == 0:
            return b.slice(0, 0)
        code = np.asarray(b["cell_code"], dtype=np.int64)
        idx = np.searchsorted(starts, code, side="right") - 1
        cand = (idx >= 0) & (code <= ends[np.maximum(idx, 0)])
        if not cand.any():
            return b.slice(0, 0)
        sub = b.take(pa.array(np.flatnonzero(cand)))
        x = np.asarray(sub[x_col], dtype=np.float64)
        y = np.asarray(sub[y_col], dtype=np.float64)
        keep = (x >= x0) & (x < x1) & (y >= y0) & (y < y1)
        return sub.take(pa.array(np.flatnonzero(keep)))

    return ds.map_batches(filt, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# DuckDB twins (bit-identical: same decimal constants, same op order;
# DuckDB's BIGINT ops are signed-64 like numpy int64)
# ---------------------------------------------------------------------------


def sql_spread_expr(col: str) -> str:
    """Unrolled bit-spread of `col` (the numpy _spread loop, inlined)."""
    e = col
    for m, s in zip(_MASKS, _SHIFTS):
        e = f"(({e} | ({e} << {s})) & {m})"
    return e


def sql_morton_expr(ix: str, iy: str) -> str:
    """Morton code of (ix, iy) — twin of :func:`morton_encode`."""
    return f"({sql_spread_expr(ix)} | ({sql_spread_expr(iy)} << 1))"


def sql_quadkey_expr(code: str, level: int) -> str:
    """Quadkey string of `code` at `level` — twin of :func:`quadkey`.
    Correlated ordered string_agg over the digit positions."""
    return (
        f"(SELECT string_agg(CAST((({code} >> (2*({level}-1-j))) & 3) AS VARCHAR),"
        f" '' ORDER BY j) FROM generate_series(0, {level}-1) AS qk(j))"
    )


# ---------------------------------------------------------------------------
# Geohash (public Gustavo-Niemeyer spec): the SAME Morton interleave over
# quantized (lon, lat), 5 bits per base-32 character, longitude first (the
# most significant bit of the code is the top longitude bit).  Trig-free —
# quantization is floor((coord+off)/span * 2**half), so the DuckDB twin is
# bit-identical (same literals, same op order, IEEE doubles both sides).
# Prefix property: char k of an n-char hash IS the k-char hash (truncating
# bits == flooring at the coarser scale), so coarsening is substr(), never
# a re-encode.
# ---------------------------------------------------------------------------

GEOHASH_ALPHABET = "0123456789bcdefghjkmnpqrstuvwxyz"
_GH_LUT = np.frombuffer(GEOHASH_ALPHABET.encode(), dtype=np.uint8)


def geohash_encode(
    lon: np.ndarray, lat: np.ndarray, nchars: int = 8
) -> np.ndarray:
    """Base-32 geohash strings of (lon, lat), `nchars` characters.

    `nchars` must be even (odd lengths split a coordinate's bit budget
    mid-character; every even prefix of the result is itself the valid
    shorter geohash) and <= 12 (30 bits per axis, the `_spread` input
    width).  Inputs must lie in [-180, 180) x [-90, 90).
    """
    if nchars % 2 or not 2 <= nchars <= 12:
        raise ValueError(f"nchars must be even in 2..12, got {nchars}")
    half = (5 * nchars) // 2
    scale = float(1 << half)
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    qlon = np.floor((lon + 180.0) / 360.0 * scale).astype(np.int64)
    qlat = np.floor((lat + 90.0) / 180.0 * scale).astype(np.int64)
    if len(qlon) and (
        qlon.min() < 0 or qlat.min() < 0 or qlon.max() >= scale or qlat.max() >= scale
    ):
        raise ValueError("lon/lat outside [-180,180) x [-90,90)")
    code = _spread(qlat) | (_spread(qlon) << 1)
    digits = np.empty((len(code), nchars), dtype=np.uint8)
    for j in range(nchars):
        digits[:, j] = ((code >> (5 * (nchars - 1 - j))) & 31).astype(np.uint8)
    chars = _GH_LUT[digits]
    return chars.copy().view(f"S{nchars}").ravel().astype(str)


def with_geohash(ds, *, lon_col: str = "lon", lat_col: str = "lat",
                 nchars: int = 8, out_col: str = "geohash"):
    """Stateless Arrow map_batches stage appending a geohash column."""

    def enc(b: pa.Table) -> pa.Table:
        gh = geohash_encode(
            np.asarray(b[lon_col]), np.asarray(b[lat_col]), nchars
        )
        return b.append_column(out_col, pa.array(gh, type=pa.string()))

    return ds.map_batches(enc, batch_format="pyarrow")


def sql_geohash_expr(lon: str, lat: str, nchars: int = 8) -> str:
    """Geohash string — twin of :func:`geohash_encode` (same literals,
    same op order; floor result is non-negative so BIGINT cast == floor)."""
    if nchars % 2 or not 2 <= nchars <= 12:
        raise ValueError(f"nchars must be even in 2..12, got {nchars}")
    half = (5 * nchars) // 2
    scale = repr(float(1 << half))
    qlon = f"CAST(floor((({lon}) + 180.0) / 360.0 * {scale}) AS BIGINT)"
    qlat = f"CAST(floor((({lat}) + 90.0) / 180.0 * {scale}) AS BIGINT)"
    code = f"({sql_spread_expr(qlat)} | ({sql_spread_expr(qlon)} << 1))"
    return (
        f"(SELECT string_agg(substr('{GEOHASH_ALPHABET}',"
        f" CAST((({code}) >> (5*({nchars}-1-j))) & 31 AS INTEGER) + 1, 1),"
        f" '' ORDER BY j) FROM generate_series(0, {nchars}-1) AS gh(j))"
    )
