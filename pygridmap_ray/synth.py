"""Deterministic synthetic geo fixtures, with paired SQL fragments.

The north-rule input (BASELINE.json ``input_hint``) is a corpus of
interleaved text+media documents with point locations.  The sandbox's
testdata tables carry no coordinates, so this module derives them
DETERMINISTICALLY from ``documents.doc_id`` with integer/float arithmetic
that DuckDB reproduces bit-for-bit — each numpy formula below has a
matching SQL fragment (the ``SQL_*`` constants / ``sql_*`` builders) used
verbatim by ``oracle_sql()``.  Any drift between the two is a correctness
failure, so both live in this one file.

Point distribution (FIXTURES.md F1): 70% uniform over the domain bbox,
30% concentrated in 3 square "urban" clusters -> guaranteed hot cells for
skew/salting paths.  Domain bbox [0, 0, 500_000, 501_000] (the
reference's asymmetric test bbox x1000, tests/base.ipynb cell 17).

Spans (``list<struct<kind,text,media_ref,offset>>``) are likewise closed-
form in ``doc_id`` so the oracle can recompute span summaries after the
engine round-trips the column through every stage.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .geom.kernels import as_ring, rings_area

DOMAIN = (0.0, 0.0, 500_000.0, 501_000.0)

#: Knuth's multiplicative constant, shared by the numpy/SQL twin laws
#: below and by the ones other modules build on it (arrival orders,
#: synthetic embeddings)
KNUTH_MULT = 2654435761

# --- point locations -------------------------------------------------------
# u = ((doc_id * 2654435761) % 1000003) / 1000003.0      uniform-ish [0,1)
# v = ((doc_id * 2246822519) % 1000033) / 1000033.0
# 30% of docs (doc_id % 10 < 3) land in cluster c = doc_id % 3.

_CLX = (100_000.0, 250_000.0, 400_000.0)
_CLY = (120_000.0, 300_000.0, 450_000.0)

SQL_U = "(((doc_id * 2654435761) % 1000003) / 1000003.0)"
SQL_V = "(((doc_id * 2246822519) % 1000033) / 1000033.0)"
SQL_X = (
    "(CASE WHEN doc_id % 10 < 3 THEN "
    f"(CASE doc_id % 3 WHEN 0 THEN {_CLX[0]} WHEN 1 THEN {_CLX[1]} ELSE {_CLX[2]} END)"
    f" + ({SQL_U} - 0.5) * 30000.0 "
    f"ELSE {SQL_U} * 500000.0 END)"
)
SQL_Y = (
    "(CASE WHEN doc_id % 10 < 3 THEN "
    f"(CASE doc_id % 3 WHEN 0 THEN {_CLY[0]} WHEN 1 THEN {_CLY[1]} ELSE {_CLY[2]} END)"
    f" + ({SQL_V} - 0.5) * 30000.0 "
    f"ELSE {SQL_V} * 501000.0 END)"
)


def sql_points_cte(table: str = "documents") -> str:
    """CTE body: one row per doc with its derived planar location."""
    return f"SELECT doc_id, {SQL_X} AS x, {SQL_Y} AS y FROM {table}"


def derive_xy(doc_id: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy mirror of SQL_X / SQL_Y (identical op order -> identical doubles)."""
    did = np.asarray(doc_id, dtype=np.int64)
    u = ((did * 2654435761) % 1000003).astype(np.float64) / 1000003.0
    v = ((did * 2246822519) % 1000033).astype(np.float64) / 1000033.0
    clustered = (did % 10) < 3
    c = (did % 3).astype(np.int64)
    cx = np.asarray(_CLX)[c]
    cy = np.asarray(_CLY)[c]
    x = np.where(clustered, cx + (u - 0.5) * 30000.0, u * 500000.0)
    y = np.where(clustered, cy + (v - 0.5) * 30000.0, v * 501000.0)
    return x, y


# --- geographic locations (reprojection fixtures) ---------------------------
# The CRS stage needs lon/lat inputs; derive them from the same u/v laws
# over the LAEA Europe domain: lon in [-5, 25)E, lat in [38, 63)N.

SQL_LON = f"({SQL_U} * 30.0 - 5.0)"
SQL_LAT = f"({SQL_V} * 25.0 + 38.0)"


def sql_lonlat_cte(table: str = "documents") -> str:
    """CTE body: one row per doc with its derived geographic location."""
    return f"SELECT doc_id, {SQL_LON} AS lon, {SQL_LAT} AS lat FROM {table}"


def derive_lonlat(doc_id: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy mirror of SQL_LON / SQL_LAT (identical op order)."""
    did = np.asarray(doc_id, dtype=np.int64)
    u = ((did * 2654435761) % 1000003).astype(np.float64) / 1000003.0
    v = ((did * 2246822519) % 1000033).astype(np.float64) / 1000033.0
    return u * 30.0 - 5.0, v * 25.0 + 38.0


# --- 3D direction vectors (S2-style cube-face cell fixtures) -----------------
# The sphere-cell stage needs unit DIRECTIONS, but face/uv assignment is
# scale-invariant (pure component ratios), so normalization is skipped and
# the law stays trig-free: a third LCG coordinate w joins u, v and each is
# mapped to [-1, 1).  Components cannot be 0 (u = k/odd_prime != 0.5), so
# every doc has a well-defined major axis.

SQL_W = "(((doc_id * 3266489917) % 1000037) / 1000037.0)"
SQL_PX = f"({SQL_U} * 2.0 - 1.0)"
SQL_PY = f"({SQL_V} * 2.0 - 1.0)"
SQL_PZ = f"({SQL_W} * 2.0 - 1.0)"


def sql_xyz_cte(table: str = "documents") -> str:
    """CTE body: one row per doc with its derived direction components."""
    return (
        f"SELECT doc_id, {SQL_PX} AS px, {SQL_PY} AS py, {SQL_PZ} AS pz "
        f"FROM {table}"
    )


def derive_xyz(doc_id: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """numpy mirror of SQL_PX / SQL_PY / SQL_PZ (identical op order)."""
    did = np.asarray(doc_id, dtype=np.int64)
    u = ((did * 2654435761) % 1000003).astype(np.float64) / 1000003.0
    v = ((did * 2246822519) % 1000033).astype(np.float64) / 1000033.0
    w = ((did * 3266489917) % 1000037).astype(np.float64) / 1000037.0
    return u * 2.0 - 1.0, v * 2.0 - 1.0, w * 2.0 - 1.0


# --- interleaved spans ------------------------------------------------------
# n_spans = 1 + doc_id % 8
# span i (0-based):  kind  = ['text','image','audio'][(doc_id + i) % 3]
#                    text  = 't-<doc_id>-<i>'        iff kind == 'text' else ''
#                    media_ref = 'media://<doc_id>/<i>' iff kind != 'text' else ''
#                    offset = i * 7 + doc_id % 5     (strictly increasing in i)

KINDS = ("text", "image", "audio")

SQL_N_SPANS = "(1 + doc_id % 8)"


def sql_span_summary_cte(table: str = "documents") -> str:
    """Closed-form expected span summary per doc, via a lateral
    generate_series over span index i (DuckDB)."""
    kind_case = (
        "CASE ((d.doc_id + i.i) % 3) WHEN 0 THEN 'text' "
        "WHEN 1 THEN 'image' ELSE 'audio' END"
    )
    return f"""
SELECT d.doc_id,
       COUNT(*)::BIGINT                       AS n_spans,
       SUM(CASE WHEN {kind_case} = 'text' THEN 1 ELSE 0 END)::BIGINT AS n_text,
       SUM(i.i * 7 + d.doc_id % 5)::BIGINT    AS offset_sum,
       MAX(i.i * 7 + d.doc_id % 5)::BIGINT    AS last_offset,
       STRING_AGG({kind_case}, ',' ORDER BY i.i) AS kind_seq
FROM {table} d
JOIN (SELECT UNNEST(generate_series(0, 7)) AS i) i
  ON i.i < 1 + d.doc_id % 8
GROUP BY d.doc_id
"""


def build_spans_array(doc_id: np.ndarray) -> pa.ListArray:
    """Arrow list<struct<kind,text,media_ref,offset>> for each doc — built
    with vectorized Arrow compute kernels (no per-row Python objects and no
    numpy string ops in the hot path)."""
    import pyarrow.compute as pc

    did = np.asarray(doc_id, dtype=np.int64)
    n_spans = 1 + (did % 8)
    offsets32 = np.zeros(len(did) + 1, dtype=np.int32)
    np.cumsum(n_spans, out=offsets32[1:])
    total = int(offsets32[-1])
    # flattened per-span parent doc_id and span index i
    parent = np.repeat(did, n_spans)
    i_in_doc = np.arange(total, dtype=np.int64) - np.repeat(
        offsets32[:-1].astype(np.int64), n_spans
    )
    kind_code = (parent + i_in_doc) % 3
    kind = pa.array(list(KINDS)).take(pa.array(kind_code))
    is_text = pa.array(kind_code == 0)
    pstr = pc.cast(pa.array(parent), pa.string())
    istr = pc.cast(pa.array(i_in_doc), pa.string())
    empty = pa.scalar("")
    text_all = pc.binary_join_element_wise("t-", pstr, "-", istr, empty)
    media_all = pc.binary_join_element_wise("media://", pstr, "/", istr, empty)
    text = pc.if_else(is_text, text_all, empty)
    media = pc.if_else(is_text, empty, media_all)
    offset = pa.array((i_in_doc * 7 + parent % 5).astype(np.int32))
    struct = pa.StructArray.from_arrays(
        [kind, text, media, offset], names=["kind", "text", "media_ref", "offset"]
    )
    return pa.ListArray.from_arrays(pa.array(offsets32, type=pa.int32()), struct)


def span_summary_from_column(doc_id: pa.Array, spans: pa.Array) -> pa.Table:
    """Summarize an actual spans column (post-pipeline) for comparison with
    ``sql_span_summary_cte`` — the per-row span-sequence invariant check."""
    spans = spans.combine_chunks() if isinstance(spans, pa.ChunkedArray) else spans
    lengths = np.asarray(spans.value_lengths())
    flat = spans.flatten()
    kind = flat.field("kind")
    offset = np.asarray(flat.field("offset"), dtype=np.int64)
    parent_idx = np.repeat(np.arange(len(lengths)), lengths)
    n_text = np.bincount(
        parent_idx, weights=np.asarray(kind) == "text", minlength=len(lengths)
    ).astype(np.int64)
    offset_sum = np.bincount(parent_idx, weights=offset, minlength=len(lengths)).astype(
        np.int64
    )
    # last offset per doc: offsets strictly increase within a doc -> max
    last = np.full(len(lengths), -1, dtype=np.int64)
    np.maximum.at(last, parent_idx, offset)
    kind_py = np.asarray(kind).astype(object)
    bounds = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=bounds[1:])
    kind_seq = [
        ",".join(kind_py[bounds[i] : bounds[i + 1]]) for i in range(len(lengths))
    ]
    return pa.table(
        {
            "doc_id": doc_id,
            "n_spans": pa.array(lengths.astype(np.int64)),
            "n_text": pa.array(n_text),
            "offset_sum": pa.array(offset_sum),
            "last_offset": pa.array(last),
            "kind_seq": pa.array(kind_seq),
        }
    )


# --- polygon layer ----------------------------------------------------------
# GISCO/NUTS-style layer (FIXTURES.md F2): each polygon defined BOTH as
# explicit rings (engine input: L-shape, hole, multipart) and as a disjoint
# axis-aligned rect decomposition (oracle input).  Tests assert the two
# representations agree in area.  Coords are multiples of 10_000 so cell
# centers at any tested cell size never sit on polygon edges.
# pop (extensive variable, reference DUMMYCOL): pop = (poly_id * 37) % 100 + 0.5

_POLY_RECTS: dict[int, list[tuple[float, float, float, float]]] = {
    0: [(0, 0, 200_000, 150_000)],
    1: [(200_000, 0, 500_000, 150_000)],
    # L-shape
    2: [(0, 150_000, 100_000, 350_000), (100_000, 150_000, 250_000, 250_000)],
    # rect with hole [300k,200k,400k,300k]
    3: [
        (250_000, 150_000, 450_000, 200_000),
        (250_000, 200_000, 300_000, 300_000),
        (400_000, 200_000, 450_000, 300_000),
        (250_000, 300_000, 450_000, 350_000),
    ],
    # multipart (islands)
    4: [(0, 350_000, 150_000, 500_000), (450_000, 350_000, 500_000, 500_000)],
    5: [(150_000, 350_000, 450_000, 480_000)],
    6: [(460_000, 160_000, 500_000, 340_000)],
    # deliberately overlaps P1 -> cells with >=2 contributing polygons
    7: [(420_000, 0, 500_000, 120_000)],
}


def _rect_ring(xmin, ymin, xmax, ymax):
    return as_ring([[xmin, ymin], [xmax, ymin], [xmax, ymax], [xmin, ymax]])


_POLY_RINGS: dict[int, list[np.ndarray]] = {
    0: [_rect_ring(*_POLY_RECTS[0][0])],
    1: [_rect_ring(*_POLY_RECTS[1][0])],
    2: [
        as_ring(
            [
                [0, 150_000],
                [250_000, 150_000],
                [250_000, 250_000],
                [100_000, 250_000],
                [100_000, 350_000],
                [0, 350_000],
            ]
        )
    ],
    3: [
        _rect_ring(250_000, 150_000, 450_000, 350_000),
        # hole: CW orientation -> negative signed area
        as_ring(
            [
                [300_000, 200_000],
                [300_000, 300_000],
                [400_000, 300_000],
                [400_000, 200_000],
            ]
        ),
    ],
    4: [
        _rect_ring(0, 350_000, 150_000, 500_000),
        _rect_ring(450_000, 350_000, 500_000, 500_000),
    ],
    5: [_rect_ring(*_POLY_RECTS[5][0])],
    6: [_rect_ring(*_POLY_RECTS[6][0])],
    7: [_rect_ring(*_POLY_RECTS[7][0])],
}

N_POLYGONS = len(_POLY_RECTS)


def polygon_layer() -> list[dict]:
    """The broadcast side of every spatial join: [{poly_id, nuts_id, rings,
    rects, bbox, pop, area}, ...].  Small — goes to the object store once
    (``ray.put``), never re-shipped per batch."""
    out = []
    for pid in sorted(_POLY_RECTS):
        rings = _POLY_RINGS[pid]
        rects = _POLY_RECTS[pid]
        xs = [r for rect in rects for r in (rect[0], rect[2])]
        ys = [r for rect in rects for r in (rect[1], rect[3])]
        out.append(
            {
                "poly_id": pid,
                "nuts_id": f"RG{pid:03d}",
                "rings": rings,
                "rects": rects,
                "bbox": (min(xs), min(ys), max(xs), max(ys)),
                "pop": float((pid * 37) % 100) + 0.5,
                "area": rings_area(rings),
            }
        )
    return out


def bench_polygon_layer(n: int = 1200, nvert: int = 48) -> list[dict]:
    """NUTS-scale deterministic layer for benchmarks (FIXTURES.md: 1200
    polygons).  A jittered grid of ``nvert``-vertex star polygons — real
    GISCO/NUTS borders carry hundreds of vertices, so point-in-polygon is
    arithmetic-dense, not a 4-comparison bbox test.  Not oracle-checked
    (the 8-polygon :func:`polygon_layer` is the conformance layer)."""
    from .geom.kernels import rings_area

    xmin, ymin, xmax, ymax = DOMAIN
    ncols = int(np.ceil(np.sqrt(n * (xmax - xmin) / (ymax - ymin))))
    nrows = int(np.ceil(n / ncols))
    w = (xmax - xmin) / ncols
    h = (ymax - ymin) / nrows
    theta = np.arange(nvert) * (2.0 * np.pi / nvert)
    out = []
    for pid in range(n):
        r, c = divmod(pid, ncols)
        cx = xmin + (c + 0.5) * w
        cy = ymin + (r + 0.5) * h
        # deterministic radial jitter -> concave star outline
        jit = ((pid * 2654435761 + np.arange(nvert) * 40503) % 97) / 97.0
        rad = 0.45 + 0.45 * jit  # in units of half cell pitch
        ring = np.stack(
            [
                cx + np.cos(theta) * rad * (w * 0.9),
                cy + np.sin(theta) * rad * (h * 0.9),
            ],
            axis=1,
        )
        bbox = (
            float(ring[:, 0].min()),
            float(ring[:, 1].min()),
            float(ring[:, 0].max()),
            float(ring[:, 1].max()),
        )
        out.append(
            {
                "poly_id": pid,
                "nuts_id": f"BM{pid:04d}",
                "rings": [ring],
                "bbox": bbox,
                "pop": float((pid * 37) % 100) + 0.5,
                "area": rings_area([ring]),
            }
        )
    return out


def sql_polygon_rects_cte() -> str:
    """VALUES CTE of the disjoint rect decomposition (oracle side)."""
    rows = []
    for pid in sorted(_POLY_RECTS):
        pop = float((pid * 37) % 100) + 0.5
        for xmin, ymin, xmax, ymax in _POLY_RECTS[pid]:
            rows.append(
                f"({pid}, 'RG{pid:03d}', {float(xmin)}, {float(ymin)}, "
                f"{float(xmax)}, {float(ymax)}, {pop})"
            )
    return (
        "SELECT * FROM (VALUES "
        + ", ".join(rows)
        + ") AS t(poly_id, nuts_id, rxmin, rymin, rxmax, rymax, pop)"
    )


def sql_polygon_area_cte() -> str:
    """Per-polygon total area from the rect decomposition."""
    return (
        "SELECT poly_id, ANY_VALUE(nuts_id) AS nuts_id, ANY_VALUE(pop) AS pop, "
        "SUM((rxmax - rxmin) * (rymax - rymin)) AS poly_area "
        "FROM poly_rects GROUP BY poly_id"
    )


# ---------------------------------------------------------------------------
# Convex clip layer — layer x layer overlay fixture (poly_overlay oracle)
# ---------------------------------------------------------------------------
# km units: the engine scales the metre-unit fixture rings by /1000.0
# (every fixture coordinate is a multiple of 1000 m, so the division is
# EXACT in float64 and both sides start from identical values; km-scale
# coordinates also keep shoelace cross-terms O(1e5), so fp noise sits
# ~1e-10 under the 1e-6 rounding step).  Each clip is the convex region
# {xl <= x <= xr, mb*x + cb <= y <= mt*x + ct} with slopes >= 0: a plain
# rect, a sloped-TOP trapezoid and a sloped-BOTTOM trapezoid — the
# non-axis-aligned edges exercise the general Sutherland-Hodgman kernel
# in both orientations while the DuckDB twin stays a closed-form
# rect-strip integral over the subject's rect decomposition.
_CLIP_POLYS = (
    # (clip_id, xl, xr, mb, cb, mt, ct)
    (0, 120.0, 380.0, 0.0, 80.0, 0.0, 260.0),  # axis-aligned rect
    (1, 50.0, 350.0, 0.0, 50.0, 0.4, 160.0),   # sloped top edge
    (2, 100.0, 450.0, 0.3, 20.0, 0.0, 430.0),  # sloped bottom edge
)


def clip_layer() -> list[dict]:
    """[{clip_id, ring (CCW, km)}, ...] — broadcast side of poly_overlay."""
    out = []
    for cid, xl, xr, mb, cb, mt, ct in _CLIP_POLYS:
        ring = as_ring(
            [
                [xl, mb * xl + cb],
                [xr, mb * xr + cb],
                [xr, mt * xr + ct],
                [xl, mt * xl + ct],
            ]
        )
        out.append({"clip_id": cid, "ring": ring})
    return out


def sql_polygon_rects_km_cte() -> str:
    """The rect decomposition scaled to km (literals divided by 1000 in
    Python — the same exact floats the engine's /1000.0 ring scale
    produces)."""
    rows = []
    for pid in sorted(_POLY_RECTS):
        for xmin, ymin, xmax, ymax in _POLY_RECTS[pid]:
            rows.append(
                f"({pid}, {float(xmin) / 1000.0}, {float(ymin) / 1000.0}, "
                f"{float(xmax) / 1000.0}, {float(ymax) / 1000.0})"
            )
    return (
        "SELECT * FROM (VALUES "
        + ", ".join(rows)
        + ") AS t(poly_id, rxmin, rymin, rxmax, rymax)"
    )


def sql_clip_area_expr(clip: tuple) -> str:
    """Closed-form ``area(rect ∩ clip)`` SQL over columns rxmin/rymin/
    rxmax/rymax, for one ``_CLIP_POLYS`` row.  Piecewise-linear strip
    integral: the clamp breakpoints of the sloped edge split [X0, X1]
    into a zero piece, a linear piece and a saturated piece."""
    _, xl, xr, mb, cb, mt, ct = clip
    x0 = f"GREATEST(rxmin, {xl!r})"
    x1 = f"LEAST(rxmax, {xr!r})"
    if mb == 0.0 and mt == 0.0:
        return (
            f"GREATEST(0, {x1} - {x0})"
            f" * GREATEST(0, LEAST(rymax, {ct!r}) - GREATEST(rymin, {cb!r}))"
        )
    if mb == 0.0:  # sloped top: cb <= y <= mt*x + ct
        ylo = f"GREATEST(rymin, {cb!r})"
        xa = f"(({ylo}) - {ct!r}) / {mt!r}"
        xb = f"(rymax - {ct!r}) / {mt!r}"
        lo = f"GREATEST({x0}, LEAST({x1}, {xa}))"
        hi = f"GREATEST({x0}, LEAST({x1}, {xb}))"
        return (
            f"CASE WHEN {x1} > {x0} AND rymax > {ylo} THEN"
            f" {mt!r} / 2.0 * (({hi}) * ({hi}) - ({lo}) * ({lo}))"
            f" + ({ct!r} - ({ylo})) * (({hi}) - ({lo}))"
            f" + (rymax - ({ylo})) * (({x1}) - ({hi}))"
            f" ELSE 0.0 END"
        )
    if mt == 0.0:  # sloped bottom: mb*x + cb <= y <= ct
        yhi = f"LEAST(rymax, {ct!r})"
        xa = f"(rymin - {cb!r}) / {mb!r}"
        xb = f"(({yhi}) - {cb!r}) / {mb!r}"
        lo = f"GREATEST({x0}, LEAST({x1}, {xa}))"
        hi = f"GREATEST({x0}, LEAST({x1}, {xb}))"
        return (
            f"CASE WHEN {x1} > {x0} AND {yhi} > rymin THEN"
            f" (({yhi}) - rymin) * (({lo}) - ({x0}))"
            f" + (({yhi}) - {cb!r}) * (({hi}) - ({lo}))"
            f" - {mb!r} / 2.0 * (({hi}) * ({hi}) - ({lo}) * ({lo}))"
            f" ELSE 0.0 END"
        )
    raise ValueError("clips with BOTH edges sloped are not in the fixture")


# Concave clip fixture (triangulation path of poly_overlay): an L-shaped
# ring whose exact rect decomposition gives the oracle a pure
# rect-x-rect law, while the ENGINE path ear-clips the ring into
# diagonal-edged triangles and runs general convex SH against each.
_CLIP_L_RING = (
    (150.0, 100.0), (400.0, 100.0), (400.0, 220.0),
    (300.0, 220.0), (300.0, 400.0), (150.0, 400.0),
)
_CLIP_L_RECTS = (
    (150.0, 100.0, 400.0, 220.0),
    (150.0, 220.0, 300.0, 400.0),
)


def clip_layer_concave() -> list[dict]:
    return [{"clip_id": 0, "ring": as_ring(list(_CLIP_L_RING))}]


def sql_clip_l_rects_cte() -> str:
    rows = ", ".join(
        f"({x0}, {y0}, {x1}, {y1})" for x0, y0, x1, y1 in _CLIP_L_RECTS
    )
    return f"SELECT * FROM (VALUES {rows}) AS c(cxmin, cymin, cxmax, cymax)"
