"""Seeded benchmark inputs and the independent references the checks use.

Everything here is the benchmark's own: the point corpus, its interleaved
``spans`` payload and the star polygon layers are generated from the run's
seed, and the reference answers (winding-number containment, per-doc
spans, shoelace areas) are computed without calling into
``pygridmap_ray``.  The program under test only ever sees the parquet
files and the polygon lists built here.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

#: planar domain of the point corpus and of the point workloads' layers
DOMAIN = (0.0, 0.0, 500_000.0, 501_000.0)
#: 30% of points fall into these three 30 km squares (hot cells)
CLUSTERS = ((100_000.0, 120_000.0), (250_000.0, 300_000.0), (400_000.0, 450_000.0))
KINDS = ("text", "image", "audio")

_M64 = (1 << 64) - 1


def _mix(x: np.ndarray, salt: int) -> np.ndarray:
    """splitmix64 finaliser of ``x + salt * golden`` (uint64, wrapping)."""
    z = x.astype(np.uint64) + np.uint64((salt * 0x9E3779B97F4A7C15) & _M64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _unit(x: np.ndarray, salt: int) -> np.ndarray:
    """Uniform [0, 1) double from the top 53 bits of the mixed value."""
    return (_mix(x, salt) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def doc_ids(seed: int, n: int) -> np.ndarray:
    """``n`` distinct, increasing int64 doc ids drawn from the seed."""
    rng = np.random.default_rng([seed, 1])
    base = int(rng.integers(0, 1 << 40))
    return base + np.arange(n, dtype=np.int64) * 8 + rng.integers(0, 8, n)


def point_xy(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Planar location of each doc: 70% uniform, 30% in the clusters."""
    ids = np.asarray(ids, dtype=np.int64)
    u = _unit(ids, 1)
    v = _unit(ids, 2)
    c = (_mix(ids, 3) % np.uint64(10)).astype(np.int64)
    clustered = c < 3
    cx = np.array([p[0] for p in CLUSTERS])[np.minimum(c, 2)]
    cy = np.array([p[1] for p in CLUSTERS])[np.minimum(c, 2)]
    x = np.where(clustered, cx + (u - 0.5) * 30_000.0, DOMAIN[2] * u)
    y = np.where(clustered, cy + (v - 0.5) * 30_000.0, DOMAIN[3] * v)
    return x, y


def spans_array(ids: np.ndarray) -> pa.ListArray:
    """``list<struct<kind, text, media_ref, offset>>`` payload per doc.

    Doc ``d`` has ``1 + d % 8`` spans; span ``i`` has kind
    ``KINDS[(d + i) % 3]``, text ``t-<d>-<i>`` (text spans only), media ref
    ``media://<d>/<i>`` (other spans only) and offset ``7 i + d % 5``.
    """
    ids = np.asarray(ids, dtype=np.int64)
    n_spans = 1 + ids % 8
    offsets = np.zeros(len(ids) + 1, dtype=np.int32)
    np.cumsum(n_spans, out=offsets[1:])
    parent = np.repeat(ids, n_spans)
    i = np.arange(int(offsets[-1]), dtype=np.int64) - np.repeat(
        offsets[:-1].astype(np.int64), n_spans
    )
    code = (parent + i) % 3
    is_text = pa.array(code == 0)
    d_s = pc.cast(pa.array(parent), pa.string())
    i_s = pc.cast(pa.array(i), pa.string())
    empty = pa.scalar("")
    text = pc.if_else(is_text, pc.binary_join_element_wise("t-", d_s, "-", i_s, ""), empty)
    media = pc.if_else(
        is_text, empty, pc.binary_join_element_wise("media://", d_s, "/", i_s, "")
    )
    struct = pa.StructArray.from_arrays(
        [
            pa.array(list(KINDS)).take(pa.array(code)),
            text,
            media,
            pa.array((i * 7 + parent % 5).astype(np.int32)),
        ],
        names=["kind", "text", "media_ref", "offset"],
    )
    return pa.ListArray.from_arrays(pa.array(offsets), struct)


def spans_reference(doc_id: int) -> list[dict]:
    """The spans of one doc, spelled out span by span (check reference)."""
    out = []
    for i in range(1 + doc_id % 8):
        kind = KINDS[(doc_id + i) % 3]
        out.append(
            {
                "kind": kind,
                "text": f"t-{doc_id}-{i}" if kind == "text" else "",
                "media_ref": "" if kind == "text" else f"media://{doc_id}/{i}",
                "offset": i * 7 + doc_id % 5,
            }
        )
    return out


def corpus_table(ids: np.ndarray) -> pa.Table:
    """One corpus file's rows: ``doc_id, x, y, spans``."""
    x, y = point_xy(ids)
    return pa.table(
        {"doc_id": pa.array(ids, pa.int64()), "x": x, "y": y, "spans": spans_array(ids)}
    )


def write_corpus_part(path: str, ids: np.ndarray) -> int:
    """Write one parquet file of the corpus; returns its size in bytes."""
    import os

    import pyarrow.parquet as pq

    pq.write_table(corpus_table(ids), path)
    return os.path.getsize(path)


def shoelace(ring: np.ndarray) -> float:
    x, y = ring[:, 0], ring[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def star_layer(
    seed: int, n: int, nvert: int, bbox: tuple[float, float, float, float]
) -> list[dict]:
    """``n`` star polygons of ``nvert`` vertices on a jittered grid over
    ``bbox``.  Radii reach 0.81 of the grid pitch, so neighbours overlap and
    a point can fall in two polygons.  Each ring is star-shaped about its
    centre and counter-clockwise, hence simple with positive area."""
    rng = np.random.default_rng([seed, 2, n, nvert])
    xmin, ymin, xmax, ymax = bbox
    ncols = int(np.ceil(np.sqrt(n * (xmax - xmin) / (ymax - ymin))))
    nrows = int(np.ceil(n / ncols))
    w = (xmax - xmin) / ncols
    h = (ymax - ymin) / nrows
    theta = np.arange(nvert) * (2.0 * np.pi / nvert)
    rad = 0.45 + 0.45 * rng.random((n, nvert))
    shift = rng.uniform(-0.05, 0.05, (n, 2))
    pop = rng.uniform(10.0, 1000.0, n)
    out = []
    for pid in range(n):
        r, c = divmod(pid, ncols)
        cx = xmin + (c + 0.5 + shift[pid, 0]) * w
        cy = ymin + (r + 0.5 + shift[pid, 1]) * h
        ring = np.stack(
            [cx + np.cos(theta) * rad[pid] * w * 0.9, cy + np.sin(theta) * rad[pid] * h * 0.9],
            axis=1,
        )
        out.append(
            {
                "poly_id": pid,
                "nuts_id": f"P{pid:04d}",
                "rings": [ring],
                "bbox": (
                    float(ring[:, 0].min()),
                    float(ring[:, 1].min()),
                    float(ring[:, 0].max()),
                    float(ring[:, 1].max()),
                ),
                "pop": float(pop[pid]),
                "area": shoelace(ring),
            }
        )
    return out


def winding_inside(px: np.ndarray, py: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """Non-zero winding-number containment of many points in one ring,
    over all of the ring's edges (no bounding-box shortcut)."""
    x1, y1 = ring[:, 0][:, None], ring[:, 1][:, None]
    x2, y2 = np.roll(ring[:, 0], -1)[:, None], np.roll(ring[:, 1], -1)[:, None]
    side = (x2 - x1) * (py - y1) - (px - x1) * (y2 - y1)
    up = (y1 <= py) & (y2 > py) & (side > 0)
    down = (y1 > py) & (y2 <= py) & (side < 0)
    return (up.sum(axis=0) - down.sum(axis=0)) != 0


def reference_polygon_sets(px, py, layer: list[dict]) -> list[set[int]]:
    """For each point, the ids of every layer polygon that contains it."""
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    sets: list[set[int]] = [set() for _ in range(len(px))]
    for p in layer:
        hit = np.zeros(len(px), dtype=bool)
        for ring in p["rings"]:
            hit ^= winding_inside(px, py, ring)
        for k in np.nonzero(hit)[0].tolist():
            sets[k].add(p["poly_id"])
    return sets


def sample_ids(seed: int, ids: np.ndarray, k: int) -> np.ndarray:
    """A seeded sample of ``k`` doc ids for the output checks."""
    rng = np.random.default_rng([seed, 3])
    return np.sort(rng.choice(ids, size=min(k, len(ids)), replace=False))
