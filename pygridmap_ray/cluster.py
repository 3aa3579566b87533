"""Cluster-derived execution defaults.

Shuffle widths must never be literals in a pipeline plan: a constant
that fits one laptop caps exchange parallelism on a 256-node cluster
and concentrates per-partition memory.  Every partitioned join /
repartition in the engine derives its width from the live cluster via
:func:`default_num_partitions` (CPU-count based in this single-node
sandbox; on a real cluster ``ray.cluster_resources()`` reflects all
nodes, so the same call scales the plan with the cluster).

It also holds :class:`Broadcast`, the one way a stage ships a driver-side
value (polygon layer, dimension table, centroids) to its workers.
"""

from __future__ import annotations

import ray


def default_num_partitions(min_parts: int = 2, per_cpu: float = 0.5) -> int:
    """Shuffle width for partitioned joins / repartitions.

    ``per_cpu`` defaults to 0.5 (one exchange partition per two cores):
    hash-join build/probe tasks are memory-hungry, so oversubscribing
    cores with exchange partitions only adds object-store churn.  Falls
    back to 4 CPUs when no Ray session exists yet (plan built before
    ``ray.init`` — the width is re-derived lazily at call time by every
    pipeline, so this path only serves unit imports).
    """
    cpus = 4.0
    if ray.is_initialized():
        cpus = float(ray.cluster_resources().get("CPU", 4.0))
    return max(min_parts, int(cpus * per_cpu))


def default_num_buckets(min_buckets: int = 8, per_cpu: float = 2.0) -> int:
    """Coarse-bucket shuffle width (the ``groupby(hash % nb).map_groups``
    plans): a few buckets per core, rounded UP to a power of two.

    Bucket keys are hashes everywhere in the engine, so any count is
    law-neutral — the count only sets (a) the ``map_groups`` parallelism
    ceiling and (b) rows-per-bucket memory, both of which must scale
    with the cluster, never sit at a laptop literal.  Power of two
    because range-shift bucketing (``pack.shuffle_by_hash``) requires
    it and it costs nothing elsewhere.  Same fallback rule as
    :func:`default_num_partitions`: 4 CPUs before ``ray.init`` (widths
    are re-derived lazily at call time, so that path only serves unit
    imports)."""
    cpus = 4.0
    if ray.is_initialized():
        cpus = float(ray.cluster_resources().get("CPU", 4.0))
    target = max(min_buckets, int(cpus * per_cpu))
    return 1 << (target - 1).bit_length()


def resolve_num_buckets(num_buckets: int | None) -> int:
    """``None`` -> :func:`default_num_buckets`; an explicit count passes
    through (callers that must pin a width — tests, reproducible plans —
    keep that ability)."""
    return default_num_buckets() if num_buckets is None else num_buckets


#: per-worker-process cache of built broadcast values, keyed by object
#: ref hex; FIFO-evicted past ``_BUILT_MAX`` distinct broadcasts
_BUILT: dict[str, object] = {}
_BUILT_MAX = 8


class Broadcast:
    """A driver-side value put in the object store once, read by every
    batch of a stateless ``map_batches`` stage.

    ``get()`` fetches the value (and runs ``build`` on it, e.g. a
    polygon layer -> its join kernel) at most once per worker process,
    so the layer/index cost is amortized like an actor pool's, while the
    stage stays elastic and fusable with its neighbours.  Only the
    object ref and ``build`` are pickled into the closure.
    """

    def __init__(self, value, build=None):
        self.ref = ray.put(value)
        self.build = build

    def get(self):
        key = self.ref.hex()
        if key not in _BUILT:
            value = ray.get(self.ref)
            if self.build is not None:
                value = self.build(value)
            while len(_BUILT) >= _BUILT_MAX:
                _BUILT.pop(next(iter(_BUILT)))
            _BUILT[key] = value
        return _BUILT[key]


# NOTE there is deliberately NO worker-side cached bucket resolver
# (the former ``auto_num_buckets``): a per-worker cache of
# ``ray.cluster_resources()`` is only consistent on a STATIC cluster —
# on an elastic one (nodes joining/leaving, worker processes spanning a
# resize) two workers of the same stage can cache different CPU totals
# and silently split coarse groups.  Bucket counts are resolved ONCE on
# the driver at pipeline entry (``resolve_num_buckets``) and captured
# in the UDF closures, so every batch of a stage agrees by construction.


def compact_blocks(ds, schema, sentinel_keys: dict | None = None):
    """Rebuild ``ds`` from its NON-EMPTY blocks only — the deterministic
    guard against Ray 2.49's hash-shuffle schema race.

    The join/shuffle operator broadcasts a side's schema to data-less
    partitions only from the FIRST block it shuffles
    (``hash_shuffle.py``: an empty first block returns before the
    ``send_empty_blocks`` loop, but ``_has_schemas_broadcasted`` is set
    anyway), so a side whose first-dispatched block is empty leaves
    every row-less partition COLUMN-LESS and Acero fails with "No match
    ... for key field reference" — a scheduling race, reproduced
    deterministically by putting empty blocks first.  ``map_batches``
    cannot heal it: the UDF is never invoked on zero-row blocks.

    This helper materializes the side, keeps only non-empty block refs
    (blocks stay in the object store — nothing is fetched to the
    driver), normalizes them to Arrow with exactly ``schema``, and
    returns a dataset with no empty blocks at all (one schema-ful empty
    table if the side has no rows anywhere).

    USE ON BOUNDED SIDES ONLY (candidate/id-scale join inputs —
    anything downstream of a filter, ``map_groups``, aggregate or join
    whose volume is already reduced): the materialize pins the side in
    the object store.  Raw reads and dense map stages have no empty
    blocks and need no guard — at production scale every partition has
    rows and the race is unobservable; this is a small-input
    correctness guard, and the gate runs small inputs.
    """
    import pyarrow as pa
    import ray.data as rd

    def fix(b):
        return b.select(schema.names).cast(schema)

    mat = ds.map_batches(fix, batch_format="pyarrow", batch_size=None).materialize()
    refs = []
    for bundle in mat.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if meta.num_rows:
                refs.append(ref)
    if not refs:
        # an empty single block would be the side's first-shuffled block
        # and lose the race deterministically: emit ONE sentinel row with
        # never-matching keys instead (the join drops it)
        cols = []
        for f in schema:
            if f.name in (sentinel_keys or {}):
                cols.append(pa.array([sentinel_keys[f.name]], f.type))
            else:
                cols.append(pa.nulls(1, f.type))
        return rd.from_arrow(pa.table(dict(zip(schema.names, cols))))
    return rd.from_arrow_refs(refs)


def safe_join(
    left,
    right,
    join_type: str,
    *,
    num_partitions: int,
    on: tuple,
    right_on: tuple | None = None,
    left_schema=None,
    right_schema=None,
):
    """``Dataset.join`` hardened against the hash-shuffle schema race:
    each side whose ``*_schema`` is given is compacted via
    :func:`compact_blocks` so no empty block can ever be its side's
    first-shuffled block.  Pass the schema for EVERY side that can
    carry empty or column-less blocks (downstream of a filter,
    ``map_groups``, aggregate, join, or a width>rows repartition) AND
    whose volume is bounded (the compact materializes); pass ``None``
    for dense sides (raw reads / row-preserving maps), which have no
    empty blocks to race on.  For UNBOUNDED sides that merely passed a
    filter, prefer a fresh balanced ``.repartition(width)`` right
    before the join — it yields non-empty blocks whenever rows >=
    width (every realistic scale) without pinning the side."""
    if join_type not in ("inner", "left_outer"):
        # a guarded side's sentinel row would surface in the output of
        # right/full outer joins (unmatched right rows are kept there)
        raise ValueError("safe_join supports inner and left_outer only")
    if join_type == "left_outer" and left_schema is not None:
        raise ValueError(
            "left_outer: guard only the right side (a left sentinel row "
            "would surface in the output); left sides of outer joins must "
            "be dense by construction"
        )
    rkeys = right_on or on
    if left_schema is not None:
        left = compact_blocks(
            left,
            left_schema,
            {k: _sentinel_for(left_schema.field(k).type, "left") for k in on},
        )
    if right_schema is not None:
        right = compact_blocks(
            right,
            right_schema,
            {
                k: _sentinel_for(right_schema.field(k).type, "right")
                for k in rkeys
            },
        )
    return left.join(
        right,
        join_type,
        num_partitions=num_partitions,
        on=on,
        right_on=right_on,
    )


#: sentinel key values per side — never equal to each other, never real
LEFT_SENTINEL = -(1 << 62)
RIGHT_SENTINEL = -(1 << 61)


def _sentinel_for(field_type, side: str):
    """A key value that can never occur in real data nor match the
    other side's sentinel."""
    import pyarrow as pa

    tag = LEFT_SENTINEL if side == "left" else RIGHT_SENTINEL
    if pa.types.is_integer(field_type):
        return tag
    if pa.types.is_floating(field_type):
        return float(tag)
    if pa.types.is_string(field_type) or pa.types.is_large_string(field_type):
        return f"\x00__pygridmap_sentinel_{side}__"
    if pa.types.is_binary(field_type) or pa.types.is_large_binary(field_type):
        return f"\x00__pygridmap_sentinel_{side}__".encode()
    raise TypeError(f"no sentinel rule for join key type {field_type}")
