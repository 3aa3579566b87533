"""Cluster-derived execution defaults.

Shuffle widths must never be literals in a pipeline plan: a constant
that fits one laptop caps exchange parallelism on a 256-node cluster
and concentrates per-partition memory.  Every partitioned join /
repartition in the engine derives its width from the live cluster via
:func:`default_num_partitions` (CPU-count based in this single-node
sandbox; on a real cluster ``ray.cluster_resources()`` reflects all
nodes, so the same call scales the plan with the cluster).

It also holds :class:`Broadcast`, the one way a stage ships a driver-side
value (polygon layer, dimension table, centroids) to its workers, and
:func:`segment_apply`, the one keyed exchange for hash-like keys: rows
are coarsely bucketed by :func:`bucket_of` (width from
:func:`resolve_num_buckets`, so the Python cost is per bucket, never
per key), and each bucket is sorted once and handed to a vectorized
kernel together with its segment offsets.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray import cloudpickle

#: Knuth multiplicative constant of the engine's one bucket hash
_HASH_MULT = 2654435761
#: the bucket column :func:`segment_apply` shuffles on (internal)
_BUCKET = "__segment_bucket"


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
    """Coarse-bucket shuffle width (the :func:`segment_apply` exchange):
    a few buckets per core, rounded UP to a power of two.

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


def bucket_of(keys: np.ndarray, num_buckets: int) -> np.ndarray:
    """The engine's one coarse bucket law for int64 keys:
    ``((k * 2654435761) & 0x7FFFFFFF) % num_buckets`` in int64
    wrap-around.  Persisted layouts depend on it
    (``state.bucketed``), so it never changes."""
    k = np.asarray(keys).astype(np.int64)
    return ((k * _HASH_MULT) & 0x7FFFFFFF) % num_buckets


def _key_code(table: pa.Table, keys: list[str]) -> np.ndarray:
    """One int64 code per row, equal for equal key tuples.  A single
    integer key is its own code (so :func:`bucket_of` of it is the
    persisted law); other types go through pandas' fixed-seed
    ``hash_array``, and several keys are mixed polynomially."""
    import pandas as pd

    code = np.zeros(table.num_rows, np.int64)
    for k in keys:
        col = table[k]
        if pa.types.is_integer(col.type) or pa.types.is_boolean(col.type):
            v = np.asarray(pc.fill_null(col, 0)).astype(np.int64)
        else:
            v = pd.util.hash_array(
                np.asarray(col.to_pandas(), dtype=object)
            ).view(np.int64)
        code = code * 1000003 + v
    return code


def segment_starts(table: pa.Table, keys: list[str]) -> np.ndarray:
    """Row offsets where the key tuple changes in a key-sorted table
    (nulls compare equal to each other)."""
    n = table.num_rows
    change = np.zeros(n, dtype=bool)
    if n:
        change[0] = True
    for k in keys:
        col = table[k]
        a, b = col.slice(1), col.slice(0, max(n - 1, 0))
        ne = pc.not_equal(a, b)
        if ne.null_count:
            ne = pc.if_else(
                pc.is_null(ne), pc.not_equal(pc.is_null(a), pc.is_null(b)), ne
            )
        change[1:] |= ne.to_numpy(zero_copy_only=False).astype(bool)
    return np.flatnonzero(change)


def _as_table(out, schema: pa.Schema | None) -> pa.Table:
    import pandas as pd

    if schema is None:
        # undeclared (pass-through of an input whose schema is unknown)
        if isinstance(out, pd.DataFrame):
            return pa.Table.from_pandas(out, preserve_index=False)
        return pa.table(out) if isinstance(out, dict) else out
    if out is None:
        return schema.empty_table()
    if isinstance(out, pd.DataFrame):
        out = pa.Table.from_pandas(out, preserve_index=False)
    elif isinstance(out, dict):
        return pa.table({f.name: out[f.name] for f in schema}, schema=schema)
    return out.select(schema.names).cast(schema)


def _sort_keys(keys: list[str], order) -> list[tuple[str, str]]:
    return [(c, "ascending") for c in keys] + [
        o if isinstance(o, tuple) else (o, "ascending") for o in order
    ]


def apply_segments(table: pa.Table, keys, kernel, order=()):
    """Run a :func:`segment_apply` kernel on one in-memory table: the
    same stable sort and segment offsets, no exchange (the driver-side
    twin for inputs already gathered)."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    t = table.take(pc.sort_indices(table, sort_keys=_sort_keys(keys, order)))
    return kernel(t, segment_starts(t, keys))


def segment_apply(ds, keys, kernel, schema: pa.Schema | None, *, order=(),
                  num_buckets: int | None = None):
    """Apply a vectorized ``kernel`` to every group of ``keys`` with ONE
    Python call per coarse bucket, never one per key.

    Rows are tagged with ``bucket_of(key code) % num_buckets`` (width
    resolved here, on the driver; an explicit count passes through) and
    exchanged with the sort-shuffle ``groupby(bucket).map_groups``, so
    all rows of a key meet in one call.  Per bucket the rows get one
    stable sort on ``(*keys, *order)`` (an ``order`` entry may be a
    ``(column, "descending")`` pair; nulls sort last) and one
    segment-start pass, then ``kernel(table, starts)`` runs once:
    ``table`` is the sorted ``pa.Table`` (bucket column dropped) and
    ``starts`` the int64 row offset of each key group, ready for
    ``np.add.reduceat``.  The kernel returns a ``pa.Table``, a pandas
    frame, a dict of columns or ``None`` (no rows); it is cast to
    ``schema``.  A zero-row input still yields a dataset whose
    ``schema()`` is ``schema`` (Ray's groupby alone would report none).
    ``schema=None`` (see :func:`passthrough_schema`) leaves the kernel's
    output uncast and declares nothing for the zero-row case.
    """
    keys = [keys] if isinstance(keys, str) else list(keys)
    nb = resolve_num_buckets(num_buckets)

    def tag(t: pa.Table) -> pa.Table:
        return t.append_column(_BUCKET, pa.array(bucket_of(_key_code(t, keys), nb)))

    def apply(t: pa.Table) -> pa.Table:
        out = apply_segments(t.drop_columns([_BUCKET]), keys, kernel, order)
        return _as_table(out, schema)

    # The sort-shuffle groupby, not ``repartition(n, keys=)``: the latter
    # needs DataContext.shuffle_strategy=HASH_SHUFFLE and runs one
    # memory-reserving aggregator actor per partition.
    out = (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby(_BUCKET)
        .map_groups(apply, batch_format="pyarrow")
    )
    return out if schema is None else declare_schema(out, schema)


def declare_schema(ds, schema: pa.Schema):
    """``ds`` plus one empty ``schema`` block, so that ``schema()`` is
    ``schema`` even when no block has rows: a zero-row input never
    calls a ``map_groups`` UDF, and a sort of zero rows drops the
    schema too.  Harmless when ``ds`` has rows."""
    import ray.data as rd

    return ds.union(rd.from_arrow(schema.empty_table()))


def to_frame(ds, schema: pa.Schema):
    """``ds.to_pandas()`` for a driver fold, typed by ``schema`` when Ray
    2.49 drops every (zero-row) block and returns a frame with no columns."""
    df = ds.to_pandas()
    return df if len(df.columns) else schema.empty_table().to_pandas()


def segment_sum(ds, keys, vals=("val",), *, num_buckets: int | None = None):
    """Sum the ``vals`` columns (as float64) per int64 ``keys`` tuple:
    one :func:`segment_apply` exchange, one ``np.add.reduceat`` per
    bucket.  Output columns: the keys (int64) then the sums."""
    keys = [keys] if isinstance(keys, str) else list(keys)

    def kernel(t: pa.Table, starts: np.ndarray) -> dict:
        out = {k: np.asarray(t[k], np.int64)[starts] for k in keys}
        for v in vals:
            out[v] = np.add.reduceat(np.asarray(t[v], np.float64), starts)
        return out

    schema = pa.schema(
        [(k, pa.int64()) for k in keys] + [(v, pa.float64()) for v in vals]
    )
    return segment_apply(ds, keys, kernel, schema, num_buckets=num_buckets)


def passthrough_schema(ds, extra=(), drop=()) -> pa.Schema | None:
    """``ds``'s columns (minus ``drop``) plus ``extra`` ``(name, type)``
    pairs: the declared :func:`segment_apply` schema of a kernel that
    passes its input rows through.  ``None`` when the plan does not
    know ``ds``'s Arrow schema without running (a map, join or
    aggregate upstream): learning it would execute the upstream a
    second time, so such a call skips the schema declaration."""
    s = ds.schema(fetch_if_missing=False)
    if s is None or not all(isinstance(t, pa.DataType) for t in s.types):
        return None
    fields = [(n, t) for n, t in zip(s.names, s.types) if n not in drop]
    return pa.schema(fields + list(extra))


#: per-process cache of built broadcast values, keyed by content key;
#: least recently used out past ``_BUILT_MAX`` distinct broadcasts
_BUILT: OrderedDict[bytes, object] = OrderedDict()
#: driver-side object refs, keyed by (Ray session, content key); same bound
_PUT: OrderedDict[tuple, ray.ObjectRef] = OrderedDict()
_BUILT_MAX = 8


def _remember(cache: OrderedDict, key, value) -> None:
    """Insert or refresh ``key`` as the most recently used entry."""
    cache[key] = value
    cache.move_to_end(key)
    while len(cache) > _BUILT_MAX:
        cache.popitem(last=False)


def _content_key(value, build) -> bytes:
    """blake2b of ``value``'s protocol-5 pickle (out-of-band buffers
    hashed in place, each after its length) and of the pickled ``build``
    (code plus closure values)."""
    buffers = []
    h = hashlib.blake2b(digest_size=20)
    h.update(cloudpickle.dumps(value, protocol=5, buffer_callback=buffers.append))
    for b in buffers:
        raw = b.raw()
        h.update(raw.nbytes.to_bytes(8, "little"))
        h.update(raw)
    h.update(cloudpickle.dumps(build, protocol=5))
    return h.digest()


def _session():
    """Identity of the connected Ray session, or None before one exists."""
    if not ray.is_initialized():
        return None
    ctx = ray.get_runtime_context()
    return ctx.get_node_id(), ctx.get_job_id()


class Broadcast:
    """A driver-side value put in the object store once, read by every
    batch of a stateless ``map_batches`` stage.

    ``get()`` fetches the value (and runs ``build`` on it, e.g. a
    polygon layer -> its join kernel) at most once per worker process,
    so the layer/index cost is amortized like an actor pool's, while the
    stage stays elastic and fusable with its neighbours.  Only the
    object ref, ``build`` and the content key are pickled into the
    closure.

    Both caches are keyed by content, never by ``id()`` or object ref:
    a second ``Broadcast`` of a byte-identical value with a
    byte-identical ``build`` reuses the session's ref (no ``ray.put``)
    and each worker's built value (no rebuild), so repeated jobs over
    one layer pay neither again.  ``build`` must therefore be a pure
    function of the value and its closure.
    """

    def __init__(self, value, build=None):
        self.build = build
        self.key = _content_key(value, build)
        ref = _PUT.get((_session(), self.key))
        if ref is None:
            ref = ray.put(value)
        _remember(_PUT, (_session(), self.key), ref)
        self.ref = ref

    def get(self):
        try:
            value = _BUILT[self.key]
        except KeyError:
            value = ray.get(self.ref)
            if self.build is not None:
                value = self.build(value)
        _remember(_BUILT, self.key, value)
        return value


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
