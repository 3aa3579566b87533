"""Deduplication operators for large-scale corpora.

Exact (content hash), MinHash+LSH, SimHash, n-gram Jaccard, and
embedding-cosine near-dup — the standard training-data dedup suite,
expressed Ray-Data-first:

- per-batch vectorized signature computation in ``map_batches``
- candidate generation via groupby on (band, bucket) — the LSH shuffle
- verification inside the bucket group (``map_groups``), never all-pairs
  across the corpus

All signatures are deterministic (md5-seeded), so reruns and the exact
paths' DuckDB twins reproduce bit-identically.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from pygridmap_ray.cluster import (
    Broadcast,
    apply_segments,
    segment_apply,
    segment_sum,
)
from pygridmap_ray.synth import KNUTH_MULT

TOKEN_RE = re.compile(r"\S+")

# MinHash parameters (64 permutations = 16 bands x 4 rows)
_MINHASH_K = 64
_LSH_BANDS = 16
_LSH_ROWS = _MINHASH_K // _LSH_BANDS
_MERSENNE = np.uint64((1 << 61) - 1)
_rng = np.random.default_rng(0xC0FFEE)
_PERM_A = _rng.integers(1, (1 << 61) - 1, size=_MINHASH_K, dtype=np.uint64)
_PERM_B = _rng.integers(0, (1 << 61) - 1, size=_MINHASH_K, dtype=np.uint64)


def _token_hashes(toks: list[str]) -> np.ndarray:
    """Deterministic 64-bit token hashes: crc32 of the token bytes mixed
    with a splitmix64 finalizer (C-speed via zlib; PYTHONHASHSEED-free)."""
    import zlib

    if not toks:
        return np.empty(0, dtype=np.uint64)
    h = np.fromiter(
        (zlib.crc32(t.encode()) for t in toks), dtype=np.uint64, count=len(toks)
    )
    # splitmix64 finalize for 64-bit spread
    h = (h + np.uint64(0x9E3779B97F4A7C15)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    h ^= h >> np.uint64(30)
    h = (h * np.uint64(0xBF58476D1CE4E5B9)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    h ^= h >> np.uint64(27)
    h = (h * np.uint64(0x94D049BB133111EB)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    h ^= h >> np.uint64(31)
    return h


def _shingle_hashes(text: str, n: int = 3) -> np.ndarray:
    """Deterministic 61-bit hashes of word n-grams — vectorized rolling
    polynomial over token hashes (no per-gram string building/md5)."""
    toks = TOKEN_RE.findall(text or "")
    th = _token_hashes(toks)
    if len(th) == 0:
        return np.empty(0, dtype=np.uint64)
    m = min(n, len(th))
    acc = np.zeros(len(th) - m + 1, dtype=np.uint64)
    base = np.uint64(1000003)
    for j in range(m):
        acc = (acc * base + th[j : j + len(acc)]) & np.uint64(0xFFFFFFFFFFFFFFFF)
    return np.unique(acc >> np.uint64(3))  # 61-bit range for the permutations


def _band_buckets(sig: np.ndarray, band: int) -> np.ndarray:
    """LSH bucket key of one band: uint64 polynomial fold of the band's
    signature rows.  THE candidate-generation key — one definition for
    every near-dup operator."""
    rows = sig[:, band * _LSH_ROWS : (band + 1) * _LSH_ROWS].astype(np.uint64)
    bucket = rows[:, 0].copy()
    for j in range(1, _LSH_ROWS):
        bucket = bucket * np.uint64(1000003) + rows[:, j]
    return bucket.astype(np.int64)


def _pair_groups(per_group):
    """:func:`segment_apply` kernel running the all-pairs ``per_group``
    verify on each key group with >= 2 rows — singletons can never emit
    a pair, so the mostly-singleton groups of hash-like keys (shingles,
    LSH band codes) cost nothing."""

    def kernel(t: pa.Table, starts: np.ndarray):
        ends = np.append(starts[1:], t.num_rows)
        multi = np.flatnonzero(ends - starts >= 2)
        if not len(multi):
            return None
        g = t.to_pandas()
        frames = [per_group(g.iloc[starts[i]:ends[i]]) for i in multi]
        frames = [f for f in frames if len(f)]
        return pd.concat(frames, ignore_index=True) if frames else None

    return kernel


def _pair_schema(score: str, score_type: pa.DataType) -> pa.Schema:
    return pa.schema(
        [("id_a", pa.int64()), ("id_b", pa.int64()), (score, score_type)]
    )


def content_hash(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """md5 content hash (exact-dup key; DuckDB twin: ``md5(text)``; null
    text stays null — SQL groups nulls separately from empty strings)."""
    from .text import md5_list

    fp = md5_list(batch[text_col].to_pylist())
    return batch.append_column("content_hash", pa.array(fp, pa.string()))


def exact_dedup(ds, *, id_col: str = "doc_id", text_col: str = "text"):
    """Hash-partitioned exact dedup: one surviving (lowest-id) row per
    distinct content, plus the duplicate count — Ray groupby shuffle over
    the content hash (guide pattern: hash inside map_batches, tiny
    groupby)."""
    from ray.data.aggregate import Count, Min

    hashed = ds.map_batches(
        lambda b: content_hash(b, text_col), batch_format="pyarrow"
    )
    agg = (
        hashed.select_columns(["content_hash", id_col])
        .groupby("content_hash")
        .aggregate(Min(id_col, alias_name="keeper_id"), Count(alias_name="n_dups"))
    )
    return agg


def sql_exact_dedup(source: str = "documents", id_col: str = "doc_id") -> str:
    return (
        f"SELECT md5(text) AS content_hash, MIN({id_col})::BIGINT AS keeper_id, "
        f"COUNT(*)::BIGINT AS n_dups FROM {source} GROUP BY content_hash"
    )


def minhash_signatures(
    batch: pa.Table, text_col: str = "text", n: int = 3
) -> pa.Table:
    """64-permutation MinHash per row (vectorized over permutations) over
    word ``n``-gram shingles."""
    sigs = np.full((batch.num_rows, _MINHASH_K), np.iinfo(np.uint64).max, np.uint64)
    texts = batch[text_col].to_pylist()
    for i, s in enumerate(texts):
        h = _shingle_hashes(s, n)
        if len(h) == 0:
            continue
        # (K, S) permuted hashes -> min over shingles
        perm = (h[None, :] * _PERM_A[:, None] + _PERM_B[:, None]) % _MERSENNE
        sigs[i] = perm.min(axis=1)
    return batch.append_column(
        "minhash", pa.FixedSizeListArray.from_arrays(
            pa.array(sigs.reshape(-1).astype(np.int64)), _MINHASH_K
        )
    )


def minhash_lsh_pairs(
    ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    jaccard_threshold: float = 0.7,
    hot_limit: int = 5_000_000,
):
    """Near-dup pairs via MinHash banding.

    shingle -> minhash (map_batches) -> hot-bucket pre-pass -> explode
    to (band, bucket, id, sig) rows FOR CANDIDATE DOCS ONLY -> groupby
    (band, bucket) -> in-bucket signature-Jaccard verify with CANONICAL
    emission (each pair from exactly one band), so no global pair-dedup
    shuffle follows.  Returns (id_a, id_b, jaccard) with id_a < id_b,
    each pair exactly once.

    Scale shape (round-5 pressure finding): a naive explode ships the
    full 64 x int64 signature in EVERY band row — a ``_LSH_BANDS``-fold
    (~8 KB/doc) payload amplification through the shuffle that overflows
    a node's spill disk long before the corpus does.  Instead a THIN
    (band, bucket, id) pass (20 B/row) counts bucket occupancy first;
    only rows of NON-SINGLETON buckets (the candidates) carry the
    signature into the verify shuffle.  Output is identical: a
    singleton bucket can never emit, and any emitting (pair, band) is
    by definition a shared — hence hot — bucket.  When the hot-key set
    exceeds ``hot_limit`` (a mostly-duplicate corpus, where candidate
    pruning cannot help) the plan falls back to the dense explode,
    which in that regime ships no more than the candidates would.
    """
    # Consumed twice (hot-key count + candidate explode): materialize
    # stores the 512 B/doc signature table once — in the object store,
    # spilling to disk past its budget, which costs the same bytes a
    # parquet stage-out would while avoiding a second full shingle +
    # permutation compute pass over the corpus (the CPU-dominant stage).
    sigged = ds.select_columns([id_col, text_col]).map_batches(
        lambda b: minhash_signatures(b, text_col), batch_format="pyarrow"
    ).materialize()

    def _hot_keys_of(sig: np.ndarray) -> np.ndarray:
        """Approximate (band, bucket) key: a 64-bit mix — collisions
        only admit extra singleton groups downstream, never drop or
        merge a real bucket (the verify re-groups by exact keys)."""
        out = np.empty((len(sig), _LSH_BANDS), np.uint64)
        for b in range(_LSH_BANDS):
            bk = _band_buckets(sig, b).astype(np.uint64)
            out[:, b] = (bk + np.uint64(b)) * np.uint64(0x9E3779B97F4A7C15)
        return out

    def thin_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {"k": pa.array([], pa.int64()),
                 "val": pa.array([], pa.int64())}
            )
        sig = np.asarray(
            batch["minhash"].combine_chunks().flatten()
        ).reshape(batch.num_rows, _MINHASH_K)
        hk, cnt = np.unique(_hot_keys_of(sig), return_counts=True)
        return pa.table(
            {"k": pa.array(hk.astype(np.int64)),
             "val": pa.array(cnt.astype(np.int64))}
        )

    hot_ds = (
        segment_sum(sigged.map_batches(thin_partial, batch_format="pyarrow"), ["k"])
        .map_batches(
            lambda b: b.filter(
                pc.greater_equal(b["val"], pa.scalar(2))
            ).select(["k"]),
            batch_format="pyarrow",
        )
        .materialize()
    )
    n_hot = hot_ds.count()

    def explode(batch: pa.Table, *, hot_ref=None) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return pa.table(
                {
                    "band": pa.array([], pa.int32()),
                    "bucket": pa.array([], pa.int64()),
                    id_col: pa.array([], pa.int64()),
                    "minhash": pa.array([], pa.list_(pa.int64())),
                }
            )
        sig = np.asarray(batch["minhash"].combine_chunks().flatten()).reshape(
            n, _MINHASH_K
        )
        ids = np.asarray(batch[id_col], dtype=np.int64)
        if hot_ref is not None:
            hot = hot_ref.get()
            if hot.size == 0:  # no non-singleton bucket anywhere
                return pa.table(
                    {
                        "band": pa.array([], pa.int32()),
                        "bucket": pa.array([], pa.int64()),
                        id_col: pa.array([], pa.int64()),
                        "minhash": pa.array([], pa.list_(pa.int64())),
                    }
                )
            hks = _hot_keys_of(sig)
        bands, buckets, out_ids, out_sig = [], [], [], []
        for b in range(_LSH_BANDS):
            bk = _band_buckets(sig, b)
            if hot_ref is not None:
                pos = np.searchsorted(hot, hks[:, b])
                keep = (pos < len(hot)) & (
                    hot[np.minimum(pos, max(len(hot) - 1, 0))]
                    == hks[:, b]
                )
                if not keep.any():
                    continue
                bands.append(np.full(int(keep.sum()), b, dtype=np.int32))
                buckets.append(bk[keep])
                out_ids.append(ids[keep])
                out_sig.append(sig[keep])
            else:
                bands.append(np.full(n, b, dtype=np.int32))
                buckets.append(bk)
                out_ids.append(ids)
                out_sig.append(sig)
        if not bands:
            return pa.table(
                {
                    "band": pa.array([], pa.int32()),
                    "bucket": pa.array([], pa.int64()),
                    id_col: pa.array([], pa.int64()),
                    "minhash": pa.array([], pa.list_(pa.int64())),
                }
            )
        return pa.table(
            {
                "band": pa.array(np.concatenate(bands)),
                "bucket": pa.array(np.concatenate(buckets)),
                id_col: pa.array(np.concatenate(out_ids)),
                "minhash": pa.array(list(np.concatenate(out_sig, axis=0))),
            }
        )

    if n_hot == 0:
        # no non-singleton bucket anywhere: nothing can pair — return
        # the declared schema directly (an all-empty pipeline would
        # surface column-less blocks)
        import ray.data as rd

        return rd.from_arrow(
            pa.table(
                {
                    "id_a": pa.array([], pa.int64()),
                    "id_b": pa.array([], pa.int64()),
                    "jaccard": pa.array([], pa.float64()),
                }
            )
        )
    if n_hot <= hot_limit:
        hot = np.sort(
            hot_ds.to_pandas()["k"].to_numpy(np.int64).astype(np.uint64)
        )
        hot_ref = Broadcast(hot)
        exploded = sigged.map_batches(
            lambda b, r=hot_ref: explode(b, hot_ref=r),
            batch_format="pyarrow",
        )
    else:  # mostly-duplicate corpus: pruning cannot help, ship dense
        exploded = sigged.map_batches(explode, batch_format="pyarrow")

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "id_a": pd.Series([], dtype="int64"),
                "id_b": pd.Series([], dtype="int64"),
                "jaccard": pd.Series([], dtype="float64"),
            }
        )
        if len(g) < 2:
            return empty
        ids = g[id_col].to_numpy(dtype=np.int64)
        sigs = np.stack(g["minhash"].to_numpy())
        band = int(g["band"].iloc[0])
        order = np.argsort(ids)
        ids, sigs = ids[order], sigs[order]
        # hot-bucket bound: collapse identical signatures FIRST so a
        # boilerplate cluster of m near-identical docs costs O(u^2) unique
        # comparisons, not O(m^2) Python pair checks
        uniq, inverse = np.unique(sigs, axis=0, return_inverse=True)
        u = len(uniq)
        frames = []
        # within-identical-signature member pairs (estimate 1.0): identical
        # sigs collide in EVERY band, so emit them only once, in band 0
        if band == 0:
            counts = np.bincount(inverse, minlength=u)
            for s in np.nonzero(counts > 1)[0]:
                members = ids[inverse == s]  # ascending (ids sorted)
                ia, ib = np.triu_indices(len(members), k=1)
                frames.append(
                    pd.DataFrame(
                        {
                            "id_a": members[ia],
                            "id_b": members[ib],
                            "jaccard": np.ones(len(ia)),
                        }
                    )
                )
        # cross-signature pairs: blockwise vectorized equality on the
        # UNIQUE signatures.  A pair is emitted ONLY in the first band
        # where its two signatures fully agree (computable locally from
        # the sigs) — canonical emission, so no global pair-dedup shuffle
        # is needed afterwards (a groupby over millions of pair-keys costs
        # ~1ms of per-group Python each; this was the real hot-bucket
        # scale-killer)
        if u >= 2:
            blk = max(1, (1 << 24) // (u * _MINHASH_K))
            member_lists = None
            for lo in range(0, u, blk):
                hi = min(lo + blk, u)
                comp = uniq[lo:hi, None, :] == uniq[None, :, :]
                eq = comp.mean(axis=2)
                band_eq = comp.reshape(hi - lo, u, _LSH_BANDS, _LSH_ROWS).all(
                    axis=3
                )
                first_band = np.argmax(band_eq, axis=2)
                ii, jj = np.nonzero(
                    (eq >= jaccard_threshold)
                    & band_eq.any(axis=2)
                    & (first_band == band)
                )
                keep = (ii + lo) < jj  # upper triangle of unique-sig pairs
                if not keep.any():
                    continue
                if member_lists is None:
                    inv_order = np.argsort(inverse, kind="stable")
                    bnds = np.searchsorted(inverse[inv_order], np.arange(u + 1))
                    member_lists = [
                        ids[inv_order[bnds[s] : bnds[s + 1]]] for s in range(u)
                    ]
                for i2, j2, jac in zip(ii[keep] + lo, jj[keep], eq[ii, jj][keep]):
                    ma, mb = member_lists[i2], member_lists[j2]
                    a = np.repeat(ma, len(mb))
                    b = np.tile(mb, len(ma))
                    swap = a > b
                    frames.append(
                        pd.DataFrame(
                            {
                                "id_a": np.where(swap, b, a),
                                "id_b": np.where(swap, a, b),
                                "jaccard": np.full(len(a), float(jac)),
                            }
                        )
                    )
        return pd.concat(frames, ignore_index=True) if frames else empty

    # emission is canonical (identical sigs in band 0 only; cross-sig
    # pairs in their first agreeing band only), so the bucket outputs are
    # already globally distinct — no pair-dedup shuffle
    return segment_apply(
        exploded, ["band", "bucket"], _pair_groups(verify),
        _pair_schema("jaccard", pa.float64()),
    )


def simhash64(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """64-bit SimHash over token hashes (near-dup = small hamming dist).

    Vectorized: one md5 per UNIQUE token (``text.md5_hash64``), the
    64-bit vote matrix accumulated with one ``np.add.reduceat`` over the
    concatenated token stream.  Token hash family is the md5 16-hex
    prefix so the DuckDB twin (:func:`sql_simhash`) is bit-exact."""
    from .text import _flatten_token_lists, md5_hash64

    out = np.zeros(batch.num_rows, dtype=np.uint64)
    tok_lists = [TOKEN_RE.findall(s or "") for s in batch[text_col].to_pylist()]
    flat, lengths = _flatten_token_lists(tok_lists)
    if len(flat):
        h = md5_hash64(flat, hexdigits=16)
        # (T, 64) bit matrix in one C pass: little-endian uint64 bytes ->
        # unpackbits LSB-first puts integer bit b in column b
        bits64 = np.unpackbits(
            h.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
        )
        bounds = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=bounds[1:])
        nz = lengths > 0
        # empty docs own zero-width segments, so consecutive non-empty
        # docs' start offsets are contiguous -> reduceat sums exactly one
        # doc's token bit-counts per segment
        cnt = np.add.reduceat(bits64.astype(np.int32), bounds[:-1][nz], axis=0)
        # vote sum = 2*count_ones - n_tokens; bit set iff vote sum > 0
        bits = (2 * cnt > lengths[nz, None]).astype(np.uint64)
        shifts = np.arange(64, dtype=np.uint64)
        out[nz] = (bits << shifts[None, :]).sum(axis=1, dtype=np.uint64)
    return batch.append_column("simhash", pa.array(out.astype(np.int64)))


def sql_simhash(source: str = "documents", text: str = "text") -> str:
    """DuckDB twin of :func:`simhash64`: per-token 64-bit md5-prefix hash,
    64 per-bit vote sums, sign bits reassembled into a signed BIGINT
    (bit 63 contributes -2^63)."""
    h = f"('0x' || substr(md5(tok), 1, 16))::UBIGINT"
    terms = []
    for b in range(63):
        terms.append(
            f"CASE WHEN SUM(CASE WHEN (h >> {b}) & 1 = 1 THEN 1 ELSE -1 END) > 0 "
            f"THEN {1 << b} ELSE 0 END"
        )
    terms.append(
        "CASE WHEN SUM(CASE WHEN (h >> 63) & 1 = 1 THEN 1 ELSE -1 END) > 0 "
        "THEN (-9223372036854775807 - 1) ELSE 0 END"
    )
    votes = " + ".join(terms)
    return f"""
WITH toks AS (
  SELECT doc_id, unnest(regexp_extract_all({text}, '\\S+')) AS tok FROM {source}
),
sh AS (
  SELECT doc_id, ({votes})::BIGINT AS simhash
  FROM (SELECT doc_id, {h} AS h FROM toks)
  GROUP BY doc_id
)
SELECT d.doc_id, COALESCE(sh.simhash, 0) AS simhash
FROM {source} d LEFT JOIN sh USING (doc_id)
"""


def _shingle_sets(batch: pa.Table, id_col: str, text_col: str, n: int) -> pa.Table:
    """Per doc: sorted distinct shingle hashes (list<int64>), set size, and
    a 64-bit set fingerprint (md5 of the hash bytes) for identical-set
    collapse.  The text column never leaves this stage."""
    ids = np.asarray(batch[id_col], dtype=np.int64)
    texts = batch[text_col].to_pylist()
    arrs = [np.sort(_shingle_hashes(t, n)) for t in texts]
    sizes = np.fromiter((len(a) for a in arrs), dtype=np.int64, count=len(arrs))
    import hashlib as _hl

    set_hash = np.fromiter(
        (
            int(_hl.md5(a.tobytes()).hexdigest()[:16], 16) - (1 << 63)
            for a in arrs
        ),
        dtype=np.int64,
        count=len(arrs),
    )
    offsets = np.zeros(len(arrs) + 1, dtype=np.int32)
    np.cumsum(sizes, out=offsets[1:])
    values = (
        np.concatenate(arrs).astype(np.int64) if len(arrs) else np.empty(0, np.int64)
    )
    shingles = pa.ListArray.from_arrays(pa.array(offsets), pa.array(values))
    return pa.table(
        {
            id_col: pa.array(ids),
            "shingles": shingles,
            "size": pa.array(sizes),
            "set_hash": pa.array(set_hash),
        }
    )


def ngram_jaccard_pairs(
    ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    threshold: float = 0.5,
    n: int = 3,
    num_partitions: int | None = None,
    driver_candgen_limit: int = 5_000_000,
):
    """EXACT n-gram Jaccard near-dup pairs via prefix-filter candidate
    generation (the AllPairs/PPJoin family) — full recall, unlike the
    probabilistic LSH banding of :func:`minhash_lsh_pairs`, and the raw
    text never enters the shuffle (only 8-byte shingle hashes travel).

    - per doc: sorted distinct shingle-hash set S (|S| = s); prefix =
      first ``s - ceil(t*s) + 1`` hashes.  Lemma: jac(A,B) >= t implies
      the smallest common element sits inside BOTH prefixes, so grouping
      prefix entries by shingle has full recall.
    - candidate stage ships (shingle, id, size, pos, set_hash) only;
      in-bucket, identical sets (same fingerprint) emit their member
      pairs DIRECTLY with jaccard exactly 1.0 — once, in the bucket of
      their first prefix hash — so boilerplate clusters never reach the
      O(m^2) verify.
    - cross-set candidates pass the length filter (t*max <= min), are
      deduped, then hash-JOINED back to the two shingle sets
      (``Dataset.join``) for the exact sorted-array intersection.

    Partitioning assumption: candidates shuffle by shingle hash, verify
    shuffles by doc id — both well-spread keys; a globally hot shingle is
    bounded by the prefix filter (only docs whose PREFIX holds it land in
    its bucket)."""
    from .cluster import default_num_partitions

    if num_partitions is None:
        num_partitions = default_num_partitions()
    sets = ds.select_columns([id_col, text_col]).map_batches(
        lambda b: _shingle_sets(b, id_col, text_col, n), batch_format="pyarrow"
    )
    # three consumers (prefix explode + both verify-join sides) — pin the
    # lineage so tokenize+hash runs ONCE per doc, not three times; the
    # object store spills if the shingle table outgrows memory
    sets = sets.materialize()

    def explode_prefix(batch: pa.Table) -> pa.Table:
        sizes = np.asarray(batch["size"], dtype=np.int64)
        ids = np.asarray(batch[id_col], dtype=np.int64)
        shash = np.asarray(batch["set_hash"], dtype=np.int64)
        sh = batch["shingles"].combine_chunks()
        flat = np.asarray(sh.flatten(), dtype=np.int64)
        offsets = np.asarray(sh.offsets, dtype=np.int64)
        pref_len = np.where(
            sizes > 0, sizes - np.ceil(threshold * sizes).astype(np.int64) + 1, 0
        )
        parent = np.repeat(np.arange(len(ids)), pref_len)
        total = int(pref_len.sum())
        pos = np.arange(total) - np.repeat(
            np.concatenate([[0], np.cumsum(pref_len)[:-1]]), pref_len
        )
        take = offsets[:-1][parent] + pos
        return pa.table(
            {
                "shingle": pa.array(flat[take]),
                id_col: pa.array(ids[parent]),
                "size": pa.array(sizes[parent]),
                "pos": pa.array(pos),
                "set_hash": pa.array(shash[parent]),
            }
        )

    prefix = sets.map_batches(explode_prefix, batch_format="pyarrow")

    _CAND_EMPTY = pd.DataFrame(
        {
            "id_a": pd.Series([], dtype="int64"),
            "id_b": pd.Series([], dtype="int64"),
            "jaccard": pd.Series([], dtype="float64"),
            "size_a": pd.Series([], dtype="int64"),
            "size_b": pd.Series([], dtype="int64"),
        }
    )

    def candgen_partition(t: pa.Table, starts: np.ndarray) -> pd.DataFrame:
        """All shingle groups of one coarse partition at once — ZERO
        per-group Python.  Real text shares common n-grams, so prefix
        groups number in the tens of thousands; pair slots are
        enumerated with one triu per DISTINCT group size (segmented
        triu), then every filter applies vectorized across all groups:
        same-fingerprint pairs at pos 0/0 emit jaccard exactly 1.0 (each
        identical-set pair lands in exactly one segment at pos 0 — its
        common first shingle), cross-fingerprint pairs passing the
        t*max<=min length filter emit the verify marker -1."""
        # segments by shingle, ids ascending within each
        ids = np.asarray(t[id_col], np.int64)
        sizes = np.asarray(t["size"], np.int64)
        pos = np.asarray(t["pos"], np.int64)
        shash = np.asarray(t["set_hash"], np.int64)
        m = np.diff(np.append(starts, len(ids)))
        ga_l, gb_l = [], []
        for sz in np.unique(m[m >= 2]):
            segs = starts[m == sz]
            la, lb = np.triu_indices(int(sz), k=1)
            ga_l.append((segs[:, None] + la[None, :]).ravel())
            gb_l.append((segs[:, None] + lb[None, :]).ravel())
        if not ga_l:
            return _CAND_EMPTY
        ga = np.concatenate(ga_l)
        gb = np.concatenate(gb_l)
        same = shash[ga] == shash[gb]
        ident = same & (pos[ga] == 0) & (pos[gb] == 0)
        cross = (~same) & (
            threshold * np.maximum(sizes[ga], sizes[gb])
            <= np.minimum(sizes[ga], sizes[gb])
        )
        keep = ident | cross
        if not keep.any():
            return _CAND_EMPTY
        return pd.DataFrame(
            {
                "id_a": ids[ga[keep]],
                "id_b": ids[gb[keep]],
                "jaccard": np.where(ident[keep], 1.0, -1.0),
                "size_a": sizes[ga[keep]],
                "size_b": sizes[gb[keep]],
            }
        )

    import pyarrow.compute as pc

    def _pack_pairs(b: pa.Table) -> pa.Table:
        """Candidate rows -> (pairkey, sizes).  One int64 key per
        pair keeps the dedup-count stage fully vectorized; a generic
        multi-key ``groupby().aggregate(Count)`` here built one PYTHON
        group per unique pair (727k at sf0.1 — 76 s of remote wall time,
        the measured bottleneck of this operator)."""
        b = b.filter(pc.less(b["jaccard"], 0.0))
        ia = np.asarray(b["id_a"], dtype=np.int64)
        ib = np.asarray(b["id_b"], dtype=np.int64)
        if len(ia) and (ia.max() >= (1 << 31) or ib.max() >= (1 << 32)):
            raise ValueError(
                "pair packing needs id_a < 2^31 and id_b < 2^32; remap ids"
            )
        return pa.table(
            {
                "pairkey": pa.array((ia << np.int64(32)) | ib),
                "size_a": b["size_a"],
                "size_b": b["size_b"],
            }
        )

    def _count_filter(t: pa.Table, starts: np.ndarray) -> pd.DataFrame:
        """Per-bucket vectorized pair dedup + the PPJoin prefix count
        filter (exact): a pair with jaccard >= t has overlap
        o >= alpha = ceil(t/(1+t)*(sa+sb)) and therefore shares at least
        alpha - ceil(t*s) + 1 elements inside EACH side's prefix —
        candidates below that co-occurrence count cannot reach the
        threshold and never enter the join/verify.  (Measured at sf0.1:
        790k raw candidate slots -> exactly the 256 true pairs, zero
        recall loss by the bound.)"""
        uniq = np.asarray(t["pairkey"], np.int64)[starts]
        n = np.diff(np.append(starts, t.num_rows))
        sa = np.asarray(t["size_a"], np.float64)[starts]
        sb = np.asarray(t["size_b"], np.float64)[starts]
        alpha = np.ceil(threshold / (1.0 + threshold) * (sa + sb))
        need = np.maximum(
            1,
            np.maximum(
                alpha - np.ceil(threshold * sa) + 1,
                alpha - np.ceil(threshold * sb) + 1,
            ),
        )
        keep = n >= need
        return pd.DataFrame(
            {
                "id_a": uniq[keep] >> np.int64(32),
                "id_b": uniq[keep] & np.int64(0xFFFFFFFF),
            }
        )

    _cand_schema = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64())])
    import ray.data as rd

    # Candidate-generation gate: the prefix stream is bounded by the
    # corpus shingle volume (sets is materialized, so the sum is one
    # cheap aggregate).  Below the bound the WHOLE candgen + count-filter
    # chain — two sort shuffles whose payload is a few MB — runs once on
    # the driver with the very same kernels; above it the bucketed
    # distributed plan runs unchanged.
    cand_tbl = None
    if int(sets.sum("size") or 0) <= driver_candgen_limit:
        pparts = [
            t
            for t in prefix.iter_batches(batch_size=None, batch_format="pyarrow")
            if t.num_rows
        ]
        em = (
            apply_segments(
                pa.concat_tables(pparts), "shingle", candgen_partition,
                order=(id_col,),
            )
            if pparts
            else _CAND_EMPTY
        )
        d = em[em["jaccard"] >= 0.0]
        direct = rd.from_arrow(
            pa.table(
                {
                    "id_a": pa.array(d["id_a"].to_numpy(np.int64)),
                    "id_b": pa.array(d["id_b"].to_numpy(np.int64)),
                    "jaccard": pa.array(d["jaccard"].to_numpy(np.float64)),
                }
            )
        )
        cf = (
            apply_segments(
                _pack_pairs(pa.Table.from_pandas(em, preserve_index=False)),
                "pairkey",
                _count_filter,
            )
            if len(em)
            else pd.DataFrame(
                {"id_a": pd.Series([], dtype="int64"),
                 "id_b": pd.Series([], dtype="int64")}
            )
        )
        cand_tbl = pa.table(
            {
                "id_a": pa.array(cf["id_a"].to_numpy(np.int64)),
                "id_b": pa.array(cf["id_b"].to_numpy(np.int64)),
            }
        )
        n_cands = cand_tbl.num_rows
        cands = rd.from_arrow(cand_tbl)
    else:
        I = pa.int64()
        emitted = (
            segment_apply(
                prefix,
                "shingle",
                candgen_partition,
                pa.schema(
                    {"id_a": I, "id_b": I, "jaccard": pa.float64(),
                     "size_a": I, "size_b": I}
                ),
                order=(id_col,),
            )
            # two consumers below (direct pairs + candidate counting) —
            # without this pin, Ray re-executes the whole shingle/prefix
            # lineage once per consumer.  Pair-slot rows are tiny.
            .materialize()
        )
        direct = emitted.map_batches(
            lambda b: b.filter(pc.greater_equal(b["jaccard"], 0.0)).select(
                ["id_a", "id_b", "jaccard"]
            ),
            batch_format="pyarrow",
        )
        cands = (
            segment_apply(
                emitted.map_batches(_pack_pairs, batch_format="pyarrow"),
                "pairkey",
                _count_filter,
                _cand_schema,
            )
            # the sort-shuffle exchange emits COLUMN-LESS blocks for
            # empty partitions; the repartition merges them for the two
            # bloom-build consumers (their map UDFs skip empty blocks
            # anyway), and the verify JOIN below is guarded by
            # safe_join's compaction
            .repartition(num_partitions)
            # three consumers (two bloom builds + the verify join)
            .materialize()
        )
        n_cands = cands.count()

    def _pack_sets(b: pa.Table, prefix: str = "") -> pa.Table:
        # Acero / lookup payloads reject list<> columns -> pack each
        # sorted int64 set as a binary cell, zero-copy from the list
        # array's value buffer
        sh = b["shingles"].combine_chunks()
        vals = np.asarray(sh.flatten(), dtype=np.int64)
        offs = (np.asarray(sh.offsets, dtype=np.int64) * 8).astype(np.int32)
        packed = pa.Array.from_buffers(
            pa.binary(),
            len(sh),
            [None, pa.py_buffer(offs.tobytes()), pa.py_buffer(vals.tobytes())],
        )
        return pa.table({f"id{prefix}": b[id_col], f"sh{prefix}": packed})

    # The verify plan is SIZE-GATED on the surviving candidate count
    # (free: cands is materialized or driver-built).  Post-count-filter
    # survivors are near-linear in true pairs, so the common case is
    # tiny: the pair ids come to the driver (16 B/pair), ONE streamed
    # pass over the materialized set table picks exactly the hit sets
    # (sorted-vector membership, no bloom FPs), and both equality joins
    # become broadcast lookup_joins — zero Acero shuffles, which at this
    # scale are pure fixed overhead (~2-4 s each).  Above the bound (an
    # adversarial corpus where survivors exceed driver memory) the plan
    # falls back to bloom-prefiltered partitioned hash joins.
    if n_cands == 0:
        return direct
    if n_cands <= 500_000:
        import ray

        from .joins import lookup_join

        if cand_tbl is None:
            cand_parts = [
                t
                for t in cands.iter_batches(
                    batch_size=None, batch_format="pyarrow"
                )
                if t.num_rows and t.num_columns
            ]
            cand_tbl = pa.concat_tables(cand_parts)
        want = np.unique(
            np.concatenate(
                [
                    np.asarray(cand_tbl["id_a"], dtype=np.int64),
                    np.asarray(cand_tbl["id_b"], dtype=np.int64),
                ]
            )
        )
        want_ref = Broadcast(want)

        def pick(b: pa.Table) -> pa.Table:
            w = want_ref.get()
            ids = np.asarray(b[id_col], dtype=np.int64)
            pos = np.searchsorted(w, ids)
            pos[pos == len(w)] = 0
            hit = w[pos] == ids if len(w) else np.zeros(len(ids), bool)
            return _pack_sets(b.filter(pa.array(hit)))

        hit_parts = [
            t
            for t in sets.map_batches(
                pick, batch_format="pyarrow"
            ).iter_batches(batch_size=None, batch_format="pyarrow")
            if t.num_rows
        ]
        dim = (
            pa.concat_tables(hit_parts)
            if hit_parts
            else pa.table(
                {"id": pa.array([], pa.int64()), "sh": pa.array([], pa.binary())}
            )
        )
        joined = lookup_join(
            lookup_join(
                cands,
                dim.rename_columns(["id_a", "sh_a"]),
                on="id_a",
                value_cols=["sh_a"],
            ),
            dim.rename_columns(["id_b", "sh_b"]),
            on="id_b",
            value_cols=["sh_b"],
        )
    else:
        # shrink the corpus-scale set table to ~candidate scale BEFORE
        # the verify joins: a fixed-size bloom of the surviving candidate
        # ids keeps the Acero hash join from shuffling every doc's
        # shingle set — only bloom-hit sets (candidates + a bounded FP
        # fraction) enter it
        from .cluster import safe_join
        from .joins import bloom_build, bloom_prefilter

        bloom_a = bloom_build(cands, "id_a")
        bloom_b = bloom_build(cands, "id_b")
        sets_a = bloom_prefilter(
            sets.map_batches(
                lambda b: _pack_sets(b, "_a"), batch_format="pyarrow"
            ),
            bloom_a,
            "id_a",
        )
        sets_b = bloom_prefilter(
            sets.map_batches(
                lambda b: _pack_sets(b, "_b"), batch_format="pyarrow"
            ),
            bloom_b,
            "id_b",
        )
        _half_schema = pa.schema(
            [("id_a", pa.int64()), ("id_b", pa.int64()), ("sh_a", pa.binary())]
        )
        half = safe_join(
            cands,
            sets_a,
            "inner",
            num_partitions=num_partitions,
            on=("id_a",),
            left_schema=_cand_schema,
            right_schema=pa.schema([("id_a", pa.int64()), ("sh_a", pa.binary())]),
        )
        joined = safe_join(
            half,
            sets_b,
            "inner",
            num_partitions=num_partitions,
            on=("id_b",),
            left_schema=_half_schema,
            right_schema=pa.schema([("id_b", pa.int64()), ("sh_b", pa.binary())]),
        )

    def verify(batch: pa.Table) -> pa.Table:
        na = batch.num_rows
        out_a, out_b, out_j = [], [], []
        if na:
            ids_a = np.asarray(batch["id_a"], dtype=np.int64)
            ids_b = np.asarray(batch["id_b"], dtype=np.int64)
            sh_a = batch["sh_a"].to_pylist()
            sh_b = batch["sh_b"].to_pylist()
            for i in range(na):
                a = np.frombuffer(sh_a[i], dtype=np.int64)
                b = np.frombuffer(sh_b[i], dtype=np.int64)
                if len(a) == 0 or len(b) == 0:
                    continue
                inter = len(np.intersect1d(a, b, assume_unique=True))
                jac = inter / (len(a) + len(b) - inter)
                if jac >= threshold:
                    out_a.append(int(ids_a[i]))
                    out_b.append(int(ids_b[i]))
                    out_j.append(jac)
        return pa.table(
            {
                "id_a": pa.array(np.asarray(out_a, dtype=np.int64)),
                "id_b": pa.array(np.asarray(out_b, dtype=np.int64)),
                "jaccard": pa.array(np.asarray(out_j, dtype=np.float64)),
            }
        )

    verified = joined.map_batches(verify, batch_format="pyarrow")
    return verified.union(direct)


def sql_ngram_jaccard(
    threshold: float, n: int = 3, source: str = "documents", text: str = "text"
) -> str:
    """DuckDB twin of :func:`ngram_jaccard_pairs`: exact all-pairs Jaccard
    over DISTINCT word n-grams (m = min(n, n_tokens), like the engine's
    shingle law), which the prefix-filter pipeline reproduces exactly —
    its recall is 1 by the prefix lemma, and hash-set Jaccard equals
    string-set Jaccard absent 61-bit collisions."""
    return f"""
WITH toks AS (
  SELECT doc_id, t, LEAST({n}, len(t)) AS m
  FROM (SELECT doc_id, regexp_extract_all({text}, '\\S+') AS t FROM {source})
),
grams AS (
  SELECT doc_id,
    CASE WHEN t IS NULL OR len(t) = 0 THEN [] ELSE
      list_distinct([array_to_string(list_slice(t, p, p + m - 1), chr(31))
                     for p in generate_series(1, len(t) - m + 1)])
    END AS g
  FROM toks
)
SELECT id_a, id_b, jaccard FROM (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b,
         len(list_intersect(a.g, b.g))::DOUBLE
           / len(list_distinct(a.g || b.g)) AS jaccard
  FROM grams a JOIN grams b ON b.doc_id > a.doc_id
  WHERE len(a.g) > 0 AND len(b.g) > 0
) WHERE jaccard >= {threshold}
"""


def _empty_pairs() -> pa.Table:
    return pa.table(
        {
            "id_a": pa.array([], pa.int64()),
            "id_b": pa.array([], pa.int64()),
            "cosine": pa.array([], pa.float64()),
        }
    )


def embedding_neardup_pairs(
    ds,
    centroids: np.ndarray,
    *,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    threshold: float = 0.9,
):
    """EXACT embedding-cosine near-dup pairs without any whole-corpus
    broadcast or driver-side matrix load — the scale path.

    1. assign: each vector -> nearest centroid (small broadcast), carrying
       its own centroid cosine.
    2. bucket radii: one tiny groupby (C rows to the driver).  Bucket-pair
       (b1, b2) can host a qualifying pair only if, by the spherical
       triangle inequality, ``theta(c1, c2) <= r1 + r2 + arccos(t)``
       (r = max member angle to own centroid) — everything else is pruned.
    3. each row is replicated to its surviving bucket-pair groups; one
       groupby(group) -> in-group normalized matmul.  Cross-side pairs in
       mixed groups, upper-triangle pairs in diagonal groups, so every
       qualifying pair is emitted EXACTLY once (no global pair dedup).

    Replication factor = bucket adjacency degree: tighter clusters / more
    centroids / higher thresholds prune harder; worst case (low threshold,
    overlapping buckets) degrades to a distributed block all-pairs, still
    never a driver materialization.  Per-pair cosine is the dot of the two
    row-normalized vectors — bit-identical to the all-broadcast version,
    so the DuckDB all-pairs twin keeps matching."""
    from ray.data.aggregate import Min

    from .ann import _emb_matrix, _normalize

    cents = _normalize(np.asarray(centroids, dtype=np.float64))
    n_cent = len(cents)
    ref = Broadcast(cents)

    def assign(batch: pa.Table) -> pa.Table:
        c = ref.get()
        if batch.num_rows == 0:
            return batch.append_column(
                "bucket", pa.array([], pa.int64())
            ).append_column("cmax", pa.array([], pa.float64()))
        sims = _normalize(_emb_matrix(batch, emb_col)) @ c.T
        b = np.argmax(sims, axis=1)
        cmax = sims[np.arange(len(b)), b]
        return batch.append_column("bucket", pa.array(b.astype(np.int64))).append_column(
            "cmax", pa.array(cmax)
        )

    assigned = ds.map_batches(assign, batch_format="pyarrow")

    # tiny driver-side table: per-bucket worst (lowest) centroid cosine
    radii = (
        assigned.select_columns(["bucket", "cmax"])
        .groupby("bucket")
        .aggregate(Min("cmax", alias_name="cmin"))
        .to_pandas()
    )
    r = np.zeros(n_cent)
    present = np.zeros(n_cent, dtype=bool)
    for bb, cm in zip(radii["bucket"], radii["cmin"]):
        r[int(bb)] = float(np.arccos(np.clip(cm, -1.0, 1.0)))
        present[int(bb)] = True
    theta_c = np.arccos(np.clip(cents @ cents.T, -1.0, 1.0))
    theta_t = float(np.arccos(np.clip(threshold, -1.0, 1.0)))
    groups_of_bucket: dict[int, list[tuple[int, int]]] = {}
    for b1 in range(n_cent):
        if not present[b1]:
            continue
        for b2 in range(b1, n_cent):
            if not present[b2]:
                continue
            if theta_c[b1, b2] <= r[b1] + r[b2] + theta_t + 1e-9:
                gid = b1 * n_cent + b2
                groups_of_bucket.setdefault(b1, []).append((gid, 0))
                if b2 != b1:
                    groups_of_bucket.setdefault(b2, []).append((gid, 1))

    def explode(batch: pa.Table) -> pa.Table:
        data = batch.select([id_col, emb_col, "bucket"])
        parts = []
        buckets = np.asarray(batch["bucket"], dtype=np.int64)
        for bb in np.unique(buckets):
            rows = data.filter(pa.array(buckets == bb))
            for gid, side in groups_of_bucket.get(int(bb), []):
                parts.append(
                    rows.append_column(
                        "gid", pa.array(np.full(rows.num_rows, gid, np.int64))
                    ).append_column(
                        "side", pa.array(np.full(rows.num_rows, side, np.int64))
                    )
                )
        if not parts:
            sch = data.schema.append(pa.field("gid", pa.int64())).append(
                pa.field("side", pa.int64())
            )
            return sch.empty_table()
        return pa.concat_tables(parts)

    exploded = assigned.map_batches(explode, batch_format="pyarrow")

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        gid = int(g["gid"].iloc[0])
        diag = (gid // n_cent) == (gid % n_cent)
        emb = _normalize(np.stack([np.asarray(v, np.float64) for v in g[emb_col]]))
        ids = g[id_col].to_numpy(dtype=np.int64)
        if diag:
            sims = emb @ emb.T
            ia, ib = np.triu_indices(len(ids), k=1)
            keep = sims[ia, ib] >= threshold
            a, b, s = ids[ia[keep]], ids[ib[keep]], sims[ia[keep], ib[keep]]
        else:
            left = g["side"].to_numpy() == 0
            la, lb = ids[left], ids[~left]
            ea, eb = emb[left], emb[~left]
            if len(la) == 0 or len(lb) == 0:
                return pd.DataFrame(
                    {
                        "id_a": pd.Series([], dtype="int64"),
                        "id_b": pd.Series([], dtype="int64"),
                        "cosine": pd.Series([], dtype="float64"),
                    }
                )
            sims = ea @ eb.T
            ia, ib = np.nonzero(sims >= threshold)
            a, b, s = la[ia], lb[ib], sims[ia, ib]
        swap = a > b
        a2 = np.where(swap, b, a)
        b2 = np.where(swap, a, b)
        return pd.DataFrame({"id_a": a2, "id_b": b2, "cosine": s})

    return exploded.groupby("gid").map_groups(verify, batch_format="pandas")


def sql_embedding_neardup(threshold: float = 0.9) -> str:
    return f"""
SELECT a.vec_id AS id_a, b.vec_id AS id_b,
       ROUND(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]) * 1e6) / 1e6 AS cosine
FROM embeddings a JOIN embeddings b ON b.vec_id > a.vec_id
WHERE list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]) >= {threshold}
"""


#: SemDeDup regime (Abbas et al. 2023 §3): clusters of ~10^4 vectors keep
#: the per-cluster scan a worker-sized task regardless of corpus size
_SEMDEDUP_CLUSTER_TARGET = 10_000
#: gram-slab fence: rows per block sized so block x cluster float64 slab
#: stays under this many bytes (the tfidf_pairs `_dense_pairs` budget)
_SEMDEDUP_SLAB_BYTES = 64 << 20


def semdedup(
    ds,
    *,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    k: int | None = None,
    iters: int = 2,
    tau: float = 0.3,
    slab_bytes: int = _SEMDEDUP_SLAB_BYTES,
    argmin_slab_bytes: int | None = None,
):
    """SemDeDup semantic deduplication (Abbas et al. 2023,
    arXiv:2303.09540): k-means-cluster the embedding space, then mark a
    vector REMOVED when its cluster holds a lower-id vector with cosine
    similarity >= ``tau`` — duplicates are only ever sought inside a
    cluster, which is the paper's point: the k-means pass bounds the
    candidate set so no cross-cluster pair is ever scored.

    Scale plan: :func:`pygridmap_ray.ann.kmeans_fit` centroids broadcast
    once (combiner-partial sweeps, never an assignment shuffle); the
    assignment map keeps the vector column so ONE k-way groupby
    co-locates each cluster.  ``k`` defaults to the paper's regime —
    one cluster per ~10^4 vectors (floor 8), so a cluster is a
    worker-sized task at any corpus size, and k stays far below the
    fine-groupby cliff (k = n / 10^4 clusters of ~10^4 rows each).
    Per cluster the keep/remove scan never builds the full gram: row
    blocks of the (sorted-by-id) matrix multiply against the id-suffix
    only, each slab bounded by ``slab_bytes`` — the same dense-regime
    fence as ``tfidf._dense_pairs`` — so per-task transient memory is
    O(block x cluster), not O(cluster^2).

    Returns (id_col, cluster, removed) for every input vector."""
    from .ann import _argmin_sq_dist, _emb_matrix, _normalize, kmeans_fit

    if k is None:
        # paper regime: ~10^4 vectors per cluster; floor keeps tiny
        # corpora meaningful, cap bounds the broadcast centroid matrix
        n_vec = ds.count()
        k = int(max(8, min(65_536, -(-n_vec // _SEMDEDUP_CLUSTER_TARGET))))
    cents = kmeans_fit(
        ds, id_col=id_col, emb_col=emb_col, k=k, iters=iters,
        argmin_slab_bytes=argmin_slab_bytes,
    )
    ref = Broadcast(cents)

    def assign(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "cluster": pa.array([], pa.int64()),
                    emb_col: pa.array([], b.schema.field(emb_col).type),
                }
            )
        C = ref.get()
        X = _emb_matrix(b, emb_col)
        # centroid-chunked running argmin (ann._argmin_sq_dist): same
        # bits as the full batch x k x d tensor without its corpus-
        # scaled-k memory cliff (round-4 verdict finding #1)
        a, _ = _argmin_sq_dist(X, C, slab_bytes=argmin_slab_bytes)
        return pa.table(
            {
                id_col: pc.cast(b[id_col], pa.int64()),
                "cluster": pa.array(a),
                emb_col: b[emb_col],
            }
        )

    def cluster_scan(g: pd.DataFrame) -> pd.DataFrame:
        ids = g[id_col].to_numpy(np.int64)
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        emb = _normalize(
            np.stack([np.asarray(v, np.float64) for v in g[emb_col]])
        )[order]
        m = len(ids)
        removed = np.zeros(m, dtype=bool)
        # row-block the gram against the id-SUFFIX: rows i in [lo, hi)
        # score only columns j in [lo, m) and keep j > i survivors, so
        # every (i < j) pair is scored exactly once and the slab is
        # block x (m - lo) floats, never m x m
        block = max(1, slab_bytes // max(1, m * 8))
        for lo in range(0, m, block):
            hi = min(lo + block, m)
            sims = emb[lo:hi] @ emb[lo:].T
            mask = sims >= tau
            mask &= (
                np.arange(lo, hi)[:, None] < np.arange(lo, m)[None, :]
            )
            removed[lo:] |= mask.any(axis=0)
        return pd.DataFrame(
            {
                id_col: ids,
                "cluster": g["cluster"].to_numpy(np.int64)[order],
                "removed": removed,
            }
        )

    return (
        ds.map_batches(assign, batch_format="pyarrow")
        .groupby("cluster")
        .map_groups(cluster_scan, batch_format="pandas")
        .sort(id_col)
    )


def sql_semdedup(k: int = 8, iters: int = 2, tau: float = 0.3) -> str:
    """DuckDB twin of :func:`semdedup`: the :func:`~pygridmap_ray.ann.sql_kmeans`
    assignment CTE + an EXISTS(lower id, same cluster, cosine >= tau)."""
    from .ann import sql_kmeans

    return f"""
WITH assign AS ({sql_kmeans(k=k, iters=iters, dim=64)})
SELECT v.vec_id, v.cluster,
       EXISTS (
           SELECT 1 FROM assign u, embeddings ea, embeddings eb
           WHERE u.cluster = v.cluster AND u.vec_id < v.vec_id
             AND ea.vec_id = u.vec_id AND eb.vec_id = v.vec_id
             AND list_cosine_similarity(
                     ea.embedding::DOUBLE[], eb.embedding::DOUBLE[]) >= {tau}
       ) AS removed
FROM assign v
ORDER BY v.vec_id
"""


# ---------------------------------------------------------------------------
# near-dup clustering: pairs -> components -> canonical keep-one
# ---------------------------------------------------------------------------


def connected_components(pairs, *, src: str = "id_a", dst: str = "id_b",
                         max_iter: int = 25,
                         num_partitions: int | None = None,
                         local_max_edges: int = 1 << 20):
    """(node, component) for every endpoint of ``pairs`` — component is
    the MIN node id reachable through the pair graph.

    Distributed min-label propagation with pointer jumping: labels live
    in a node-scale Dataset; each sweep (a) hash-joins current labels
    onto the symmetrized edges (``Dataset.join``) to push labels to
    neighbors, (b) joins labels onto themselves (label-of-my-label —
    pointer jumping, the classic shortcut step) and (c) folds everything
    with one ``groupby(node).min`` — shuffles of edge/node-scale data,
    nothing ever materializes on the driver.  Labels only decrease, so
    ``sum(label)`` is strictly monotone and "sum unchanged" IS the exact
    fixpoint test (cheap single-pass aggregate per sweep).  Caveat at
    extreme scale: the int64 sum can wrap, and a false stop would need
    the sweep's total label decrease to be an exact multiple of 2^64 —
    if ids approach 2^63, renumber them densely first.

    Pointer jumping makes convergence O(log diameter) sweeps, so even
    adversarial long-chain graphs finish in a handful of rounds (dedup
    graphs are star/clique-shaped and converge in 2-3).  Scale note:
    ``num_partitions`` is the join/shuffle width — size it to edge
    volume; a pathological mega-component costs its edges' shuffle
    volume, never a driver materialization.

    Edge lists at or below ``local_max_edges`` (default 2^20 ≈ 16 MB)
    solve on the driver instead — vectorized numpy pointer-jumping over
    the already-reduced pair graph, identical output law.  This is the
    standard hybrid (GraphX/GraphFrames end the same way): near-dup
    pair graphs are tiny relative to the corpus, and the distributed
    loop's 4 shuffles per sweep are pure overhead below the cap.
    """
    from .cluster import default_num_partitions

    if num_partitions is None:
        num_partitions = default_num_partitions()

    def _sym(b: pa.Table) -> pa.Table:
        u = pa.concat_arrays(
            [b[src].combine_chunks().cast(pa.int64()),
             b[dst].combine_chunks().cast(pa.int64())]
        )
        v = pa.concat_arrays(
            [b[dst].combine_chunks().cast(pa.int64()),
             b[src].combine_chunks().cast(pa.int64())]
        )
        return pa.table({"node": u, "nbr": v})

    from ray.data.aggregate import Min, Sum

    edges = pairs.select_columns([src, dst]).map_batches(
        _sym, batch_format="pyarrow"
    )
    edges = edges.materialize()

    # Hybrid fast path (the GraphX/GraphFrames pattern): the near-dup pair
    # graph is a minuscule fraction of the corpus — after the bucketed pair
    # generation has already reduced the data, a 4-shuffle-per-round
    # distributed loop on a driver-sized edge list is pure overhead.  The
    # count is free (edges is materialized); below the cap we solve with
    # numpy pointer-jumping on the driver, above it the distributed loop
    # runs.  Semantics are identical: component = min reachable node id.
    # (The distributed path repartitions below — the local gather filters
    # degenerate empty blocks itself, so it never pays that all-to-all.)
    if edges.count() <= local_max_edges:
        import ray
        import ray.data

        # to_arrow_refs passes pandas blocks (from upstream
        # batch_format="pandas" map_groups stages) through as-is —
        # normalize each block to Arrow before concatenating
        tabs = [
            t if isinstance(t, pa.Table)
            else pa.Table.from_pandas(t, preserve_index=False)
            for t in ray.get(edges.to_arrow_refs())
        ]
        tabs = [t for t in tabs if t.num_rows]
        tab = (pa.concat_tables(tabs, promote_options="default")
               if tabs else None)
        if tab is None:
            return ray.data.from_arrow(
                pa.table({"node": pa.array([], pa.int64()),
                          "label": pa.array([], pa.int64())})
            )
        u = np.asarray(tab["node"], dtype=np.int64)
        v = np.asarray(tab["nbr"], dtype=np.int64)
        nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
        ui, vi = inv[: len(u)], inv[len(u):]
        lab = np.arange(len(nodes), dtype=np.int64)
        for _ in range(64):  # O(log n) with pointer jumping
            old = lab.copy()
            np.minimum.at(lab, ui, lab[vi])  # push neighbor labels
            lab = np.minimum(lab, lab[lab])  # pointer jump
            if np.array_equal(lab, old):
                break
        # resolve to roots: labels are indices into the SORTED unique node
        # array, so the min index is the min node id
        while True:
            nxt = lab[lab]
            if np.array_equal(nxt, lab):
                break
            lab = nxt
        return ray.data.from_arrow(
            pa.table({"node": pa.array(nodes), "label": pa.array(nodes[lab])})
        )

    # Distributed path: repartition before joining — upstream map_groups
    # stages can leave empty blocks with degenerate (column-less)
    # schemas, which Dataset.join's per-partition pyarrow join rejects;
    # the merge re-schemas every block uniformly.  num_partitions scales
    # with edge volume (it is also the join/shuffle width).
    edges = edges.repartition(num_partitions).materialize()
    nparts = num_partitions

    def _node_min(b: pa.Table) -> pa.Table:
        return b.set_column(
            b.schema.get_field_index("label"),
            "label",
            pc.min_element_wise(b["label"], b["node"]),
        )

    def _norm(ds):
        # hash aggregates emit empty partitions with column-less schemas;
        # normalize (merge) blocks before they reach a join/union.  A
        # balanced repartition suffices here (no safe_join guard): the
        # distributed loop only runs above local_max_edges, so labels /
        # edges rows >> nparts and no block is empty.
        return ds.repartition(nparts).materialize()

    # label0(node) = min(node, min neighbor)
    labels = _norm(
        edges.groupby("node")
        .aggregate(Min("nbr", alias_name="label"))
        .map_batches(_node_min, batch_format="pyarrow")
    )
    prev_sum = None
    for _ in range(max_iter):
        cur = labels.aggregate(Sum("label", alias_name="s"))["s"]
        if prev_sum is not None and cur == prev_sum:
            break
        prev_sum = cur
        msgs = edges.join(
            labels, "inner", num_partitions=nparts, on=("node",)
        ).select_columns(["nbr", "label"]).rename_columns(["node", "label"])
        # pointer jumping: node -> label(label(node)) (left join keeps
        # nodes whose label is already a root, i.e. not itself a node key
        # with a smaller label)
        jumped = (
            labels.rename_columns(["node", "mid"])
            .join(
                labels.rename_columns(["mid", "label"]),
                "inner",
                num_partitions=nparts,
                on=("mid",),
            )
            .select_columns(["node", "label"])
        )
        labels = _norm(
            labels.union(msgs)
            .union(jumped)
            .groupby("node")
            .aggregate(Min("label", alias_name="label"))
        )
    return labels


def neardup_components(docs, pairs, *, id_col: str = "doc_id",
                       max_iter: int = 25,
                       num_partitions: int | None = None):
    """Every doc with its near-dup component id (singletons map to
    themselves): corpus LEFT-joins the clustered labels, null -> self."""
    from .cluster import default_num_partitions

    if num_partitions is None:
        num_partitions = default_num_partitions()
    comp = connected_components(
        pairs, max_iter=max_iter, num_partitions=num_partitions
    ).materialize()

    nparts = num_partitions
    # the labeled-node side is near-dup-graph scale (a tiny fraction of
    # the corpus) — broadcast it while it fits so the corpus-scale doc
    # stream never enters a shuffle; partitioned join above the bound
    if comp.count() <= 2_000_000:
        from .joins import lookup_join

        parts = [
            t
            for t in comp.iter_batches(batch_size=None, batch_format="pyarrow")
            if t.num_rows and t.num_columns
        ]
        dim = (
            pa.concat_tables(parts)
            if parts
            else pa.table(
                {"node": pa.array([], pa.int64()),
                 "label": pa.array([], pa.int64())}
            )
        )
        out = lookup_join(
            docs.select_columns([id_col]), dim,
            on=id_col, key="node", value_cols=["label"], how="left",
        )
    else:
        from .cluster import safe_join

        out = safe_join(
            docs.select_columns([id_col]).repartition(nparts),
            comp,
            "left_outer",
            num_partitions=nparts,
            on=(id_col,),
            right_on=("node",),
            # comp can be a single EMPTY block (no pairs) — the explicit
            # schema lets the guard emit its never-matching sentinel row
            right_schema=pa.schema(
                [("node", pa.int64()), ("label", pa.int64())]
            ),
        )

    def finish(b: pa.Table) -> pa.Table:
        lab = pc.coalesce(
            pc.cast(b["label"], pa.int64()), pc.cast(b[id_col], pa.int64())
        )
        return pa.table({id_col: b[id_col], "component": lab})

    return out.map_batches(finish, batch_format="pyarrow")


def neardup_dedup(docs, pairs, *, id_col: str = "doc_id", max_iter: int = 25,
                  num_partitions: int | None = None):
    """Canonical keep-one-per-component: the survivor is the component's
    min id (which IS the converged label), so keep iff id == component —
    no second shuffle after :func:`neardup_components`."""
    comp = neardup_components(
        docs, pairs, id_col=id_col, max_iter=max_iter,
        num_partitions=num_partitions,
    )
    return comp.map_batches(
        lambda b: b.filter(pc.equal(b[id_col], b["component"])),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# embedding near-dup, random-hyperplane LSH path
# ---------------------------------------------------------------------------

_RH_PLANES = 32
_RH_BAND_BITS = 4  # 8 bands x 4 bits: usable recall down to cosine ~0.35
_RH_BANDS = _RH_PLANES // _RH_BAND_BITS


def _rh_hyperplanes(dim: int) -> np.ndarray:
    """Deterministic pseudo-random hyperplanes, closed-form in (j, d) so
    the DuckDB twin regenerates the identical float64 matrix."""
    j = np.arange(_RH_PLANES, dtype=np.int64)[:, None]
    d = np.arange(dim, dtype=np.int64)[None, :]
    return ((j * KNUTH_MULT + d * 40503) % 1000003) / 1000003.0 - 0.5


def _emb_matrix(col, n: int) -> np.ndarray:
    """(n, dim) float64 from a list<float> column without per-row Python."""
    col = col.combine_chunks()
    vals = np.asarray(col.flatten(), dtype=np.float64)
    return vals.reshape(n, vals.size // n) if n else vals.reshape(0, 0)


def embedding_lsh_pairs(
    ds,
    *,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    threshold: float = 0.9,
):
    """Embedding near-dup pairs via random-hyperplane LSH (the
    sign-banding alternative to the IVF-bucketed path in
    :func:`embedding_neardup_pairs`): sign(emb @ H) -> 4 bands of 8 bits
    -> groupby (band, code) -> in-bucket vectorized cosine verify with
    CANONICAL emission (each pair from its FIRST agreeing band, so no
    global pair-dedup shuffle follows).

    Scale shape: the shuffle carries (band, code, codes, embedding) rows
    — 4x the embedding bytes, never an all-pairs broadcast; verify is a
    blockless normalized matmul per bucket.  Recall is probabilistic in
    general (as for any RH-LSH); candidates are exact-cosine verified,
    so precision is exact and the oracle checks the full deterministic
    output given the fixed hyperplanes.
    """

    def explode(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        empty = pa.table(
            {
                "band": pa.array([], pa.int32()),
                "code": pa.array([], pa.int64()),
                id_col: pa.array([], pa.int64()),
                "codes": pa.array([], pa.list_(pa.int64())),
                emb_col: pa.array([], pa.list_(pa.float64())),
            }
        )
        if n == 0:
            return empty
        mat = _emb_matrix(batch[emb_col], n)
        ids = np.asarray(batch[id_col], dtype=np.int64)
        bits = (mat @ _rh_hyperplanes(mat.shape[1]).T >= 0.0).astype(np.int64)
        weights = 1 << np.arange(_RH_BAND_BITS, dtype=np.int64)
        codes = bits.reshape(n, _RH_BANDS, _RH_BAND_BITS) @ weights  # (n, B)
        bands = np.repeat(np.arange(_RH_BANDS, dtype=np.int32), n)
        codes_t = np.tile(codes, (_RH_BANDS, 1))  # band-major, matches bands
        emb_t = np.tile(mat, (_RH_BANDS, 1))

        def _list(arr2d, typ):
            fsl = pa.FixedSizeListArray.from_arrays(
                pa.array(arr2d.reshape(-1), typ), arr2d.shape[1]
            )
            return fsl.cast(pa.list_(typ))  # uniform schema with empty blocks

        return pa.table(
            {
                "band": pa.array(bands),
                "code": pa.array(codes.T.reshape(-1)),
                id_col: pa.array(np.tile(ids, _RH_BANDS)),
                "codes": _list(codes_t, pa.int64()),
                emb_col: _list(emb_t, pa.float64()),
            }
        )

    exploded = ds.select_columns([id_col, emb_col]).map_batches(
        explode, batch_format="pyarrow"
    )

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "id_a": pd.Series([], dtype="int64"),
                "id_b": pd.Series([], dtype="int64"),
                "cosine": pd.Series([], dtype="float64"),
            }
        )
        if len(g) < 2:
            return empty
        band = int(g["band"].iloc[0])
        ids = g[id_col].to_numpy(dtype=np.int64)
        order = np.argsort(ids)
        ids = ids[order]
        codes = np.stack(g["codes"].to_numpy())[order]
        emb = np.stack(g[emb_col].to_numpy())[order]
        norms = np.linalg.norm(emb, axis=1)
        norms[norms == 0] = 1.0
        emb = emb / norms[:, None]
        sims = emb @ emb.T
        # canonical emission: the pair belongs to its FIRST agreeing band
        first = np.argmax(
            codes[:, None, :] == codes[None, :, :], axis=2
        )
        ia, ib = np.nonzero(
            np.triu(sims >= threshold, k=1) & (first == band)
        )
        if len(ia) == 0:
            return empty
        return pd.DataFrame(
            {"id_a": ids[ia], "id_b": ids[ib], "cosine": sims[ia, ib]}
        )

    return segment_apply(
        exploded, ["band", "code"], _pair_groups(verify),
        _pair_schema("cosine", pa.float64()),
    )


def sql_embedding_lsh(threshold: float = 0.9, dim: int = 64) -> str:
    """DuckDB twin: identical hyperplane law, band packing, candidate
    bucketing and cosine threshold (candidates deduped by DISTINCT where
    the engine uses canonical first-band emission)."""
    return f"""
WITH sd AS (
  SELECT e.vec_id, j.j AS j,
         SUM((e.embedding::DOUBLE[])[d.d + 1]
             * (((j.j * {KNUTH_MULT} + d.d * 40503) % 1000003) / 1000003.0 - 0.5)) AS dot
  FROM embeddings e,
       (SELECT UNNEST(generate_series(0, {_RH_PLANES - 1})) AS j) j,
       (SELECT UNNEST(generate_series(0, {dim - 1})) AS d) d
  GROUP BY e.vec_id, j.j
),
codes AS (
  SELECT vec_id, (j // {_RH_BAND_BITS})::INT AS band,
         SUM((CASE WHEN dot >= 0 THEN 1 ELSE 0 END) * (1 << (j % {_RH_BAND_BITS})))::BIGINT AS code
  FROM sd GROUP BY vec_id, band
),
cand AS (
  SELECT DISTINCT a.vec_id AS id_a, b.vec_id AS id_b
  FROM codes a JOIN codes b ON a.band = b.band AND a.code = b.code
                           AND b.vec_id > a.vec_id
)
SELECT id_a, id_b, ROUND(cos * 1e6) / 1e6 AS cosine FROM (
  SELECT c.id_a, c.id_b,
         list_cosine_similarity(ea.embedding::DOUBLE[], eb.embedding::DOUBLE[]) AS cos
  FROM cand c
  JOIN embeddings ea ON ea.vec_id = c.id_a
  JOIN embeddings eb ON eb.vec_id = c.id_b
) WHERE cos >= {threshold}
"""


# ---------------------------------------------------------------------------
# SimHash hamming-distance pairs (pigeonhole-exact banding)
# ---------------------------------------------------------------------------

_SH_BANDS = 4
_SH_BAND_BITS = 64 // _SH_BANDS


def simhash_pairs(
    ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_hamming: int = 3,
):
    """Near-dup pairs by SimHash hamming distance <= ``max_hamming``.

    Pigeonhole-EXACT banding: a 64-bit signature split into 4 x 16-bit
    bands — any pair within hamming 3 differs in at most 3 bands, so at
    least one band matches exactly and the pair lands in a candidate
    bucket with probability 1.  Full recall means the output equals the
    all-pairs answer, making the DuckDB twin an exact oracle (the same
    guarantee breaks for ``max_hamming >= _SH_BANDS``, which raises).

    Shuffle carries (band, band-key, id, simhash) rows; verify is a
    vectorized in-bucket XOR popcount with canonical first-matching-band
    emission (no global pair dedup).
    """
    if max_hamming >= _SH_BANDS:
        raise ValueError(
            f"max_hamming must be < {_SH_BANDS} for the pigeonhole recall "
            "guarantee; raise _SH_BANDS for looser thresholds"
        )
    sigged = ds.select_columns([id_col, text_col]).map_batches(
        simhash64, batch_format="pyarrow", fn_kwargs={"text_col": text_col}
    )

    def explode(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return pa.table(
                {
                    "band": pa.array([], pa.int32()),
                    "code": pa.array([], pa.int64()),
                    id_col: pa.array([], pa.int64()),
                    "simhash": pa.array([], pa.int64()),
                }
            )
        sig = np.asarray(batch["simhash"], dtype=np.int64).astype(np.uint64)
        ids = np.asarray(batch[id_col], dtype=np.int64)
        mask = np.uint64((1 << _SH_BAND_BITS) - 1)
        codes = [
            ((sig >> np.uint64(b * _SH_BAND_BITS)) & mask).astype(np.int64)
            for b in range(_SH_BANDS)
        ]
        return pa.table(
            {
                "band": pa.array(
                    np.repeat(np.arange(_SH_BANDS, dtype=np.int32), n)
                ),
                "code": pa.array(np.concatenate(codes)),
                id_col: pa.array(np.tile(ids, _SH_BANDS)),
                "simhash": pa.array(np.tile(sig.astype(np.int64), _SH_BANDS)),
            }
        )

    exploded = sigged.map_batches(explode, batch_format="pyarrow")

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "id_a": pd.Series([], dtype="int64"),
                "id_b": pd.Series([], dtype="int64"),
                "hamming": pd.Series([], dtype="int64"),
            }
        )
        if len(g) < 2:
            return empty
        band = int(g["band"].iloc[0])
        ids = g[id_col].to_numpy(dtype=np.int64)
        order = np.argsort(ids)
        ids = ids[order]
        sig = g["simhash"].to_numpy(dtype=np.int64)[order].astype(np.uint64)
        x = sig[:, None] ^ sig[None, :]
        ham = np.zeros_like(x, dtype=np.int64)
        for b in range(8):  # byte-wise popcount via unpackbits-free table
            ham += _POPCNT[(x >> np.uint64(8 * b)) & np.uint64(0xFF)]
        # canonical emission: first band where the two band-codes agree
        mask = np.uint64((1 << _SH_BAND_BITS) - 1)
        agree = np.stack(
            [
                ((x >> np.uint64(b * _SH_BAND_BITS)) & mask) == 0
                for b in range(_SH_BANDS)
            ],
            axis=2,
        )
        first = np.argmax(agree, axis=2)
        ia, ib = np.nonzero(
            np.triu(ham <= max_hamming, k=1) & (first == band) & agree.any(axis=2)
        )
        if len(ia) == 0:
            return empty
        return pd.DataFrame(
            {"id_a": ids[ia], "id_b": ids[ib], "hamming": ham[ia, ib]}
        )

    return segment_apply(
        exploded, ["band", "code"], _pair_groups(verify),
        _pair_schema("hamming", pa.int64()),
    )


_POPCNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def sql_simhash_pairs(max_hamming: int = 3, source: str = "documents") -> str:
    """Exact all-pairs twin (valid because banding recall is 1 by the
    pigeonhole argument): hamming = bit_count(xor) over the same
    sql_simhash signatures."""
    return f"""
WITH sh AS ({sql_simhash(source)})
SELECT a.doc_id AS id_a, b.doc_id AS id_b,
       bit_count(xor(a.simhash, b.simhash))::BIGINT AS hamming
FROM sh a JOIN sh b ON b.doc_id > a.doc_id
WHERE bit_count(xor(a.simhash, b.simhash)) <= {max_hamming}
"""


# ---------------------------------------------------------------------------
# benchmark decontamination
# ---------------------------------------------------------------------------


def decontaminate(
    train,
    eval_ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    n: int = 3,
):
    """Benchmark decontamination: flag every training doc that shares at
    least one word ``n``-gram with the eval corpus (the Brown/GPT-3-style
    13-gram overlap rule, with ``n`` configurable).

    Scale shape: eval corpora are BENCHMARK-scale (thousands of docs,
    millions of distinct grams), so their distinct gram-hash set
    broadcasts — built once with per-batch ``np.unique`` combiners, put
    in the object store once (``ray.put``), cached per worker process.
    The corpus-scale training side streams through one vectorized
    ``map_batches``: hash all grams of a batch, one sorted ``np.isin``
    probe, a segmented-any per doc.  No shuffle of the training corpus at
    all.  For a pathologically large eval side, front this with
    :func:`pygridmap_ray.joins.bloom_prefilter` on the gram table
    instead of the exact broadcast.

    Gram identity is the 61-bit rolling-polynomial hash family of
    :func:`ngram_jaccard_pairs` (same ``m = min(n, n_tokens)`` law);
    equal gram strings collide iff the polynomial collides — the same
    accepted ~2^-61 risk documented there."""
    def ev_partial(b: pa.Table) -> pa.Table:
        t = _shingle_sets(b, id_col, text_col, n)
        sh = t["shingles"].combine_chunks()
        flat = np.unique(np.asarray(sh.flatten(), dtype=np.int64))
        return pa.table({"gram": pa.array(flat)})

    ev_rows = (
        eval_ds.select_columns([id_col, text_col])
        .map_batches(ev_partial, batch_format="pyarrow")
        .to_pandas()
    )
    ev_sorted = (
        np.unique(ev_rows["gram"].to_numpy(dtype=np.int64))
        if "gram" in ev_rows.columns and len(ev_rows)
        else np.empty(0, dtype=np.int64)
    )
    ref = Broadcast(ev_sorted)

    def flag(b: pa.Table) -> pa.Table:
        ev = ref.get()
        t = _shingle_sets(b, id_col, text_col, n)
        sh = t["shingles"].combine_chunks()
        flat = np.asarray(sh.flatten(), dtype=np.int64)
        offs = np.asarray(sh.offsets, dtype=np.int64)
        hit = np.isin(flat, ev).astype(np.int64)
        cs = np.concatenate([[0], np.cumsum(hit)])
        cnt = cs[offs[1:]] - cs[offs[:-1]]
        # input columns pass through so the flag composes into chains
        return b.append_column("contaminated", pa.array(cnt > 0))

    return train.map_batches(flag, batch_format="pyarrow")


def contamination_overlap(
    train,
    eval_ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    n: int = 3,
    round_to: int = 6,
):
    """Per-doc contamination FRACTION — :func:`decontaminate`'s graded
    sibling: the share of a training doc's DISTINCT word n-grams that
    appear anywhere in the eval corpus (the curriculum-filter score a
    graded threshold policy needs, vs the binary 13-gram flag).

    Same scale shape as decontaminate: eval gram-hash set broadcast
    once, the training corpus streams through ONE vectorized
    map_batches (sorted isin probe + segmented counts) — no corpus
    shuffle.  Emits (id_col, n_grams, n_hit, overlap_frac), frac
    rounded half-away at ``round_to`` dp, NULL for gram-less docs."""
    def ev_partial(b: pa.Table) -> pa.Table:
        t = _shingle_sets(b, id_col, text_col, n)
        sh = t["shingles"].combine_chunks()
        flat = np.unique(np.asarray(sh.flatten(), dtype=np.int64))
        return pa.table({"gram": pa.array(flat)})

    ev_rows = (
        eval_ds.select_columns([id_col, text_col])
        .map_batches(ev_partial, batch_format="pyarrow")
        .to_pandas()
    )
    ev_sorted = (
        np.unique(ev_rows["gram"].to_numpy(dtype=np.int64))
        if "gram" in ev_rows.columns and len(ev_rows)
        else np.empty(0, dtype=np.int64)
    )
    ref = Broadcast(ev_sorted)
    tol = 10.0 ** round_to

    def score(b: pa.Table) -> pa.Table:
        ev = ref.get()
        t = _shingle_sets(b, id_col, text_col, n)
        sh = t["shingles"].combine_chunks()
        flat = np.asarray(sh.flatten(), dtype=np.int64)
        offs = np.asarray(sh.offsets, dtype=np.int64)
        hit = np.isin(flat, ev).astype(np.int64)
        cs = np.concatenate([[0], np.cumsum(hit)])
        nh = cs[offs[1:]] - cs[offs[:-1]]
        ng = (offs[1:] - offs[:-1]).astype(np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.floor(nh / ng * tol + 0.5) / tol  # frac >= 0
        ok = ng > 0
        return pa.table(
            {
                id_col: pc.cast(b[id_col], pa.int64()),
                "n_grams": pa.array(ng),
                "n_hit": pa.array(nh),
                "overlap_frac": pa.array(
                    np.where(ok, frac, 0.0), pa.float64(), mask=~ok
                ),
            }
        )

    return train.map_batches(score, batch_format="pyarrow")


def sql_contamination_overlap(
    *,
    n: int = 3,
    eval_pred: str = "doc_id % 13 = 5",
    source: str = "documents",
    text: str = "text",
) -> str:
    """DuckDB twin of :func:`contamination_overlap` over string grams
    (equal iff the engine's polynomial hashes are, absent 2^-61
    collisions) — shared distinct-gram law via :func:`sql_grams_cte`."""
    return f"""
WITH {sql_grams_cte(n, source, text)},
ev AS (SELECT DISTINCT unnest(g) AS gram FROM grams WHERE {eval_pred}),
tr AS (SELECT doc_id, g FROM grams WHERE NOT ({eval_pred})),
tg AS (SELECT doc_id, unnest(g) AS gram FROM tr),
hits AS (
  SELECT tg.doc_id, COUNT(*)::BIGINT AS n_hit
  FROM tg JOIN ev USING (gram) GROUP BY tg.doc_id
),
sz AS (SELECT doc_id, len(g)::BIGINT AS n_grams FROM tr)
SELECT s.doc_id, s.n_grams, COALESCE(h.n_hit, 0)::BIGINT AS n_hit,
  CASE WHEN s.n_grams > 0
    THEN ROUND(COALESCE(h.n_hit, 0) * 1.0 / s.n_grams * 1e6) / 1e6
    ELSE NULL END AS overlap_frac
FROM sz s LEFT JOIN hits h USING (doc_id)
"""


def neardup_decontaminate(
    train,
    eval_ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    threshold: float = 0.5,
    n: int = 3,
):
    """FUZZY decontamination (the Llama-style near-dup rule): flag every
    training doc whose distinct-n-gram Jaccard vs ANY eval doc reaches
    ``threshold`` — :func:`decontaminate`'s exact-overlap flag misses
    lightly edited eval copies; this catches them with FULL recall by
    running the exact PPJoin pair scan (:func:`ngram_jaccard_pairs`,
    prefix-filter candidates, no LSH probability) over the union of the
    two sides in disjoint id spaces.

    Scale shape: the union streams through the same
    shingle-hash-only shuffle as ngram_jaccard_pairs (text never
    shuffles); eval ids shift by max(train id) + 1 (one cheap Max
    aggregate); the surviving CROSS pairs are candidate-scale and
    broadcast back over the training stream for the flag — no corpus
    gather.  Emits (id_col, fuzzy_contaminated) for every train doc
    with at least one gram (the pair law ignores gram-less docs,
    mirroring the twin's len(g) > 0 guard)."""
    from ray.data.aggregate import Max

    mx = train.aggregate(Max(id_col, alias_name="m"))["m"]
    off = int(mx) + 1 if mx is not None else 0

    def shift(b: pa.Table) -> pa.Table:
        ids = np.asarray(b[id_col], np.int64) + off
        return pa.table({id_col: pa.array(ids), text_col: b[text_col]})

    u = train.select_columns([id_col, text_col]).union(
        eval_ds.select_columns([id_col, text_col]).map_batches(
            shift, batch_format="pyarrow"
        )
    )
    pairs = ngram_jaccard_pairs(
        u, id_col=id_col, text_col=text_col, threshold=threshold, n=n
    ).to_pandas()
    a = pairs["id_a"].to_numpy(np.int64)
    b_ = pairs["id_b"].to_numpy(np.int64)
    cross = (a < off) != (b_ < off)
    bad = np.unique(np.where(a[cross] < off, a[cross], b_[cross]))
    ref = Broadcast(bad)

    def flag(b: pa.Table) -> pa.Table:
        bd = ref.get()
        # len(g) > 0 <=> at least one token (m = min(n, n_tokens) law)
        ntok = np.asarray(
            pc.count_substring_regex(
                pc.fill_null(pc.cast(b[text_col], pa.string()), ""),
                r"\S+",
            ),
            np.int64,
        )
        ids = np.asarray(b[id_col], np.int64)[ntok > 0]
        return pa.table(
            {
                id_col: pa.array(ids),
                "fuzzy_contaminated": pa.array(np.isin(ids, bd)),
            }
        )

    return train.map_batches(flag, batch_format="pyarrow")


def sql_neardup_decontaminate(
    *,
    threshold: float = 0.5,
    n: int = 3,
    eval_pred: str = "doc_id % 13 = 5",
    source: str = "documents",
    text: str = "text",
) -> str:
    """DuckDB twin of :func:`neardup_decontaminate` — the exact Jaccard
    law of :func:`sql_ngram_jaccard` joined across the two slices."""
    return f"""
WITH {sql_grams_cte(n, source, text)},
tr AS (SELECT doc_id, g FROM grams WHERE NOT ({eval_pred})
       AND len(g) > 0),
ev AS (SELECT doc_id, g FROM grams WHERE {eval_pred} AND len(g) > 0),
hits AS (
  SELECT DISTINCT t.doc_id
  FROM tr t JOIN ev e
    ON len(list_intersect(t.g, e.g))::DOUBLE
       / len(list_distinct(t.g || e.g)) >= {threshold}
)
SELECT t.doc_id,
       (t.doc_id IN (SELECT doc_id FROM hits)) AS fuzzy_contaminated
FROM tr t
"""


def sql_grams_cte(n: int, source: str = "documents",
                  text: str = "text") -> str:
    """``toks``/``grams`` CTE fragment (distinct word n-gram strings per
    doc, ``m = min(n, n_tokens)`` law) shared by every gram-law twin."""
    return f"""toks AS (
  SELECT doc_id, t, LEAST({n}, len(t)) AS m
  FROM (SELECT doc_id, regexp_extract_all({text}, '\\S+') AS t FROM {source})
),
grams AS (
  SELECT doc_id,
    CASE WHEN t IS NULL OR len(t) = 0 THEN [] ELSE
      list_distinct([array_to_string(list_slice(t, p, p + m - 1), chr(31))
                     for p in generate_series(1, len(t) - m + 1)])
    END AS g
  FROM toks
)"""


def sql_decontaminate(
    *,
    n: int = 3,
    eval_pred: str = "doc_id % 13 = 5",
    source: str = "documents",
    text: str = "text",
) -> str:
    """DuckDB twin of :func:`decontaminate` over string grams (equal iff
    the engine's polynomial hashes are, absent 61-bit collisions)."""
    return f"""
WITH {sql_grams_cte(n, source, text)},
ev AS (SELECT DISTINCT unnest(g) AS gram FROM grams WHERE {eval_pred}),
tr AS (SELECT doc_id, g FROM grams WHERE NOT ({eval_pred})),
tg AS (SELECT doc_id, unnest(g) AS gram FROM tr),
hits AS (SELECT DISTINCT tg.doc_id FROM tg JOIN ev USING (gram))
SELECT tr.doc_id, (tr.doc_id IN (SELECT doc_id FROM hits)) AS contaminated
FROM tr
"""


# ---------------------------------------------------------------------------
# C4-style line-level dedup
# ---------------------------------------------------------------------------

_LINE_CHUNK = 4
_LINE_IDX_BITS = 20  # docs are assumed < 2^20 lines long (1M lines)


def dedup_lines(
    ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    chunk: int = _LINE_CHUNK,
    splitter: str = "chunk",
    num_buckets: int | None = None,
):
    """Line-level exact dedup (the C4 rule): a line survives only at its
    GLOBAL first occurrence — ``(doc_id, line_idx)`` minimal over all
    docs containing that line — and every doc is reassembled from its
    surviving lines in order.

    ``splitter`` picks the line law: ``"chunk"`` (consecutive ``chunk``-
    token windows — the fixture corpus has no newlines) or ``"newline"``
    (real-text ``\\n`` lines, kept verbatim; line identity is the 60-bit
    md5 prefix of the line string — equal strings <=> equal keys absent
    ~2^-60 collisions, the engine-wide hash-identity convention).  The
    plan is identical either way; only the explode stage and the
    reassembly separator change.

    Plan: explode lines with a 64-bit polynomial key over the token
    hashes (equal line strings <=> equal keys, absent ~2^-61 collisions,
    same family as :func:`ngram_jaccard_pairs`); ONE coarse-bucket
    shuffle on the line key resolves first-occurrence winners vectorized
    (all rows of a key share a bucket); a second coarse shuffle on doc id
    reassembles kept lines in order.  Both shuffles carry (ids, key,
    line) — the dedup decision itself never touches the driver.

    Emits (doc_id, n_lines, n_kept, text_kept); docs whose every line is
    a later occurrence drop out (their text is fully redundant)."""
    if splitter not in ("chunk", "newline"):
        raise ValueError(f"splitter must be chunk|newline, got {splitter!r}")

    # base^e mod 2^64 for e in [0, chunk) — the rolling polynomial
    # acc = ((h0*B + h1)*B + ...) equals sum h_j * B^(m-1-j) in the
    # wrapping uint64 ring, so chunked line keys vectorize to one
    # weighted np.add.reduceat over the batch's flat token-hash stream.
    _bpow = np.empty(chunk, dtype=np.uint64)
    _bpow[0] = 1
    for _e in range(1, chunk):
        _bpow[_e] = _bpow[_e - 1] * np.uint64(1000003)

    def explode(b: pa.Table) -> pa.Table:
        from itertools import chain

        ids = np.asarray(b[id_col], dtype=np.int64)
        texts = b[text_col].to_pylist()
        tok_lists = [TOKEN_RE.findall(t or "") for t in texts]
        ntok = np.fromiter(
            (len(t) for t in tok_lists), dtype=np.int64, count=len(tok_lists)
        )
        flat_toks = list(chain.from_iterable(tok_lists))
        th = _token_hashes(flat_toks)
        nl = -(-ntok // chunk)  # lines per doc (0 for empty docs)
        total_lines = int(nl.sum())
        empty = pa.table(
            {
                id_col: pa.array([], pa.int64()),
                "idx": pa.array([], pa.int64()),
                "n_lines": pa.array([], pa.int64()),
                "line": pa.array([], pa.string()),
                "key": pa.array([], pa.int64()),
            }
        )
        if total_lines == 0:
            return empty
        # per-line doc index / within-doc line index / flat token spans
        line_doc = np.repeat(np.arange(len(ids), dtype=np.int64), nl)
        line_starts_cum = np.concatenate(([0], np.cumsum(nl)))[:-1]
        idx = np.arange(total_lines, dtype=np.int64) - line_starts_cum[line_doc]
        doc_tok0 = np.concatenate(([0], np.cumsum(ntok)))[:-1]
        start = doc_tok0[line_doc] + idx * chunk
        end = np.minimum(start + chunk, doc_tok0[line_doc] + ntok[line_doc])
        llen = end - start
        # key = wrapping-uint64 weighted segment sum of token hashes
        p = np.arange(len(th), dtype=np.int64) - np.repeat(start, llen)
        w = _bpow[np.repeat(llen, llen) - 1 - p]
        key = np.add.reduceat(th * w, start)
        key = (key >> np.uint64(3)).astype(np.int64)
        # line strings: tokens partition contiguously per line — one
        # Arrow list-slice + vectorized join, no per-line Python
        flat = pa.array(
            np.concatenate((np.asarray([0], np.int64), np.cumsum(llen)))
        )
        toks_arr = pa.array(flat_toks, pa.string())
        lines = pc.cast(
            pc.binary_join(
                pa.LargeListArray.from_arrays(flat, toks_arr), pa.scalar(" ")
            ),
            pa.string(),
        )
        return pa.table(
            {
                id_col: pa.array(ids[line_doc]),
                "idx": pa.array(idx),
                "n_lines": pa.array(nl[line_doc]),
                "line": lines,
                "key": pa.array(key),
            }
        )

    def explode_newline(b: pa.Table) -> pa.Table:
        from .text import md5_prefix_int

        ids = np.asarray(b[id_col], dtype=np.int64)
        split = pc.split_pattern(
            pc.fill_null(pc.cast(b[text_col], pa.string()), ""), "\n"
        ).combine_chunks()
        if isinstance(split, pa.ChunkedArray):  # zero-chunk empty input
            split = pa.array([], pa.list_(pa.string()))
        vals = split.flatten()
        nl = np.asarray(pc.list_value_length(split), dtype=np.int64)
        total_lines = int(nl.sum())
        if total_lines == 0:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "idx": pa.array([], pa.int64()),
                    "n_lines": pa.array([], pa.int64()),
                    "line": pa.array([], pa.string()),
                    "key": pa.array([], pa.int64()),
                }
            )
        line_doc = np.repeat(np.arange(len(ids), dtype=np.int64), nl)
        starts = np.concatenate(([0], np.cumsum(nl)))[:-1]
        idx = np.arange(total_lines, dtype=np.int64) - starts[line_doc]
        key = md5_prefix_int(vals, hexdigits=15).astype(np.int64)
        return pa.table(
            {
                id_col: pa.array(ids[line_doc]),
                "idx": pa.array(idx),
                "n_lines": pa.array(nl[line_doc]),
                "line": vals,
                "key": pa.array(key),
            }
        )

    sep = " " if splitter == "chunk" else "\n"
    lines = ds.select_columns([id_col, text_col]).map_batches(
        explode if splitter == "chunk" else explode_newline,
        batch_format="pyarrow",
    )

    I = pa.int64()
    # the first occurrence of a line (lowest (doc, idx)) is kept
    kept = segment_apply(
        lines,
        "key",
        lambda t, starts: t.take(starts),
        pa.schema(
            [(id_col, I), ("idx", I), ("n_lines", I), ("line", pa.string()),
             ("key", I)]
        ),
        order=(id_col, "idx"),
        num_buckets=num_buckets,
    )

    def assemble(t: pa.Table, starts: np.ndarray) -> dict:
        offsets = pa.array(np.append(starts, t.num_rows).astype(np.int32))
        kept_lines = pa.ListArray.from_arrays(offsets, t["line"].combine_chunks())
        return {
            id_col: np.asarray(t[id_col], np.int64)[starts],
            "n_lines": np.asarray(t["n_lines"], np.int64)[starts],
            "n_kept": np.diff(np.asarray(offsets)),
            "text_kept": pc.binary_join(kept_lines, sep),
        }

    return segment_apply(
        kept,
        id_col,
        assemble,
        pa.schema(
            [(id_col, I), ("n_lines", I), ("n_kept", I), ("text_kept", pa.string())]
        ),
        order=("idx",),
        num_buckets=num_buckets,
    )


def sql_dedup_lines(
    *,
    chunk: int = _LINE_CHUNK,
    source: str = "documents",
    text: str = "text",
) -> str:
    """DuckDB twin of :func:`dedup_lines` over line STRINGS."""
    return f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all({text}, '\\S+') AS t FROM {source}
),
l2 AS (
  SELECT doc_id, i,
    array_to_string(
      list_slice(t, i * {chunk} + 1,
                 LEAST(i * {chunk} + {chunk}, len(t))), ' ') AS line
  FROM (
    SELECT doc_id, t,
           unnest(range((len(t) + {chunk} - 1) // {chunk})) AS i
    FROM toks WHERE len(t) > 0
  )
),
firsts AS (
  SELECT line, MIN(doc_id * {1 << _LINE_IDX_BITS} + i) AS pos
  FROM l2 GROUP BY line
),
kept AS (
  SELECT l.doc_id, l.i, l.line
  FROM l2 l JOIN firsts f
    ON f.line = l.line AND l.doc_id * {1 << _LINE_IDX_BITS} + l.i = f.pos
),
nl AS (
  SELECT doc_id, (len(t) + {chunk} - 1) // {chunk} AS n_lines
  FROM toks WHERE len(t) > 0
)
SELECT k.doc_id, ANY_VALUE(n.n_lines)::BIGINT AS n_lines,
       COUNT(*)::BIGINT AS n_kept,
       string_agg(k.line, ' ' ORDER BY k.i) AS text_kept
FROM kept k JOIN nl n USING (doc_id)
GROUP BY k.doc_id
"""


def sql_dedup_lines_nl(*, source: str = "documents") -> str:
    """DuckDB twin of :func:`dedup_lines` with ``splitter="newline"``
    over line STRINGS (the engine's md5-prefix keys are equal iff the
    strings are, absent ~2^-60 collisions).  ``source`` may be a
    parenthesized aliased subquery yielding (doc_id, text)."""
    return f"""
WITH s AS (
  SELECT doc_id, string_split(text, chr(10)) AS t FROM {source}
),
l2 AS (
  SELECT doc_id, i, t[i + 1] AS line
  FROM (SELECT doc_id, t, unnest(range(len(t))) AS i FROM s)
),
firsts AS (
  SELECT line, MIN(doc_id * {1 << _LINE_IDX_BITS} + i) AS pos
  FROM l2 GROUP BY line
),
kept AS (
  SELECT l.doc_id, l.i, l.line
  FROM l2 l JOIN firsts f
    ON f.line = l.line AND l.doc_id * {1 << _LINE_IDX_BITS} + l.i = f.pos
),
nl AS (SELECT doc_id, len(t) AS n_lines FROM s)
SELECT k.doc_id, ANY_VALUE(n.n_lines)::BIGINT AS n_lines,
       COUNT(*)::BIGINT AS n_kept,
       string_agg(k.line, chr(10) ORDER BY k.i) AS text_kept
FROM kept k JOIN nl n USING (doc_id)
GROUP BY k.doc_id
"""


# ---------------------------------------------------------------------------
# duplicate n-gram coverage (substring-level dedup diagnostic)
# ---------------------------------------------------------------------------


def dup_gram_coverage(
    docs,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    n: int = 3,
    num_buckets: int | None = None,
    round_to: int = 6,
):
    """Per-document fraction of token n-gram POSITIONS whose n-gram occurs
    at least twice in the corpus (counting same-document repeats) — the
    scan that motivates substring-level dedup (Lee et al. 2021, "Deduplicating
    Training Data Makes Language Models Better": duplicated substrings
    concentrate in a small doc subset; this scores each doc's share).

    Plan: the exact per-batch (doc, term, tf) reduction from
    :func:`pygridmap_ray.tfidf.doc_term_freqs` (each doc is one row, so
    no combine step), one bucketed shuffle keyed by ``hash(term) %
    num_buckets`` — a bucket holds EVERY posting of its terms, so global
    occurrence counts and per-doc covered/total partials compute locally
    — then one coarse int-keyed sum per doc.  No join; gram strings
    shuffle once, doc partials are 3 int64/float64 columns.

    Output: ``doc_id, n_grams, dup_grams, dup_frac`` (docs with fewer
    than ``n`` tokens have no gram positions and are absent, matching
    the SQL twin)."""

    from .tfidf import doc_term_freqs

    def tf_stage(b: pa.Table) -> pa.Table:
        return doc_term_freqs(b, id_col=id_col, text_col=text_col, n=n)

    def bucket_kernel(t: pa.Table, starts: np.ndarray) -> dict:
        # every posting of a term is here: its corpus total is exact
        tf = np.asarray(t["tf"], np.float64)
        tot = np.repeat(np.add.reduceat(tf, starts), np.diff(np.append(starts, len(tf))))
        dup = np.where(tot >= 2.0, tf, 0.0)
        doc, inv = np.unique(np.asarray(t["doc"], np.int64), return_inverse=True)
        return {
            "doc": doc,
            "n_grams": np.bincount(inv, tf, len(doc)),
            "dup_grams": np.bincount(inv, dup, len(doc)),
        }

    partials = segment_apply(
        docs.map_batches(tf_stage, batch_format="pyarrow"),
        "term",
        bucket_kernel,
        pa.schema(
            {"doc": pa.int64(), "n_grams": pa.float64(), "dup_grams": pa.float64()}
        ),
        num_buckets=num_buckets,
    )
    summed = segment_sum(
        partials, ["doc"], ("n_grams", "dup_grams"), num_buckets=num_buckets
    )
    tol = 10.0**round_to

    def finish(b: pa.Table) -> pa.Table:
        ng = np.asarray(b["n_grams"], np.float64)
        dg = np.asarray(b["dup_grams"], np.float64)
        frac = np.floor((dg / ng) * tol + 0.5) / tol  # fractions are >= 0
        return pa.table(
            {
                id_col: pa.array(np.asarray(b["doc"], np.int64)),
                "n_grams": pa.array(ng.astype(np.int64)),
                "dup_grams": pa.array(dg.astype(np.int64)),
                "dup_frac": pa.array(frac),
            }
        )

    return summed.map_batches(finish, batch_format="pyarrow")


def sql_dup_gram_coverage(
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    n: int = 3,
    source: str = "documents",
    round_to: int = 6,
) -> str:
    """DuckDB twin of :func:`dup_gram_coverage` — same token/gram law as
    :func:`pygridmap_ray.tfidf.sql_tfidf_pairs` (``\\s+`` split, empties
    dropped, n-grams joined by single spaces, never crossing docs)."""
    term = (
        "t0.tok" if n == 1 else " || ' ' || ".join(f"t{j}.tok" for j in range(n))
    )
    joins = " ".join(
        f"JOIN tk2 t{j} ON t{j}.doc_id = t0.doc_id AND t{j}.j = t0.j + {j}"
        for j in range(1, n)
    )
    t = f"1e{round_to}"
    return f"""
WITH tk AS (
  SELECT {id_col} AS doc_id,
         unnest(regexp_split_to_array({text_col}, '\\s+')) AS tok,
         generate_subscripts(regexp_split_to_array({text_col}, '\\s+'), 1) AS i
  FROM {source}
), tk2 AS (
  SELECT doc_id, tok, ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY i) AS j
  FROM tk WHERE tok <> ''
), tf AS (
  SELECT t0.doc_id, {term} AS term, COUNT(*)::DOUBLE AS tf
  FROM tk2 t0 {joins} GROUP BY t0.doc_id, term
), tot AS (
  SELECT term, SUM(tf) AS tot FROM tf GROUP BY term
)
SELECT tf.doc_id AS {id_col},
       SUM(tf.tf)::BIGINT AS n_grams,
       SUM(CASE WHEN tot.tot >= 2.0 THEN tf.tf ELSE 0 END)::BIGINT AS dup_grams,
       ROUND(SUM(CASE WHEN tot.tot >= 2.0 THEN tf.tf ELSE 0 END)
             / SUM(tf.tf) * {t}) / {t} AS dup_frac
FROM tf JOIN tot USING (term)
GROUP BY tf.doc_id
"""


def neardup_keep_best(
    docs,
    pairs,
    *,
    id_col: str = "doc_id",
    score_col: str = "quality",
    max_iter: int = 25,
    num_partitions: int | None = None,
    num_buckets: int | None = None,
):
    """Keep the HIGHEST-SCORING doc per near-dup component (ties -> min
    id) — the production retention rule (survivor = best quality), vs
    :func:`neardup_dedup`'s canonical min-id survivor.

    ``docs`` must carry ``id_col`` + ``score_col`` (round the score
    first so ulp noise cannot flip ties — the repo float contract).
    Plan: component labels from :func:`neardup_components`, scores
    re-attached with one balanced-repartition join (both sides doc-scale
    but narrow — id, label, score), then the winner per component via
    the coarse-bucket top-k kernel (component ids are hash-like, so a
    fine groupby is banned; :func:`pygridmap_ray.stats.grouped_topk`
    buckets by ``hash(component) % num_buckets``).

    Output: ``id_col, component, score_col`` — one row per component."""
    from .cluster import default_num_partitions
    from .stats import grouped_topk

    if num_partitions is None:
        num_partitions = default_num_partitions()
    comp = neardup_components(
        docs.select_columns([id_col]), pairs,
        id_col=id_col, max_iter=max_iter, num_partitions=num_partitions,
    )
    scored = docs.select_columns([id_col, score_col]).repartition(
        num_partitions
    )
    j = comp.repartition(num_partitions).join(
        scored, "inner", num_partitions=num_partitions, on=(id_col,)
    )
    win = grouped_topk(
        j,
        group_col="component",
        order_col=score_col,
        tiebreak_col=id_col,
        k=1,
        descending=True,
        num_buckets=num_buckets,
    )
    return win.drop_columns(["rank"]).select_columns(
        [id_col, "component", score_col]
    )
