"""TF-IDF document similarity over a df-pruned inverted index.

The classic retrieval kernel as a shuffle-lean Ray Data plan:

1. **Term frequencies** — each document is ONE input row, so per-batch
   tokenize + n-gram + count yields EXACT global (doc, term, tf) rows
   with no combine step (same ``\\S+`` token law as ``text.token_count``
   / ``text.top_ngrams``; terms are word n-grams joined by single
   spaces).  The tf stream materializes once and feeds two bucketed
   passes.
2. **Norms** — tf rows shuffle keyed by ``hash(term) % num_buckets``
   (bounded group count, the engine-wide hash-like-key rule).  A bucket
   holds every posting of its terms, so document frequency, the
   ``df <= max_df`` stop-term prune (the bound on posting-list length —
   and therefore pair fan-out — at corpus scale) and tf·idf weights all
   compute locally; per-doc ``sum(w^2)`` partials coarse-sum into one
   norm per doc.
3. **Pairs** — with the norm vector broadcast (ray.put once, per-worker
   cache), a second bucketed pass emits NORMALIZED pair partials
   ``(w_a/|a|)·(w_b/|b|)`` under a packed int64 pair key
   (segmented-triu enumeration, vectorized per distinct posting-list
   size, int-sort + reduceat pre-aggregation).  One coarse sum later
   the value IS the cosine — threshold, round, unpack.  No join in the
   whole plan.

Above ``broadcast_norms_limit`` docs the norm vector no longer fits a
worker; the fallback attaches norms to the tf stream with one
partitioned hash join and runs the identical pair pass.

Scale notes: the df cutoff is the load-bearing bound — a term kept at
``df = d`` contributes ``d(d-1)/2`` pair partials, so pair volume is at
most ``vocab · max_df²/2`` regardless of corpus size (Zipf vocabularies
keep the realized sum far below that).  Documents are single rows (the
repo-wide contract), so stage 1 never crosses batches.  A doc whose
every term is pruned has no postings and cannot pair.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from pygridmap_ray.cluster import (
    Broadcast,
    resolve_num_buckets as _resolve_buckets,
    segment_apply,
    segment_pairs,
    segment_sum,
)

_PAIR_SHIFT = 31  # doc ids must fit [0, 2^31): packed pair key layout


def doc_term_freqs(
    batch: pa.Table, *, id_col: str = "doc_id", text_col: str = "text", n: int = 2
) -> pa.Table:
    """(doc, term, tf) rows for one batch — exact, since each doc is one
    input row.  Term law: ``\\S+`` tokens, empties dropped, word n-grams
    joined with single spaces, never crossing documents."""
    la = pc.split_pattern_regex(batch[text_col], r"\s+")
    if isinstance(la, pa.ChunkedArray):
        la = la.combine_chunks()
    flat = la.flatten()
    lens = np.diff(la.offsets.to_numpy())
    rid = np.repeat(np.arange(len(la), dtype=np.int64), lens)
    keep = np.asarray(pc.fill_null(pc.not_equal(flat, ""), False))
    flat = flat.filter(pa.array(keep))
    rid = rid[keep]
    m = len(flat) - (n - 1)
    empty = pa.table(
        {
            "doc": pa.array([], pa.int64()),
            "term": pa.array([], pa.string()),
            "tf": pa.array([], pa.float64()),
        }
    )
    if m <= 0:
        return empty
    shifted = [flat.slice(j, m) for j in range(n)]
    grams = shifted[0] if n == 1 else pc.binary_join_element_wise(*shifted, " ")
    same_doc = rid[:m] == rid[n - 1 :]
    grams = grams.filter(pa.array(same_doc))
    docs = np.asarray(batch[id_col], dtype=np.int64)[rid[:m][same_doc]]
    if not len(docs):
        return empty
    df = pd.DataFrame({"doc": docs, "term": np.asarray(grams).astype(object)})
    tf = df.groupby(["doc", "term"], sort=False).size().reset_index(name="tf")
    return pa.table(
        {
            "doc": pa.array(tf["doc"].to_numpy(np.int64)),
            "term": pa.array(tf["term"], pa.string()),
            "tf": pa.array(tf["tf"].to_numpy(np.float64)),
        }
    )


def _pair_partials(t: pa.Table, starts: np.ndarray, *, max_df: int,
                   nf: float) -> dict | None:
    """Term-segmented postings -> packed-key normalized pair partials.

    ``t`` columns: doc, th (int64 term hash), tf, nrm (per-doc norm
    already attached), sorted by (th, doc) with ``starts`` the term
    segments.  Emits (pk, val) rows where ``pk = id_a << 31 | id_b``
    (id_a < id_b) and val sums to the pair's cosine across calls."""
    cnt = np.diff(np.append(starts, t.num_rows))  # document frequency
    seg_kept = (cnt <= max_df) & (cnt >= 2)  # singleton terms cannot pair
    if not seg_kept.any():
        return None
    kept = np.repeat(seg_kept, cnt)
    sizes = cnt[seg_kept]
    starts = np.cumsum(sizes) - sizes
    dfv = np.repeat(sizes, sizes).astype(np.float64)
    wn = (
        np.asarray(t["tf"], np.float64)[kept]
        * np.log(nf / dfv)
        / np.asarray(t["nrm"], np.float64)[kept]
    )
    doc = np.asarray(t["doc"], np.int64)[kept]
    ga, gb = (np.concatenate(c) for c in zip(*segment_pairs(starts, len(doc))))
    pk = (doc[ga] << _PAIR_SHIFT) | doc[gb]  # doc ids ascending per segment
    val = wn[ga] * wn[gb]
    # pre-aggregate per pair inside the bucket: int sort + reduceat
    o = np.argsort(pk, kind="stable")
    pk = pk[o]
    st = np.nonzero(np.r_[True, pk[1:] != pk[:-1]])[0]
    return {"pk": pk[st], "val": np.add.reduceat(val[o], st)}


def _dense_pairs(
    post: pd.DataFrame,
    u: np.ndarray,
    inv: np.ndarray,
    dfc: np.ndarray,
    *,
    max_df: int,
    nf: float,
    threshold: float,
    tol: float,
    num_partitions: int,
):
    """Dense gram-matrix cosine scan for the small-vocabulary regime.

    Builds the row-normalized doc x term weight matrix on the driver
    (gated by the caller: postings and matrix both bounded), broadcasts
    it once, and fans out row blocks; each task emits only the
    above-threshold (id_a < id_b) survivors of one ``W[lo:hi] @ W.T``.
    df = 1 terms stay in the matrix — they shape the norm exactly like
    the sparse plan — and cannot reach a cross product (only one doc
    holds them).  Same weight / threshold / rounding law as the sparse
    path; dgemm changes only the float addition order, which the 1e-6
    rounding step dwarfs (<= vocab addends of |x| <= 1)."""
    import ray.data as rd

    empty = pa.table(
        {
            "id_a": pa.array([], pa.int64()),
            "id_b": pa.array([], pa.int64()),
            "cosine": pa.array([], pa.float64()),
        }
    )
    keep_t = dfc <= max_df
    col = np.full(len(u), -1, dtype=np.int64)
    col[keep_t] = np.arange(int(keep_t.sum()))
    c = col[inv]
    m = c >= 0
    ids_u, doc_inv = np.unique(
        post["doc"].to_numpy(np.int64), return_inverse=True
    )
    n = len(ids_u)
    if n < 2 or not m.any():
        return rd.from_arrow(empty)
    W = np.zeros((n, int(keep_t.sum())), dtype=np.float64)
    W[doc_inv[m], c[m]] = post["tf"].to_numpy(np.float64)[m] * np.log(
        nf / dfc[inv[m]]
    )
    nrm = np.sqrt(np.einsum("ij,ij->i", W, W))
    nrm[nrm == 0.0] = 1.0
    W /= nrm[:, None]
    ref = Broadcast((ids_u, W))
    rows_cap = max(1, (64 << 20) // (n * 8))  # 64 MB gram slab per task
    block_rows = max(1, min(rows_cap, -(-n // (num_partitions * 4))))
    nb = -(-n // block_rows)

    def pair_block(b: pa.Table) -> pa.Table:
        ids_b, W_b = ref.get()
        nn = len(ids_b)
        ia_l, ib_l, cv_l = [], [], []
        for k in np.asarray(b["id"], dtype=np.int64):
            lo = int(k) * block_rows
            hi = min(lo + block_rows, nn)
            if lo >= hi:
                continue
            G = W_b[lo:hi] @ W_b.T
            mask = G >= threshold
            mask &= np.arange(nn)[None, :] > np.arange(lo, hi)[:, None]
            ii, jj = np.nonzero(mask)
            if len(ii):
                ia_l.append(ids_b[ii + lo])
                ib_l.append(ids_b[jj])
                cv_l.append(G[ii, jj])
        if not ia_l:
            return empty
        cv = np.concatenate(cv_l)
        return pa.table(
            {
                "id_a": pa.array(np.concatenate(ia_l)),
                "id_b": pa.array(np.concatenate(ib_l)),
                "cosine": pa.array(np.floor(cv * tol + 0.5) / tol),
            }
        )

    return rd.range(nb, override_num_blocks=nb).map_batches(
        pair_block, batch_format="pyarrow"
    )


def tfidf_pairs(
    docs,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    n: int = 2,
    max_df_frac: float = 0.5,
    threshold: float = 0.35,
    num_buckets: int | None = None,
    round_to: int = 6,
    num_partitions: int | None = None,
    broadcast_norms_limit: int = 2_000_000,
    persist: str = "memory",
    persist_path: str | None = None,
    dense_postings_limit: int = 20_000_000,
    dense_matrix_bytes_limit: int = 1 << 30,
):
    """All document pairs with TF-IDF cosine similarity >= ``threshold``
    (columns ``id_a < id_b``, ``cosine`` rounded half-away).

    ``max_df_frac``: terms appearing in more than this fraction of the
    corpus are stop-terms — pruned from weights AND pairs on both this
    and the SQL side (:func:`sql_tfidf_pairs`).  Doc ids must fit
    [0, 2^31) (packed pair keys).

    ``persist`` controls how the corpus-scale (doc, term, tf) postings
    stream — consumed twice (norm pass + pair pass) — is reused:

    - ``"memory"`` (default): pin in the object store (spillable).  The
      right call up to object-store scale.
    - ``"parquet"``: checkpoint the postings to ``persist_path`` and
      re-read per consumer — the 100 TB mode: the tile store holds the
      postings, the object store never does.  On a multi-node cluster
      ``persist_path`` MUST be shared storage (object store / NFS); the
      single-node default (a driver tempdir) exists for tests only.  The
      checkpoint is left on disk (the returned Dataset reads it lazily)
      — the caller owns cleanup after consuming the result.
    - ``"recompute"``: no pin at all; lineage re-runs tokenize+hash per
      consumer (pay 2x compute, hold nothing).
    """
    num_buckets = _resolve_buckets(num_buckets)

    n_docs = docs.count()  # parquet metadata count — no data scan
    max_df = int(np.floor(max_df_frac * n_docs))
    nf = float(n_docs)
    if num_partitions is None:
        from .cluster import default_num_partitions

        num_partitions = default_num_partitions()

    def tf_stage(b: pa.Table) -> pa.Table:
        # Both downstream passes need term IDENTITY only (df counts,
        # posting-list grouping), never the string — replace it with its
        # 64-bit hash right here so the two posting-stream shuffles and
        # every per-bucket lexsort are pure int64 (an object-dtype
        # lexsort was the measured hot cost of this operator).  Same
        # accepted collision law as the shingle/minhash family.
        t = doc_term_freqs(b, id_col=id_col, text_col=text_col, n=n)
        h = pd.util.hash_array(np.asarray(t["term"]).astype(object))
        return pa.table(
            {"doc": t["doc"], "th": pa.array(h.view(np.int64)), "tf": t["tf"]}
        )

    tfd = docs.map_batches(tf_stage, batch_format="pyarrow")
    if persist == "memory":
        tfd = tfd.materialize()
    elif persist == "parquet":
        import tempfile

        import ray.data as rd

        path = persist_path or tempfile.mkdtemp(prefix="tfidf_postings_")
        tfd.write_parquet(path)
        tfd = rd.read_parquet(path)
    elif persist != "recompute":
        raise ValueError(
            f"persist must be memory|parquet|recompute, got {persist!r}"
        )

    # DENSE regime gate.  The sparse plan's pair volume is sum(df^2)/2 —
    # on a small-vocabulary corpus (boilerplate-heavy shards, synthetic
    # fixtures) that dwarfs n_docs x vocab, and the partial stream (36M
    # rows from 5k docs / 931 terms at sf0.1) swamps two sort shuffles.
    # When the postings fit the driver AND the doc x term matrix fits a
    # broadcast, cosine IS a gram matrix: build the row-normalized
    # weight matrix once, ray.put it, and scan row blocks with one dgemm
    # each — zero shuffles, zero joins, output only the survivors.  The
    # sparse PPJoin-family plan below stays the corpus-scale path.
    if (
        persist == "memory"
        and dense_postings_limit
        and tfd.count() <= dense_postings_limit
    ):
        post = tfd.to_pandas()
        u, inv, dfc = np.unique(
            post["th"].to_numpy(np.int64), return_inverse=True,
            return_counts=True,
        )
        if int(len(u)) * n_docs * 8 <= dense_matrix_bytes_limit:
            return _dense_pairs(
                post, u, inv, dfc.astype(np.float64), max_df=max_df, nf=nf,
                threshold=threshold, tol=10.0**round_to,
                num_partitions=num_partitions,
            )

    def norm_kernel(t: pa.Table, starts: np.ndarray) -> dict | None:
        cnt = np.diff(np.append(starts, t.num_rows))  # document frequency
        dfv = np.repeat(cnt, cnt).astype(np.float64)
        kept = dfv <= max_df  # df=1 terms DO count toward the norm
        if not kept.any():
            return None
        w = np.asarray(t["tf"], np.float64)[kept] * np.log(nf / dfv[kept])
        doc = np.asarray(t["doc"], np.int64)[kept]
        o = np.argsort(doc, kind="stable")
        d, v = doc[o], (w * w)[o]
        st = np.nonzero(np.r_[True, d[1:] != d[:-1]])[0]
        return {"a": d[st], "val": np.add.reduceat(v, st)}

    norms = segment_sum(
        segment_apply(
            tfd, "th", norm_kernel,
            pa.schema({"a": pa.int64(), "val": pa.float64()}),
            num_buckets=num_buckets,
        ),
        ["a"],
    ).map_batches(
        lambda b: pa.table({"a": b["a"], "nrm": pc.sqrt(b["val"])}),
        batch_format="pyarrow",
    )

    tol = 10.0**round_to

    def finish(b: pa.Table) -> pa.Table:
        pk = np.asarray(b["pk"], np.int64)
        c = np.asarray(b["val"], np.float64)
        keep = c >= threshold
        pk, c = pk[keep], c[keep]
        c = np.floor(np.abs(c) * tol + 0.5) / tol  # cosines are >= 0 here
        return pa.table(
            {
                "id_a": pa.array(pk >> _PAIR_SHIFT),
                "id_b": pa.array(pk & ((1 << _PAIR_SHIFT) - 1)),
                "cosine": pa.array(c),
            }
        )

    if n_docs <= broadcast_norms_limit:
        # norms are one float per doc — broadcast them (ray.put once,
        # per-worker cache) and normalize weights inside the pair pass:
        # the coarse-summed partial IS the cosine; no join anywhere.
        narr = norms.to_pandas()
        o = np.argsort(narr["a"].to_numpy(np.int64), kind="stable")
        payload = {
            "ids": narr["a"].to_numpy(np.int64)[o],
            "nrm": narr["nrm"].to_numpy(np.float64)[o],
        }
        ref = Broadcast(payload)

        def attach_nrm(b: pa.Table) -> pa.Table:
            p = ref.get()
            d = np.asarray(b["doc"], np.int64)
            if len(p["ids"]):
                # a doc with ONLY pruned (df > max_df) terms has no norm
                # row; its tf rows are dropped by the pair kernel's df
                # mask, so the clipped (wrong-doc) lookup is never used
                idx = np.clip(np.searchsorted(p["ids"], d), 0, len(p["ids"]) - 1)
                nrm = p["nrm"][idx]
            else:
                nrm = np.ones(len(d))
            return b.append_column("nrm", pa.array(nrm))

        pair_src = tfd.map_batches(attach_nrm, batch_format="pyarrow")
    else:
        # big-corpus fallback: one partitioned hash join attaches norms
        # to the tf stream (docs shuffle once); identical math after.
        na = norms.map_batches(
            lambda b: pa.table({"doc": b["a"], "nrm": b["nrm"]}),
            batch_format="pyarrow",
        ).repartition(num_partitions)
        pair_src = tfd.repartition(num_partitions).join(
            na, "inner", num_partitions=num_partitions, on=("doc",)
        )

    pairs = segment_apply(
        pair_src,
        "th",
        lambda t, starts: _pair_partials(t, starts, max_df=max_df, nf=nf),
        pa.schema({"pk": pa.int64(), "val": pa.float64()}),
        order=("doc",),
        num_buckets=num_buckets,
    )
    return segment_sum(pairs, ["pk"]).map_batches(finish, batch_format="pyarrow")


def sql_tfidf_pairs(
    *,
    n: int = 2,
    max_df_frac: float = 0.5,
    threshold: float = 0.35,
    source: str = "documents",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """DuckDB twin of :func:`tfidf_pairs`: same term law, the same
    ``floor(max_df_frac * N)`` integer cutoff, the same ``tf·ln(N/df)``
    weight NORMALIZED per doc before the pair sum, unrounded threshold
    compare, half-away rounding."""
    term = (
        "t0.tok"
        if n == 1
        else " || ' ' || ".join(f"t{j}.tok" for j in range(n))
    )
    joins = " ".join(
        f"JOIN tk2 t{j} ON t{j}.doc_id = t0.doc_id AND t{j}.j = t0.j + {j}"
        for j in range(1, n)
    )
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
), nn AS (SELECT COUNT(*)::DOUBLE AS n FROM {source}),
dft AS (SELECT term, COUNT(*)::DOUBLE AS df FROM tf GROUP BY term),
w AS (
  SELECT tf.doc_id, tf.term, tf.tf * ln((SELECT n FROM nn) / dft.df) AS w
  FROM tf JOIN dft USING (term)
  WHERE dft.df <= FLOOR({max_df_frac!r} * (SELECT n FROM nn))
), nrm AS (SELECT doc_id, sqrt(SUM(w * w)) AS nrm FROM w GROUP BY doc_id),
wn AS (
  SELECT w.doc_id, w.term, w.w / nrm.nrm AS wn
  FROM w JOIN nrm USING (doc_id)
), cos AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, SUM(a.wn * b.wn) AS cosine
  FROM wn a JOIN wn b ON a.term = b.term AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT id_a, id_b, ROUND(cosine * 1e6) / 1e6 AS cosine
FROM cos WHERE cosine >= {threshold!r}
"""
