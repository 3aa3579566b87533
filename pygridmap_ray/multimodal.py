"""Multimodal columns: opaque binary payloads + typed metadata.

Images/audio/video travel as Arrow ``binary`` columns next to typed
metadata; decode / feature-extract / resize / frame-sample are actor-pool
``map_batches`` stages.  The image/audio codec libraries are NOT in this
container, so the codec call itself is stubbed (clearly marked
``NotImplementedError`` unless ``fake=True``), while everything Ray-side
— schema, batch sizing, actor signature, zero-copy binary handling,
output layout — is real and tested.

Payload synthesis is closed-form in (doc_id, span index) so the DuckDB
oracle can verify the full explode -> attach-payload -> feature pipeline
(:func:`sql_media_features`).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def explode_media_spans(batch: pa.Table) -> pa.Table:
    """docs (doc_id, spans) -> one row per non-text span: doc_id, span_idx,
    kind, media_ref, offset.  Pure Arrow flatten + parent-index gather —
    the spans list itself is never converted to Python objects."""
    spans = batch["spans"].combine_chunks()
    lengths = np.asarray(spans.value_lengths())
    flat = spans.flatten()
    parent = np.repeat(np.arange(len(lengths)), lengths)
    idx_in_doc = np.arange(int(lengths.sum())) - np.repeat(
        np.concatenate([[0], np.cumsum(lengths)[:-1]]), lengths
    )
    kind = flat.field("kind")
    keep = np.asarray(pc.not_equal(kind, pa.scalar("text")))
    doc_id = np.asarray(batch["doc_id"], dtype=np.int64)[parent[keep]]
    return pa.table(
        {
            "doc_id": pa.array(doc_id),
            "span_idx": pa.array(idx_in_doc[keep].astype(np.int64)),
            "kind": kind.filter(pa.array(keep)),
            "media_ref": flat.field("media_ref").filter(pa.array(keep)),
            "offset": pc.cast(flat.field("offset").filter(pa.array(keep)), pa.int64()),
        }
    )


def attach_payload(batch: pa.Table) -> pa.Table:
    """Synthesize the binary payload for each media_ref: md5(media_ref)
    digest repeated to n_bytes = 64 + (doc_id * 7 + span_idx * 13) % 192.
    (A real pipeline reads object storage here; the byte-length law is
    what the oracle checks.)"""
    doc_id = np.asarray(batch["doc_id"], dtype=np.int64)
    span_idx = np.asarray(batch["span_idx"], dtype=np.int64)
    n_bytes = 64 + (doc_id * 7 + span_idx * 13) % 192
    refs = batch["media_ref"].to_pylist()
    payloads = []
    for ref, n in zip(refs, n_bytes.tolist()):
        d = hashlib.md5(ref.encode()).digest()
        payloads.append((d * (n // len(d) + 1))[:n])
    return batch.append_column("payload", pa.array(payloads, pa.binary()))


class MediaDecoder:
    """Actor-pool decode/feature stage.

    ``fake=True`` (default here): deterministic pseudo-decode deriving
    width/height/feature from the payload bytes — exercises the exact
    actor signature, batch shapes and output schema a real decoder needs.
    ``fake=False``: raises NotImplementedError at the codec call (PIL /
    libsndfile / ffmpeg are not installable in this container)."""

    def __init__(self, fake: bool = True, batch_feature_dim: int = 4):
        self.fake = fake
        self.dim = batch_feature_dim

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_pylist()
        if not self.fake:
            raise NotImplementedError(
                "real media decoding requires PIL/libsndfile/ffmpeg, "
                "unavailable in this environment — run with fake=True"
            )
        n_bytes = np.array([len(p) for p in payloads], dtype=np.int64)
        width = 16 + n_bytes % 32
        height = 16 + n_bytes % 17
        # "features": mean of byte values per quarter of the payload
        feats = np.zeros((len(payloads), self.dim), dtype=np.float64)
        for i, p in enumerate(payloads):
            if not p:
                continue
            arr = np.frombuffer(p, dtype=np.uint8)
            for j, chunk in enumerate(np.array_split(arr, self.dim)):
                feats[i, j] = float(chunk.mean()) if len(chunk) else 0.0
        out = batch.drop_columns(["payload"])
        out = out.append_column("n_bytes", pa.array(n_bytes))
        out = out.append_column("width", pa.array(width))
        out = out.append_column("height", pa.array(height))
        out = out.append_column(
            "features",
            pa.FixedSizeListArray.from_arrays(pa.array(feats.reshape(-1)), self.dim),
        )
        return out


def media_pipeline(docs_with_spans_ds, *, concurrency=None, batch_size: int = 1024):
    """docs -> explode media spans -> attach payload -> decode features.

    Small ``batch_size`` on the decode stage: binary payloads make rows
    heavy, so batch x concurrency must fit the worker heap (the
    multimodal memory rule)."""
    ds = docs_with_spans_ds.map_batches(explode_media_spans, batch_format="pyarrow")
    ds = ds.map_batches(attach_payload, batch_format="pyarrow")
    if concurrency is not None:
        return ds.map_batches(
            MediaDecoder,
            batch_format="pyarrow",
            batch_size=batch_size,
            fn_constructor_kwargs={"fake": True},
            concurrency=concurrency,
        )
    dec = MediaDecoder(fake=True)
    return ds.map_batches(dec, batch_format="pyarrow", batch_size=batch_size)


def _sql_media_rows() -> str:
    """Shared CTE body: the exploded media rows with their byte laws."""
    from .synth import SQL_N_SPANS

    kind_case = (
        "CASE ((d.doc_id + i.i) % 3) WHEN 1 THEN 'image' WHEN 2 THEN 'audio' END"
    )
    n_bytes = "(64 + (d.doc_id * 7 + i.i * 13) % 192)"
    return f"""
SELECT d.doc_id, i.i AS span_idx,
       {kind_case} AS kind,
       'media://' || d.doc_id || '/' || i.i AS media_ref,
       (i.i * 7 + d.doc_id % 5)::BIGINT AS offset,
       {n_bytes}::BIGINT AS n_bytes,
       (16 + {n_bytes} % 32)::BIGINT AS width,
       (16 + {n_bytes} % 17)::BIGINT AS height
FROM documents d
JOIN (SELECT UNNEST(generate_series(0, 7)) AS i) i
  ON i.i < {SQL_N_SPANS.replace('doc_id', 'd.doc_id')}
WHERE ((d.doc_id + i.i) % 3) != 0
"""


#: modulus of the deterministic media CONTENT fingerprint — the
#: stand-in for a bytes hash (the codec/payload read is env-gated), a
#: small modulus so the synthetic corpus genuinely contains cross-doc
#: duplicate assets for the dedup law to find
MEDIA_CFP_MOD = 211


def media_dup_groups(ds, *, min_refs: int = 2):
    """Cross-document MEDIA deduplication over the interleaved spans —
    the asset-level companion of the text dedup family: media spans
    whose content fingerprint coincides form one duplicate group; emit
    per group the fingerprint, reference count, distinct-doc count and
    the canonical keeper (lowest doc_id, then span_idx — every other
    reference would rewrite to the keeper's stored asset).

    The fingerprint here is the deterministic
    ``(doc_id * 31 + span_idx * 17) % MEDIA_CFP_MOD`` law standing in
    for md5(payload) (codecs are env-gated; the Ray-side plumbing —
    span explode, fingerprint group, keeper election — is the real
    thing).  Keeper election packs (doc_id * 8 + span_idx) so a single
    Min aggregate yields both fields exactly (span_idx < 8 by the span
    law); the same integer form is the SQL twin's, so both sides are
    bit-identical.

    Scale shape: pure-Arrow span explode -> stateless fingerprint map
    -> per-batch (cfp, count, distinct-doc partials, min-pack) combine
    -> ONE ``cluster.segment_apply`` exchange on the fingerprint ->
    vectorized fold.  Distinct-doc counting stays exact by carrying
    (cfp, doc) unique pairs per batch — bounded by batch x domain.  An
    empty input yields zero rows with the declared output schema."""
    from .cluster import declare_schema, segment_apply

    def rows(b: pa.Table) -> pa.Table:
        med = explode_media_spans(b)
        if med.num_rows == 0:
            return pa.table(
                {"cfp": pa.array([], pa.int64()),
                 "doc": pa.array([], pa.int64()),
                 "n": pa.array([], pa.int64()),
                 "kp": pa.array([], pa.int64())}
            )
        d = np.asarray(med["doc_id"], np.int64)
        s = np.asarray(med["span_idx"], np.int64)
        if len(d) and (d.min() < 0 or d.max() >= (1 << 40)):
            # the (cfp, doc) pack below would leak doc bits into the
            # fingerprint field (or borrow from it, for a negative id)
            # and silently merge groups
            raise ValueError(
                "media_dup_groups packing needs doc ids in [0, 2^40); "
                "remap ids"
            )
        cfp = (d * 31 + s * 17) % MEDIA_CFP_MOD
        pack = d * 8 + s
        # per-batch combine: one row per (cfp, doc) with local count
        # and local min pack — exact after the global fold
        key = cfp * (1 << 40) + d  # doc_id < 2^40 by table contract
        ku, inv = np.unique(key, return_inverse=True)
        n = np.bincount(inv).astype(np.int64)
        kp = np.full(len(ku), np.iinfo(np.int64).max)
        np.minimum.at(kp, inv, pack)
        return pa.table(
            {
                "cfp": pa.array(ku // (1 << 40)),
                "doc": pa.array(ku % (1 << 40)),
                "n": pa.array(n),
                "kp": pa.array(kp),
            }
        )

    def fold(t: pa.Table, starts: np.ndarray) -> dict:
        doc = np.asarray(t["doc"], np.int64)
        n_refs = np.add.reduceat(np.asarray(t["n"], np.int64), starts)
        # distinct docs: (cfp, doc) rows are unique per batch but can
        # repeat across batches — count distinct within the sorted run
        new_doc = np.concatenate([[True], doc[1:] != doc[:-1]])
        new_doc[starts] = True
        n_docs = np.add.reduceat(new_doc.astype(np.int64), starts)
        kpm = np.minimum.reduceat(np.asarray(t["kp"], np.int64), starts)
        keep = n_refs >= min_refs
        return {
            "cfp": np.asarray(t["cfp"], np.int64)[starts][keep],
            "n_refs": n_refs[keep],
            "n_docs": n_docs[keep],
            "keep_doc": kpm[keep] // 8,
            "keep_span": kpm[keep] % 8,
        }

    out_schema = pa.schema(
        [(c, pa.int64()) for c in ("cfp", "n_refs", "n_docs", "keep_doc", "keep_span")]
    )
    return declare_schema(
        segment_apply(
            ds.map_batches(rows, batch_format="pyarrow"),
            "cfp",
            fold,
            out_schema,
            order=("doc",),
        ).sort("cfp"),
        out_schema,
    )


def sql_media_dup_groups(min_refs: int = 2) -> str:
    """DuckDB twin of :func:`media_dup_groups` — the media-row CTE with
    the same fingerprint and packed-keeper integer laws."""
    return f"""
WITH m AS ({_sql_media_rows()})
SELECT ((doc_id * 31 + span_idx * 17) % {MEDIA_CFP_MOD})::BIGINT AS cfp,
       COUNT(*)::BIGINT AS n_refs,
       COUNT(DISTINCT doc_id)::BIGINT AS n_docs,
       (MIN(doc_id * 8 + span_idx) // 8)::BIGINT AS keep_doc,
       (MIN(doc_id * 8 + span_idx) % 8)::BIGINT AS keep_span
FROM m
GROUP BY 1
HAVING COUNT(*) >= {min_refs}
ORDER BY cfp
"""


def sql_media_features() -> str:
    """Oracle for doc_id/span_idx/kind/media_ref/offset/n_bytes/width/
    height of the media pipeline (byte-law twins are exact)."""
    return _sql_media_rows()


def sql_media_features_vec(dim: int = 4) -> str:
    """Oracle including the decoded feature values: feature j is the mean
    byte value of the j-th ``np.array_split`` chunk of the payload, whose
    byte at position p is digest byte ``p % 16`` of ``md5(media_ref)``.
    array_split law: with l = n//dim, r = n%dim the first r chunks have
    l+1 bytes — chunk id is closed-form in p.  Features come back as
    scalar columns f0..f{{dim-1}} (rounded 6dp on both sides)."""
    byte_val = "('0x' || substr(md5(media_ref), 2 * (u.p % 16) + 1, 2))::BIGINT"
    chunk = "CASE WHEN p < r * (l + 1) THEN p // (l + 1) ELSE r + (p - r * (l + 1)) // l END"
    feats = ", ".join(
        f"ROUND(AVG(bv) FILTER (chunk = {j}) * 1e6) / 1e6 AS f{j}"
        for j in range(dim)
    )
    return f"""
WITH media AS ({_sql_media_rows()}),
pos AS (
  SELECT m.*, u.p, {byte_val} AS bv,
         (m.n_bytes // {dim}) AS l, (m.n_bytes % {dim}) AS r
  FROM media m, UNNEST(generate_series(0, m.n_bytes - 1)) AS u(p)
)
SELECT doc_id, span_idx, kind, media_ref, "offset", n_bytes, width, height, {feats}
FROM (SELECT *, {chunk} AS chunk FROM pos)
GROUP BY doc_id, span_idx, kind, media_ref, "offset", n_bytes, width, height
"""


class ImageResizer:
    """Actor-pool resize stage for image-kind payloads.

    ``fake=True``: deterministic pseudo-resize — input dims derive from
    the same pseudo-decode law as :class:`MediaDecoder` (a real
    implementation decodes first), output dims are the target, and the
    resized byte count scales with the pixel ratio
    (``max(1, n_bytes * tw*th // (w*h))``); the resized payload is the
    md5 digest of ``media_ref + ':{tw}x{th}'`` repeated (closed-form, so
    tests can check the byte law and the oracle checks the scalars).
    ``fake=False`` raises at the codec call (no PIL in this container).
    Non-image rows pass through untouched.
    """

    def __init__(self, target: tuple[int, int] = (64, 64), fake: bool = True):
        self.tw, self.th = int(target[0]), int(target[1])
        self.fake = fake

    def __call__(self, batch: pa.Table) -> pa.Table:
        if not self.fake:
            raise NotImplementedError(
                "real image resizing requires PIL, unavailable in this "
                "environment — run with fake=True"
            )
        payloads = batch["payload"].to_pylist()
        refs = batch["media_ref"].to_pylist()
        is_img = np.asarray(pc.equal(batch["kind"], pa.scalar("image")))
        n_bytes = np.array([len(p) for p in payloads], dtype=np.int64)
        w = 16 + n_bytes % 32
        h = 16 + n_bytes % 17
        rn = np.maximum(1, (n_bytes * self.tw * self.th) // (w * h))
        out_pl, out_w, out_h, out_n = [], [], [], []
        for i, p in enumerate(payloads):
            if not is_img[i]:
                out_pl.append(p)
                out_w.append(int(w[i]))
                out_h.append(int(h[i]))
                out_n.append(int(n_bytes[i]))
                continue
            seed = hashlib.md5(
                f"{refs[i]}:{self.tw}x{self.th}".encode()
            ).digest()
            k = int(rn[i])
            out_pl.append((seed * (k // len(seed) + 1))[:k])
            out_w.append(self.tw)
            out_h.append(self.th)
            out_n.append(k)
        out = batch.drop_columns(["payload"])
        out = out.append_column("payload", pa.array(out_pl, pa.binary()))
        out = out.append_column("width", pa.array(out_w, pa.int64()))
        out = out.append_column("height", pa.array(out_h, pa.int64()))
        return out.append_column("n_bytes", pa.array(out_n, pa.int64()))


def frame_sample(
    batch: pa.Table, *, stride: int = 4, max_frames: int = 8
) -> pa.Table:
    """Frame-sampling explode: each media row yields every ``stride``-th
    frame up to ``max_frames``, with ``n_frames = 1 + n_bytes % 24`` (the
    pseudo-container law; a real pipeline reads the container header).
    Output: one row per sampled frame with ``frame_idx`` and a derived
    ``frame_ref``.  Fully vectorized (repeat/cumsum explode + Arrow joins).
    """
    n = batch.num_rows
    if n == 0:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "span_idx": pa.array([], pa.int64()),
                "media_ref": pa.array([], pa.string()),
                "n_frames": pa.array([], pa.int64()),
                "frame_idx": pa.array([], pa.int64()),
                "frame_ref": pa.array([], pa.string()),
            }
        )
    # length from Arrow offsets only — never materialize the binary
    # payloads into Python (they are the heavy column)
    n_bytes = np.asarray(
        pc.binary_length(batch["payload"]).combine_chunks()
    ).astype(np.int64)
    n_frames = 1 + n_bytes % 24
    k = np.minimum((n_frames + stride - 1) // stride, max_frames)
    parent = np.repeat(np.arange(n), k)
    starts = np.concatenate([[0], np.cumsum(k)[:-1]])
    within = np.arange(int(k.sum())) - np.repeat(starts, k)
    fidx = within * stride
    pidx = pa.array(parent)
    refs = batch["media_ref"].combine_chunks().take(pidx)
    frame_ref = pc.binary_join_element_wise(
        refs, pa.array(fidx.astype("U"), pa.string()), "#"
    )
    return pa.table(
        {
            "doc_id": pc.cast(batch["doc_id"], pa.int64()).combine_chunks().take(pidx),
            "span_idx": pc.cast(batch["span_idx"], pa.int64()).combine_chunks().take(pidx),
            "media_ref": refs,
            "n_frames": pa.array(n_frames[parent]),
            "frame_idx": pa.array(fidx),
            "frame_ref": frame_ref,
        }
    )


def sql_media_resize(tw: int = 64, th: int = 64) -> str:
    """Oracle for the resize stage's scalar outputs (image rows get the
    target dims + pixel-ratio byte count; others keep the decode law)."""
    return f"""
WITH media AS ({_sql_media_rows()})
SELECT doc_id, span_idx, kind, media_ref, "offset",
       CASE WHEN kind = 'image' THEN {tw} ELSE width END AS width,
       CASE WHEN kind = 'image' THEN {th} ELSE height END AS height,
       CASE WHEN kind = 'image'
            THEN GREATEST(1, (n_bytes * {tw * th}) // (width * height))
            ELSE n_bytes END AS n_bytes
FROM media
"""


def sql_frame_sample(stride: int = 4, max_frames: int = 8) -> str:
    return f"""
WITH media AS ({_sql_media_rows()}),
fr AS (SELECT *, 1 + n_bytes % 24 AS n_frames FROM media)
SELECT doc_id, span_idx, media_ref, n_frames,
       (f.i * {stride})::BIGINT AS frame_idx,
       media_ref || '#' || (f.i * {stride}) AS frame_ref
FROM fr, (SELECT UNNEST(generate_series(0, {max_frames - 1})) AS i) f
WHERE f.i < LEAST((n_frames + {stride - 1}) // {stride}, {max_frames})
"""
