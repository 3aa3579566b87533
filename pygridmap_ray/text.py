"""Text analysis for large-scale training-data pipelines.

Language-ID (stopword/script heuristic), quality scoring, token counting,
and document fingerprinting — each as a vectorized Arrow ``map_batches``
stage over the ``documents`` table, with DuckDB twin SQL (both sides run
RE2, so regex counts agree exactly; md5 agrees byte-for-byte).

These are first-class engine operators (per the build brief), not
reference ports; the reference has no string functions (SURVEY.md §2.6).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from pygridmap_ray.cluster import (
    Broadcast,
    declare_schema,
    segment_apply,
    segment_pairs,
)

#: language -> stopword regex (RE2; identical string used in SQL twins)
LANG_PATTERNS: dict[str, str] = {
    "en": r"\b(the|and|of|to|in|is|you|that|it|for)\b",
    "de": r"\b(der|die|das|und|ist|nicht|ein|ich|mit|auf)\b",
    "fr": r"\b(le|la|les|et|est|une?|je|pas|pour|dans)\b",
    "es": r"\b(el|la|los|las|es|una?|yo|con|para|por)\b",
}
CJK_PATTERN = r"[\x{4e00}-\x{9fff}]"
TOKEN_PATTERN = r"\S+"
#: BPE-ish subword segmentation (GPT-2-family regex, lookahead-free so
#: RE2/DuckDB run it identically): contraction suffixes, space-prefixed
#: letter runs, digit runs, punctuation runs
BPE_PATTERN = r"'(?:[sdmt]|ll|ve|re)| ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+"
PUNCT_PATTERN = r"[.,;:!?]"
#: tie-break priority when stopword counts are equal (argmax order)
LANG_PRIORITY = ("en", "de", "fr", "es")


def token_count(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Whitespace token count, BPE-ish subword count (the LM-budget
    estimate), and utf8 length — all vectorized RE2."""
    t = batch[text_col]
    return (
        batch.append_column(
            "n_tokens",
            pc.cast(pc.count_substring_regex(t, TOKEN_PATTERN), pa.int64()),
        )
        .append_column(
            "bpe_tokens",
            pc.cast(pc.count_substring_regex(t, BPE_PATTERN), pa.int64()),
        )
        .append_column("len_chars", pc.cast(pc.utf8_length(t), pa.int64()))
    )


#: Flesch reading-ease component laws — regex-twinned, shared verbatim
#: with the DuckDB oracle.  Sentences are ``[.!?]+`` runs, syllables are
#: vowel-group runs (the classic approximation; the LAW is the twin, not
#: a linguistics claim).
FLESCH_SENT_PATTERN = r"[.!?]+"
FLESCH_VOWEL_PATTERN = r"[AEIOUYaeiouy]+"


def flesch_reading(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Flesch reading-ease per doc, fully vectorized (three RE2 count
    kernels + scalar arithmetic): words = ``\\S+`` runs, sentences /
    syllables per the module patterns, word and sentence counts floored
    at 1, ``flesch = 206.835 - 1.015 w/s - 84.6 syl/w``.  Callers filter
    null text (the twin does the same)."""
    t = batch[text_col]
    n_w = pc.cast(pc.count_substring_regex(t, TOKEN_PATTERN), pa.float64())
    n_s = pc.cast(
        pc.count_substring_regex(t, FLESCH_SENT_PATTERN), pa.float64()
    )
    n_y = pc.cast(
        pc.count_substring_regex(t, FLESCH_VOWEL_PATTERN), pa.float64()
    )
    w = pc.max_element_wise(n_w, pa.scalar(1.0))
    s = pc.max_element_wise(n_s, pa.scalar(1.0))
    score = pc.subtract(
        pc.subtract(
            pa.scalar(206.835),
            pc.multiply(pa.scalar(1.015), pc.divide(w, s)),
        ),
        pc.multiply(pa.scalar(84.6), pc.divide(n_y, w)),
    )
    out = batch
    for name, col in [
        ("n_words", pc.cast(n_w, pa.int64())),
        ("n_sents", pc.cast(n_s, pa.int64())),
        ("n_syllables", pc.cast(n_y, pa.int64())),
        ("flesch", score),
    ]:
        out = out.append_column(name, col)
    return out


def quality_score(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Heuristic quality features + one scalar score.

    score = min(1, n_tokens/50) * (1 - punct_ratio) * (1 - stop_excess)
    with stop_excess = max(0, stop_ratio - 0.6).  Deterministic, twinned
    in SQL (sql_quality_score)."""
    t = batch[text_col]
    n_tok = pc.cast(pc.count_substring_regex(t, TOKEN_PATTERN), pa.float64())
    n_chr = pc.cast(pc.utf8_length(t), pa.float64())
    n_punct = pc.cast(pc.count_substring_regex(t, PUNCT_PATTERN), pa.float64())
    n_stop = pc.cast(
        pc.count_substring_regex(t, LANG_PATTERNS["en"]), pa.float64()
    )
    denom_c = pc.max_element_wise(n_chr, pa.scalar(1.0))
    denom_t = pc.max_element_wise(n_tok, pa.scalar(1.0))
    punct_ratio = pc.divide(n_punct, denom_c)
    stop_ratio = pc.divide(n_stop, denom_t)
    stop_excess = pc.max_element_wise(
        pc.subtract(stop_ratio, pa.scalar(0.6)), pa.scalar(0.0)
    )
    score = pc.multiply(
        pc.multiply(
            pc.min_element_wise(pc.divide(n_tok, pa.scalar(50.0)), pa.scalar(1.0)),
            pc.subtract(pa.scalar(1.0), punct_ratio),
        ),
        pc.subtract(pa.scalar(1.0), stop_excess),
    )
    out = batch
    for name, col in [
        ("n_tokens", pc.cast(n_tok, pa.int64())),
        ("punct_ratio", punct_ratio),
        ("stop_ratio", stop_ratio),
        ("quality", score),
    ]:
        out = out.append_column(name, col)
    return out


#: PII redaction patterns (RE2, no lookarounds — DuckDB runs them
#: identically).  Applied in THIS order: emails first (their local parts
#: can contain digits/dots), then IPs, then dash-formed phone numbers
#: (dash vs dot keeps the two disjoint).
PII_PATTERNS: tuple[tuple[str, str, str], ...] = (
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("ip", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    ("phone", r"\b\d{3}-\d{3}-\d{4}\b", "<PHONE>"),
)


def pii_scrub(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Redact emails / IPv4s / phone numbers in place (vectorized RE2
    replace) and count each redaction kind per doc.  The standard
    pre-training privacy pass; patterns and order are shared with the
    DuckDB twin (:func:`sql_pii_scrub`)."""
    t = batch[text_col]
    counts = {}
    for name, pat, repl in PII_PATTERNS:
        counts[name] = pc.cast(pc.count_substring_regex(t, pat), pa.int64())
        t = pc.replace_substring_regex(t, pat, repl)
    i = batch.column_names.index(text_col)
    out = batch.set_column(i, text_col, t)
    for name, _, _ in PII_PATTERNS:
        out = out.append_column(f"n_{name}", counts[name])
    return out


def sql_pii_scrub(source: str = "documents", text: str = "text") -> str:
    """DuckDB twin of :func:`pii_scrub` — same patterns, same order."""
    scrubbed = text
    count_cols = []
    for name, pat, repl in PII_PATTERNS:
        count_cols.append(
            f"len(regexp_extract_all({scrubbed}, '{pat}'))::BIGINT AS n_{name}"
        )
        scrubbed = f"regexp_replace({scrubbed}, '{pat}', '{repl}', 'g')"
    others = f"* EXCLUDE ({text})"
    return (
        f"SELECT {others}, {scrubbed} AS {text}, {', '.join(count_cols)} "
        f"FROM {source}"
    )


def repetition_stats(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Gopher-style within-document repetition signals, vectorized:

    - ``top_bigram_frac``: occurrences of the most frequent word bigram
      over total bigram instances (0 when < 1 bigram),
    - ``dup_trigram_frac``: 1 - distinct/total word trigram instances.

    High values mark boilerplate / template documents that repetition
    filters drop before training.  Exact (no hashing): pandas hash
    tables compare full strings.
    """
    import pandas as pd

    t = batch[text_col]
    la = pc.split_pattern_regex(t, r"\s+")
    if isinstance(la, pa.ChunkedArray):
        la = la.combine_chunks()
    flat = la.flatten()
    lens = np.diff(la.offsets.to_numpy())
    rid_all = np.repeat(np.arange(len(la), dtype=np.int64), lens)
    keep = np.asarray(pc.fill_null(pc.not_equal(flat, ""), False))
    flat = flat.filter(pa.array(keep))
    rid = rid_all[keep]
    n = batch.num_rows

    def gram_stats(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """per-doc (total, distinct, max_count) of word k-grams."""
        m = len(flat) - (k - 1)
        total = np.zeros(n, dtype=np.int64)
        distinct = np.zeros(n, dtype=np.int64)
        top = np.zeros(n, dtype=np.int64)
        if m <= 0:
            return total, distinct, top
        shifted = [flat.slice(j, m) for j in range(k)]
        grams = pc.binary_join_element_wise(*shifted, " ")
        same = rid[:m] == rid[k - 1 :]
        grams = grams.filter(pa.array(same))
        grid = rid[:m][same]
        if len(grid) == 0:
            return total, distinct, top
        df = pd.DataFrame({"rid": grid, "g": np.asarray(grams).astype(object)})
        counts = df.groupby(["rid", "g"], sort=False).size()
        per_doc = counts.groupby(level=0)
        agg = per_doc.agg(["sum", "size", "max"])
        idx = agg.index.to_numpy()
        total[idx] = agg["sum"].to_numpy()
        distinct[idx] = agg["size"].to_numpy()
        top[idx] = agg["max"].to_numpy()
        return total, distinct, top

    tot2, _, top2 = gram_stats(2)
    tot3, dis3, _ = gram_stats(3)
    with np.errstate(invalid="ignore", divide="ignore"):
        top_bigram_frac = np.where(tot2 > 0, top2 / np.maximum(tot2, 1), 0.0)
        dup_trigram_frac = np.where(
            tot3 > 0, 1.0 - dis3 / np.maximum(tot3, 1), 0.0
        )
    return batch.append_column(
        "top_bigram_frac", pa.array(top_bigram_frac)
    ).append_column("dup_trigram_frac", pa.array(dup_trigram_frac))


def sql_repetition_stats(source: str = "documents", text: str = "text") -> str:
    """DuckDB twin of :func:`repetition_stats` — same tokenizer, same
    join separator, same 0-for-empty convention."""

    def tok_cte(alias: str) -> str:
        return (
            f"{alias} AS (SELECT doc_id, tok, ROW_NUMBER() OVER "
            f"(PARTITION BY doc_id ORDER BY i) AS j FROM ("
            f"SELECT doc_id, unnest(regexp_split_to_array({text}, '\\s+')) AS tok, "
            f"generate_subscripts(regexp_split_to_array({text}, '\\s+'), 1) AS i "
            f"FROM {source}) WHERE tok <> '')"
        )

    return f"""
WITH {tok_cte('tk')},
g2 AS (
  SELECT t0.doc_id, t0.tok || ' ' || t1.tok AS g
  FROM tk t0 JOIN tk t1 ON t1.doc_id = t0.doc_id AND t1.j = t0.j + 1
),
g3 AS (
  SELECT t0.doc_id, t0.tok || ' ' || t1.tok || ' ' || t2.tok AS g
  FROM tk t0 JOIN tk t1 ON t1.doc_id = t0.doc_id AND t1.j = t0.j + 1
             JOIN tk t2 ON t2.doc_id = t0.doc_id AND t2.j = t0.j + 2
),
s2 AS (
  SELECT doc_id, MAX(c)::DOUBLE / SUM(c) AS top_bigram_frac
  FROM (SELECT doc_id, g, COUNT(*) AS c FROM g2 GROUP BY doc_id, g)
  GROUP BY doc_id
),
s3 AS (
  SELECT doc_id, 1.0 - COUNT(DISTINCT g)::DOUBLE / COUNT(*) AS dup_trigram_frac
  FROM g3 GROUP BY doc_id
)
SELECT d.*, COALESCE(s2.top_bigram_frac, 0.0) AS top_bigram_frac,
       COALESCE(s3.dup_trigram_frac, 0.0) AS dup_trigram_frac
FROM {source} d
LEFT JOIN s2 USING (doc_id) LEFT JOIN s3 USING (doc_id)
"""


def sql_quality_score(source: str = "documents", text: str = "text") -> str:
    n_tok = f"len(regexp_extract_all({text}, '\\S+'))"
    n_chr = f"length({text})"
    # NOTE: DuckDB string literals do NOT treat backslash as an escape, so
    # RE2 patterns are embedded verbatim
    n_punct = f"len(regexp_extract_all({text}, '[.,;:!?]'))"
    n_stop = f"len(regexp_extract_all({text}, '{LANG_PATTERNS['en']}'))"
    punct_ratio = f"({n_punct}::DOUBLE / GREATEST({n_chr}, 1))"
    stop_ratio = f"({n_stop}::DOUBLE / GREATEST({n_tok}, 1))"
    stop_excess = f"GREATEST({stop_ratio} - 0.6, 0.0)"
    score = (
        f"(LEAST({n_tok} / 50.0, 1.0) * (1.0 - {punct_ratio}) * (1.0 - {stop_excess}))"
    )
    return (
        f"SELECT *, {n_tok}::BIGINT AS n_tokens, {punct_ratio} AS punct_ratio, "
        f"{stop_ratio} AS stop_ratio, {score} AS quality FROM {source}"
    )


def lang_id(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Stopword/script language heuristic over {en, de, fr, es, zh}.

    zh wins when any CJK codepoint is present; otherwise argmax of
    stopword-pattern hits with fixed priority en>de>fr>es on ties (the SQL
    twin encodes the identical CASE chain)."""
    t = batch[text_col]
    null_mask = np.asarray(pc.is_null(t).combine_chunks())
    cjk = np.asarray(pc.count_substring_regex(t, CJK_PATTERN), dtype=np.float64)
    counts = np.stack(
        [
            np.asarray(
                pc.count_substring_regex(t, LANG_PATTERNS[lang]), dtype=np.float64
            )
            for lang in LANG_PRIORITY
        ]
    )
    # argmax with first-wins priority = np.argmax on the stacked array
    best = np.argmax(np.nan_to_num(counts, nan=0.0), axis=0)
    langs = np.array(LANG_PRIORITY, dtype=object)[best]
    pred = np.where(cjk > 0, "zh", langs)
    # null text -> null prediction (matching the SQL twin's NULL guard;
    # previously fabricated 'en' while the CASE chain fell through to 'es')
    return batch.append_column(
        "lang_pred", pa.array(pred.astype(object), mask=null_mask)
    )


def sql_lang_id(source: str = "documents", text: str = "text") -> str:
    def cnt(lang):
        return f"len(regexp_extract_all({text}, '{LANG_PATTERNS[lang]}'))"

    cjk = f"len(regexp_extract_all({text}, '{CJK_PATTERN}'))"
    c = {lang: cnt(lang) for lang in LANG_PRIORITY}
    case = (
        f"CASE WHEN {text} IS NULL THEN NULL "
        f"WHEN {cjk} > 0 THEN 'zh' "
        f"WHEN {c['en']} >= {c['de']} AND {c['en']} >= {c['fr']} AND {c['en']} >= {c['es']} THEN 'en' "
        f"WHEN {c['de']} >= {c['fr']} AND {c['de']} >= {c['es']} THEN 'de' "
        f"WHEN {c['fr']} >= {c['es']} THEN 'fr' ELSE 'es' END"
    )
    return f"SELECT *, {case} AS lang_pred FROM {source}"


# ---------------------------------------------------------------------------
# Vectorized MD5 (single-block messages) — RFC 1321 in numpy
# ---------------------------------------------------------------------------
# THE content-stable hash law of the engine is md5 (the DuckDB twins are
# md5(...)), so every split/sample/shuffle/mixture/HLL stage pays an md5
# per row.  Keys at those sites are short strings (stringified ids), i.e.
# single 512-bit MD5 blocks — which vectorizes: the padded messages land
# in one (16, n) uint32 matrix and the 64 rounds run as numpy ops over
# all rows at once.  No per-row Python anywhere; ~4x over the old
# per-row hashlib loop on a 1M-row microbench (BASELINE.md).

_MD5_K = np.array(
    [int(abs(np.sin(i + 1)) * 2**32) & 0xFFFFFFFF for i in range(64)],
    dtype=np.uint32,
)
_MD5_S = [7, 12, 17, 22] * 4 + [5, 9, 14, 20] * 4 + [4, 11, 16, 23] * 4 \
    + [6, 10, 15, 21] * 4
_MD5_G = (
    list(range(16))
    + [(5 * i + 1) % 16 for i in range(16, 32)]
    + [(3 * i + 5) % 16 for i in range(32, 48)]
    + [(7 * i) % 16 for i in range(48, 64)]
)
_U64_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)
_MD5_VEC_CHUNK = 1 << 16  # measured knee: rounds working set stays in L2


def _md5_pad_single_block(sl: pa.Array) -> np.ndarray:
    """(16, n) uint32 padded single-block MD5 messages from a non-null
    string/binary Arrow array whose rows are all <= 55 bytes.  Bytes are
    moved with ONE uint64 gather per 8-byte word (sliding-window view of
    the value buffer), never a per-byte scatter."""
    n = len(sl)
    off = np.frombuffer(
        sl.buffers()[1], np.int32, n + 1, offset=4 * sl.offset
    ).astype(np.int64)
    nd = int(off[-1])
    data = np.frombuffer(sl.buffers()[2], np.uint8, nd)
    lens = np.diff(off)
    maxlen = int(lens.max()) if n else 0
    dpad = np.zeros(nd + 64, np.uint8)
    dpad[:nd] = data
    sw = np.lib.stride_tricks.sliding_window_view(dpad, 8)
    X = np.zeros((16, n), np.uint32)
    for wi in range(maxlen // 8 + 1):
        w = sw[off[:-1] + wi * 8].copy().view("<u8").ravel().astype(np.uint64)
        rem = lens - wi * 8  # row bytes still unplaced at this word
        rc = np.clip(rem, 0, 8).astype(np.uint64)
        mask = np.where(
            rc >= 8,
            _U64_FULL,
            (np.uint64(1) << np.minimum(rc * np.uint64(8), np.uint64(63)))
            - np.uint64(1),
        )
        w &= mask
        # the 0x80 terminator lands right after the last payload byte
        w |= np.where(
            (rem >= 0) & (rem < 8),
            np.uint64(0x80) << (rc * np.uint64(8)),
            np.uint64(0),
        )
        X[2 * wi] = (w & np.uint64(0xFFFFFFFF)).astype(np.uint32)
        X[2 * wi + 1] = (w >> np.uint64(32)).astype(np.uint32)
    bl = lens.astype(np.uint64) * 8
    X[14] = (bl & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    X[15] = (bl >> np.uint64(32)).astype(np.uint32)
    return X


def _md5_rounds(XT: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """RFC 1321 rounds over n single-block messages at once; returns the
    (A, B) state words (= first 8 digest bytes).  In-place ufuncs with a
    rotating buffer set — zero allocations inside the 64-step loop."""
    n = XT.shape[1]
    a = np.full(n, 0x67452301, np.uint32)
    b = np.full(n, 0xEFCDAB89, np.uint32)
    c = np.full(n, 0x98BADCFE, np.uint32)
    d = np.full(n, 0x10325476, np.uint32)
    A0, B0 = a.copy(), b.copy()
    f = np.empty(n, np.uint32)
    t = np.empty(n, np.uint32)
    spare = np.empty(n, np.uint32)
    for i in range(64):
        if i < 16:  # (b&c)|(~b&d) == d ^ (b & (c^d))
            np.bitwise_xor(c, d, out=f)
            f &= b
            f ^= d
        elif i < 32:  # (d&b)|(~d&c) == c ^ (d & (b^c))
            np.bitwise_xor(b, c, out=f)
            f &= d
            f ^= c
        elif i < 48:
            np.bitwise_xor(b, c, out=f)
            f ^= d
        else:
            np.bitwise_not(d, out=f)
            f |= b
            f ^= c
        f += a
        f += _MD5_K[i]
        f += XT[_MD5_G[i]]
        s = _MD5_S[i]
        np.left_shift(f, np.uint32(s), out=t)
        np.right_shift(f, np.uint32(32 - s), out=f)
        f |= t
        f += b
        a, d, c, b, f, spare = d, c, b, f, spare, a
    A0 += a
    B0 += b
    return A0, B0


def md5_prefix_int(keys, *, salt: str = "", hexdigits: int = 15) -> np.ndarray:
    """uint64 value of the first ``hexdigits`` (<= 16) hex chars of
    ``md5(key + salt)`` for every key — THE content-stable hash law
    shared by split/sample/shuffle/mixture/HLL (DuckDB twin:
    ``('0x' || substr(md5(k || salt), 1, N))::UBIGINT``).

    ``keys`` is a list of str OR a pyarrow string array (non-null).
    Short keys (the id-string case — every hash-law call site) take the
    vectorized single-block path; any batch containing a key longer than
    55 bytes after salting falls back to a per-row C md5 loop, same law.
    """
    if hexdigits < 1 or hexdigits > 16:
        raise ValueError("hexdigits must be in [1, 16]")
    shift = np.uint64((16 - hexdigits) * 4)
    if not isinstance(keys, (pa.Array, pa.ChunkedArray)):
        keys = pa.array(keys, pa.string())
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    if keys.null_count:
        raise ValueError("md5_prefix_int keys must be non-null")
    if salt:
        keys = pc.binary_join_element_wise(keys, salt, "")
    if pa.types.is_large_string(keys.type) or pa.types.is_large_binary(
        keys.type
    ):
        keys = keys.cast(pa.string())
    n = len(keys)
    out = np.empty(n, np.uint64)
    lo = 0
    while lo < n:
        sl = keys.slice(lo, _MD5_VEC_CHUNK)
        m = len(sl)
        offs = np.frombuffer(
            sl.buffers()[1], np.int32, m + 1, offset=4 * sl.offset
        )
        if m and int(np.diff(offs).max()) > 55:
            md5 = hashlib.md5
            out[lo : lo + m] = np.fromiter(
                (
                    int.from_bytes(md5(k).digest()[:8], "big")
                    for k in sl.cast(pa.binary()).to_pylist()
                ),
                dtype=np.uint64,
                count=m,
            )
        else:
            A, B = _md5_rounds(_md5_pad_single_block(sl))
            out[lo : lo + m] = (
                A.byteswap().astype(np.uint64) << np.uint64(32)
            ) | B.byteswap()
        lo += m
    return out >> shift


def md5_hash64(tokens, hexdigits: int = 16) -> np.ndarray:
    """64-bit-ish token hashes: integer value of the first ``hexdigits``
    hex chars of md5 (DuckDB twin: ``('0x'||substr(md5(t),1,N))::UBIGINT``,
    verified bit-identical).  Hashes each UNIQUE token once, then scatters
    through the inverse index — the vocabulary is orders of magnitude
    smaller than the token stream, so the Python md5 loop runs per unique
    token, not per occurrence."""
    import pandas as pd

    toks = np.asarray(tokens, dtype=object)
    if len(toks) == 0:
        return np.empty(0, dtype=np.uint64)
    # hash-based factorize (no sort) — ~20x faster than np.unique here
    inv, uniq = pd.factorize(toks)
    uh = md5_prefix_int(list(uniq), hexdigits=hexdigits)
    return uh[inv]


def _flatten_token_lists(tok_lists: list[list[str]]) -> tuple[np.ndarray, np.ndarray]:
    """(flat object array of all tokens, per-doc lengths)."""
    lengths = np.fromiter(
        (len(t) for t in tok_lists), dtype=np.int64, count=len(tok_lists)
    )
    flat = np.empty(int(lengths.sum()), dtype=object)
    k = 0
    for lst in tok_lists:
        flat[k : k + len(lst)] = lst
        k += len(lst)
    return flat, lengths


def md5_list(texts: list) -> list:
    """md5 hex per value; None propagates (SQL md5(NULL) IS NULL) — the
    one definition shared by fingerprinting and exact dedup."""
    return [
        None if s is None else hashlib.md5(s.encode("utf-8")).hexdigest()
        for s in texts
    ]


def md5_fingerprint(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Content fingerprint via md5 (DuckDB-identical).  At 100TB scale a
    cheaper 64-bit hash would do; md5 keeps the oracle exact."""
    fp = md5_list(batch[text_col].to_pylist())
    return batch.append_column("fingerprint", pa.array(fp, pa.string()))


def rolling_fingerprint(
    batch: pa.Table, text_col: str = "text", window: int = 8
) -> pa.Table:
    """Winnowing-style document sketch: min of rolling polynomial hashes
    over token windows (no SQL twin — rows-only check).

    Hash family: polynomial fold in uint64 WRAPPING arithmetic (the
    product wraps mod 2^64 before the final % — deterministic, but NOT
    the textbook Mersenne-prime field; the SQL twin
    :func:`sql_rolling_fingerprint` reproduces the wrap via HUGEINT
    ``% 2^64``).

    Fully vectorized: one md5 per UNIQUE token in the batch, then the
    8-step polynomial fold runs ONCE over the concatenated token stream
    with windows that cross a document boundary masked out."""
    import re

    tok_re = re.compile(TOKEN_PATTERN)
    out = np.zeros(batch.num_rows, dtype=np.uint64)
    mod = np.uint64((1 << 61) - 1)
    base = np.uint64(1000003)
    tok_lists = [tok_re.findall(s or "") for s in batch[text_col].to_pylist()]
    flat, lengths = _flatten_token_lists(tok_lists)
    if len(flat) == 0:
        return batch.append_column("rolling_fp", pa.array(out.astype(np.int64)))
    h = md5_hash64(flat, hexdigits=15)
    bounds = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=bounds[1:])
    doc_of = np.repeat(np.arange(len(lengths)), lengths)
    # short docs (0 < n_tokens < window): min token hash
    short = (lengths > 0) & (lengths < window)
    if short.any():
        mins = np.full(len(lengths), np.iinfo(np.uint64).max, dtype=np.uint64)
        sel = short[doc_of]
        np.minimum.at(mins, doc_of[sel], h[sel])
        out[short] = mins[short]
    # long docs: rolling fold over the whole stream, invalid (boundary-
    # crossing) windows masked to maxint before the per-doc min
    if len(h) >= window:
        acc = np.zeros(len(h) - window + 1, dtype=np.uint64)
        for j in range(window):
            acc = (acc * base + h[j : j + len(acc)]) % mod
        valid = doc_of[: len(acc)] == doc_of[window - 1 :]
        if valid.any():
            mins = np.full(len(lengths), np.iinfo(np.uint64).max, dtype=np.uint64)
            np.minimum.at(mins, doc_of[: len(acc)][valid], acc[valid])
            long_docs = lengths >= window
            out[long_docs] = mins[long_docs]
    return batch.append_column("rolling_fp", pa.array(out.astype(np.int64)))


def sql_rolling_fingerprint(
    source: str = "documents", text: str = "text", window: int = 8
) -> str:
    """DuckDB twin of :func:`rolling_fingerprint` — the 8-step wrapping
    polynomial fold as a generated nested expression in HUGEINT
    arithmetic (``% 2^64`` reproduces numpy's uint64 wrap exactly; the
    md5-prefix token hash family is shared via ``md5_hash64``)."""
    wrap = str(1 << 64)
    mod = str((1 << 61) - 1)
    acc = "0::HUGEINT"
    for j in range(window):
        acc = f"((({acc}) * 1000003 + h[p+{j}]::HUGEINT) % {wrap}) % {mod}"
    return f"""
WITH th AS (
  SELECT doc_id,
         [('0x' || substr(md5(t), 1, 15))::UBIGINT for t in regexp_extract_all({text}, '\\S+')] AS h
  FROM {source}
),
long_fp AS (
  SELECT doc_id, MIN({acc})::BIGINT AS fp
  FROM th, UNNEST(generate_series(1, len(h) - {window - 1})) AS u(p)
  GROUP BY doc_id
)
SELECT th.doc_id,
       CASE WHEN th.h IS NULL OR len(th.h) = 0 THEN 0
            WHEN len(th.h) < {window} THEN list_min(th.h)::BIGINT
            ELSE l.fp END AS rolling_fp
FROM th LEFT JOIN long_fp l USING (doc_id)
"""


def ngram_counts_partial(
    batch: pa.Table, *, n: int = 2, text_col: str = "text"
) -> pa.Table:
    """Per-batch partial n-gram counts (the combiner half of
    :func:`top_ngrams`): whitespace tokens (same \\S+ law as
    ``token_count``), n-grams joined with single spaces WITHIN each doc,
    counted once per batch with ``pc.value_counts`` so the global
    groupby shuffles (ngram, partial_count) rows, never raw text."""
    la = pc.split_pattern_regex(batch[text_col], r"\s+")
    if isinstance(la, pa.ChunkedArray):
        la = la.combine_chunks()
    flat = la.flatten()  # null lists contribute nothing
    lens = np.diff(la.offsets.to_numpy())
    row_ids = np.repeat(np.arange(len(la), dtype=np.int64), lens)
    # tokens are never null (null TEXT yields a null list, flattened away);
    # fill_null guards the comparison anyway
    keep = np.asarray(pc.fill_null(pc.not_equal(flat, ""), False))
    flat = flat.filter(pa.array(keep))
    rid = row_ids[keep]
    m = len(flat) - (n - 1)
    if m <= 0:
        return pa.table(
            {"ngram": pa.array([], pa.string()), "cnt": pa.array([], pa.int64())}
        )
    shifted = [flat.slice(j, m) for j in range(n)]
    grams = (
        shifted[0]
        if n == 1
        else pc.binary_join_element_wise(*shifted, " ")
    )
    same_doc = rid[: m] == rid[n - 1 :]
    grams = grams.filter(pa.array(same_doc))
    vc = pc.value_counts(grams)
    return pa.table(
        {
            "ngram": vc.field("values"),
            "cnt": pc.cast(vc.field("counts"), pa.int64()),
        }
    )


def ngram_diversity(
    ds,
    *,
    n: int = 2,
    text_col: str = "text",
    group_col: str = "source",
    round_to: int = 6,
    num_buckets: int | None = None,
):
    """Per-group n-gram diversity (type-token ratio): one row per group
    with the TOTAL word n-gram count, the DISTINCT n-gram count, and
    ``ttr = round(n_distinct / n_grams)`` — the cheap mode-collapse /
    boilerplate diagnostic of a corpus slice.

    Scale shape: totals are a pure combiner (per-batch counts ->
    bounded-group sum); distincts shuffle only per-batch-distinct
    (group, gram-hash) pairs on ONE coarse gram-hash bucket (every
    copy of a pair shares a bucket, so per-bucket dedup is global),
    fold to per-(group, bucket) partial counts, and sum over the
    BOUNDED group domain.  Gram identity is the 61-bit polynomial
    hash family (collisions ~2^-61, the engine-wide convention)."""
    import pandas as pd
    import ray.data as rd
    from ray.data.aggregate import Sum

    from .dedup import _shingle_hashes

    def totals(b: pa.Table) -> pa.Table:
        # raw window MULTISET count is pure arithmetic on token counts:
        # ntok - min(n, ntok) + 1 windows per doc with >= 1 token
        # (shingle hashes are per-doc DISTINCT, so they can't count it)
        src = np.asarray(
            pc.cast(b[group_col], pa.string())
        ).astype(object)
        ntok = np.asarray(
            pc.count_substring_regex(
                pc.fill_null(pc.cast(b[text_col], pa.string()), ""),
                r"\S+",
            ),
            np.int64,
        )
        cnt = np.where(ntok > 0, ntok - np.minimum(n, ntok) + 1, 0)
        u, inv = np.unique(src, return_inverse=True)
        tot = np.bincount(inv, weights=cnt, minlength=len(u))
        return pa.table(
            {
                group_col: pa.array(u, pa.string()),
                "n_grams": pa.array(tot.astype(np.int64)),
            }
        )

    tot = (
        ds.select_columns([group_col, text_col])
        .map_batches(totals, batch_format="pyarrow")
        .groupby(group_col)
        .aggregate(Sum("n_grams", alias_name="n_grams"))
        .to_pandas()
    )

    def distinct_pairs(b: pa.Table) -> pa.Table:
        src = np.asarray(
            pc.cast(b[group_col], pa.string())
        ).astype(object)
        texts = b[text_col].to_pylist()
        gs, ss = [], []
        for sv, t in zip(src, texts):
            h = np.unique(_shingle_hashes(t, n).astype(np.int64))
            gs.append(h)
            ss.append(np.full(len(h), sv, dtype=object))
        if not gs:
            return pa.table(
                {
                    group_col: pa.array([], pa.string()),
                    "g": pa.array([], pa.int64()),
                }
            )
        g = np.concatenate(gs)
        sv = np.concatenate(ss)
        df = pd.DataFrame({group_col: sv, "g": g}).drop_duplicates()
        return pa.table(
            {
                group_col: pa.array(
                    df[group_col].to_numpy(object), pa.string()
                ),
                "g": pa.array(df["g"].to_numpy(np.int64)),
            }
        )

    def bucket_count(t: pa.Table, starts: np.ndarray) -> dict:
        # distinct (gram, group): sorted, so copies are adjacent
        src = np.asarray(t[group_col], dtype=object)
        keep = np.append(True, src[1:] != src[:-1])
        keep[starts] = True
        vc = pd.Series(src[keep]).value_counts()
        return {
            group_col: vc.index.to_numpy(object),
            "n_distinct": vc.to_numpy(np.int64),
        }

    dis = (
        segment_apply(
            ds.select_columns([group_col, text_col]).map_batches(
                distinct_pairs, batch_format="pyarrow"
            ),
            "g",
            bucket_count,
            pa.schema([(group_col, pa.string()), ("n_distinct", pa.int64())]),
            order=(group_col,),
            num_buckets=num_buckets,
        )
        .groupby(group_col)
        .aggregate(Sum("n_distinct", alias_name="n_distinct"))
        .to_pandas()
    )
    out = tot.merge(dis, on=group_col, how="left")
    out = out[out["n_grams"] > 0].reset_index(drop=True)  # twin's law:
    # a group whose every doc is gram-less has no rows to aggregate
    out["n_distinct"] = out["n_distinct"].fillna(0).astype(np.int64)
    out["n_grams"] = out["n_grams"].astype(np.int64)
    tol = 10.0 ** round_to
    r = out["n_distinct"].to_numpy(np.float64) / np.maximum(
        out["n_grams"].to_numpy(np.float64), 1.0
    )
    out["ttr"] = np.floor(r * tol + 0.5) / tol
    return rd.from_pandas(out)


def sql_ngram_diversity(
    *,
    n: int = 2,
    source: str = "documents",
    text: str = "text",
    group: str = "source",
) -> str:
    """DuckDB twin of :func:`ngram_diversity` over gram STRINGS (equal
    iff the polynomial hashes are, absent 2^-61 collisions).  RAW gram
    multiset for the totals, DISTINCT per group for the types."""
    return f"""
WITH toks AS (
  SELECT {group} AS grp, t, LEAST({n}, len(t)) AS m
  FROM (SELECT {group}, regexp_extract_all({text}, '\S+') AS t
        FROM {source})
),
g AS (
  SELECT grp, unnest(
    [array_to_string(list_slice(t, p, p + m - 1), chr(31))
     for p in generate_series(1, len(t) - m + 1)]) AS gram
  FROM toks WHERE len(t) > 0
)
SELECT grp AS {group}, COUNT(*)::BIGINT AS n_grams,
  COUNT(DISTINCT gram)::BIGINT AS n_distinct,
  ROUND((COUNT(DISTINCT gram) * 1.0
         / GREATEST(COUNT(*), 1)) * 1e6) / 1e6 AS ttr
FROM g GROUP BY grp
"""


def _winnow_select(ids, tok_lists, ntok, keep, n: int, w: int):
    """Shared winnowing core: per-doc word-n-gram hashes + the
    rightmost-minimum window selection.  Returns ``(L, gdoc, sel, hv)``
    — gram counts per doc, gram->doc index, the selected (distinct)
    gram positions, and the gram hash vector — exactly the law of
    :func:`winnow_fingerprints` (its per-batch body before this
    extraction; the counts op and :func:`winnow_dup_pairs` both build
    on it)."""
    import itertools

    flat_toks = list(itertools.chain.from_iterable(tok_lists))
    toks_arr = pa.array(flat_toks, pa.string())
    doc_tok0 = np.concatenate(([0], np.cumsum(ntok)))[:-1]
    m_doc = np.minimum(n, ntok)
    L = np.where(keep, ntok - m_doc + 1, 0)
    total_g = int(L.sum())
    # gram strings: overlapping windows -> ragged index take
    gdoc = np.repeat(np.arange(len(ids)), L)
    gstart0 = np.concatenate(([0], np.cumsum(L)))[:-1]
    gpos = np.arange(total_g, dtype=np.int64) - gstart0[gdoc]
    mg = m_doc[gdoc]
    tok_first = doc_tok0[gdoc] + gpos
    total_m = int(mg.sum())
    mstart = np.concatenate(([0], np.cumsum(mg)))[:-1]
    off_in_g = np.arange(total_m, dtype=np.int64) - np.repeat(
        mstart, mg
    )
    flat_idx = np.repeat(tok_first, mg) + off_in_g
    vals = toks_arr.take(pa.array(flat_idx))
    offsets = pa.array(
        np.concatenate(([0], np.cumsum(mg))), pa.int64()
    )
    grams = pc.cast(
        pc.binary_join(
            pa.LargeListArray.from_arrays(offsets, vals),
            pa.scalar("\x1f"),
        ),
        pa.string(),
    )
    hv = md5_prefix_int(grams, hexdigits=15).astype(np.int64)
    # windows: starts s in [0, max(L - w, 0)]; size min(w, L)
    n_win = np.where(L > 0, np.maximum(L - w, 0) + 1, 0)
    total_w = int(n_win.sum())
    wdoc = np.repeat(np.arange(len(ids)), n_win)
    wstart0 = np.concatenate(([0], np.cumsum(n_win)))[:-1]
    ws_local = np.arange(total_w, dtype=np.int64) - wstart0[wdoc]
    wsize = np.minimum(w, L)[wdoc]
    member_first = gstart0[wdoc] + ws_local
    total_mem = int(wsize.sum())
    memstart = np.concatenate(([0], np.cumsum(wsize)))[:-1]
    off_in_w = np.arange(total_mem, dtype=np.int64) - np.repeat(
        memstart, wsize
    )
    member = np.repeat(member_first, wsize) + off_in_w
    wid = np.repeat(np.arange(total_w, dtype=np.int64), wsize)
    # rightmost minimum per window: (wid, hv asc, position desc)
    order = np.lexsort((-member, hv[member], wid))
    wid_s = wid[order]
    firsts = np.flatnonzero(
        np.concatenate([[True], wid_s[1:] != wid_s[:-1]])
    )
    sel = np.unique(member[order][firsts])  # distinct (doc, p, hv)
    return L, gdoc, sel, hv


def winnow_fingerprints(
    ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    n: int = 3,
    window: int = 4,
    round_to: int = 6,
):
    """Winnowing document fingerprints (Schleimer, Wilkerson & Aiken,
    SIGMOD 2003 — the MOSS algorithm): slide a ``window`` over the
    word-``n``-gram hash sequence and select each window's minimum
    (RIGHTMOST on ties); the distinct selected positions are the doc's
    fingerprints, guaranteeing any shared substring of at least
    ``window + n - 1`` tokens shares a fingerprint.  Emits per doc
    ``(id_col, n_grams, n_fp, density)`` with density = round(n_fp /
    n_grams); docs shorter than the window winnow their single
    truncated window; token-less docs drop (the twin's law).

    Scale shape: embarrassingly parallel — ONE stateless map pass, no
    shuffle at all.  Inside a batch everything after the per-doc
    regex tokenization is vectorized: gram STRINGS build from one
    Arrow take + list binary_join over the flat token stream (the
    ``dedup_lines`` explode trick, overlap via index ragging), hashes
    are the vectorized single-block md5 law (``md5_prefix_int`` — the
    SQL-shared identity), and the window minima fall out of one
    lexsort over (window-id, hash, -position)."""
    from .dedup import TOKEN_RE

    w = int(window)
    tol = 10.0 ** round_to

    def per_batch(b: pa.Table) -> pa.Table:
        ids = np.asarray(b[id_col], np.int64)
        texts = b[text_col].to_pylist()
        tok_lists = [TOKEN_RE.findall(t or "") for t in texts]
        ntok = np.fromiter(
            (len(t) for t in tok_lists), dtype=np.int64,
            count=len(tok_lists),
        )
        keep = ntok > 0
        empty = pa.table(
            {
                id_col: pa.array([], pa.int64()),
                "n_grams": pa.array([], pa.int64()),
                "n_fp": pa.array([], pa.int64()),
                "density": pa.array([], pa.float64()),
            }
        )
        if not keep.any():
            return empty
        L, gdoc, sel, hv = _winnow_select(ids, tok_lists, ntok, keep, n, w)
        n_fp = np.bincount(gdoc[sel], minlength=len(ids)).astype(
            np.int64
        )
        dens = np.floor(
            n_fp / np.maximum(L, 1) * tol + 0.5
        ) / tol  # density >= 0
        return pa.table(
            {
                id_col: pa.array(ids[keep]),
                "n_grams": pa.array(L[keep]),
                "n_fp": pa.array(n_fp[keep]),
                "density": pa.array(dens[keep]),
            }
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        per_batch, batch_format="pyarrow"
    )


def _sql_winnow_ctes(
    *,
    n: int = 3,
    window: int = 4,
    source: str = "documents",
    text: str = "text",
) -> str:
    """Shared winnowing CTE chain (``WITH toks ... fp``) — the selection
    law both :func:`sql_winnow_fingerprints` and
    :func:`sql_winnow_dup_pairs` append their final SELECT to (the
    `_sql_media_rows` sharing pattern, so the two oracles cannot
    drift)."""
    w = int(window)
    return f"""
WITH toks AS (
  SELECT doc_id, t, LEAST({n}, len(t)) AS m
  FROM (SELECT doc_id, regexp_extract_all({text}, '\S+') AS t
        FROM {source})
  WHERE len(t) > 0
),
h0 AS (
  SELECT doc_id,
    unnest([{{'p': p - 1,
             'g': array_to_string(list_slice(t, p, p + m - 1), chr(31))}}
            for p in generate_series(1, len(t) - m + 1)]) AS u
  FROM toks
),
h AS (
  SELECT doc_id, u.p AS p,
    ('0x' || substr(md5(u.g), 1, 15))::BIGINT AS hv
  FROM h0
),
win AS (SELECT doc_id, len(t) - m + 1 AS L FROM toks),
ws AS (
  SELECT doc_id, unnest([s for s in
          generate_series(0, GREATEST(L - {w}, 0))]) AS s
  FROM win
),
sel AS (
  SELECT ws.doc_id, ws.s, h.p, h.hv,
    ROW_NUMBER() OVER (PARTITION BY ws.doc_id, ws.s
                       ORDER BY h.hv ASC, h.p DESC) AS rn
  FROM ws JOIN h ON h.doc_id = ws.doc_id
   AND h.p >= ws.s AND h.p < ws.s + {w}
),
fp AS (SELECT DISTINCT doc_id, p, hv FROM sel WHERE rn = 1)"""


def sql_winnow_fingerprints(
    *,
    n: int = 3,
    window: int = 4,
    source: str = "documents",
    text: str = "text",
) -> str:
    """DuckDB twin of :func:`winnow_fingerprints` over gram STRINGS
    hashed with the shared md5-prefix law (identical selection,
    absent 2^-60 collisions)."""
    ctes = _sql_winnow_ctes(n=n, window=window, source=source, text=text)
    return f"""{ctes}
SELECT f.doc_id, ANY_VALUE(w.L)::BIGINT AS n_grams,
  COUNT(*)::BIGINT AS n_fp,
  ROUND((COUNT(*) * 1.0 / ANY_VALUE(w.L)) * 1e6) / 1e6 AS density
FROM fp f JOIN win w ON w.doc_id = f.doc_id
GROUP BY f.doc_id
"""


def winnow_dup_pairs(
    ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    n: int = 3,
    window: int = 4,
    min_shared: int = 2,
):
    """MOSS-style shared-substring pairs: document pairs sharing at
    least ``min_shared`` distinct winnowing fingerprint HASHES — by the
    winnowing guarantee, each shared fingerprint witnesses a shared
    token run of at least ``window + n - 1`` words, so this is the
    plagiarism/boilerplate pair report built on
    :func:`winnow_fingerprints`'s exact selection law.  Emits
    (id_a, id_b, n_shared) with id_a < id_b, ordered.

    Scale shape: the fingerprint pass is the same zero-shuffle map as
    the counts op; (hash, doc) rows then reduce through ONE coarse
    hash-bucket groupby where each fingerprint's (bounded) doc group
    emits its pairs vectorized, and pair counts fold via the
    packed-key coarse sum — never a fine groupby over pair keys.
    Boilerplate fingerprints shared by m docs cost O(m^2) pairs, the
    same documented hot-bucket bound as the MinHash verify."""

    from .dedup import TOKEN_RE

    w = int(window)

    def fp_rows(b: pa.Table) -> pa.Table:
        ids = np.asarray(b[id_col], np.int64)
        texts = b[text_col].to_pylist()
        tok_lists = [TOKEN_RE.findall(t or "") for t in texts]
        ntok = np.fromiter(
            (len(t) for t in tok_lists), dtype=np.int64,
            count=len(tok_lists),
        )
        keep = ntok > 0
        if not keep.any():
            return pa.table(
                {"hv": pa.array([], pa.int64()),
                 "doc": pa.array([], pa.int64())}
            )
        _, gdoc, sel, hv = _winnow_select(ids, tok_lists, ntok, keep, n, w)
        # DISTINCT (hash, doc): a hash selected at several positions of
        # one doc counts once toward sharing
        dfu = np.unique(
            np.stack([hv[sel], ids[gdoc[sel]]], axis=1), axis=0
        )
        return pa.table({"hv": pa.array(dfu[:, 0]), "doc": pa.array(dfu[:, 1])})

    def bucket_pairs(t: pa.Table, starts: np.ndarray) -> dict | None:
        # every row of one hash is here, docs ascending: emit its doc
        # pairs packed a*2^32+b — same contract (and same loud failure)
        # as dedup._pack_pairs: a >= 2^31 would overflow int64 silently
        d = np.asarray(t["doc"], np.int64)
        if d.max() >= (1 << 31):
            raise ValueError(
                "pair packing needs doc ids < 2^31; remap ids"
            )
        packed = [
            d[ga] * np.int64(1 << 32) + d[gb]
            for ga, gb in segment_pairs(starts, len(d))
        ]
        if not packed:
            return None
        pk, n = np.unique(np.concatenate(packed), return_counts=True)
        return {"k": pk, "n": n}

    def finish(t: pa.Table, starts: np.ndarray) -> dict:
        k = np.asarray(t["k"], np.int64)[starts]
        v = np.add.reduceat(np.asarray(t["n"], np.int64), starts)
        m = v >= min_shared
        return {
            "id_a": k[m] >> np.int64(32),
            "id_b": k[m] & np.int64((1 << 32) - 1),
            "n_shared": v[m],
        }

    I = pa.int64()
    pairs = segment_apply(
        ds.select_columns([id_col, text_col]).map_batches(
            fp_rows, batch_format="pyarrow"
        ),
        "hv",
        bucket_pairs,
        pa.schema({"k": I, "n": I}),
        order=("doc",),
    )
    schema = pa.schema({"id_a": I, "id_b": I, "n_shared": I})
    return declare_schema(
        segment_apply(pairs, "k", finish, schema).sort(["id_a", "id_b"]), schema
    )


def sql_winnow_dup_pairs(
    *,
    n: int = 3,
    window: int = 4,
    min_shared: int = 2,
    source: str = "documents",
    text: str = "text",
) -> str:
    """DuckDB twin of :func:`winnow_dup_pairs` — the shared
    :func:`_sql_winnow_ctes` selection chain, distinct (doc, hv),
    self-joined on the hash."""
    head = _sql_winnow_ctes(
        n=n, window=window, source=source, text=text
    ).rstrip()
    return f"""{head},
fp2 AS (SELECT DISTINCT doc_id, hv FROM fp)
SELECT a.doc_id AS id_a, b.doc_id AS id_b, COUNT(*)::BIGINT AS n_shared
FROM fp2 a JOIN fp2 b ON b.hv = a.hv AND b.doc_id > a.doc_id
GROUP BY a.doc_id, b.doc_id
HAVING COUNT(*) >= {min_shared}
ORDER BY id_a, id_b
"""


def top_ngrams(ds, *, n: int = 2, k: int = 20, text_col: str = "text"):
    """Corpus-level top-k n-grams: per-batch combiner partials -> coarse
    hash-bucket groupby (64 groups, never one Ray group per unique
    n-gram — the engine-wide hash-like-key rule) -> per-bucket vectorized
    sum + local top-k -> tiny global sort over 64*k candidates.

    Exact: every n-gram's rows land in ONE bucket, so each bucket's local
    top-k (count DESC, ngram ASC) contains every global top-k member.
    The shuffle carries unique n-grams per batch, not token streams."""
    import pandas as pd

    def bucket_topk(t: pa.Table, starts: np.ndarray) -> pd.DataFrame:
        totals = pd.DataFrame(
            {
                "ngram": np.asarray(t["ngram"], dtype=object)[starts],
                "cnt": np.add.reduceat(np.asarray(t["cnt"], np.int64), starts),
            }
        )
        return totals.sort_values(
            ["cnt", "ngram"], ascending=[False, True], kind="stable"
        ).head(k)

    candidates = segment_apply(
        ds.map_batches(
            lambda b: ngram_counts_partial(b, n=n, text_col=text_col),
            batch_format="pyarrow",
        ),
        "ngram",
        bucket_topk,
        pa.schema({"ngram": pa.string(), "cnt": pa.int64()}),
    )
    # final rank runs over at most num_buckets*k candidate rows — bounded
    # at any corpus scale (measured: the streaming sort+limit beats a
    # driver-side to_arrow_refs finish, which pins blocks)
    return candidates.sort(["cnt", "ngram"], descending=[True, False]).limit(k)


def sql_top_ngrams(n: int = 2, k: int = 20, source: str = "documents") -> str:
    """DuckDB twin of :func:`top_ngrams` (same token law, same join
    separator, same deterministic tie-break)."""
    joined = " || ' ' || ".join(
        f"t{j}.tok" for j in range(n)
    )
    joins = " ".join(
        f"JOIN tk2 t{j} ON t{j}.doc_id = t0.doc_id AND t{j}.j = t0.j + {j}"
        for j in range(1, n)
    )
    return f"""
WITH tk AS (
  SELECT doc_id,
         unnest(regexp_split_to_array(text, '\\s+')) AS tok,
         generate_subscripts(regexp_split_to_array(text, '\\s+'), 1) AS i
  FROM {source}
), tk2 AS (
  SELECT doc_id, tok, ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY i) AS j
  FROM tk WHERE tok <> ''
)
SELECT {joined if n > 1 else 't0.tok'} AS ngram, COUNT(*)::BIGINT AS cnt
FROM tk2 t0 {joins}
GROUP BY ngram ORDER BY cnt DESC, ngram LIMIT {k}
"""


def unigram_logprob_score(
    ds, *, id_col: str = "doc_id", text_col: str = "text",
    keep_cols: tuple = (),
):
    """Per-doc mean unigram log-probability under the corpus's own
    unigram distribution — the classic cheap LM-quality proxy.

    Two-phase aggregate-then-broadcast plan: phase 1 reduces the corpus
    to (token, count) via the combiner path of :func:`top_ngrams`
    (shuffle carries unique tokens per batch); phase 2 broadcasts the
    vocabulary once (``ray.put``, cached per worker) and scores each doc
    in a stateless vectorized stage.  Scale assumption (documented): the
    VOCABULARY fits in worker memory — true for natural-language token
    vocabularies even at web scale; for adversarial token spaces, hash
    tokens into a bounded-size count-min structure first.

    Output: (id_col, n_tokens, logprob) with logprob = mean over tokens
    of ln(count(tok)/total), null for empty docs.
    """
    import ray
    from ray.data.aggregate import Sum

    counts = (
        ds.map_batches(
            lambda b: ngram_counts_partial(b, n=1, text_col=text_col),
            batch_format="pyarrow",
        )
        .groupby("ngram")
        .aggregate(Sum("cnt", alias_name="cnt"))
    )
    # materialize first: gathering a lazy Dataset via to_arrow_refs
    # triggers schema-probe re-executions of the whole aggregate DAG
    vocab_tbl = counts.materialize().to_arrow_refs()
    # Ray's hash-shuffle aggregate can emit EMPTY blocks with column-less
    # schemas on small inputs (see CLAUDE.md gotcha); drop them before the
    # concat or pa.concat_tables raises "Schema at index N was different".
    parts = [t for t in (ray.get(r) for r in vocab_tbl) if t.num_columns > 0]
    vocab = (
        pa.concat_tables(parts)
        if parts
        else pa.table({"ngram": pa.array([], pa.string()), "cnt": pa.array([], pa.int64())})
    )
    toks = np.asarray(vocab["ngram"]).astype(object)
    cnts = np.asarray(vocab["cnt"], dtype=np.float64)
    order = np.argsort(toks)
    ref = Broadcast((toks[order], cnts[order], float(cnts.sum())))

    def score(batch: pa.Table) -> pa.Table:
        toks_s, cnts_s, total = ref.get()
        la = pc.split_pattern_regex(batch[text_col], r"\s+")
        if isinstance(la, pa.ChunkedArray):
            la = la.combine_chunks()
        flat = la.flatten()
        lens = np.diff(la.offsets.to_numpy())
        row_ids = np.repeat(np.arange(len(la), dtype=np.int64), lens)
        keep = np.asarray(pc.fill_null(pc.not_equal(flat, ""), False))
        words = np.asarray(flat.filter(pa.array(keep))).astype(object)
        rid = row_ids[keep]
        pos = np.searchsorted(toks_s, words)
        pos = np.clip(pos, 0, len(toks_s) - 1)
        # every scored token exists in the vocabulary (it was counted in
        # phase 1), so the lookup always hits; the clip only guards the
        # empty-vocab corner
        lp = np.log(cnts_s[pos] / total) if len(toks_s) else np.zeros(0)
        n = batch.num_rows
        sums = np.zeros(n)
        np.add.at(sums, rid, lp if len(lp) else 0.0)
        ntok = np.bincount(rid, minlength=n).astype(np.int64)
        with np.errstate(invalid="ignore"):
            mean = sums / ntok
        cols = {
            id_col: batch[id_col],
            "n_tokens": pa.array(ntok),
            "logprob": pa.array(mean, mask=ntok == 0),
        }
        for c in keep_cols:
            cols[c] = batch[c]
        return pa.table(cols)

    return ds.map_batches(score, batch_format="pyarrow")


def sql_unigram_logprob(source: str = "documents") -> str:
    """DuckDB twin: same tokenizer, same ln(count/total) law, AVG per doc
    (6-dp rounding absorbs summation-order ulps)."""
    return f"""
WITH tk AS (
  SELECT doc_id, unnest(regexp_split_to_array(text, '\\s+')) AS tok
  FROM {source}
), tk2 AS (SELECT doc_id, tok FROM tk WHERE tok <> ''),
vocab AS (SELECT tok, COUNT(*)::DOUBLE AS cnt FROM tk2 GROUP BY tok),
tot AS (SELECT SUM(cnt) AS total FROM vocab),
scored AS (
  SELECT t.doc_id, COUNT(*)::BIGINT AS n_tokens,
         AVG(LN(v.cnt / (SELECT total FROM tot))) AS logprob
  FROM tk2 t JOIN vocab v USING (tok) GROUP BY t.doc_id
)
SELECT d.doc_id,
       COALESCE(s.n_tokens, 0) AS n_tokens,
       ROUND(s.logprob * 1e6) / 1e6 AS logprob
FROM {source} d LEFT JOIN scored s USING (doc_id)
"""


# ---------------------------------------------------------------------------
# quality-filter cascade with reason codes
# ---------------------------------------------------------------------------

CASCADE_MIN_TOKENS = 16
CASCADE_MAX_TOP_BIGRAM = 0.08
CASCADE_MIN_QUALITY = 0.35


def filter_cascade(
    ds,
    *,
    text_col: str = "text",
    min_tokens: int = CASCADE_MIN_TOKENS,
    max_top_bigram: float = CASCADE_MAX_TOP_BIGRAM,
    min_quality: float = CASCADE_MIN_QUALITY,
):
    """FineWeb-style filter cascade: rules fire in a FIXED order and each
    doc carries the FIRST failing rule as its reason code (``too_short``
    -> ``repetitive`` -> ``low_quality`` -> ``pass``) — the audit trail a
    production filter keeps so dropped volume is attributable per rule.

    One stateless vectorized stage (quality + repetition signals are the
    existing Arrow kernels); float comparisons use 6dp half-away-rounded
    values on BOTH sides so the rule boundary can never flip on
    summation-order noise."""

    def flag(b: pa.Table) -> pa.Table:
        ids = b["doc_id"]
        b = quality_score(b, text_col)
        b = repetition_stats(b, text_col)
        ntok = np.asarray(b["n_tokens"], dtype=np.int64)

        def r6(col):
            v = np.asarray(b[col], dtype=np.float64)
            return np.sign(v) * np.floor(np.abs(v) * 1e6 + 0.5) / 1e6

        tbf, qual = r6("top_bigram_frac"), r6("quality")
        reason = np.where(
            ntok < min_tokens,
            "too_short",
            np.where(
                tbf > max_top_bigram,
                "repetitive",
                np.where(qual < min_quality, "low_quality", "pass"),
            ),
        )
        return pa.table(
            {
                "doc_id": ids,
                "keep": pa.array(reason == "pass"),
                "reason": pa.array(reason.astype(object), pa.string()),
            }
        )

    return ds.map_batches(flag, batch_format="pyarrow")


def sql_filter_cascade(
    *,
    min_tokens: int = CASCADE_MIN_TOKENS,
    max_top_bigram: float = CASCADE_MAX_TOP_BIGRAM,
    min_quality: float = CASCADE_MIN_QUALITY,
    source: str = "documents",
) -> str:
    """DuckDB twin of :func:`filter_cascade` (same rule order, same
    rounded boundaries)."""
    return f"""
WITH q AS ({sql_quality_score(source)}),
r AS ({sql_repetition_stats(source)}),
j AS (
  SELECT q.doc_id, q.n_tokens,
         ROUND(r.top_bigram_frac * 1e6) / 1e6 AS tbf,
         ROUND(q.quality * 1e6) / 1e6 AS qual
  FROM q JOIN r USING (doc_id)
)
SELECT doc_id,
  (CASE WHEN n_tokens < {min_tokens} THEN 'too_short'
        WHEN tbf > {max_top_bigram!r} THEN 'repetitive'
        WHEN qual < {min_quality!r} THEN 'low_quality'
        ELSE 'pass' END) AS reason,
  (n_tokens >= {min_tokens} AND tbf <= {max_top_bigram!r}
   AND qual >= {min_quality!r}) AS keep
FROM j
"""


# ---------------------------------------------------------------------------
# BM25 relevance scoring
# ---------------------------------------------------------------------------

BM25_K1, BM25_B = 1.2, 0.75


def bm25_score(
    ds,
    query_terms: tuple[str, ...],
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    k1: float = BM25_K1,
    b: float = BM25_B,
    round_to: int = 6,
):
    """Okapi BM25 score of every document against a fixed query — the
    retrieval-relevance primitive (idf = ln((N-df+0.5)/(df+0.5)+1), the
    Robertson smooth variant; tf = whitespace-token equality count).

    Two-phase plan (the :func:`unigram_logprob_score` shape): phase 1
    reduces the corpus to (N, total-token-count, df per query term) via
    one combiner row per batch folded on the driver — all integers, so
    the derived avgdl/idf are bit-identical to the SQL twin's; phase 2
    broadcasts the constants in the task closure (a handful of floats)
    and scores each batch vectorized (flattened tokens, one ``np.isin``
    per query term, segment sums)."""
    import re

    tok_re = re.compile(TOKEN_PATTERN)
    terms = list(query_terms)

    def stats_partial(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        n = len(texts)
        dl = 0
        df = np.zeros(len(terms), dtype=np.int64)
        for t in texts:
            toks = tok_re.findall(t or "")
            dl += len(toks)
            if toks:
                s = set(toks)
                for j, q in enumerate(terms):
                    if q in s:
                        df[j] += 1
        return pa.table(
            {
                "n": pa.array([n], pa.int64()),
                "dl": pa.array([dl], pa.int64()),
                "df": pa.array([df.tolist()], pa.list_(pa.int64())),
            }
        )

    parts = ds.map_batches(stats_partial, batch_format="pyarrow").to_pandas()
    n_docs = int(parts["n"].sum())
    total_dl = int(parts["dl"].sum())
    df = np.zeros(len(terms), dtype=np.int64)
    for row in parts["df"]:
        df += np.asarray(row, dtype=np.int64)
    avgdl = total_dl / n_docs
    idf = np.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)
    tol = 10.0 ** round_to

    def score(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        nb = len(texts)
        toks_per_doc = [tok_re.findall(t or "") for t in texts]
        lens = np.fromiter((len(t) for t in toks_per_doc), dtype=np.int64,
                           count=nb)
        flat = np.asarray(
            [w for toks in toks_per_doc for w in toks], dtype=object
        )
        offs = np.concatenate([[0], np.cumsum(lens)])
        s = np.zeros(nb, dtype=np.float64)
        denom_base = k1 * (1.0 - b + b * lens / avgdl)
        for j, q in enumerate(terms):
            hit = (flat == q).astype(np.int64) if len(flat) else np.empty(
                0, np.int64
            )
            cs = np.concatenate([[0], np.cumsum(hit)])
            tf = (cs[offs[1:]] - cs[offs[:-1]]).astype(np.float64)
            s += idf[j] * tf * (k1 + 1.0) / (tf + denom_base)
        r = np.sign(s) * np.floor(np.abs(s) * tol + 0.5) / tol
        return pa.table({id_col: batch[id_col], "bm25": pa.array(r)})

    return ds.select_columns([id_col, text_col]).map_batches(
        score, batch_format="pyarrow"
    )


def sql_bm25_score(
    query_terms: tuple[str, ...],
    *,
    k1: float = BM25_K1,
    b: float = BM25_B,
    round_to: int = 6,
    source: str = "documents",
    text: str = "text",
) -> str:
    """DuckDB twin of :func:`bm25_score` (same integer corpus stats,
    same smooth-idf formula)."""
    toks = f"regexp_extract_all({text}, '\\S+')"
    term_sums = []
    for q in query_terms:
        qs = q.replace("'", "''")
        df_q = (
            f"(SELECT COUNT(*) FROM {source} "
            f"WHERE list_contains({toks}, '{qs}'))"
        )
        tf_q = f"len(list_filter(t, x -> x = '{qs}'))::DOUBLE"
        idf_q = (
            f"LN((st.n - {df_q} + 0.5) / ({df_q} + 0.5) + 1.0)"
        )
        term_sums.append(
            f"{idf_q} * {tf_q} * ({k1!r} + 1.0) / "
            f"({tf_q} + {k1!r} * (1.0 - {b!r} + {b!r} * len(t) / st.avgdl))"
        )
    expr = " + ".join(term_sums)
    return f"""
WITH st AS (
  SELECT COUNT(*)::BIGINT AS n,
         (SUM(len({toks}))::DOUBLE / COUNT(*)) AS avgdl
  FROM {source}
),
d AS (SELECT doc_id, {toks} AS t FROM {source})
SELECT d.doc_id, ROUND(({expr}) * 1e{round_to}) / 1e{round_to} AS bm25
FROM d, st
"""


def normalize_text(
    batch: pa.Table,
    text_col: str = "text",
    out_col: str = "norm_text",
) -> pa.Table:
    """Canonical normalization applied before exact/near dedup:
    lowercase -> strip ``.,;:!?`` punctuation -> collapse whitespace
    runs to single spaces -> trim.  All RE2 kernels (DuckDB runs the
    identical chain), zero Python per row."""
    t = batch[text_col]
    t = pc.utf8_lower(t)
    t = pc.replace_substring_regex(t, r"[.,;:!?]", "")
    t = pc.replace_substring_regex(t, r"\s+", " ")
    t = pc.utf8_trim_whitespace(t)
    return batch.append_column(out_col, t)


def sql_normalize_text(
    source: str = "documents", text: str = "text", out_col: str = "norm_text"
) -> str:
    """DuckDB twin of :func:`normalize_text` (same RE2 chain, same
    order)."""
    expr = (
        f"trim(regexp_replace(regexp_replace(lower({text}), "
        f"'[.,;:!?]', '', 'g'), '\\s+', ' ', 'g'))"
    )
    return f"SELECT *, {expr} AS {out_col} FROM {source}"


def bigram_logprob_score(
    ds, *, id_col: str = "doc_id", text_col: str = "text", round_to: int = 6
):
    """Per-doc mean bigram log-probability with add-one smoothing under
    the corpus's own counts — the KenLM-style step up from
    :func:`unigram_logprob_score`: ln((C2(w1 w2) + 1) / (C1(w1) + V)),
    averaged over the doc's bigram instances (null when a doc has < 2
    tokens).

    Same aggregate-then-broadcast plan, two count tables instead of one
    (unigram + bigram; the shuffle carries unique grams per batch).
    Scale assumption (documented, as for the unigram LM): the observed
    BIGRAM table fits in worker memory — true for natural language
    (Heaps' law keeps observed bigrams far below V^2); for adversarial
    token spaces hash grams into the Count-Min sketch instead."""
    import ray
    from ray.data.aggregate import Sum

    def counts_of(n: int):
        c = (
            ds.map_batches(
                lambda b, n=n: ngram_counts_partial(b, n=n, text_col=text_col),
                batch_format="pyarrow",
            )
            .groupby("ngram")
            .aggregate(Sum("cnt", alias_name="cnt"))
        )
        parts = [
            t
            for t in (ray.get(r) for r in c.materialize().to_arrow_refs())
            if t.num_columns > 0
        ]
        tab = (
            pa.concat_tables(parts)
            if parts
            else pa.table({"ngram": pa.array([], pa.string()),
                           "cnt": pa.array([], pa.int64())})
        )
        g = np.asarray(tab["ngram"]).astype(object)
        cn = np.asarray(tab["cnt"], dtype=np.float64)
        order = np.argsort(g)
        return g[order], cn[order]

    uni_g, uni_c = counts_of(1)
    big_g, big_c = counts_of(2)
    vsize = float(len(uni_g))
    ref = Broadcast((uni_g, uni_c, big_g, big_c, vsize))
    tol = 10.0 ** round_to

    def score(batch: pa.Table) -> pa.Table:
        ug, uc, bg, bc, v = ref.get()
        la = pc.split_pattern_regex(batch[text_col], r"\s+")
        if isinstance(la, pa.ChunkedArray):
            la = la.combine_chunks()
        flat = la.flatten()
        lens = np.diff(la.offsets.to_numpy())
        row_ids = np.repeat(np.arange(len(la), dtype=np.int64), lens)
        keep = np.asarray(pc.fill_null(pc.not_equal(flat, ""), False))
        flat = flat.filter(pa.array(keep))
        rid = row_ids[keep]
        nb = batch.num_rows
        n_big = np.zeros(nb, dtype=np.int64)
        lpsum = np.zeros(nb, dtype=np.float64)
        m = len(flat) - 1
        if m > 0:
            grams = pc.binary_join_element_wise(
                flat.slice(0, m), flat.slice(1, m), " "
            )
            same = rid[:m] == rid[1:]
            grams = np.asarray(grams.filter(pa.array(same))).astype(object)
            w1 = np.asarray(flat.slice(0, m).filter(pa.array(same))).astype(
                object
            )
            grid = rid[:m][same]
            if len(grid):
                c2 = bc[np.clip(np.searchsorted(bg, grams), 0, len(bg) - 1)]
                c1 = uc[np.clip(np.searchsorted(ug, w1), 0, len(ug) - 1)]
                lp = np.log((c2 + 1.0) / (c1 + v))
                np.add.at(lpsum, grid, lp)
                np.add.at(n_big, grid, 1)
        with np.errstate(invalid="ignore"):
            mean = lpsum / n_big
        r = np.sign(mean) * np.floor(np.abs(mean) * tol + 0.5) / tol
        return pa.table(
            {
                id_col: batch[id_col],
                "n_bigrams": pa.array(n_big),
                "logprob2": pa.array(r, mask=n_big == 0),
            }
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        score, batch_format="pyarrow"
    )


def sql_bigram_logprob(
    *, round_to: int = 6, source: str = "documents", text: str = "text"
) -> str:
    """DuckDB twin of :func:`bigram_logprob_score` (same token/gram laws,
    same add-one estimator)."""
    return f"""
WITH tk AS (
  SELECT doc_id,
         unnest(regexp_split_to_array({text}, '\\s+')) AS tok,
         generate_subscripts(regexp_split_to_array({text}, '\\s+'), 1) AS i
  FROM {source}
), tk2 AS (
  SELECT doc_id, tok, ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY i) AS j
  FROM tk WHERE tok <> ''
),
big AS (
  SELECT t0.doc_id, t0.tok AS w1, t0.tok || ' ' || t1.tok AS g
  FROM tk2 t0 JOIN tk2 t1 ON t1.doc_id = t0.doc_id AND t1.j = t0.j + 1
),
c2 AS (SELECT g, COUNT(*)::BIGINT AS c FROM big GROUP BY g),
c1 AS (SELECT tok, COUNT(*)::BIGINT AS c FROM tk2 GROUP BY tok),
vs AS (SELECT COUNT(*)::BIGINT AS v FROM c1),
per AS (
  SELECT big.doc_id, COUNT(*)::BIGINT AS n_bigrams,
         AVG(LN((c2.c + 1)::DOUBLE / (c1.c + vs.v))) AS lp
  FROM big JOIN c2 USING (g) JOIN c1 ON c1.tok = big.w1, vs
  GROUP BY big.doc_id
)
SELECT d.doc_id, COALESCE(per.n_bigrams, 0) AS n_bigrams,
       ROUND(per.lp * 1e{round_to}) / 1e{round_to} AS logprob2
FROM (SELECT doc_id FROM {source}) d LEFT JOIN per USING (doc_id)
"""


# ---------------------------------------------------------------------------
# per-document token entropy (vocabulary-diversity quality signal)
# ---------------------------------------------------------------------------


def token_entropy(
    docs,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    round_to: int = 6,
):
    """Shannon entropy of each document's token distribution (nats) —
    the vocabulary-diversity signal quality filters pair with repetition
    ratios (low entropy = template/boilerplate, degenerate repetition).

    ``H = ln(n) - (sum_t c_t ln c_t) / n`` over ``\\S+`` tokens (the
    repo-wide token law).  Each doc is one input row, so the whole
    computation is batch-local — ZERO shuffles; per-batch the (doc,
    term, tf) reduction comes from
    :func:`pygridmap_ray.tfidf.doc_term_freqs` and two vectorized folds
    finish it.  Docs with no tokens are absent (matching the SQL twin).

    Output: ``doc_id, n_tokens, entropy`` (entropy rounded half-away;
    the ln summation-order ulp is absorbed by the rounding, the
    repo-wide float contract)."""
    from .tfidf import doc_term_freqs

    tol = 10.0**round_to

    def kernel(b: pa.Table) -> pa.Table:
        t = doc_term_freqs(b, id_col=id_col, text_col=text_col, n=1)
        doc = np.asarray(t["doc"], np.int64)
        tf = np.asarray(t["tf"], np.float64)
        if not len(doc):
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "n_tokens": pa.array([], pa.int64()),
                    "entropy": pa.array([], pa.float64()),
                }
            )
        order = np.argsort(doc, kind="stable")
        doc, tf = doc[order], tf[order]
        starts = np.nonzero(np.r_[True, doc[1:] != doc[:-1]])[0]
        n = np.add.reduceat(tf, starts)
        s = np.add.reduceat(tf * np.log(tf), starts)
        h = np.log(n) - s / n
        h = np.sign(h) * np.floor(np.abs(h) * tol + 0.5) / tol
        return pa.table(
            {
                id_col: pa.array(doc[starts]),
                "n_tokens": pa.array(n.astype(np.int64)),
                "entropy": pa.array(h),
            }
        )

    return docs.map_batches(kernel, batch_format="pyarrow")


def sql_token_entropy(
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    source: str = "documents",
    round_to: int = 6,
) -> str:
    """DuckDB twin of :func:`token_entropy` (same token law and op
    order: ``ln(n) - sum(c ln c) / n``, half-away rounding)."""
    t = f"1e{round_to}"
    return f"""
WITH tk AS (
  SELECT {id_col} AS doc_id,
         unnest(regexp_split_to_array({text_col}, '\\s+')) AS tok
  FROM {source}
), tf AS (
  SELECT doc_id, tok, COUNT(*)::DOUBLE AS tf
  FROM tk WHERE tok <> '' GROUP BY doc_id, tok
)
SELECT doc_id AS {id_col}, SUM(tf)::BIGINT AS n_tokens,
       ROUND((ln(SUM(tf)) - SUM(tf * ln(tf)) / SUM(tf)) * {t}) / {t}
         AS entropy
FROM tf GROUP BY doc_id
"""


def inverted_index_build(ds, index_dir: str, *, id_col: str = "doc_id",
                         text_col: str = "text",
                         num_buckets: int = 16) -> int:
    """Persist an inverted index (term -> posting list) as a
    bucket-partitioned parquet tree ``index_dir/bucket=<h>/...`` — the
    same pruned-read layout as the IVF index (ann.py): a query for k
    terms later reads ONLY those terms' buckets.

    Build plan: vectorized split -> flat (term, doc) stream; term
    strings are dictionary-encoded per batch so dedup and the bucket
    hash run over the (tiny) per-batch vocabulary, never per token.
    Postings are batch-local distinct; global distinct is enforced at
    query time by the packed-unique scan (cheaper than a corpus-wide
    shuffle at build time, and the index stays mergeable/appendable)."""
    import zlib

    from .tiler import write_partitioned

    def postings(b: pa.Table) -> pa.Table:
        toks = pc.split_pattern(
            pc.cast(b[text_col], pa.string()), " "
        )
        n = np.asarray(pc.list_value_length(toks), np.int64)
        doc = np.repeat(np.asarray(b[id_col], np.int64), n)
        flat = pc.list_flatten(toks)
        dic = pc.dictionary_encode(flat)
        codes = np.asarray(dic.combine_chunks().indices, np.int64)
        vocab = dic.combine_chunks().dictionary
        # batch-local distinct (term, doc)
        pk = np.unique(codes * (np.int64(1) << 31) + doc)
        code_u = pk >> 31
        doc_u = pk & ((np.int64(1) << 31) - 1)
        # hash only the per-batch vocabulary, then gather
        vhash = np.fromiter(
            (zlib.crc32(t.encode()) % num_buckets
             for t in vocab.to_pylist()),
            dtype=np.int64, count=len(vocab),
        )
        return pa.table(
            {
                "term": vocab.take(pa.array(code_u)),
                id_col: pa.array(doc_u),
                "bucket": pa.array(vhash[code_u]),
            }
        )

    flat = ds.map_batches(postings, batch_format="pyarrow")
    return write_partitioned(flat, index_dir, ["bucket"])


def keyword_search(index_dir: str, terms: tuple[str, ...], *,
                   id_col: str = "doc_id", num_buckets: int = 16,
                   coarse_buckets: int | None = None):
    """AND-of-terms search over :func:`inverted_index_build`'s tree:
    reads ONLY the query terms' bucket partitions (partition pruning at
    the source), filters to the terms, then counts distinct matched
    terms per doc via per-batch packed-unique partials + ONE coarse
    bucket on doc hash — doc ids are HIGH-cardinality so they never see
    a fine groupby — and keeps docs matching all k terms."""
    import zlib

    import ray.data as rd

    tset = sorted(set(terms))
    k = len(tset)
    need = sorted({zlib.crc32(t.encode()) % num_buckets for t in tset})
    paths = [f"{index_dir}/bucket={h}" for h in need]
    ds = rd.read_parquet(paths, columns=["term", id_col])
    t2i = {t: i for i, t in enumerate(tset)}

    def partial(b: pa.Table) -> pa.Table:
        # dictionary-encode so the query-term match runs over the tiny
        # per-batch vocabulary, then gathers — never per posting row
        dic = pc.dictionary_encode(
            pc.cast(b["term"], pa.string())
        ).combine_chunks()
        vmap = np.fromiter(
            (t2i.get(t, -1) for t in dic.dictionary.to_pylist()),
            dtype=np.int64, count=len(dic.dictionary),
        )
        tcode = vmap[np.asarray(dic.indices, np.int64)]
        keep = tcode >= 0
        doc = np.asarray(b[id_col], np.int64)[keep]
        tcode = tcode[keep]
        pk = np.unique(doc * np.int64(k + 1) + tcode)
        return pa.table({"d": pa.array(pk // np.int64(k + 1)), "pk": pa.array(pk)})

    def resolve(t: pa.Table, starts: np.ndarray) -> dict:
        # distinct matched terms per doc: pk repeats only across batches
        pk = np.asarray(t["pk"], np.int64)
        new = np.append(True, pk[1:] != pk[:-1])
        cnt = np.add.reduceat(new.astype(np.int64), starts)
        return {id_col: np.asarray(t["d"], np.int64)[starts][cnt == k]}

    return segment_apply(
        ds.map_batches(partial, batch_format="pyarrow"),
        "d",
        resolve,
        pa.schema([(id_col, pa.int64())]),
        order=("pk",),
        num_buckets=coarse_buckets,
    )


def sql_keyword_search(terms: tuple[str, ...], *,
                       source: str = "documents",
                       id_col: str = "doc_id",
                       text_col: str = "text") -> str:
    conds = " AND ".join(
        f"list_contains(string_split({text_col}, ' '), '{t}')"
        for t in sorted(set(terms))
    )
    return f"SELECT {id_col} FROM {source} WHERE {conds}"


def chunk_documents(ds, *, id_col: str = "doc_id",
                    text_col: str = "text",
                    window: int = 64, stride: int = 48):
    """Overlapping token-window chunking — the LLM-prep step that turns
    long documents into training-context-sized pieces (window tokens,
    advancing by stride, last chunk truncated).  Everything is one
    vectorized pass: Arrow split -> chunk layout arithmetic in numpy ->
    ONE ``take`` gathers the (overlapping) token stream into chunk-major
    order -> ``binary_join`` reassembles chunk strings.  No shuffle at
    all — chunking is embarrassingly parallel; token law is the
    single-space split shared with the SQL twin."""
    if stride <= 0 or window <= 0:
        raise ValueError("window and stride must be positive")

    def explode(b: pa.Table) -> pa.Table:
        toks = pc.list_flatten(
            pc.split_pattern(pc.cast(b[text_col], pa.string()), " ")
        )
        lens = pc.list_value_length(
            pc.split_pattern(pc.cast(b[text_col], pa.string()), " ")
        )
        n = np.asarray(lens, np.int64)
        ids = np.asarray(b[id_col], np.int64)
        # chunks per doc: 1 + max(ceil((n - window)/stride), 0), written
        # so floor-div and SQL's truncating // agree (arg clamps at 0)
        extra = np.maximum((n - window + stride - 1) // stride, 0)
        nc = extra + 1
        total = int(nc.sum())
        cdoc = np.repeat(np.arange(len(ids), dtype=np.int64), nc)
        c0 = np.concatenate(([0], np.cumsum(nc)))[:-1]
        j = np.arange(total, dtype=np.int64) - c0[cdoc]
        start = j * stride
        end = np.minimum(start + window, n[cdoc])
        clen = end - start
        doc_tok0 = np.concatenate(([0], np.cumsum(n)))[:-1]
        g0 = doc_tok0[cdoc] + start
        run0 = np.cumsum(clen) - clen
        within = np.arange(int(clen.sum()), dtype=np.int64) - np.repeat(
            run0, clen
        )
        gather = np.repeat(g0, clen) + within
        picked = toks.combine_chunks().take(pa.array(gather))
        offs = pa.array(np.concatenate(([0], np.cumsum(clen))))
        chunks = pc.cast(
            pc.binary_join(
                pa.LargeListArray.from_arrays(offs, picked), pa.scalar(" ")
            ),
            pa.string(),
        )
        return pa.table(
            {
                id_col: pa.array(ids[cdoc]),
                "chunk_id": pa.array(j),
                "chunk": chunks,
            }
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        explode, batch_format="pyarrow"
    )


def sql_chunk_documents(*, id_col: str = "doc_id",
                        text_col: str = "text", source: str = "documents",
                        window: int = 64, stride: int = 48) -> str:
    return f"""
WITH t AS (
  SELECT {id_col}, string_split({text_col}, ' ') AS toks,
         len(string_split({text_col}, ' ')) AS n
  FROM {source}
)
SELECT {id_col}, j AS chunk_id,
       array_to_string(
         toks[j * {stride} + 1 : LEAST(j * {stride} + {window}, n)], ' '
       ) AS chunk
FROM t,
     UNNEST(generate_series(
       0, GREATEST((n - {window} + {stride} - 1) // {stride}, 0)
     )) AS u(j)
"""


# ---------------------------------------------------------------------------
# PMI collocations (phrase mining) + fuzzy vocabulary matching
# ---------------------------------------------------------------------------


def _ngram_totals(ds, *, n: int, text_col: str = "text",
                  min_count: int = 1, num_buckets: int | None = None):
    """Global (ngram, cnt) totals: per-batch ``ngram_counts_partial``
    combiner -> coarse hash-bucket groupby (the engine-wide
    hash-like-key rule: never one Ray group per unique gram) ->
    per-bucket vectorized sum, filtered to ``cnt >= min_count``.  The
    shuffle carries unique grams per batch, never token streams."""
    def bucket_sum(t: pa.Table, starts: np.ndarray) -> dict:
        cnt = np.add.reduceat(np.asarray(t["cnt"], np.int64), starts)
        keep = cnt >= min_count
        return {
            "ngram": np.asarray(t["ngram"], dtype=object)[starts][keep],
            "cnt": cnt[keep],
        }

    return segment_apply(
        ds.map_batches(
            lambda b: ngram_counts_partial(b, n=n, text_col=text_col),
            batch_format="pyarrow",
        ),
        "ngram",
        bucket_sum,
        pa.schema({"ngram": pa.string(), "cnt": pa.int64()}),
        num_buckets=num_buckets,
    )


def _gather_totals(totals) -> pa.Table:
    """Materialize a (ngram, cnt) totals Dataset on the driver —
    vocabulary-scale by contract (callers document the bound)."""
    import ray

    parts = [
        t
        for t in (
            ray.get(r) for r in totals.materialize().to_arrow_refs()
        )
        if t.num_columns > 0 and t.num_rows > 0
    ]
    if not parts:
        return pa.table(
            {"ngram": pa.array([], pa.string()),
             "cnt": pa.array([], pa.int64())}
        )
    return pa.concat_tables([p.select(["ngram", "cnt"]) for p in parts])


def pmi_bigrams(ds, *, min_count: int = 5, text_col: str = "text",
                round_to: int = 6):
    """Pointwise-mutual-information collocations over adjacent token
    bigrams — the classic phrase-mining signal (Church & Hanks 1990).

    ``pmi(a b) = ln(((c_ab * N1) * N1) / ((c_a * c_b) * N2))`` with N1 =
    total tokens, N2 = total within-doc bigrams; the exact double op
    order is mirrored in :func:`sql_pmi_bigrams` so the rounded values
    hash-match.  Output: (w1, w2, cnt, pmi) for every bigram with
    ``cnt >= min_count``.

    Scale plan: bigram + unigram totals are combiner -> coarse-bucket
    aggregates (shuffle carries unique grams per batch); N1/N2 reduce
    from one tiny per-batch partial; the unigram VOCABULARY broadcasts
    once (``ray.put``, cached per worker — the documented natural-
    language bound, same as ``unigram_logprob_score``); the final PMI
    stage is stateless vectorized over the min_count-filtered bigram
    totals, which stream — no stage ever materializes corpus-scale
    data on the driver."""
    from ray.data.aggregate import Sum

    # one tiny (n1, n2) partial per batch -> Sum reduce
    def size_partial(b: pa.Table) -> pa.Table:
        la = pc.split_pattern_regex(b[text_col], r"\s+")
        if isinstance(la, pa.ChunkedArray):
            la = la.combine_chunks()
        flat = la.flatten()
        lens = np.diff(la.offsets.to_numpy())
        rid = np.repeat(np.arange(len(la), dtype=np.int64), lens)
        keep = np.asarray(pc.fill_null(pc.not_equal(flat, ""), False))
        ntok = np.bincount(rid[keep], minlength=len(la))
        return pa.table(
            {
                "n1": pa.array([int(ntok.sum())], pa.int64()),
                "n2": pa.array(
                    [int(np.maximum(ntok - 1, 0).sum())], pa.int64()
                ),
            }
        )

    sizes = (
        ds.map_batches(size_partial, batch_format="pyarrow")
        .aggregate(Sum("n1", alias_name="n1"), Sum("n2", alias_name="n2"))
    )
    n1 = float(sizes["n1"] or 0)
    n2 = float(sizes["n2"] or 0)

    uni = _gather_totals(_ngram_totals(ds, n=1, text_col=text_col))
    toks = np.asarray(uni["ngram"]).astype(object)
    cnts = np.asarray(uni["cnt"], dtype=np.float64)
    order = np.argsort(toks)
    ref = Broadcast((toks[order], cnts[order], n1, n2))

    big = _ngram_totals(ds, n=2, text_col=text_col, min_count=min_count)

    def score(batch: pa.Table) -> pa.Table:
        toks_s, cnts_s, t1, t2 = ref.get()
        grams = np.asarray(batch["ngram"]).astype(object)
        cab = np.asarray(batch["cnt"], dtype=np.float64)
        # tokens are \S+ so every bigram has exactly one space
        w1 = np.array([g.split(" ", 1)[0] for g in grams], dtype=object)
        w2 = np.array([g.split(" ", 1)[1] for g in grams], dtype=object)
        ca = cnts_s[np.searchsorted(toks_s, w1)] if len(toks_s) else cab
        cb = cnts_s[np.searchsorted(toks_s, w2)] if len(toks_s) else cab
        pmi = np.log(((cab * t1) * t1) / ((ca * cb) * t2))
        tol = 10.0 ** round_to
        pmi = np.sign(pmi) * np.floor(np.abs(pmi) * tol + 0.5) / tol
        return pa.table(
            {
                "w1": pa.array(w1, pa.string()),
                "w2": pa.array(w2, pa.string()),
                "cnt": pc.cast(batch["cnt"], pa.int64()),
                "pmi": pa.array(pmi),
            }
        )

    return big.map_batches(score, batch_format="pyarrow")


def sql_pmi_bigrams(*, min_count: int = 5, source: str = "documents",
                    text: str = "text", round_to: int = 6) -> str:
    """DuckDB twin of :func:`pmi_bigrams` (same token/gram laws, same
    double op order inside LN)."""
    return f"""
WITH tk AS (
  SELECT doc_id,
         unnest(regexp_split_to_array({text}, '\\s+')) AS tok,
         generate_subscripts(regexp_split_to_array({text}, '\\s+'), 1) AS i
  FROM {source}
), tk2 AS (
  SELECT doc_id, tok, ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY i) AS j
  FROM tk WHERE tok <> ''
),
uni AS (SELECT tok, COUNT(*)::BIGINT AS c FROM tk2 GROUP BY tok),
n1 AS (SELECT SUM(c)::DOUBLE AS n FROM uni),
big AS (
  SELECT t0.tok AS w1, t1.tok AS w2, COUNT(*)::BIGINT AS cnt
  FROM tk2 t0 JOIN tk2 t1 ON t1.doc_id = t0.doc_id AND t1.j = t0.j + 1
  GROUP BY t0.tok, t1.tok
),
n2 AS (SELECT SUM(cnt)::DOUBLE AS n FROM big)
SELECT b.w1, b.w2, b.cnt,
       ROUND(LN(((b.cnt::DOUBLE * n1.n) * n1.n)
                / ((ua.c::DOUBLE * ub.c::DOUBLE) * n2.n)) * 1e{round_to})
         / 1e{round_to} AS pmi
FROM big b
JOIN uni ua ON ua.tok = b.w1
JOIN uni ub ON ub.tok = b.w2
CROSS JOIN n1 CROSS JOIN n2
WHERE b.cnt >= {min_count}
"""


def _levenshtein_block(A: np.ndarray, la: np.ndarray,
                       B: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """Exact Levenshtein distances between every row of token matrix A
    (na x La, uint8-padded) and every row of B — one DP over the padded
    grid, VECTORIZED across the full na*nb pair axis (unit costs, the
    classic Wagner–Fischer recurrence; identical to DuckDB's
    ``levenshtein`` on ASCII input).  Returns an (na, nb) int matrix."""
    na, La = A.shape
    nb, Lb = B.shape
    P = na * nb
    # pair-expanded character matrices
    Ae = np.repeat(A, nb, axis=0)          # (P, La)
    Be = np.tile(B, (na, 1))               # (P, Lb)
    lae = np.repeat(la, nb)
    lbe = np.tile(lb, na)
    prev = np.broadcast_to(
        np.arange(Lb + 1, dtype=np.int32), (P, Lb + 1)
    ).copy()
    out = np.where(lae == 0, lbe, 0).astype(np.int32)
    for i in range(1, La + 1):
        cur = np.empty_like(prev)
        cur[:, 0] = i
        sub = (Ae[:, i - 1][:, None] != Be).astype(np.int32)
        # dp[i][j] = min(dp[i-1][j] + 1, dp[i][j-1] + 1, dp[i-1][j-1] + sub)
        diag = prev[:, :-1] + sub
        up = prev[:, 1:] + 1
        m = np.minimum(diag, up)
        # left dependency is sequential within the row
        for j in range(1, Lb + 1):
            cur[:, j] = np.minimum(m[:, j - 1], cur[:, j - 1] + 1)
        # rows ending exactly at this i record their final distance
        done = lae == i
        if done.any():
            out[done] = cur[done, lbe[done]]
        prev = cur
    return out.reshape(na, nb)


def fuzzy_vocab_pairs(ds, *, max_dist: int = 2, min_count: int = 1,
                      text_col: str = "text"):
    """Fuzzy vocabulary self-join (typo/variant mining): every DISTINCT
    token pair of the corpus vocabulary with ``levenshtein <= max_dist``,
    carrying both corpus frequencies.  Output: (tok_a, tok_b, dist,
    cnt_a, cnt_b) with ``tok_a < tok_b``.

    Blocking is COMPLETE, not approximate: ``levenshtein(a, b) >=
    |len(a) - len(b)|``, so tokens band by length and only band pairs
    within ``max_dist`` meet — the oracle needs no blocking clause and
    the result is still exact.  Scale plan: the vocabulary reduces via
    the combiner -> coarse-bucket aggregate (corpus never re-reads);
    band-pair blocks fan out as one Dataset row each and run the
    pair-vectorized DP (``_levenshtein_block``) in parallel with the
    banded vocabulary broadcast once (``ray.put``, per-worker cache).
    ASCII token law (DuckDB's levenshtein counts unicode codepoints;
    the uint8 DP counts bytes — identical on ASCII corpora)."""
    import ray.data as rd

    vocab = _gather_totals(
        _ngram_totals(ds, n=1, text_col=text_col, min_count=min_count)
    )
    toks = np.asarray(vocab["ngram"]).astype(object)
    cnts = np.asarray(vocab["cnt"], dtype=np.int64)
    lens = np.array([len(t) for t in toks], dtype=np.int64)
    bands: dict[int, dict] = {}
    for L in np.unique(lens):
        sel = lens == L
        bt = toks[sel]
        order = np.argsort(bt)
        bt = bt[order]
        bc = cnts[sel][order]
        mat = np.zeros((len(bt), int(L)), dtype=np.uint8)
        for r, t in enumerate(bt):
            mat[r, : len(t)] = np.frombuffer(t.encode("ascii"), np.uint8)
        bands[int(L)] = {"toks": bt, "cnts": bc, "mat": mat}
    ref = Broadcast(bands)
    pairs = [
        {"la": int(a), "lb": int(b)}
        for a in sorted(bands)
        for b in sorted(bands)
        if a <= b and b - a <= max_dist
    ]
    empty = pa.table(
        {
            "tok_a": pa.array([], pa.string()),
            "tok_b": pa.array([], pa.string()),
            "dist": pa.array([], pa.int64()),
            "cnt_a": pa.array([], pa.int64()),
            "cnt_b": pa.array([], pa.int64()),
        }
    )
    if not pairs:
        return rd.from_arrow(empty)

    def solve(batch: pa.Table) -> pa.Table:
        bds = ref.get()
        outs = []
        for la, lb in zip(
            np.asarray(batch["la"]), np.asarray(batch["lb"])
        ):
            A, B = bds[int(la)], bds[int(lb)]
            lens_a = np.full(len(A["toks"]), int(la), dtype=np.int64)
            lens_b = np.full(len(B["toks"]), int(lb), dtype=np.int64)
            d = _levenshtein_block(A["mat"], lens_a, B["mat"], lens_b)
            ia, ib = np.nonzero(d <= max_dist)
            if la == lb:
                keep = ia < ib  # strict upper triangle of the same band
                ia, ib = ia[keep], ib[keep]
            if not len(ia):
                continue
            ta, tb = A["toks"][ia], B["toks"][ib]
            ca, cb = A["cnts"][ia], B["cnts"][ib]
            dd = d[ia, ib].astype(np.int64)
            # normalize to tok_a < tok_b (cross-band order is by length,
            # not lexicographic)
            swap = ta > tb
            ta2 = np.where(swap, tb, ta)
            tb2 = np.where(swap, ta, tb)
            ca2 = np.where(swap, cb, ca)
            cb2 = np.where(swap, ca, cb)
            outs.append(
                pa.table(
                    {
                        "tok_a": pa.array(ta2, pa.string()),
                        "tok_b": pa.array(tb2, pa.string()),
                        "dist": pa.array(dd),
                        "cnt_a": pa.array(ca2.astype(np.int64)),
                        "cnt_b": pa.array(cb2.astype(np.int64)),
                    }
                )
            )
        return pa.concat_tables(outs) if outs else empty

    return rd.from_items(pairs).map_batches(
        solve, batch_format="pyarrow", batch_size=4
    )


def sql_fuzzy_vocab(*, max_dist: int = 2, min_count: int = 1,
                    source: str = "documents", text: str = "text") -> str:
    """DuckDB twin of :func:`fuzzy_vocab_pairs` — plain all-pairs with
    the levenshtein filter (the engine's length banding is recall-
    complete, so no blocking clause is needed here)."""
    having = (
        f"HAVING COUNT(*) >= {min_count}" if min_count > 1 else ""
    )
    return f"""
WITH tk AS (
  SELECT unnest(regexp_split_to_array({text}, '\\s+')) AS tok FROM {source}
),
uni AS (
  SELECT tok, COUNT(*)::BIGINT AS c FROM tk WHERE tok <> '' GROUP BY tok
  {having}
)
SELECT a.tok AS tok_a, b.tok AS tok_b,
       levenshtein(a.tok, b.tok)::BIGINT AS dist,
       a.c AS cnt_a, b.c AS cnt_b
FROM uni a JOIN uni b ON a.tok < b.tok
WHERE levenshtein(a.tok, b.tok) <= {max_dist}
"""


DOC_KEYWORDS_K = 3


def doc_keywords(
    ds,
    *,
    k: int = DOC_KEYWORDS_K,
    id_col: str = "doc_id",
    text_col: str = "text",
    round_to: int = 6,
):
    """Top-``k`` TF-IDF keywords per document: score = tf * ln(N/df)
    (plain idf over whitespace tokens), ranked per doc by (score DESC,
    token ASC) — a total order, so ranking is deterministic on both
    sides; terms present in EVERY doc score exactly 0 and are dropped.

    Two-phase plan (the bm25 shape): phase 1 reduces the corpus to
    (token, df) partials — plus one empty-string marker row per batch
    carrying the batch row count, '' can never be a \\S+ token — folded
    by the built-in Sum groupby; the vocabulary table returns
    driver-side (bounded by the token domain, not the corpus; beyond
    ~2M tokens ship it as a partitioned join instead, the tfidf.py
    fallback).  Phase 2 broadcasts {token: df} in the task closure and
    scores each batch with one pandas composite-key count + one total
    sort."""
    import re

    import pandas as pd
    from ray.data.aggregate import Sum

    tok_re = re.compile(TOKEN_PATTERN)

    def df_partial(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        c: dict = {}
        for t in texts:
            for w in set(tok_re.findall(t or "")):
                c[w] = c.get(w, 0) + 1
        toks = list(c.keys()) + [""]
        vals = list(c.values()) + [len(texts)]
        return pa.table(
            {"tok": pa.array(toks, pa.string()),
             "df": pa.array(vals, pa.int64())}
        )

    agg = (
        ds.map_batches(df_partial, batch_format="pyarrow")
        .groupby("tok")
        .aggregate(Sum("df", alias_name="df"))
    )
    vt = pa.concat_tables(
        t
        for t in agg.iter_batches(batch_size=None, batch_format="pyarrow")
        if t.num_rows
    )
    toks = np.asarray(vt["tok"]).astype(object)
    dfs = np.asarray(vt["df"], np.int64)
    n_docs = float(dfs[toks == ""][0])
    dfmap = dict(zip(toks[toks != ""], dfs[toks != ""]))
    tol = 10.0 ** round_to

    def score(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        ids = np.asarray(batch[id_col], np.int64)
        toks_per_doc = [tok_re.findall(t or "") for t in texts]
        lens = np.fromiter(
            (len(t) for t in toks_per_doc), dtype=np.int64, count=len(texts)
        )
        if not lens.sum():
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "tok": pa.array([], pa.string()),
                    "rank": pa.array([], pa.int64()),
                    "tfidf": pa.array([], pa.float64()),
                }
            )
        flat = [w for ts in toks_per_doc for w in ts]
        tf = (
            pd.DataFrame(
                {"i": np.repeat(np.arange(len(texts)), lens), "tok": flat}
            )
            .groupby(["i", "tok"], sort=False)
            .size()
            .reset_index(name="tf")
        )
        dfv = tf["tok"].map(dfmap).to_numpy(np.float64)
        s = tf["tf"].to_numpy(np.float64) * np.log(n_docs / dfv)
        tf["s"] = s
        tf = tf[s > 0.0]
        tf = tf.sort_values(
            ["i", "s", "tok"], ascending=[True, False, True]
        )
        tf["rank"] = tf.groupby("i", sort=False).cumcount() + 1
        tf = tf[tf["rank"] <= k]
        sr = tf["s"].to_numpy(np.float64)
        sr = np.sign(sr) * np.floor(np.abs(sr) * tol + 0.5) / tol
        return pa.table(
            {
                id_col: pa.array(ids[tf["i"].to_numpy(np.int64)]),
                "tok": pa.array(tf["tok"], pa.string()),
                "rank": pa.array(tf["rank"].to_numpy(np.int64)),
                "tfidf": pa.array(sr),
            }
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        score, batch_format="pyarrow"
    )


def sql_doc_keywords(
    *,
    k: int = DOC_KEYWORDS_K,
    source: str = "documents",
    id_col: str = "doc_id",
    text_col: str = "text",
    round_to: int = 6,
) -> str:
    """DuckDB twin of :func:`doc_keywords` (same tf, idf and tie law)."""
    tol = f"1e{round_to}"
    return f"""
WITH tk AS (
  SELECT {id_col}, unnest(regexp_split_to_array({text_col}, '\\s+')) AS tok
  FROM {source}
),
tf AS (
  SELECT {id_col}, tok, COUNT(*)::BIGINT AS tf
  FROM tk GROUP BY {id_col}, tok
),
df AS (
  SELECT tok, COUNT(*)::BIGINT AS df
  FROM (SELECT DISTINCT {id_col}, tok FROM tk) GROUP BY tok
),
n AS (SELECT COUNT(*)::DOUBLE AS n FROM {source}),
sc AS (
  SELECT tf.{id_col}, tf.tok,
         tf.tf::DOUBLE * ln((SELECT n FROM n) / df.df::DOUBLE) AS s
  FROM tf JOIN df ON df.tok = tf.tok
),
rk AS (
  SELECT {id_col}, tok, s,
         ROW_NUMBER() OVER (PARTITION BY {id_col}
                            ORDER BY s DESC, tok) AS r
  FROM sc WHERE s > 0
)
SELECT {id_col}, tok, r AS rank, ROUND(s * {tol}) / {tol} AS tfidf
FROM rk WHERE r <= {k}
"""


def naive_bayes_lang(
    ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    label_col: str = "lang",
    round_to: int = 6,
):
    """Multinomial Naive Bayes language classifier trained AND applied
    on the same corpus (the self-train shape; split-train is the same
    plan with two inputs): per-class token counts with add-1 smoothing,
    P(tok|l) = (c+1)/(nt_l+V), score(doc,l) = ln(ndocs_l/N) + sum over
    token occurrences of ln P(tok|l); prediction = argmax with ties to
    the smallest label.  Docs with zero tokens emit no row (they have
    no likelihood term — the SQL twin's join law).

    Two-phase plan: phase 1 reduces to (label, token, count) partials
    plus per-label doc-count marker rows ('' is never a \\S+ token),
    folded by one Sum groupby — model size is vocab x labels, bounded
    by the token domain (prune to top-K tokens by count before the
    broadcast at open-vocab scale); phase 2 broadcasts the dense
    log-likelihood matrix in the task closure and scores each batch
    with one token->column lookup + per-label segment sums."""
    import re

    import pandas as pd
    from ray.data.aggregate import Sum

    tok_re = re.compile(TOKEN_PATTERN)

    def cnt_partial(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        labs = batch[label_col].to_pylist()
        c: dict = {}
        nd: dict = {}
        for t, l in zip(texts, labs):
            nd[l] = nd.get(l, 0) + 1
            for w in tok_re.findall(t or ""):
                key = (l, w)
                c[key] = c.get(key, 0) + 1
        labels = [k[0] for k in c] + list(nd.keys())
        toks = [k[1] for k in c] + [""] * len(nd)
        vals = list(c.values()) + list(nd.values())
        return pa.table(
            {
                "lab": pa.array(labels, pa.string()),
                "tok": pa.array(toks, pa.string()),
                "c": pa.array(vals, pa.int64()),
            }
        )

    agg = (
        ds.map_batches(cnt_partial, batch_format="pyarrow")
        .groupby(["lab", "tok"])
        .aggregate(Sum("c", alias_name="c"))
    )
    mt = pa.concat_tables(
        t
        for t in agg.iter_batches(batch_size=None, batch_format="pyarrow")
        if t.num_rows
    )
    lab = np.asarray(mt["lab"]).astype(object)
    tok = np.asarray(mt["tok"]).astype(object)
    c = np.asarray(mt["c"], np.int64)
    is_marker = tok == ""
    labels = np.unique(lab)
    labels.sort()
    lidx = {l: i for i, l in enumerate(labels)}
    ndocs = np.zeros(len(labels), np.int64)
    for l, cc in zip(lab[is_marker], c[is_marker]):
        ndocs[lidx[l]] += cc
    n_total = float(ndocs.sum())
    vocab = np.unique(tok[~is_marker])
    vidx = {w: i for i, w in enumerate(vocab)}
    V = len(vocab)
    nt = np.zeros(len(labels), np.int64)
    cm = np.zeros((len(labels), V), np.int64)
    li = np.array([lidx[l] for l in lab[~is_marker]], np.int64)
    ti = np.array([vidx[w] for w in tok[~is_marker]], np.int64)
    np.add.at(nt, li, c[~is_marker])
    cm[li, ti] = c[~is_marker]
    # dense log-likelihood matrix, same op order as the SQL twin:
    # ln((c+1)::DOUBLE / (nt+V)::DOUBLE)
    L = np.log(
        (cm + 1).astype(np.float64)
        / (nt + V).astype(np.float64)[:, None]
    )
    prior = np.log(ndocs.astype(np.float64) / n_total)
    tol = 10.0 ** round_to
    labels_list = list(labels)

    def score(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        ids = np.asarray(batch[id_col], np.int64)
        toks_per_doc = [tok_re.findall(t or "") for t in texts]
        lens = np.fromiter(
            (len(t) for t in toks_per_doc), dtype=np.int64, count=len(texts)
        )
        keep = lens > 0
        if not keep.any():
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "pred_lang": pa.array([], pa.string()),
                    "score": pa.array([], pa.float64()),
                }
            )
        flat = [w for ts in toks_per_doc for w in ts]
        tix = np.array([vidx[w] for w in flat], np.int64)
        offs = np.concatenate([[0], np.cumsum(lens)])
        # per-segment reduceat, NOT cumsum differencing: float cumsum
        # error grows with the batch total and would leak across docs.
        # Zero-token docs share their offset with the next start, so
        # restricting to kept starts keeps segments exact.
        starts = offs[:-1][keep]
        nl = len(labels_list)
        s = np.empty((int(keep.sum()), nl))
        for j in range(nl):
            s[:, j] = prior[j] + np.add.reduceat(L[j][tix], starts)
        best = np.argmax(s, axis=1)  # first max = smallest label on ties
        sc = s[np.arange(len(s)), best]
        sc = np.sign(sc) * np.floor(np.abs(sc) * tol + 0.5) / tol
        return pa.table(
            {
                id_col: pa.array(ids[keep]),
                "pred_lang": pa.array(
                    [labels_list[b] for b in best], pa.string()
                ),
                "score": pa.array(sc),
            }
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        score, batch_format="pyarrow"
    )


def sql_naive_bayes_lang(
    *,
    source: str = "documents",
    id_col: str = "doc_id",
    text_col: str = "text",
    label_col: str = "lang",
    round_to: int = 6,
) -> str:
    """DuckDB twin of :func:`naive_bayes_lang` (same smoothing, same
    prior and tie law)."""
    tol = f"1e{round_to}"
    return f"""
WITH tk AS (
  SELECT {id_col}, unnest(regexp_split_to_array({text_col}, '\\s+')) AS tok
  FROM {source}
),
cnt AS (
  SELECT d.{label_col} AS lab, tk.tok, COUNT(*)::BIGINT AS c
  FROM tk JOIN {source} d USING ({id_col})
  GROUP BY lab, tk.tok
),
nt AS (SELECT lab, SUM(c)::BIGINT AS nt FROM cnt GROUP BY lab),
nd AS (
  SELECT {label_col} AS lab, COUNT(*)::BIGINT AS ndocs
  FROM {source} GROUP BY lab
),
nn AS (SELECT COUNT(*)::BIGINT AS n FROM {source}),
vv AS (SELECT COUNT(DISTINCT tok)::BIGINT AS v FROM tk),
sc AS (
  SELECT tk.{id_col}, nd.lab,
         ln(nd.ndocs::DOUBLE / (SELECT n FROM nn)::DOUBLE)
         + SUM(ln((COALESCE(cnt.c, 0) + 1)::DOUBLE
                  / (nt.nt + (SELECT v FROM vv))::DOUBLE)) AS s
  FROM tk
  CROSS JOIN nd
  JOIN nt ON nt.lab = nd.lab
  LEFT JOIN cnt ON cnt.lab = nd.lab AND cnt.tok = tk.tok
  GROUP BY tk.{id_col}, nd.lab, nd.ndocs, nt.nt
)
SELECT {id_col}, lab AS pred_lang, ROUND(s * {tol}) / {tol} AS score
FROM sc
QUALIFY ROW_NUMBER() OVER (PARTITION BY {id_col} ORDER BY s DESC, lab) = 1
"""


# ---------------------------------------------------------------------------
# DSIR-style importance weights (data selection for pretraining mixes)
# ---------------------------------------------------------------------------

DSIR_BUCKETS = 1024


def dsir_weights(
    ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    target_mask_fn=None,
    n_buckets: int = DSIR_BUCKETS,
):
    """Data Selection via Importance Resampling (Xie et al. 2023,
    arXiv:2302.03169): per-doc importance log-weight under hashed
    bag-of-words LMs of a TARGET (in-domain) slice vs the RAW remainder,
    ``mean over tokens of ln(p_target(bucket) / p_raw(bucket))`` with
    add-one smoothing over ``n_buckets`` md5-law hash buckets.  Docs
    with positive weight look more target-like — the resampling key for
    domain-matched pretraining mixes.

    ``target_mask_fn(ids: np.ndarray) -> bool mask`` labels the target
    slice from the id column (a closed-form predicate keeps the DuckDB
    twin exact; a membership lookup works the same way).

    Scale shape: ONE pass over the text reduces to at most ``n_buckets``
    (bucket, target-count, raw-count) rows per batch -> a tiny Sum
    groupby; the two count vectors (KBs) broadcast once per worker and
    the scoring pass is stateless + vectorized.  No corpus-scale shuffle
    exists at any size.
    """
    import ray
    from ray.data.aggregate import Sum

    if target_mask_fn is None:
        raise ValueError("dsir_weights requires target_mask_fn")

    def _tokens(batch: pa.Table):
        la = pc.split_pattern_regex(batch[text_col], r"\s+")
        if isinstance(la, pa.ChunkedArray):
            la = la.combine_chunks()
        flat = la.flatten()
        lens = np.diff(la.offsets.to_numpy())
        rid = np.repeat(np.arange(len(la), dtype=np.int64), lens)
        keep = np.asarray(pc.fill_null(pc.not_equal(flat, ""), False))
        words = flat.filter(pa.array(keep))
        return words, rid[keep]

    def _buckets(words) -> np.ndarray:
        toks = np.asarray(words).astype(object)
        uniq, inv = np.unique(toks, return_inverse=True)
        if not len(uniq):
            return np.zeros(0, np.int64)
        hb = (
            md5_prefix_int(pa.array(list(uniq), pa.string()))
            % np.uint64(n_buckets)
        ).astype(np.int64)
        return hb[inv]

    def cpart(batch: pa.Table) -> pa.Table:
        words, rid = _tokens(batch)
        b = _buckets(words)
        ids = np.asarray(batch[id_col], np.int64)
        tgt = np.asarray(target_mask_fn(ids), bool)[rid]
        ct = np.bincount(b[tgt], minlength=n_buckets)
        cr = np.bincount(b[~tgt], minlength=n_buckets)
        nz = np.flatnonzero(ct | cr)
        return pa.table(
            {
                "bucket": pa.array(nz),
                "ct": pa.array(ct[nz]),
                "cr": pa.array(cr[nz]),
            }
        )

    counts = (
        ds.map_batches(cpart, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("ct", alias_name="ct"), Sum("cr", alias_name="cr"))
    )
    parts = [
        t
        for t in (
            ray.get(r) for r in counts.materialize().to_arrow_refs()
        )
        if t.num_columns > 0 and t.num_rows > 0
    ]
    CT = np.zeros(n_buckets, np.float64)
    CR = np.zeros(n_buckets, np.float64)
    for p in parts:
        bk = np.asarray(p["bucket"], np.int64)
        CT[bk] += np.asarray(p["ct"], np.float64)
        CR[bk] += np.asarray(p["cr"], np.float64)
    tt, tr, nb = float(CT.sum()), float(CR.sum()), float(n_buckets)
    ref = Broadcast((CT, CR))

    def score(batch: pa.Table) -> pa.Table:
        ct_s, cr_s = ref.get()
        words, rid = _tokens(batch)
        b = _buckets(words)
        lw = np.log(
            ((ct_s[b] + 1.0) / (tt + nb)) / ((cr_s[b] + 1.0) / (tr + nb))
        ) if len(b) else np.zeros(0)
        n = batch.num_rows
        sums = np.zeros(n)
        np.add.at(sums, rid, lw if len(lw) else 0.0)
        ntok = np.bincount(rid, minlength=n).astype(np.int64)
        with np.errstate(invalid="ignore"):
            mean = sums / ntok
        return pa.table(
            {
                id_col: batch[id_col],
                "n_tokens": pa.array(ntok),
                "dsir_logw": pa.array(mean, mask=ntok == 0),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


def sql_dsir_weights(
    target_pred: str,
    *,
    n_buckets: int = DSIR_BUCKETS,
    source: str = "documents",
) -> str:
    """DuckDB twin of :func:`dsir_weights`: same tokenizer, same md5
    bucket law, same add-one-smoothed log-ratio (AVG per doc; 6-dp
    rounding absorbs summation-order ulps, the unigram_logprob
    precedent)."""
    nb = float(n_buckets)
    return f"""
WITH tk AS (
  SELECT doc_id, unnest(regexp_split_to_array(text, '\\s+')) AS tok
  FROM {source}
), tk2 AS (
  SELECT doc_id,
         CAST(('0x' || substr(md5(tok), 1, 15))::UBIGINT
              % {n_buckets} AS BIGINT) AS bucket
  FROM tk WHERE tok <> ''
),
cnts AS (
  SELECT bucket,
         SUM(CASE WHEN {target_pred} THEN 1 ELSE 0 END)::DOUBLE AS ct,
         SUM(CASE WHEN {target_pred} THEN 0 ELSE 1 END)::DOUBLE AS cr
  FROM tk2 GROUP BY bucket
),
tot AS (SELECT SUM(ct) AS tt, SUM(cr) AS tr FROM cnts),
scored AS (
  SELECT t.doc_id, COUNT(*)::BIGINT AS n_tokens,
         AVG(LN(((c.ct + 1.0) / ((SELECT tt FROM tot) + {nb}))
                / ((c.cr + 1.0) / ((SELECT tr FROM tot) + {nb})))) AS w
  FROM tk2 t JOIN cnts c USING (bucket) GROUP BY t.doc_id
)
SELECT d.doc_id,
       COALESCE(s.n_tokens, 0) AS n_tokens,
       ROUND(s.w * 1e6) / 1e6 AS dsir_logw
FROM {source} d LEFT JOIN scored s USING (doc_id)
"""


# ---------------------------------------------------------------------------
# Gopher-style rule gate (Rae et al. 2021, arXiv:2112.11446 Table A1)
# ---------------------------------------------------------------------------

GOPHER_MIN_WORDS, GOPHER_MAX_WORDS = 50, 100_000
GOPHER_MWL_LO, GOPHER_MWL_HI = 3, 10  # mean word length bounds
GOPHER_SYMBOL_DEN = 10  # symbol ratio fail when 10*symbols > words
GOPHER_ALPHA_NUM, GOPHER_ALPHA_DEN = 4, 5  # fail when alpha/words < 4/5
GOPHER_MIN_STOP = 2
GOPHER_WORD_RE = r"\S+"
GOPHER_NONWS_RE = r"\S"
GOPHER_SYMBOL_RE = r"(\.\.\.|#)"
GOPHER_ALPHA_WORD_RE = r"\S*[A-Za-z]\S*"
GOPHER_STOP_RE = r"\b(the|be|to|of|and|that|have|with)\b"


def gopher_rules(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Gopher quality-rule gate: FIRST failing rule as the reason code
    (``word_count`` -> ``word_length`` -> ``symbol_ratio`` ->
    ``alpha_ratio`` -> ``stopwords`` -> ``pass``), the paper's document
    filters re-expressed over this corpus's columns.

    Every ratio rule is evaluated by INTEGER cross-multiplication
    (``10*symbols > words`` instead of ``symbols/words > 0.1``) so the
    boundary can never flip on float noise — the SQL twin multiplies the
    same integers.  One stateless vectorized stage: five RE2 count
    kernels, zero shuffles, linear in corpus bytes."""
    t = batch[text_col]

    def cnt(pat):
        return np.asarray(
            pc.cast(pc.count_substring_regex(t, pat), pa.int64())
        )

    words = cnt(GOPHER_WORD_RE)
    nonws = cnt(GOPHER_NONWS_RE)
    sym = cnt(GOPHER_SYMBOL_RE)
    alpha = cnt(GOPHER_ALPHA_WORD_RE)
    stop = cnt(GOPHER_STOP_RE)

    reason = np.full(batch.num_rows, "pass", dtype=object)
    ok = np.ones(batch.num_rows, dtype=bool)

    def fire(mask, code):
        nonlocal ok
        hit = ok & mask
        reason[hit] = code
        ok &= ~mask

    fire((words < GOPHER_MIN_WORDS) | (words > GOPHER_MAX_WORDS),
         "word_count")
    fire((nonws < GOPHER_MWL_LO * words) | (nonws > GOPHER_MWL_HI * words),
         "word_length")
    fire(GOPHER_SYMBOL_DEN * sym > words, "symbol_ratio")
    fire(GOPHER_ALPHA_DEN * alpha < GOPHER_ALPHA_NUM * words, "alpha_ratio")
    fire(stop < GOPHER_MIN_STOP, "stopwords")

    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "n_words": pa.array(words),
            "reason": pa.array(reason, pa.string()),
        }
    )


def sql_gopher_rules(source: str = "documents") -> str:
    """DuckDB twin of :func:`gopher_rules` — same RE2 patterns (DuckDB
    string literals keep backslashes), same integer cross-multiplied
    boundaries, same first-fail CASE order."""
    w = f"len(regexp_extract_all(text, '{GOPHER_WORD_RE}'))"
    nw = f"len(regexp_extract_all(text, '{GOPHER_NONWS_RE}'))"
    sy = f"len(regexp_extract_all(text, '{GOPHER_SYMBOL_RE}'))"
    al = f"len(regexp_extract_all(text, '{GOPHER_ALPHA_WORD_RE}'))"
    st = f"len(regexp_extract_all(text, '{GOPHER_STOP_RE}'))"
    return f"""
SELECT doc_id, {w}::BIGINT AS n_words,
  CASE
    WHEN {w} < {GOPHER_MIN_WORDS} OR {w} > {GOPHER_MAX_WORDS}
        THEN 'word_count'
    WHEN {nw} < {GOPHER_MWL_LO} * {w} OR {nw} > {GOPHER_MWL_HI} * {w}
        THEN 'word_length'
    WHEN {GOPHER_SYMBOL_DEN} * {sy} > {w} THEN 'symbol_ratio'
    WHEN {GOPHER_ALPHA_DEN} * {al} < {GOPHER_ALPHA_NUM} * {w}
        THEN 'alpha_ratio'
    WHEN {st} < {GOPHER_MIN_STOP} THEN 'stopwords'
    ELSE 'pass'
  END AS reason
FROM {source}
"""


_WS_BYTES = (9, 10, 11, 12, 13, 32)  # regex \s on the ASCII corpus law


def bpe_merge_counts(ds, *, text_col: str = "text", top_k: int = 20):
    """First-round BPE merge statistics: counts of ADJACENT CHARACTER
    pairs inside whitespace tokens, the quantity a byte-pair-encoding
    trainer maximizes per merge.  Output: (rank, pair, cnt), top_k by
    (cnt DESC, pair ASC).

    Vectorized over the flat Arrow string buffer: one mask pass marks
    positions whose char AND successor are non-whitespace and belong to
    the same document, packed pair codes (c0*256 + c1) feed one
    ``np.bincount`` per batch — a dense 65536-cell combiner row — and
    the pair domain is ALPHABET-BOUNDED (<= 64k cells) so the final
    fold is a driver-side add regardless of corpus size."""
    import ray.data as rd

    def part(b: pa.Table) -> pa.Table:
        col = b[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        col = pc.cast(col, pa.string())
        off = np.frombuffer(
            col.buffers()[1], np.int32, len(col) + 1 + col.offset
        )[col.offset:]
        total = int(off[-1]) - int(off[0])
        if total < 2:
            return pa.table({"acc": pa.array([], pa.binary())})
        data = np.frombuffer(
            col.buffers()[2], np.uint8, int(off[-1])
        )[int(off[0]):]
        ws = np.zeros(256, bool)
        for w in _WS_BYTES:
            ws[w] = True
        ok = ~ws[data]
        # successor within the same document: position p pairs with p+1
        # unless p+1 is a document start
        doc_start = np.zeros(total, bool)
        starts = (off[:-1] - off[0]).astype(np.int64)
        doc_start[starts[starts < total]] = True
        pair_ok = ok[:-1] & ok[1:] & ~doc_start[1:]
        codes = (
            data[:-1][pair_ok].astype(np.int64) * 256
            + data[1:][pair_ok].astype(np.int64)
        )
        acc = np.bincount(codes, minlength=65536).astype(np.int64)
        return pa.table({"acc": pa.array([acc.tobytes()], pa.binary())})

    acc = np.zeros(65536, np.int64)
    for t in ds.map_batches(part, batch_format="pyarrow").iter_batches(
        batch_size=None, batch_format="pyarrow"
    ):
        for buf in t["acc"].to_pylist():
            acc += np.frombuffer(buf, np.int64)
    nz = np.flatnonzero(acc)
    pairs = np.array(
        [chr(int(c) >> 8) + chr(int(c) & 255) for c in nz], dtype=object
    )
    cnt = acc[nz]
    order = np.lexsort((pairs, -cnt))[:top_k]
    return pa.table(
        {
            "rank": pa.array(
                np.arange(1, len(order) + 1, dtype=np.int64)
            ),
            "pair": pa.array(pairs[order].astype(object), pa.string()),
            "cnt": pa.array(cnt[order]),
        }
    )


def sql_bpe_merge_counts(
    *, source: str = "documents", text: str = "text", top_k: int = 20
) -> str:
    """DuckDB twin of :func:`bpe_merge_counts` (regexp \\s+ token split,
    in-token adjacent substr pairs, same top-k law)."""
    return f"""
WITH tk AS (
  SELECT unnest(regexp_split_to_array({text}, '\\s+')) AS t FROM {source}
),
pr AS (
  SELECT substr(t, g.i, 2) AS pair
  FROM tk, LATERAL (
    SELECT unnest(generate_series(1, length(t) - 1)) AS i) g
  WHERE length(t) >= 2
)
SELECT ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC, pair ASC)::BIGINT
         AS rank,
       pair, COUNT(*)::BIGINT AS cnt
FROM pr GROUP BY pair
ORDER BY cnt DESC, pair ASC LIMIT {top_k}
"""
