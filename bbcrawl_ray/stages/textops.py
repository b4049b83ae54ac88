"""Text analysis over document tables — vectorized pyarrow kernels.

Large-scale training-data operators (no reference counterpart; the
engine extension mandated by the build brief): token counting, quality
scoring, language ID, and document fingerprinting. All hot paths are
``pyarrow.compute`` kernels or numpy over zero-copy Arrow batches;
the only Python-per-row work is the langid profile scorer and the
rolling-hash fingerprint (both stateful-table-free, stateless tasks).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ray.data import Dataset

# ---------------------------------------------------------------------------
# token counting (whitespace + a BPE-ish regex variant)

_BPE_ISH = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"


def _count64(col, pattern: str) -> pa.ChunkedArray:
    """count_substring_regex returns int32; emit int64 so the output
    dtype matches DuckDB's BIGINT byte-for-byte in the driver hash."""
    return pc.cast(pc.count_substring_regex(col, pattern), pa.int64())


def add_token_counts(t: pa.Table, col: str = "text") -> pa.Table:
    """n_tokens (whitespace runs) + n_subtokens (BPE-ish pieces), vectorized."""
    return t.append_column(
        "n_tokens", _count64(t[col], r"\S+")
    ).append_column("n_subtokens", _count64(t[col], _BPE_ISH))


def token_count_ds(ds: Dataset, col: str = "text") -> Dataset:
    return ds.map_batches(lambda t: add_token_counts(t, col), batch_format="pyarrow")


# ---------------------------------------------------------------------------
# quality scoring: integer counts (exact, oracle-safe) + derived ratios

_STOPWORDS = "the and of a to in is it you that".split()
_STOP_RE = r"\b(" + "|".join(_STOPWORDS) + r")\b"


def add_quality_counts(t: pa.Table, col: str = "text") -> pa.Table:
    text = t[col]
    return (
        t.append_column("n_chars_q", pc.cast(pc.utf8_length(text), pa.int64()))
        .append_column("n_alpha", _count64(text, r"[A-Za-z]"))
        .append_column("n_digit", _count64(text, r"[0-9]"))
        .append_column("n_punct", _count64(text, r"[^A-Za-z0-9\s]"))
        .append_column("n_tokens", _count64(text, r"\S+"))
        .append_column(
            "n_stopwords",
            pc.cast(pc.count_substring_regex(pc.utf8_lower(text), _STOP_RE), pa.int64()),
        )
    )


def quality_score_batch(t: pa.Table, col: str = "text") -> pa.Table:
    """Counts + a [0,1] quality score (heuristic: alpha-ratio, stopword
    presence, sane token length). Score is float — derived column, not
    part of the exact-match oracle surface."""
    t = add_quality_counts(t, col)
    n_chars = t["n_chars_q"].to_numpy(zero_copy_only=False).astype(np.float64)
    alpha = t["n_alpha"].to_numpy(zero_copy_only=False).astype(np.float64)
    toks = t["n_tokens"].to_numpy(zero_copy_only=False).astype(np.float64)
    stop = t["n_stopwords"].to_numpy(zero_copy_only=False).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha_ratio = np.where(n_chars > 0, alpha / n_chars, 0.0)
        stop_ratio = np.where(toks > 0, stop / toks, 0.0)
        avg_tok = np.where(toks > 0, n_chars / toks, 0.0)
    len_ok = np.clip(1.0 - np.abs(avg_tok - 5.0) / 10.0, 0.0, 1.0)
    score = 0.5 * alpha_ratio + 0.3 * np.clip(stop_ratio * 3, 0, 1) + 0.2 * len_ok
    return t.append_column("quality_score", pa.array(score, pa.float64()))


# ---------------------------------------------------------------------------
# language ID — n-gram/stopword profile heuristic (stateless task; the
# profiles are module constants, compiled once per process)

_LANG_PROFILES = {
    "en": {"the", "and", "of", "to", "is", "you", "that", "it", "with"},
    "de": {"der", "die", "und", "das", "ist", "nicht", "mit", "ein", "zu"},
    "es": {"el", "la", "de", "que", "los", "una", "por", "con", "para"},
    "fr": {"le", "la", "les", "des", "est", "une", "dans", "pour", "que"},
}
_WORD_RE = re.compile(r"[a-zA-Z]+")
_CJK_RE = re.compile(r"[一-鿿]")


def detect_lang(text: str) -> str:
    if _CJK_RE.search(text):
        return "zh"
    words = _WORD_RE.findall(text.lower())
    if not words:
        return "und"
    # count once, then 9 dict lookups per language instead of a full
    # pass over the document per language (identical totals: profile
    # hits are occurrence counts either way)
    from collections import Counter

    counts = Counter(words)
    best, best_hits = "und", 0
    for lang, stops in _LANG_PROFILES.items():
        hits = sum(counts.get(w, 0) for w in stops)
        if hits > best_hits:
            best, best_hits = lang, hits
    return best if best_hits > 0 else "und"


def add_lang(t: pa.Table, col: str = "text") -> pa.Table:
    langs = [detect_lang(x) for x in t[col].to_pylist()]
    return t.append_column("detected_lang", pa.array(langs, pa.string()))


# ---------------------------------------------------------------------------
# document fingerprinting — rolling polynomial hash, min-window (winnowing-lite)

_FP_BASE = 1099511628211
_MASK64 = 0xFFFFFFFFFFFFFFFF


def hash64_token(tok: str) -> int:
    """FNV-1a over the token bytes (pure-int, wraps at 64 bits)."""
    h = 14695981039346656037
    for b in tok.encode("utf-8"):
        h = ((h ^ b) * _FP_BASE) & _MASK64
    return h


def fingerprint(text: str, window: int = 5) -> int:
    """Min polynomial rolling hash over ``window``-token windows — a
    64-bit content fingerprint (winnowing-lite)."""
    toks = text.split()
    if not toks:
        return 0
    th = [hash64_token(tok) for tok in toks]
    if len(th) <= window:
        h = 0
        for v in th:
            h = (h * _FP_BASE + v) & _MASK64
        return h
    best = None
    for i in range(len(th) - window + 1):
        h = 0
        for v in th[i : i + window]:
            h = (h * _FP_BASE + v) & _MASK64
        if best is None or h < best:
            best = h
    return best


_POW_CACHE: dict[int, np.ndarray] = {}


def _powers(n: int) -> np.ndarray:
    """[B^(n-1), ..., B, 1] mod 2^64 — Horner expansion coefficients."""
    p = _POW_CACHE.get(n)
    if p is None:
        p = np.empty(n, dtype=np.uint64)
        acc = np.uint64(1)
        base = np.uint64(_FP_BASE)
        for i in range(n - 1, -1, -1):
            p[i] = acc
            acc = acc * base  # uint64 wrap == mod 2^64
        _POW_CACHE[n] = p
    return p


def fingerprint_batch(texts: list[str], window: int = 5) -> np.ndarray:
    """Vectorized ``fingerprint`` over a batch: unique tokens hashed once
    (FNV cache), then a numpy sliding-window polynomial hash — identical
    modular arithmetic to the scalar path, no per-window Python loop."""
    from numpy.lib.stride_tricks import sliding_window_view

    old = np.seterr(over="ignore")
    try:
        cache: dict[str, int] = {}
        out = np.zeros(len(texts), dtype=np.uint64)
        for i, text in enumerate(texts):
            toks = text.split()
            if not toks:
                continue
            th = np.empty(len(toks), dtype=np.uint64)
            for j, tk in enumerate(toks):
                h = cache.get(tk)
                if h is None:
                    h = hash64_token(tk)
                    cache[tk] = h
                th[j] = h
            n = len(th)
            if n <= window:
                out[i] = np.sum(th * _powers(n), dtype=np.uint64)
            else:
                wins = sliding_window_view(th, window)
                hashes = np.sum(wins * _powers(window), axis=1, dtype=np.uint64)
                out[i] = hashes.min()
        return out
    finally:
        np.seterr(**old)


def add_fingerprint(t: pa.Table, col: str = "text", window: int = 5) -> pa.Table:
    fps = fingerprint_batch(t[col].to_pylist(), window)
    return t.append_column("fingerprint", pa.array(fps, pa.uint64()))


# ---------------------------------------------------------------------------
# repetition signals — Gopher-style per-doc repetition/diversity ratios
# (Rae et al. 2021 §A1.1 use duplicate-n-gram fractions as quality
# filters). All-vectorized: tokens never become Python strings — Arrow
# splits + dictionary-encodes, numpy/pandas do the grouped counting.


def flat_tokens(col) -> tuple[pa.Array, np.ndarray, np.ndarray]:
    """ONE tokenization for every oracle-backed token operator: RE2
    ``\\s+`` split (DuckDB's ``regexp_split_to_array`` uses RE2's ASCII
    ``\\s``, so an Arrow Unicode-whitespace split would silently diverge
    on exotic whitespace). Returns ``(flat tokens, parent doc indices
    int64, keep mask)`` — splitting "" or edge whitespace yields ""
    tokens, which the mask drops to match str.split() / the SQL
    ``tok <> ''`` filter."""
    lists = pc.split_pattern_regex(col, pattern=r"\s+")
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    flat = pc.list_flatten(lists)
    parent = (
        pc.list_parent_indices(lists)
        .to_numpy(zero_copy_only=False)
        .astype(np.int64, copy=False)
    )
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    return flat, parent, keep


def repetition_signals_batch(
    t: pa.Table, id_col: str = "doc_id", col: str = "text"
) -> pa.Table:
    """Per-doc repetition/diversity signals over whitespace tokens:

    - ``n_tokens``            total tokens (int64)
    - ``distinct_token_ratio``  distinct/total tokens
    - ``distinct_bigram_ratio`` distinct/total adjacent bigrams
    - ``top_token_fraction``    occurrences of the modal token / total

    Ratios are NaN where the denominator is 0 (empty doc, or <2 tokens
    for the bigram ratio) — mirroring SQL NULL-on-missing join rows.
    Token identity is resolved by ``pc.dictionary_encode`` (C++), so no
    per-token Python object is ever created; bigram distinctness uses
    two-column drop_duplicates (no hash-combine overflow risk)."""
    n_docs = t.num_rows
    flat, parent, keep = flat_tokens(t[col])
    codes = (
        pc.dictionary_encode(flat)
        .indices.to_numpy(zero_copy_only=False)
        .astype(np.int64, copy=False)
    )
    parent = parent[keep]
    codes = codes[keep]

    n_tokens = np.bincount(parent, minlength=n_docs).astype(np.int64)

    df = pd.DataFrame({"d": parent, "c": codes})
    per_tok = df.groupby(["d", "c"], sort=False).size()
    n_distinct = np.zeros(n_docs, np.int64)
    top_c = np.zeros(n_docs, np.int64)
    if len(per_tok):
        by_doc = per_tok.groupby(level=0)
        dist = by_doc.size()
        n_distinct[dist.index.to_numpy()] = dist.to_numpy()
        top = by_doc.max()
        top_c[top.index.to_numpy()] = top.to_numpy()

    # adjacent bigrams: positions i, i+1 in the same doc (the flattened
    # arrays are in (doc, position) order by construction)
    same = parent[1:] == parent[:-1]
    bd = parent[1:][same]
    n_bigrams = np.bincount(bd, minlength=n_docs).astype(np.int64)
    bdf = pd.DataFrame({"d": bd, "a": codes[:-1][same], "b": codes[1:][same]})
    n_distinct_big = np.zeros(n_docs, np.int64)
    if len(bdf):
        bdist = bdf.drop_duplicates().groupby("d", sort=False).size()
        n_distinct_big[bdist.index.to_numpy()] = bdist.to_numpy()

    with np.errstate(divide="ignore", invalid="ignore"):
        # int/int float64 division is correctly rounded IEEE — bit-equal
        # to DuckDB's CAST(... AS DOUBLE)/... on the same integers
        tok_ratio = np.where(n_tokens > 0, n_distinct / n_tokens, np.nan)
        big_ratio = np.where(n_bigrams > 0, n_distinct_big / n_bigrams, np.nan)
        top_frac = np.where(n_tokens > 0, top_c / n_tokens, np.nan)

    return pa.table(
        {
            id_col: t[id_col],
            "n_tokens": pa.array(n_tokens, pa.int64()),
            "distinct_token_ratio": pa.array(tok_ratio, pa.float64()),
            "distinct_bigram_ratio": pa.array(big_ratio, pa.float64()),
            "top_token_fraction": pa.array(top_frac, pa.float64()),
        }
    )


# ---------------------------------------------------------------------------
# sequence packing — the LM-pretraining "last mile": tokenized docs
# concatenate into fixed-length training sequences. Packing is GLOBAL
# state in the naive formulation (a sequence may span docs), so the
# distributed form packs within hash shards — one exchange reducer per
# shard id, so each reducer holds exactly one shard: deterministic,
# carry-free, and each shard's single partial tail is the only loss
# (bounded by shards × (seq_len-1) tokens corpus-wide).


def pack_sequences(
    ds: Dataset,
    seq_len: int = 512,
    id_col: str = "doc_id",
    col: str = "text",
    vocab_bits: int = 16,
    n_shards: int | None = None,
) -> Dataset:
    """documents → fixed-length token-id sequences for LM pretraining.

    Tokens hash to ids in a 2^vocab_bits space (a stand-in for a real
    BPE vocab — the engine's job is the dataflow, not the tokenizer).
    Docs route to ``n_shards`` hash shards (data-sized by default), one
    ``relops._exchange`` reducer per shard id; each shard sorts its docs
    by id (deterministic concatenation order), concatenates the id
    stream, and reshapes to (k, seq_len) —
    pure numpy, no per-token Python. Output rows:
    (shard:int32, seq_index:int64, token_ids:list<int32>[seq_len],
    n_docs_touched:int64). Every row carries EXACTLY seq_len ids; per
    shard only the final partial tail is dropped."""
    from ..functions.urlfns import hash64_batch_fast
    from ..pipelines.relops import _column_route, _exchange, data_sized_shards

    if n_shards is None:
        n_shards = data_sized_shards(ds.count(), target_rows=500_000, min_shards=8)
    shards = n_shards
    mask = (1 << vocab_bits) - 1

    def tok_ids(t: pa.Table) -> pa.Table:
        flat, parent, keep = flat_tokens(t[col])
        parent = parent[keep]
        toks = flat.filter(pa.array(keep))
        # token → id: one hash per DISTINCT token in the batch
        enc = pc.dictionary_encode(toks)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        vocab = enc.dictionary.to_pylist()
        vocab_ids = (hash64_batch_fast(vocab) & np.uint64(mask)).astype(np.int32)
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        ids = vocab_ids[codes]
        doc_ids = t[id_col].to_numpy(zero_copy_only=False)
        # one row per doc: its id array (list column), shard, token count
        starts = np.flatnonzero(np.diff(parent, prepend=-1))
        doc_rows = parent[starts]
        offsets = np.append(starts, len(parent)).astype(np.int32)
        id_list = pa.ListArray.from_arrays(
            pa.array(offsets), pa.array(ids, pa.int32())
        )
        keys = [str(k) for k in doc_ids[doc_rows]]
        shard = (hash64_batch_fast(keys) % np.uint64(shards)).astype(np.int32)
        return pa.table(
            {
                "_shard": pa.array(shard, pa.int32()),
                id_col: pa.array(doc_ids[doc_rows]),
                "ids": id_list,
            }
        )

    def pack_shard(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(id_col, kind="mergesort")
        lens = np.array([len(x) for x in g["ids"]], np.int64)
        stream = np.concatenate([np.asarray(x, np.int32) for x in g["ids"]])
        k = len(stream) // seq_len
        shard_id = int(g["_shard"].iloc[0])
        # per-sequence provenance: docs whose token span overlaps the
        # sequence's [j·L, (j+1)·L) slice of the shard stream — NOT the
        # shard's total doc count (tail-only docs don't touch any row)
        doc_ends = np.cumsum(lens)
        doc_starts = doc_ends - lens
        j = np.arange(k, dtype=np.int64)
        touched = np.searchsorted(doc_starts, (j + 1) * seq_len, side="left") - np.searchsorted(
            doc_ends, j * seq_len, side="right"
        )
        # fully-typed Arrow output on EVERY path (an untyped empty pandas
        # frame infers token_ids: null and emits mixed-schema blocks)
        ids_arr = pa.FixedSizeListArray.from_arrays(
            pa.array(stream[: k * seq_len], pa.int32()), seq_len
        )
        return pa.table(
            {
                "shard": pa.array(np.full(k, shard_id, np.int32), pa.int32()),
                "seq_index": pa.array(j, pa.int64()),
                "token_ids": ids_arr,
                "n_docs_touched": pa.array(touched.astype(np.int64), pa.int64()),
            }
        )

    keyed = ds.select_columns([id_col, col]).map_batches(
        tok_ids, batch_format="pyarrow"
    )
    return _exchange(keyed, _column_route("_shard"), shards, pack_shard, "pandas")
