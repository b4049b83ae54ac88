"""Sampling + approximate-distinct operators (PAPERS.md: stratified
random sampling over streaming data; mergeable sketches).

- ``key_mod_sample``     — deterministic systematic sample (key % m < k);
                           trivially reproducible in any engine.
- ``stratified_sample``  — top-n per stratum ordered by md5(key): the
                           hash is engine-independent (DuckDB md5 ==
                           hashlib.md5), so the SQL oracle reproduces
                           the EXACT sample. Pre-prune per batch (local
                           top-n per stratum), then the same top-n as
                           the keyed tail (``relops._by_key``) over
                           ≤ n × strata × blocks rows, never the table.
- ``HllSketch`` / ``approx_distinct`` — classic HyperLogLog, one sketch
  per batch emitted from ``map_batches``, merged in a tiny driver-side
  reduce (sketches are mergeable by design — SURVEY.md §2.7
  aggregation note).
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ray.data import Dataset

from ..pipelines import relops as R

# ---------------------------------------------------------------------------
# sampling


def key_mod_sample(ds: Dataset, key: str, mod: int, keep: int) -> Dataset:
    """Rows where key % mod < keep (deterministic systematic sample)."""

    def fn(t: pa.Table) -> pa.Table:
        mask = pc.less(
            pc.subtract(t[key], pc.multiply(pc.divide(t[key], mod), mod)),
            pa.scalar(keep),
        )
        return t.filter(mask)

    return ds.map_batches(fn, batch_format="pyarrow")


def _md5_rank(keys: list[str]) -> list[str]:
    return [hashlib.md5(k.encode()).hexdigest() for k in keys]


def stratified_sample(
    ds: Dataset, strata_col: str, key_cols: list[str], n_per_stratum: int
) -> Dataset:
    """n rows per stratum, chosen by smallest md5 of the joined key.

    Deterministic and engine-independent (the DuckDB oracle is
    ``QUALIFY row_number() OVER (PARTITION BY strata ORDER BY md5(key),
    key) <= n``).
    """

    def keep_n(t: pa.Table) -> pa.Table:
        # at most n per stratum, smallest rank first: run per batch as
        # the local prune, and again as the keyed tail over the partials
        t = t.take(
            pc.sort_indices(
                t, sort_keys=[(strata_col, "ascending"), ("sample_rank", "ascending")]
            )
        )
        keep_mask = []
        count: dict = {}
        for s in t[strata_col].to_pylist():
            c = count.get(s, 0)
            keep_mask.append(c < n_per_stratum)
            count[s] = c + 1
        return t.filter(pa.array(keep_mask, pa.bool_()))

    def add_rank(t: pa.Table) -> pa.Table:
        parts = [pc.cast(t[c], pa.string()) for c in key_cols]
        joined = parts[0]
        for p in parts[1:]:
            joined = pc.binary_join_element_wise(joined, p, "-")
        ranks = _md5_rank(joined.to_pylist())
        return keep_n(t.append_column("sample_rank", pa.array(ranks, pa.string())))

    pruned = ds.map_batches(add_rank, batch_format="pyarrow").materialize()
    return R._by_key(pruned, [strata_col], keep_n, "pyarrow")


# ---------------------------------------------------------------------------
# HyperLogLog


class HllSketch:
    """Classic HLL with 2^p registers; mergeable via element-wise max."""

    def __init__(self, p: int = 12, registers: np.ndarray | None = None):
        self.p = p
        self.m = 1 << p
        self.registers = (
            registers if registers is not None else np.zeros(self.m, dtype=np.uint8)
        )

    def add_hashes(self, h: np.ndarray) -> None:
        h = np.asarray(h, dtype=np.uint64)
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        rest = (h << np.uint64(self.p)) | (np.uint64(1) << np.uint64(self.p - 1))
        # rank = leading zeros of the remaining bits + 1 (vectorized via
        # bit_length: 64 - floor(log2) when nonzero)
        bl = np.zeros(len(rest), dtype=np.uint8)
        nz = rest != 0
        bl[nz] = (64 - np.floor(np.log2(rest[nz].astype(np.float64))).astype(np.int64)).astype(
            np.uint8
        )
        np.maximum.at(self.registers, idx, bl)

    def merge(self, other: "HllSketch") -> "HllSketch":
        if self.p != other.p:
            raise ValueError(f"HllSketch.merge: precision {self.p} != {other.p}")
        return HllSketch(self.p, np.maximum(self.registers, other.registers))

    def estimate(self) -> float:
        m = float(self.m)
        alpha = 0.7213 / (1 + 1.079 / m)
        inv = np.power(2.0, -self.registers.astype(np.float64))
        raw = alpha * m * m / inv.sum()
        if raw <= 2.5 * m:
            zeros = int((self.registers == 0).sum())
            if zeros:
                return m * np.log(m / zeros)
        return raw

    def to_bytes(self) -> bytes:
        return self.registers.tobytes()

    @classmethod
    def from_bytes(cls, p: int, blob: bytes) -> "HllSketch":
        return cls(p, np.frombuffer(blob, dtype=np.uint8).copy())


def hll_reduce(ds: Dataset, col: str, make_hashes, p: int = 12) -> tuple[int, float]:
    """Shared HLL reduce protocol: one (serialized sketch, row count)
    row per batch via map_batches, merged in a tiny driver loop.
    ``make_hashes(values: list) -> np.ndarray[uint64]`` supplies the
    hash; returns (total rows, distinct estimate)."""

    def sketch_batch(t: pa.Table) -> pa.Table:
        sk = HllSketch(p)
        vals = t[col].to_pylist()
        if vals:
            sk.add_hashes(make_hashes(vals))
        return pa.table(
            {
                "sketch": pa.array([sk.to_bytes()], pa.large_binary()),
                "n": pa.array([len(vals)], pa.int64()),
            }
        )

    merged, n = HllSketch(p), 0
    for b in ds.map_batches(sketch_batch, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        for blob, cnt in zip(b["sketch"].to_pylist(), b["n"].to_pylist()):
            merged = merged.merge(HllSketch.from_bytes(p, blob))
            n += int(cnt)
    return n, merged.estimate()


def approx_distinct(ds: Dataset, col: str, p: int = 12) -> float:
    """Approximate COUNT(DISTINCT col): one serialized sketch per batch
    (map_batches), merged in a tiny driver reduce."""
    # in-run-only hashing: the sketch is computed and consumed inside
    # one run, so the fast (version-unstable) hash is safe here
    from ..functions.urlfns import hash64_batch_fast

    def hashes(vals: list) -> "np.ndarray":
        return hash64_batch_fast([str(v) for v in vals])

    _, est = hll_reduce(ds, col, hashes, p)
    return est


# ---------------------------------------------------------------------------
# Count-Min sketch: mergeable frequency estimation (heavy hitters at scale)


class CountMinSketch:
    """Classic Count-Min: d rows × w counters, point estimate = min over
    rows. Mergeable by element-wise ADD, so one sketch per batch reduces
    exactly like the HLL path. Estimates only ever OVER-count (by at
    most εN with w = ⌈e/ε⌉, failure prob δ with d = ⌈ln 1/δ⌉)."""

    def __init__(self, width: int = 4096, depth: int = 4, counts: np.ndarray | None = None):
        self.w = width
        self.d = depth
        self.counts = (
            counts if counts is not None else np.zeros((depth, width), dtype=np.int64)
        )

    def _indices(self, h: np.ndarray) -> np.ndarray:
        """(d, n) counter indices via double hashing of 64-bit keys."""
        h = np.asarray(h, dtype=np.uint64)
        h1 = h & np.uint64(0xFFFFFFFF)
        h2 = (h >> np.uint64(32)) | np.uint64(1)
        rows = np.arange(self.d, dtype=np.uint64)[:, None]
        return ((h1[None, :] + rows * h2[None, :]) % np.uint64(self.w)).astype(np.int64)

    def add_hashes(self, h: np.ndarray, weights: np.ndarray | None = None) -> None:
        idx = self._indices(h)
        wts = np.ones(len(h), dtype=np.int64) if weights is None else weights
        for r in range(self.d):
            np.add.at(self.counts[r], idx[r], wts)

    def estimate_hashes(self, h: np.ndarray) -> np.ndarray:
        idx = self._indices(h)
        return np.min(
            np.stack([self.counts[r][idx[r]] for r in range(self.d)]), axis=0
        )

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        if (self.w, self.d) != (other.w, other.d):
            raise ValueError(f"CountMinSketch.merge: {self.d}x{self.w} != {other.d}x{other.w}")
        return CountMinSketch(self.w, self.d, self.counts + other.counts)

    def to_bytes(self) -> bytes:
        return self.counts.tobytes()

    @classmethod
    def from_bytes(cls, width: int, depth: int, blob: bytes) -> "CountMinSketch":
        return cls(
            width, depth, np.frombuffer(blob, dtype=np.int64).reshape(depth, width).copy()
        )


def approx_token_counts(
    ds: Dataset,
    col: str,
    probe_tokens: list[str],
    width: int = 4096,
    depth: int = 4,
) -> dict[str, int]:
    """Approximate occurrence counts for ``probe_tokens`` over the
    whitespace tokens of ``col``: one CMS per batch (map_batches), merged
    in a tiny driver reduce — the sketch (w×d int64) is the only thing
    that moves, never the token stream."""
    from ..functions.urlfns import hash64_batch_fast

    def sketch_batch(t: pa.Table) -> pa.Table:
        sk = CountMinSketch(width, depth)
        # Arrow-native tokenize (split → flatten → value_counts in C++;
        # the per-doc Python Counter was interpreter-bound), weighted
        # sketch insert per distinct token. Shared helper keeps the
        # tokenization identical to the exact heavy-hitter pipeline.
        from .textops import flat_tokens

        flat, _, keep = flat_tokens(t[col])
        vc = pc.value_counts(flat.filter(pa.array(keep)))
        if len(vc):
            sk.add_hashes(
                hash64_batch_fast(vc.field("values").to_pylist()),
                vc.field("counts").to_numpy().astype(np.int64),
            )
        return pa.table({"sketch": pa.array([sk.to_bytes()], pa.large_binary())})

    merged = CountMinSketch(width, depth)
    for b in ds.map_batches(sketch_batch, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        for blob in b["sketch"].to_pylist():
            merged = merged.merge(CountMinSketch.from_bytes(width, depth, blob))
    est = merged.estimate_hashes(hash64_batch_fast(probe_tokens))
    return dict(zip(probe_tokens, (int(x) for x in est)))


class KllSketch:
    """KLL-style mergeable quantile sketch (Karnin-Lang-Liberty 2016,
    simplified full-level compaction): values live in levels where an
    item at level i represents 2^i originals; an over-capacity level is
    sorted and every other item promoted. Rank error is O(1/k); k=200
    keeps it under ~1% in practice. Mergeable (level-wise concat +
    recompress), serializable — only the fixed-size sketch ever moves,
    like ``HllSketch`` / ``CountMinSketch``. The compaction coin is a
    deterministic LCG so runs are reproducible."""

    _LCG_A = 6364136223846793005
    _LCG_C = 1442695040888963407
    _M64 = (1 << 64) - 1

    def __init__(self, k: int = 200, levels: list[np.ndarray] | None = None,
                 coin: int = 0x9E3779B97F4A7C15):
        self.k = k
        self.levels = levels if levels is not None else [np.empty(0, np.float64)]
        self._coin = coin

    def _capacity(self, lvl: int) -> int:
        # top level holds k, each lower level two-thirds of the one above
        depth = len(self.levels) - 1 - lvl
        return max(int(np.ceil(self.k * (2.0 / 3.0) ** depth)), 2)

    def _flip(self) -> int:
        self._coin = (self._coin * self._LCG_A + self._LCG_C) & self._M64
        return (self._coin >> 32) & 1

    def _compress(self) -> None:
        while True:
            for lvl, arr in enumerate(self.levels):
                if len(arr) <= self._capacity(lvl):
                    continue
                arr = np.sort(arr)
                kept = arr[self._flip():: 2]
                if lvl + 1 == len(self.levels):
                    self.levels.append(np.empty(0, np.float64))
                self.levels[lvl + 1] = np.concatenate([self.levels[lvl + 1], kept])
                self.levels[lvl] = np.empty(0, np.float64)
                break
            else:
                return

    def add(self, vals: np.ndarray) -> None:
        vals = np.asarray(vals, np.float64)
        vals = vals[~np.isnan(vals)]
        if len(vals):
            self.levels[0] = np.concatenate([self.levels[0], vals])
            self._compress()

    def merge(self, other: "KllSketch") -> "KllSketch":
        if self.k != other.k:
            raise ValueError(f"KllSketch.merge: k {self.k} != {other.k}")
        n = max(len(self.levels), len(other.levels))
        levels = []
        for i in range(n):
            a = self.levels[i] if i < len(self.levels) else np.empty(0, np.float64)
            b = other.levels[i] if i < len(other.levels) else np.empty(0, np.float64)
            levels.append(np.concatenate([a, b]))
        out = KllSketch(self.k, levels, self._coin ^ other._coin)
        out._compress()
        return out

    def n_stored(self) -> int:
        return sum(len(a) for a in self.levels)

    def quantiles(self, qs: list[float]) -> np.ndarray:
        """Estimated value at each rank-quantile q (NaN if empty)."""
        vals = np.concatenate(self.levels) if self.levels else np.empty(0)
        if not len(vals):
            return np.full(len(qs), np.nan)
        weights = np.concatenate(
            [np.full(len(a), 1 << i, np.float64) for i, a in enumerate(self.levels)]
        )
        order = np.argsort(vals, kind="mergesort")
        vals, weights = vals[order], weights[order]
        cum = np.cumsum(weights)
        total = cum[-1]
        out = np.empty(len(qs), np.float64)
        for j, q in enumerate(qs):
            target = min(max(q, 0.0), 1.0) * total
            out[j] = vals[min(int(np.searchsorted(cum, target)), len(vals) - 1)]
        return out

    def to_bytes(self) -> bytes:
        import struct

        head = struct.pack("<Qq", self._coin & self._M64, len(self.levels))
        lens = struct.pack(f"<{len(self.levels)}q", *[len(a) for a in self.levels])
        return head + lens + b"".join(
            np.ascontiguousarray(a, np.float64).tobytes() for a in self.levels
        )

    @classmethod
    def from_bytes(cls, k: int, blob: bytes) -> "KllSketch":
        import struct

        coin, n = struct.unpack_from("<Qq", blob, 0)
        lens = struct.unpack_from(f"<{n}q", blob, 16)
        off = 16 + 8 * n
        levels = []
        for ln in lens:
            levels.append(np.frombuffer(blob, np.float64, ln, off).copy())
            off += 8 * ln
        return cls(k, levels, coin & cls._M64)


def approx_quantiles(
    ds: Dataset, col: str, qs: list[float], k: int = 200
) -> np.ndarray:
    """Approximate quantiles of ``col``: one KLL sketch per batch
    (map_batches), merged in a tiny driver reduce. Only k-size sketches
    move — the value stream never leaves its block. At any corpus size
    the driver holds O(batches × k) floats transiently and O(k) after
    the fold. KLL compaction depends on merge order, so the sketches
    merge in byte order: the same blocks give the same estimate."""

    def sketch_batch(t: pa.Table) -> pa.Table:
        sk = KllSketch(k)
        sk.add(t[col].to_numpy(zero_copy_only=False).astype(np.float64))
        return pa.table({"sketch": pa.array([sk.to_bytes()], pa.large_binary())})

    sketches = ds.map_batches(sketch_batch, batch_format="pyarrow")
    blobs = [s for b in sketches.iter_batches(batch_format="pyarrow") for s in b["sketch"].to_pylist()]
    merged = KllSketch(k)
    for blob in sorted(blobs):
        merged = merged.merge(KllSketch.from_bytes(k, blob))
    return merged.quantiles(qs)


def grouped_approx_quantiles(
    ds: Dataset,
    key: str,
    col: str,
    qs: Sequence[float],
    sketch_k: int = 200,
) -> Dataset:
    """Per-key approximate quantiles with KLL sketches as a DISTRIBUTED
    combiner: each batch emits ONE serialized sketch per key it saw, the
    keyed tail (``relops._by_key``) moves sketches only (O(k log n)
    bytes per (block, key)) and runs the per-key merge + quantile query.
    The exact grouped path must co-locate a key's full value multiset
    (or its distinct-value counts); this path needs O(k) per key — the
    difference at 10^10 rows with heavy keys. Output: one row per key
    with a ``p{q}_est`` float column per requested quantile."""

    def sketch_batch(t: pa.Table) -> pa.Table:
        keys = t[key].to_pandas()
        vals = t[col].to_numpy(zero_copy_only=False).astype(np.float64)
        out_k, out_s = [], []
        # dropna=False: null keys form a group like the Arrow-based
        # exact grouped paths (pandas' default silently drops them)
        for kk, idx in pd.Series(range(len(keys))).groupby(
            keys, sort=False, dropna=False
        ):
            sk = KllSketch(sketch_k)
            sk.add(vals[idx.to_numpy()])
            out_k.append(None if pd.isna(kk) else kk)
            out_s.append(sk.to_bytes())
        return pa.table(
            {
                key: pa.array(out_k, t[key].type),
                "sketch": pa.array(out_s, pa.large_binary()),
            }
        )

    names = [f"p{int(round(q * 100))}_est" for q in qs]

    def estimate(g: pd.DataFrame) -> dict:
        # byte order, not arrival order: KLL compaction depends on it
        merged = KllSketch(sketch_k)
        for blob in sorted(g["sketch"]):
            merged = merged.merge(KllSketch.from_bytes(sketch_k, blob))
        return {n: float(e) for n, e in zip(names, merged.quantiles(list(qs)))}

    sketches = ds.map_batches(sketch_batch, batch_format="pyarrow").materialize()
    return R._by_key(
        sketches, [key], lambda g: R.rows_per_group(g, key, estimate, names), "pandas"
    )


def weighted_sample(
    ds: Dataset, key_col: str, weight_col: str, n: int
) -> Dataset:
    """Deterministic weighted sample without replacement (inclusion
    skewed ∝ weight): every row draws rank = (60-bit md5 integer of its
    key) / weight and the n SMALLEST ranks win, ties broken on the key.
    Engine-independent by construction — the integer hash is exact on
    both sides and ONE IEEE division is correctly rounded, so the DuckDB
    oracle reproduces the identical sample (same trick as the md5-rank
    stratified sampler; no transcendental functions whose last-ulp
    behavior differs across math libraries). Per-block top-n prune
    before the global top-n: the shuffle moves ≤ n × blocks rows."""

    def add_rank(t: pa.Table) -> pa.Table:
        keys = [str(k) for k in t[key_col].to_pylist()]
        h = np.array(
            [int(hashlib.md5(k.encode()).hexdigest()[:15], 16) for k in keys],
            dtype=np.int64,
        )
        w = t[weight_col].to_numpy(zero_copy_only=False).astype(np.float64)
        # general utility: a zero weight yields inf (NaN when the hash is
        # 0) and a negative weight INVERTS the ordering — both produce a
        # silently wrong sample, so refuse loudly (~(w > 0) also catches
        # NaN weights, for which every comparison is False)
        if np.any(~(w > 0)):
            raise ValueError(
                f"weighted_sample: weight column {weight_col!r} must be "
                "strictly positive (found <= 0 or NaN)"
            )
        rank = h.astype(np.float64) / w
        t = t.append_column("_wrank", pa.array(rank, pa.float64()))
        # local prune: the global winners are a subset of every block's
        # own top-n
        idx = pc.sort_indices(
            t, sort_keys=[("_wrank", "ascending"), (key_col, "ascending")]
        )
        return t.take(idx[: min(n, t.num_rows)])

    pruned = ds.map_batches(add_rank, batch_format="pyarrow")
    # engine sort+limit over the pruned (≤ n × blocks rows) stream —
    # no single-task pandas funnel
    return pruned.sort(["_wrank", key_col]).limit(n).drop_columns(["_wrank"])


def grouped_approx_distinct(
    ds: Dataset, key: str, col: str, p: int = 12
) -> Dataset:
    """Per-key approximate COUNT(DISTINCT col): HLL sketches as a keyed
    combiner — one 2^p-byte sketch per (block, key) enters the keyed
    tail (``relops._by_key``) instead of the value stream, which runs
    the merge + estimate.
    Same shape as ``grouped_approx_quantiles``; the exact path must
    co-locate each key's distinct values, this path moves O(2^p) per
    key. Output: one row per key with ``distinct_est`` (float64)."""
    from ..functions.urlfns import hash64_batch_fast

    def sketch_batch(t: pa.Table) -> pa.Table:
        keys = t[key].to_pandas()
        vals = t[col].to_pylist()
        out_k, out_s = [], []
        for kk, idx in pd.Series(range(len(keys))).groupby(
            keys, sort=False, dropna=False
        ):
            sk = HllSketch(p)
            sk.add_hashes(
                hash64_batch_fast([str(vals[i]) for i in idx.to_numpy()])
            )
            out_k.append(None if pd.isna(kk) else kk)
            out_s.append(sk.to_bytes())
        return pa.table(
            {
                key: pa.array(out_k, t[key].type),
                "sketch": pa.array(out_s, pa.large_binary()),
            }
        )

    def estimate(g: pd.DataFrame) -> dict:
        merged = HllSketch(p)
        for blob in g["sketch"]:
            merged = merged.merge(HllSketch.from_bytes(p, blob))
        return {"distinct_est": float(merged.estimate())}

    sketches = ds.map_batches(sketch_batch, batch_format="pyarrow").materialize()
    return R._by_key(
        sketches, [key], lambda g: R.rows_per_group(g, key, estimate, ["distinct_est"]), "pandas"
    )
