"""Sharded URL-seen membership: the crawl's dedup set.

The reference's only dedup is per-avTag filename dedup and
file-exists skip (avtag.go:16-37, downloader.go:267-273); a frontier
at 10^10 URLs needs a real membership structure. This is the one
place the Dataset API genuinely can't express the semantics (shared
mutable state with insert-if-absent), so it drops to raw Ray actors:
N shard actors keyed by ``url_hash % N``, each exposing a BATCH
``check_and_add`` (one RPC per shard per batch, never per row).

Modes:
- exact  — Python set of canonical URLs (parity suite; no false
  positives, memory ~bytes/url).
- bloom  — numpy bit array, k derived hashes via double hashing;
  ~1.2 GB per shard at 10^9 keys/shard with 1% FP. Vectorized.
- cuckoo — bucketed 16-bit fingerprints with eviction (supports
  deletion, ~2 bytes/key); the PAPERS.md-pointed scale path.

False positives drop a URL that was never crawled (bounded, configurable
via bits_per_key); false negatives are impossible in all modes — the
parity suite runs exact mode so URL-seen equality vs the reference holds.

Lifecycle: the shards outlive the crawl that used them. Each new
``SeenShard`` is a worker process that imports Ray, started while the
crawl's first epoch competes with it for CPU, so a ``SeenSet`` LEASES
its shards from a free list of idle ones instead: it resets those it
takes to an empty filter of the requested mode and capacity in ONE RPC
round, and starts new actors only for the rest, or for all when a
pooled one has died (``RayActorError``). ``run_crawl`` hands the set
back (``return_shards``) when it returns; a returned shard is reset at
once, so an idle one holds no keys. Reuse helps only when more than
one crawl runs in a Ray session (``__ray_entry__.entry()`` followed by
its ``crawl_documents`` query, ``bench.py``, a library caller); a process
that runs one crawl starts its shards as before. The free list is
lock-guarded and belongs to one Ray session (this process's node id
and job id): after ``ray.shutdown()``/``ray.init()`` it starts empty, so a
handle from a dead session is never handed out. Every lease starts
from an empty filter, so reuse never changes what a crawl outputs.
"""

from __future__ import annotations

import threading

import numpy as np

import ray
from ray.exceptions import RayActorError


class _ExactSeen:
    def __init__(self):
        self.keys: set = set()

    def check_and_add(self, keys: list) -> np.ndarray:
        out = np.empty(len(keys), dtype=bool)
        s = self.keys
        for i, k in enumerate(keys):
            if k in s:
                out[i] = False
            else:
                s.add(k)
                out[i] = True
        return out

    def __len__(self):
        return len(self.keys)


class _BloomSeen:
    def __init__(self, capacity: int, bits_per_key: int = 10, num_hashes: int = 7):
        self.m = int(capacity) * bits_per_key
        self.k = num_hashes
        self.bits = np.zeros((self.m + 7) // 8, dtype=np.uint8)
        self.count = 0

    def check_and_add(self, keys) -> np.ndarray:
        # dedupe within the batch FIRST: membership is tested before bits
        # are set, so a key appearing twice in one batch must only report
        # its first occurrence as new
        h_all = np.asarray(keys, dtype=np.uint64)
        h, first_idx, inverse = np.unique(h_all, return_index=True, return_inverse=True)
        h1 = (h & np.uint64(0xFFFFFFFF)).astype(np.uint64)
        h2 = ((h >> np.uint64(32)) | np.uint64(1)).astype(np.uint64)
        present = np.ones(len(h), dtype=bool)
        idxs = []
        for i in range(self.k):
            idx = (h1 + np.uint64(i) * h2) % np.uint64(self.m)
            idxs.append(idx)
            byte = self.bits[(idx >> np.uint64(3)).astype(np.int64)]
            bit = (byte >> (idx & np.uint64(7)).astype(np.uint8)) & 1
            present &= bit.astype(bool)
        unique_new = ~present
        for idx in idxs:
            tgt = (idx >> np.uint64(3)).astype(np.int64)
            np.bitwise_or.at(self.bits, tgt, (1 << (idx & np.uint64(7))).astype(np.uint8))
        self.count += int(unique_new.sum())
        # expand back: new only at the FIRST occurrence of each unique key
        is_new = np.zeros(len(h_all), dtype=bool)
        is_new[first_idx] = unique_new
        return is_new

    def __len__(self):
        return self.count


class _CuckooSeen:
    """Classic (2,4)-cuckoo filter with 16-bit fingerprints."""

    MAX_KICKS = 500

    def __init__(self, capacity: int):
        nbuckets = 1
        while nbuckets * 4 < capacity * 1.05:
            nbuckets *= 2
        self.nb = nbuckets
        self.slots = np.zeros((nbuckets, 4), dtype=np.uint16)
        self.count = 0
        self._rng = np.random.default_rng(0xC0FFEE)

    def _fp(self, h: np.ndarray) -> np.ndarray:
        # mix before truncating: low-entropy keys must not collapse to
        # one fingerprint
        mixed = (h * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(48)
        fp = (mixed & np.uint64(0xFFFF)).astype(np.uint16)
        fp[fp == 0] = 1
        return fp

    def _alt(self, i: np.ndarray, fp: np.ndarray) -> np.ndarray:
        # i ^ hash(fp): multiply-shift on the fingerprint
        fh = (fp.astype(np.uint64) * np.uint64(0x5BD1E995)) & np.uint64(0xFFFFFFFF)
        return (i ^ fh) % np.uint64(self.nb)

    def check_and_add(self, keys) -> np.ndarray:
        h = np.asarray(keys, dtype=np.uint64)
        fp = self._fp(h)
        i1 = h % np.uint64(self.nb)
        i2 = self._alt(i1, fp)
        out = np.empty(len(h), dtype=bool)
        for j in range(len(h)):
            f = fp[j]
            b1, b2 = int(i1[j]), int(i2[j])
            if f in self.slots[b1] or f in self.slots[b2]:
                out[j] = False
                continue
            out[j] = True
            self.count += 1
            if not self._insert(b1, f) and not self._insert(b2, f):
                self._kick(b1, f)
        return out

    def _insert(self, b: int, f: int) -> bool:
        row = self.slots[b]
        empty = np.nonzero(row == 0)[0]
        if len(empty):
            row[empty[0]] = f
            return True
        return False

    def _kick(self, b: int, f: int) -> None:
        for _ in range(self.MAX_KICKS):
            slot = int(self._rng.integers(0, 4))
            f, self.slots[b][slot] = int(self.slots[b][slot]), f
            b = int(self._alt(np.uint64(b), np.uint16(f)))
            if self._insert(b, f):
                return
        raise RuntimeError("cuckoo filter full — raise capacity or shards")

    def __len__(self):
        return self.count


_IMPLS = {"exact": _ExactSeen, "bloom": _BloomSeen, "cuckoo": _CuckooSeen}


@ray.remote(num_cpus=0)
class SeenShard:
    """One membership shard; calls serialize on the actor → atomic batches.

    num_cpus=0: lookups are sub-ms lock-style calls; even 0.1-CPU
    reservations measurably distort small clusters (4 shards stole 10%
    of a 4-CPU bench level, faking superlinear scaling)."""

    def __init__(self, mode: str = "exact", capacity: int = 1_000_000, **kw):
        self.reset(mode, capacity, **kw)

    def reset(self, mode: str = "exact", capacity: int = 1_000_000, **kw) -> None:
        """Drop every key: an empty filter, as a new shard starts with."""
        if mode == "exact":
            self.impl = _ExactSeen()
        elif mode == "bloom":
            self.impl = _BloomSeen(capacity, **kw)
        elif mode == "cuckoo":
            self.impl = _CuckooSeen(capacity)
        else:
            raise ValueError(f"unknown seen mode {mode!r}")

    def check_and_add(self, keys) -> np.ndarray:
        return self.impl.check_and_add(keys)

    def size(self) -> int:
        return len(self.impl)


_LOCK = threading.Lock()
_session = None  # the Ray session the free list belongs to
_IDLE: list = []  # idle SeenShard handles


def _idle() -> list:
    """The free list of the current Ray session (caller holds _LOCK)."""
    global _session
    ctx = ray.get_runtime_context()
    session = (ctx.get_node_id(), ctx.get_job_id())
    if session != _session:
        _session = session
        _IDLE.clear()
    return _IDLE


def _lease(n: int, mode: str, capacity: int) -> list:
    """``n`` empty shards: idle ones reset in one RPC round, new for the rest."""
    with _LOCK:
        idle = _idle()
        k = len(idle) - min(n, len(idle))
        reused, idle[k:] = idle[k:], []
    try:
        ray.get([a.reset.remote(mode, capacity) for a in reused])
    except RayActorError:
        reused = []
    return reused + [SeenShard.remote(mode=mode, capacity=capacity) for _ in range(n - len(reused))]


class SeenSet:
    """Driver-side handle bundle for the shard pool: leased (empty) on
    construction, handed back by ``return_shards()``."""

    def __init__(self, num_shards: int = 8, mode: str = "exact", capacity_per_shard: int = 1_000_000):
        self.mode = mode
        self.num_shards = num_shards
        self.shards = _lease(num_shards, mode, capacity_per_shard)

    def return_shards(self) -> None:
        """Reset the shards and return them to the free list; this set is
        unusable after."""
        shards, self.shards = self.shards, []
        for a in shards:
            a.reset.remote()  # fire-and-forget; runs before any later lease's reset
        with _LOCK:
            _idle().extend(shards)

    def check_and_add_batch(self, hashes: np.ndarray, keys: list | None = None) -> np.ndarray:
        """Batched membership insert. ``keys`` (canonical URLs) are used in
        exact mode; hashes route the shard in every mode."""
        n = len(hashes)
        if n == 0:
            return np.zeros(0, dtype=bool)
        shard_of = (np.asarray(hashes, dtype=np.uint64) % np.uint64(self.num_shards)).astype(
            np.int64
        )
        futures = {}
        for s in range(self.num_shards):
            idx = np.nonzero(shard_of == s)[0]
            if len(idx) == 0:
                continue
            if self.mode == "exact" and keys is not None:
                payload = [keys[i] for i in idx]
            else:
                payload = np.asarray(hashes, dtype=np.uint64)[idx]
            futures[s] = (idx, self.shards[s].check_and_add.remote(payload))
        out = np.zeros(n, dtype=bool)
        for s, (idx, fut) in futures.items():
            out[idx] = ray.get(fut)
        return out

    def sizes(self) -> list[int]:
        return ray.get([s.size.remote() for s in self.shards])


class SeenFilter:
    """map_batches callable: drop frontier rows whose canon_url was seen.

    Holds only actor handles (cheap to serialize); one RPC per shard per
    batch. Insertion happens at filter time, so re-offered duplicates
    within the same epoch also dedup (first block wins).
    """

    def __init__(self, seen: SeenSet):
        self.seen = seen

    def __call__(self, batch):
        import pyarrow as pa

        if batch.num_rows == 0:
            return batch
        hashes = batch["url_hash"].to_numpy(zero_copy_only=False)
        keys = batch["canon_url"].to_pylist() if self.seen.mode == "exact" else None
        mask = self.seen.check_and_add_batch(hashes, keys)
        return batch.filter(pa.array(mask))
