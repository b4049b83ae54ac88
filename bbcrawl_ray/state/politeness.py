"""Per-host politeness: cluster-wide rate clocks + per-host budgets.

The reference is strictly serial (api.go:104-113), which is implicit
politeness. A parallel frontier needs it explicit, and it must hold
ACROSS the fetch actor pool: frontier rows for one host scatter over
N actors, so a per-actor clock would hit a host N× faster than
min_host_delay_s / robots Crawl-delay allows.

Design: the clocks live on the crawl's leased URL-seen shards
(state/seen.py), keyed by ``crc32(host) % num_shards``; ``HostClock``
is only the routing client, so a crawl with a delay starts no actors
of its own and every lease starts with empty clocks. A fetcher
RESERVES time slots per (host, delay) before its hits — the shard
advances its stored ``next_free[host]`` by ``n * delay`` and returns
the previous value; the fetcher sleeps until its slot. One tiny RPC
per host per batch (stages/fetch.py), only when a delay is actually
in force (delay=0 short-circuits with no RPC), so the idle-host fast
path costs nothing. Slots are reckoned in wall-clock time
(``time.time()``), which is the only clock comparable across
workers/nodes; politeness is therefore accurate to cluster clock
skew, which is fine for crawl-delay semantics.

Budgets: each epoch every host gets at most ``per_host_budget``
fetches, chosen by (priority desc, page_num, url); the rest defer to
the next epoch. The grouped per-host choice is preceded by a
PER-BLOCK top-(budget) prune — global top-k per host is a subset of
the union of per-block top-k (the order is total), so rows outside a
block's local top-k can be marked deferred immediately and never
enter the exchange. No host ever materializes as one
all-of-its-rows pandas group; the per-host choice sees at most
budget × num_blocks rows per host.

Hot-host skew splitting: hosts whose SELECTED rows exceed
``skew_split_threshold`` are salted into ``host#N`` sub-shards so one
giant host fans out across the fetch pool; rate limiting stays
correct because the clocks above are global, not per-actor.
"""

from __future__ import annotations

import zlib

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
from ray.data import Dataset

# ---------------------------------------------------------------------------
# cluster-wide per-host rate clocks


class HostClock:
    """Client over a leased seen set's shards (state/seen.py): routes a
    host's reserve()/release() to ``crc32(host) % len(shards)``.

    Serializable into actor-pool constructor args (Ray actor handles
    travel by reference).
    """

    def __init__(self, shards: list):
        self.shards = list(shards)

    def _shard(self, host: str):
        # builtin hash(str) is per-process randomized — crc32 keeps every
        # worker routing one host to the SAME shard
        return self.shards[zlib.crc32(host.encode()) % len(self.shards)]

    def reserve(self, host: str, delay: float, n: int = 1) -> float:
        return ray.get(self._shard(host).reserve.remote(host, delay, n))

    def release(self, host: str, expected_end: float, unused_s: float) -> bool:
        return ray.get(self._shard(host).release.remote(host, expected_end, unused_s))


# ---------------------------------------------------------------------------
# per-host budgets + skew split


def _sort_host_block(g: pd.DataFrame) -> pd.DataFrame:
    """Selection order, then the least (seed_id, discovered_from) offer
    first, as ``crawl._links_to_frontier`` attributes a repeated URL; the
    first row of each (host, url_hash) is the one that stays."""
    g = g.sort_values(
        ["priority", "page_num", "url", "seed_id", "discovered_from"],
        ascending=[False, True, True, True, True],
        kind="mergesort",
    )
    return g[~g.duplicated(["host", "url_hash"])]


def budget_frontier(
    frontier: Dataset,
    per_host_budget: int | None,
    skew_split_threshold: int = 10_000,
    group_size_probe=None,
) -> Dataset:
    """Adds ``selected`` (fetch this epoch?) and ``host_shard`` columns.

    Selection order within a host: priority desc, then page_num asc,
    then url (total, deterministic). A URL offered more than once (one
    ``url_hash`` in several rows of a host, e.g. found by two link
    batches) keeps one row, its least (seed_id, discovered_from) offer,
    so repeated offers never take budget slots; the other rows are
    dropped, in each block and again per host.

    Fast path: with no budget there is nothing to rank, so the
    host-keyed exchange is skipped entirely — a vectorized map adds
    selected=True / host_shard=host.

    Budgeted path: per-block top-(budget) prune per host first (rows
    outside their block's local top-k defer immediately, skew-safely),
    then the keyed tail (``relops._by_key`` on ``host``: one task within
    ``SMALL_BYTES``, reducers by ``shard_of(host)`` above it) over
    candidates only; each reducer runs the per-host choice once per
    host it holds. NOTE:
    ``frontier`` is consumed twice (candidates + early-deferred
    branches); callers pass either a cheap seed expansion or a
    checkpointed parquet read, both re-executable for free.
    """
    if per_host_budget is None:

        def mark_all(t: pa.Table) -> pa.Table:
            return t.append_column(
                "selected", pa.array(np.ones(t.num_rows, dtype=bool))
            ).append_column("host_shard", t["host"])

        return frontier.map_batches(mark_all, batch_format="pyarrow")

    from ..pipelines.relops import _by_key

    budget = int(per_host_budget)

    def local_mark(df: pd.DataFrame) -> pd.DataFrame:
        """Per-block: rank rows within each host; cand = local top-budget."""
        df = _sort_host_block(df)
        rank = df.groupby("host", sort=False).cumcount()
        return df.assign(cand=(rank < budget).to_numpy())

    # materialized: BOTH branches below (candidates + deferred) read the
    # same computed blocks — re-executing the lineage twice would make
    # row conservation depend on the source being deterministic
    marked = frontier.map_batches(local_mark, batch_format="pandas").materialize()

    def defer_block(df: pd.DataFrame) -> pd.DataFrame:
        df = df[~df["cand"]].drop(columns=["cand"])
        return df.assign(selected=False, host_shard=df["host"])

    deferred = marked.map_batches(defer_block, batch_format="pandas")

    def per_host(g: pd.DataFrame) -> pd.DataFrame:
        if group_size_probe is not None:
            # test hook: lets a test assert the skew-safety invariant
            # (no host's grouped input exceeds budget × num_blocks)
            group_size_probe.record.remote(len(g))
        g = _sort_host_block(g.drop(columns=["cand"]))
        n = len(g)
        k = min(budget, n)
        selected = np.zeros(n, dtype=bool)
        selected[:k] = True
        g = g.assign(selected=selected)
        host = g["host"].iloc[0]
        # salt only the WINNERS: deferred rows never fetch this epoch, so
        # they keep the plain host key (matches the early-deferred branch)
        shard_col = np.full(n, host, dtype=object)
        if k > skew_split_threshold:
            shards = int(np.ceil(k / skew_split_threshold))
            shard_col[:k] = [f"{host}#{i % shards}" for i in range(k)]
        g = g.assign(host_shard=shard_col)
        return g

    def per_reducer(df: pd.DataFrame) -> pd.DataFrame:
        return pd.concat([per_host(g) for _, g in df.groupby("host", sort=False)])

    candidates = marked.map_batches(
        lambda df: df[df["cand"]], batch_format="pandas"
    )
    chosen = _by_key(candidates, ["host"], per_reducer, "pandas")
    return chosen.union(deferred)
