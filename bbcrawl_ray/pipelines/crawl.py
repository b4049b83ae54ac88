"""The crawl pipeline: seeds → frontier epochs → fetch → parse → tables.

Engine lifecycle (SURVEY.md §3, "Engine lifecycle"):

    seeds ──expand──▶ frontier(epoch 0)
    per epoch:
        frontier ─host-keyed budget+skew─▶ selected | deferred   (checkpointed)
        selected ─SeenFilter (sharded actors)─▶ new URLs only
                 ─map_batches(Fetcher actors)─▶ pages
                 ─map_batches(ParsePages)────▶ documents ⊕ manifest ⊕ links
                 (checkpointed; bodies dropped inside parse)
        manifest pending ─map_batches(Downloader actors)─▶ blobs + final manifest
        next frontier = deferred ∪ discovered links (depth+1)

Every epoch's outputs land in parquet under the checkpoint root BEFORE
the next epoch starts; ``_SUCCESS`` marks completion, so a killed run
resumes from the last complete epoch with the URL-seen shards rebuilt
from checkpointed fetch records and the next frontier rebuilt, exactly as
the epoch loop builds it, as that epoch's deferred ∪ discovered rows
(state/checkpoint.py).

For the bounded reference workloads there is exactly ONE epoch and no
discovery, which reproduces bbcrawl's sequential page semantics; order
parity is recovered by sorting outputs on (seed_id, page_num, offset),
never by execution order (SURVEY.md §4 ordering row).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd
from ray.data import Dataset

from ..cli.partition import CrawlerSpec
from functools import lru_cache

from ..functions.urlfns import canonicalize_url, hash64_batch, host_of, hosts_of_batch

# cross-batch memo: discovered links repeat heavily (next/prev page
# links), so most canonicalizations are dict hits, not URL parses
_canonicalize_cached = lru_cache(maxsize=1 << 20)(canonicalize_url)
from ..sources.corpus import CorpusConfig
from ..sources.pagers import expand_seeds_batch
from ..state.checkpoint import CheckpointManager, config_hash
from ..state.politeness import HostClock, budget_frontier
from ..state.seen import SeenFilter, SeenSet
from ..stages.download import Downloader
from ..stages.fetch import FetchConfig, Fetcher
from ..stages.parse import ParsePages
from .. import schemas

FRONTIER_BUDGETED = schemas.FRONTIER.append(
    pa.field("selected", pa.bool_())
).append(pa.field("host_shard", pa.string()))
# the frontier checkpoint is hive-partitioned on `selected`, so files in
# the selected=true/false dirs carry every column EXCEPT selected
FRONTIER_SHARD = schemas.FRONTIER.append(pa.field("host_shard", pa.string()))


@dataclass
class CrawlConfig:
    crawler: CrawlerSpec
    seeds: list[dict]
    output_root: str
    transport: str = "synthetic"
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    pages: dict | None = None  # mapping-transport page dict
    obey_robots: bool = False
    min_host_delay_s: float = 0.0
    per_host_budget: int | None = None
    skew_split_threshold: int = 10_000
    seen_shards: int = 4
    seen_mode: str = "exact"
    fetch_concurrency: tuple = (1, 4)
    fetch_batch_size: int = 64
    fetch_num_cpus: float = 0.5
    max_epochs: int = 1
    follow_links: bool = False
    same_host_only: bool = True  # discovered links must stay on a seed host
    download_media: bool = False
    download_concurrency: tuple = (1, 4)
    download_error_bodies: bool = False  # reference parity: write non-200 bodies too
    strict_errors: bool = False
    metrics_level: str = "full"  # full | lite (bench: skip per-status/per-seed aggregates)
    fetch_mode: str = "auto"  # auto | actors | tasks (see FetchParse docstring)
    cookies: dict = field(default_factory=dict)  # {host: {name: value}} broadcast to fetchers
    # frontier read fan-out: blocks = max(8, ncpu * frontier_blocks_per_cpu).
    # More blocks = finer scheduling + smaller write files; fewer = less
    # per-task overhead. Two round-4 interleaved A/Bs at 16 CPUs: 4 and
    # 8 statistically indistinguishable, 16 slightly worse — the knob
    # sits on the same plateau as batch/pool size (BASELINE.md r3/r4
    # nulls); exposed so cluster-sized runs can tune it anyway.
    frontier_blocks_per_cpu: int = 8


def parquet_row_count(d: str) -> int:
    """Row count from parquet footers — zero Ray execution."""
    import glob

    import pyarrow.parquet as pq

    return sum(
        pq.read_metadata(f).num_rows for f in glob.glob(f"{d}/*.parquet")
    )


def partition_manifest(d: str) -> list[dict]:
    """Per-partition lineage: one record per parquet file (the epoch's
    physical partitions) — rows + bytes straight from the footers."""
    import glob
    import os

    import pyarrow.parquet as pq

    out = []
    for f in sorted(glob.glob(f"{d}/**/*.parquet", recursive=True)):
        out.append(
            {
                "file": os.path.relpath(f, d),
                "rows": pq.read_metadata(f).num_rows,
                "bytes": os.path.getsize(f),
            }
        )
    return out


def read_parquet_dirs(
    dirs: list[str], schema: pa.Schema, columns: list[str] | None = None
) -> Dataset:
    """Read possibly-empty parquet directories (Ray's read_parquet treats
    list entries as files, and chokes on empty dirs). ``columns`` prunes
    at the read — metrics counts never deserialize the spans column."""
    import glob

    files: list[str] = []
    for d in dirs:
        files.extend(sorted(glob.glob(f"{d}/*.parquet")))
    if not files:
        tbl = schemas.empty_table(schema)
        return rd.from_arrow(tbl.select(columns) if columns else tbl)
    if columns:
        return rd.read_parquet(files, columns=columns)
    return rd.read_parquet(files)


class FetchParse:
    """Fused fetch+parse stage: one pass per batch, bodies never cross a
    stage boundary (they die inside the call, halving object-store
    traffic vs separate fetch→parse operators).

    Runs as an ACTOR POOL when the fetch state matters (politeness
    clocks, robots cache, cookie jars, real HTTP) and as stateless
    tasks otherwise — per-worker construction is amortized either way
    (Ray deserializes the callable once per worker process).
    """

    def __init__(
        self, fetch_cfg, crawler_spec, strict_errors=False, discover_links=False, extractor=None
    ):
        self.fetcher = Fetcher(fetch_cfg)
        self.parser = ParsePages(
            crawler_spec,
            strict_errors=strict_errors,
            discover_links=discover_links,
            extractor=extractor,
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.parser(self.fetcher(batch))


@dataclass
class CrawlResult:
    documents: Dataset
    manifest: Dataset
    metrics: list[dict]
    epochs_run: int
    checkpoint_root: str


def _fetch_cfg(cfg: CrawlConfig, pages_ref, seen: SeenSet) -> FetchConfig:
    # a delay can be in force either from config or from robots
    # Crawl-delay — both need the GLOBAL clock so spacing holds across
    # the whole fetch pool, not per actor; it lives on the leased seen
    # shards, so it starts no actors
    polite = cfg.min_host_delay_s > 0 or cfg.obey_robots
    return FetchConfig(
        transport=cfg.transport,
        corpus=cfg.corpus,
        pages_ref=pages_ref,
        allow_redirect=cfg.crawler.allow_redirect,
        obey_robots=cfg.obey_robots,
        min_host_delay_s=cfg.min_host_delay_s,
        cookies=cfg.cookies,
        debug_dir=f"{cfg.output_root}/debug" if cfg.crawler.debug else "",
        clock=HostClock(seen.shards) if polite else None,
    )


def _seed_frontier(cfg: CrawlConfig) -> Dataset:
    defaults = {
        "name": "page",
        "cut_index": 0,
        "cut_len": 0,
        "step": 1,
        "digits": 0,
        "adjust": 0,
        "startpage": "",
    }
    rows = [{**defaults, **r} for r in cfg.seeds]
    # one seed per block → expansion parallelizes across seeds
    return (
        rd.from_items(rows)
        .repartition(len(rows))
        .map_batches(expand_seeds_batch, batch_format="pyarrow", batch_size=1)
    )


def _links_to_frontier(links: pa.Table, epoch: int, seed_hosts: set[str], same_host: bool) -> pa.Table:
    """record_kind=link rows → FRONTIER rows for the next epoch.

    Discovered pages get a SYNTHETIC page_num derived from the canonical
    URL hash — page_num keys doc_ids and output filenames, so every
    discovered page must be distinct (two pages sharing page_num would
    collide on doc_id and on "{page}-{fileid}" names). Depth = the epoch
    that discovered the link (seeds are depth 0)."""
    # Arrow-vectorized host extraction + same-host filter + batch dedup
    # (link volume is pages × links — pure string work that must not run
    # a Python loop per URL; round-2 verdict item #6). Repeated offers
    # of one URL within a batch collapse HERE (group_by first), so the
    # seen filter and budget stages never see them.
    work = pa.table(
        {
            "u": links["media_ref"],
            "s": links["seed_id"],
            "f": links["url"],
            "h": hosts_of_batch(links["media_ref"]),
        }
    )
    if same_host:
        work = work.filter(
            pc.is_in(work["h"], value_set=pa.array(sorted(seed_hosts), pa.string()))
        )
    # DETERMINISTIC attribution: when one URL is offered by several
    # seeds/pages in a batch, the winner is the lexicographically least
    # (seed_id, from_url) offer — threaded group_by 'first' picks
    # whichever chunk a worker scanned first, which varied run-to-run
    # and leaked into checkpointed seed_id/discovered_from lineage.
    work = work.sort_by(
        [("u", "ascending"), ("s", "ascending"), ("f", "ascending")]
    )
    work = pa.TableGroupBy(work, ["u"], use_threads=False).aggregate(
        [("s", "first"), ("f", "first"), ("h", "first")]
    )
    urls = work["u"].to_pylist()
    seed_ids = work["s_first"].to_pylist()
    froms = work["f_first"].to_pylist()
    hosts = work["h_first"]
    # canonicalization is inherently urlsplit-shaped Python; memoized so
    # cross-batch repeats (prev/next page links) never re-parse
    canon = [_canonicalize_cached(u) for u in urls]
    n = len(urls)
    hashes = hash64_batch(canon) if n else []
    # page_num keys doc_id and output names, so discovered pages need the
    # full hash width: [2^31, 2^63) is disjoint from seed page numbers and
    # keeps ~62 bits of entropy (31 bits made collisions likely at ~10^5
    # links per seed)
    page_nums = [int(h) % (2**63 - 2**31) + 2**31 for h in hashes]
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "canon_url": pa.array(canon, pa.string()),
            "host": hosts.combine_chunks()
            if isinstance(hosts, pa.ChunkedArray)
            else hosts,
            "page_num": pa.array(page_nums, pa.int64()),
            # below every seed page's priority, deterministic per URL,
            # bounded so it can't overflow int64
            "priority": pa.array(
                [-(10**6) - (p % (2**31)) for p in page_nums], pa.int64()
            ),
            "depth": pa.array([epoch] * n, pa.int32()),
            "seed_id": pa.array(seed_ids, pa.string()),
            "url_hash": pa.array(hashes, pa.uint64()),
            "discovered_from": pa.array(froms, pa.string()),
            "epoch": pa.array([epoch] * n, pa.int32()),
        },
        schema=schemas.FRONTIER,
    )


def _next_frontier(
    cfg: CrawlConfig, frontier_dir: str, parsed_dir: str, next_epoch: int, seed_hosts: set[str]
) -> Dataset:
    """The frontier of ``next_epoch``, read from the previous epoch's
    checkpoint: its deferred rows ∪ the links it discovered (with
    ``follow_links``). The epoch loop and resume both build it here."""
    frontier = read_parquet_dirs(
        [f"{frontier_dir}/selected=false"], FRONTIER_SHARD
    ).drop_columns(["host_shard"])
    if cfg.follow_links:
        links = read_parquet_dirs([f"{parsed_dir}/record_kind=link"], schemas.PARSED)
        same_host = cfg.same_host_only
        frontier = frontier.union(
            links.map_batches(
                lambda t: _links_to_frontier(t, next_epoch, seed_hosts, same_host),
                batch_format="pyarrow",
            )
        )
    return frontier


def run_crawl(cfg: CrawlConfig, resume: bool = False) -> CrawlResult:
    """Execute the crawl; see module docstring for the epoch dataflow.

    The URL-seen set, which also holds the per-host politeness clocks,
    is leased empty (state/seen.py) and handed back when the crawl
    returns, so a later crawl in the same Ray session reuses its shard
    actors."""
    t_lease = time.perf_counter()
    seen = SeenSet(cfg.seen_shards, cfg.seen_mode)
    try:
        return _run_epochs(cfg, resume, seen, time.perf_counter() - t_lease)
    finally:
        seen.return_shards()


def _run_epochs(cfg: CrawlConfig, resume: bool, seen: SeenSet, lease_s: float) -> CrawlResult:
    """run_crawl's resume and epoch loop over the leased seen set."""
    ckpt = CheckpointManager(f"{cfg.output_root}/checkpoints")
    pages_ref = ray.put(cfg.pages) if cfg.pages is not None else None
    fetch_cfg = _fetch_cfg(cfg, pages_ref, seen)
    lineage_base = {"config_hash": config_hash(cfg), "crawler": cfg.crawler.crawler}
    seed_hosts = {host_of(s["blueprint_url"]) for s in cfg.seeds}

    start_epoch = 0
    frontier: Dataset | None = None
    if resume:
        latest = ckpt.latest_complete()
        if latest is not None:
            # rebuild URL-seen from every complete epoch's fetched records
            for e in range(latest + 1):
                if not ckpt.is_complete(e):
                    continue
                fetched = read_parquet_dirs(
                    [ckpt.path(e, "frontier") + "/selected=true"], FRONTIER_SHARD
                ).select_columns(["canon_url", "url_hash"])
                for b in fetched.iter_batches(batch_format="pyarrow"):
                    seen.check_and_add_batch(
                        b["url_hash"].to_numpy(zero_copy_only=False),
                        b["canon_url"].to_pylist(),
                    )
            start_epoch = latest + 1
            frontier = _next_frontier(
                cfg, ckpt.path(latest, "frontier"), ckpt.path(latest, "parsed"),
                start_epoch, seed_hosts,
            )
    if frontier is None:
        if not resume:
            ckpt.clear()
        frontier = _seed_frontier(cfg)

    metrics_all: list[dict] = []
    epochs_run = 0
    parsed_dirs: list[str] = []
    manifest_dirs: list[str] = []

    for epoch in range(start_epoch, start_epoch + cfg.max_epochs):
        t0 = time.perf_counter()
        seen_before = sum(seen.sizes())
        if epoch == start_epoch:
            # new shards answer once started: that wait is part of leasing
            lease_s += time.perf_counter() - t0
        # -- budget + skew split (the one host-keyed exchange), checkpointed;
        # the budgeted path materializes inside budget_frontier, so the
        # timer starts before it
        t_write = time.perf_counter()
        budgeted = budget_frontier(frontier, cfg.per_host_budget, cfg.skew_split_threshold)
        # hive-partitioned on `selected`: downstream reads are directory-
        # pruned and selected/deferred counts come from parquet footers
        frontier_dir = ckpt.write_part(
            epoch, "frontier", budgeted, partition_cols=["selected"]
        )
        frontier_write_s = time.perf_counter() - t_write

        # -- fetch + parse (selected rows only, streamed once to parquet).
        # Repartition first: the frontier parquet may be a handful of
        # files, and read parallelism = file count without it.
        ncpu = int(ray.cluster_resources().get("CPU", 8))
        selected = read_parquet_dirs(
            [f"{frontier_dir}/selected=true"], FRONTIER_SHARD
        ).repartition(max(8, ncpu * cfg.frontier_blocks_per_cpu))
        new_rows = selected.map_batches(SeenFilter(seen), batch_format="pyarrow")
        stateful_fetch = (
            cfg.min_host_delay_s > 0
            or cfg.obey_robots
            or bool(cfg.cookies)
            or cfg.transport == "http"
        )
        mode = cfg.fetch_mode
        if mode == "auto":
            mode = "actors" if stateful_fetch else "tasks"
        from ..stages.parse import EXTRACTORS

        # resolve on the driver → custom register_extractor() entries are
        # serialized by value into the worker-side constructors
        fp_args = (
            fetch_cfg,
            cfg.crawler,
            cfg.strict_errors,
            cfg.follow_links,
            EXTRACTORS.get(cfg.crawler.crawler),
        )
        if mode == "actors":
            parsed = new_rows.map_batches(
                FetchParse,
                fn_constructor_args=fp_args,
                batch_format="pyarrow",
                batch_size=cfg.fetch_batch_size,
                concurrency=cfg.fetch_concurrency,
                num_cpus=cfg.fetch_num_cpus,
            )
        else:
            holder: dict = {}

            def fetch_parse(batch: pa.Table) -> pa.Table:
                fp = holder.get("fp")
                if fp is None:
                    fp = holder["fp"] = FetchParse(*fp_args)
                return fp(batch)

            parsed = new_rows.map_batches(
                fetch_parse, batch_format="pyarrow", batch_size=cfg.fetch_batch_size
            )
        # hive-partition by record_kind: doc/manifest/link land in their
        # own directories, so every downstream read is directory-pruned
        # and counts come from parquet footers with NO Ray execution
        t_write = time.perf_counter()
        parsed_dir = ckpt.write_part(
            epoch, "parsed", parsed, partition_cols=["record_kind"]
        )
        parsed_write_s = time.perf_counter() - t_write
        parsed_dirs.append(parsed_dir)

        # -- downloads (actor pool; skip-if-exists = idempotent resume).
        # Without downloads the parsed dir IS the manifest (filtered at
        # read time) — no second full read/write of the epoch's rows.
        if cfg.download_media:
            manifest = read_parquet_dirs(
                [f"{parsed_dir}/record_kind=manifest"], schemas.PARSED
            ).map_batches(
                Downloader,
                fn_constructor_args=(
                    fetch_cfg,
                    f"{cfg.output_root}/files",
                    False,
                    cfg.download_error_bodies,
                ),
                batch_format="pyarrow",
                concurrency=cfg.download_concurrency,
                num_cpus=cfg.fetch_num_cpus,
            )
            manifest_dir = ckpt.write_part(epoch, "manifest", manifest)
        else:
            manifest_dir = f"{parsed_dir}/record_kind=manifest"
        manifest_dirs.append(manifest_dir)

        # -- metrics + lineage (footer counts are free; aggregates only
        # in full mode)
        docs_count = parquet_row_count(f"{parsed_dir}/record_kind=doc")
        if cfg.metrics_level == "full":
            man_ds = read_parquet_dirs([manifest_dir], schemas.PARSED, columns=["status"])
            status_counts = {
                r["status"]: r["count()"]
                for r in man_ds.groupby("status").count().take_all()
            }
            per_seed = {
                r["seed_id"]: r["count()"]
                for r in read_parquet_dirs(
                    [f"{parsed_dir}/record_kind=doc"], schemas.PARSED, columns=["seed_id"]
                )
                .groupby("seed_id")
                .count()
                .take_all()
            }
        else:
            status_counts, per_seed = {}, {}
        seen_sizes = seen.sizes()
        selected_count = parquet_row_count(f"{frontier_dir}/selected=true")
        new_urls = sum(seen_sizes) - seen_before
        metrics = {
            "epoch": epoch,
            "pages_parsed": docs_count,
            "frontier_selected": selected_count,
            "dedup_hits": selected_count - new_urls,
            "manifest_status": status_counts,
            "docs_per_seed": per_seed,
            "seen_sizes": seen_sizes,
            "frontier_write_s": round(frontier_write_s, 3),
            "parsed_write_s": round(parsed_write_s, 3),
            "wall_s": round(time.perf_counter() - t0, 3),
        }
        if epoch == start_epoch:
            metrics["state_lease_s"] = round(lease_s, 3)
        from ..functions.loglevels import get_logger

        get_logger(__name__).info(
            "epoch %d: %d pages parsed, %d selected, %.2fs",
            epoch, docs_count, selected_count, metrics["wall_s"],
        )
        ckpt.write_json(epoch, "metrics.json", metrics)
        ckpt.write_json(
            epoch,
            "lineage.json",
            {
                **lineage_base,
                "epoch": epoch,
                "partitions": {
                    "frontier": partition_manifest(frontier_dir),
                    "parsed": partition_manifest(parsed_dir),
                },
            },
        )
        ckpt.mark_complete(epoch)
        metrics_all.append(metrics)
        epochs_run += 1

        # -- next epoch frontier: deferred ∪ discovered
        frontier = _next_frontier(cfg, frontier_dir, parsed_dir, epoch + 1, seed_hosts)
        # emptiness from parquet FOOTERS — zero extra pipeline execution;
        # the lazy `frontier` above is only consumed if we loop again
        deferred_count = parquet_row_count(f"{frontier_dir}/selected=false")
        links_count = (
            parquet_row_count(f"{parsed_dir}/record_kind=link") if cfg.follow_links else 0
        )
        if epoch + 1 < start_epoch + cfg.max_epochs and deferred_count + links_count == 0:
            break

    documents = read_parquet_dirs(
        [f"{d}/record_kind=doc" for d in parsed_dirs], schemas.PARSED
    ).select_columns(["doc_id", "spans", "seed_id", "page_num", "url"])
    manifest = read_parquet_dirs(manifest_dirs, schemas.PARSED)
    return CrawlResult(documents, manifest, metrics_all, epochs_run, ckpt.root)
