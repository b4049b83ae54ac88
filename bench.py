#!/usr/bin/env python
"""Benchmark harness (driver contract).

Default: runs the headline crawl pipeline + representative relational /
training-data queries over ``$GRAFT_SF_DIR`` (default
/root/testdata/sf0.1) under ``ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS)`` (default: the CPUs this process may run
on) and prints ONE JSON line:

    {"metric": "crawl_pages_per_s", "value": <headline seconds>,
     "unit": "sec", "queries": {...}, "sf": ..., "num_cpus": N,
     "crawl": {"pages": P, "pages_per_s": ..., "frontier_urls_per_s": ...}}

``--scaling``: runs the identical 32k-page crawl in FRESH processes at
num_cpus=1 and num_cpus=4 (the north rule's N → 4N on a 4-CPU host),
three adjacent pairs with each run's /proc/stat steal, and prints the
median pair's throughput at both + efficiency.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time


def _set_worker_log_config() -> None:
    """Point RAY_DATA_LOGGING_CONFIG at Ray Data's stock logging config
    with the CONSOLE handler raised to ERROR, so WORKER-process chatter
    (e.g. the harmless 'Failed to hash the schemas' WARNING that
    ReadParquet tasks emit for parquet files carrying pandas metadata)
    stays out of the bench tail. Nothing is hidden from the logs — the
    per-session ray-data.log file handler keeps DEBUG and up; pytest
    and ad-hoc runs don't set this. Must run BEFORE ray.init so workers
    inherit the env var."""
    import yaml

    cfg = {
        "version": 1,
        "disable_existing_loggers": False,
        "formatters": {
            "ray": {
                "format": "%(asctime)s\t%(levelname)s %(filename)s:%(lineno)s -- %(message)s"
            }
        },
        "filters": {
            "console_filter": {"()": "ray.data._internal.logging.HiddenRecordFilter"}
        },
        "handlers": {
            "file": {
                "class": "ray.data._internal.logging.SessionFileHandler",
                "formatter": "ray",
                "filename": "ray-data.log",
            },
            "console": {
                "class": "ray._private.log.PlainRayHandler",
                "formatter": "ray",
                "level": "ERROR",
                "filters": ["console_filter"],
            },
        },
        "loggers": {
            "ray.data": {
                "level": "DEBUG",
                "handlers": ["file", "console"],
                "propagate": False,
            },
            "ray.air.util.tensor_extensions": {
                "level": "DEBUG",
                "handlers": ["file", "console"],
                "propagate": False,
            },
        },
    }
    path = os.path.join(tempfile.gettempdir(), "bbray_ray_data_logging.yaml")
    with open(path, "w") as f:
        yaml.safe_dump(cfg, f)
    os.environ.setdefault("RAY_DATA_LOGGING_CONFIG", path)


def _quiet_ray_data_logs() -> None:
    """Keep the bench tail to the result line. The only WARNINGs ray.data
    emits on these pipelines are its own sort-machinery empty-partition
    blocks — schema-LESS by construction in Ray 2.49 whenever sort
    partitions > distinct shard keys, reproduced with a schema-stable
    UDF returning non-empty frames on a plain groupby().map_groups. The
    schema uniformity WE own (one dtype set across all non-empty blocks)
    is pinned by tests/test_misc_parity.py::
    test_asof_output_blocks_schema_uniform, so nothing real is hidden."""
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)


def fetch_layouts(metrics: list[dict]) -> dict:
    """Each epoch's fetch-stage task count and batch rows (metrics.json)."""
    return {k: [m[k] for m in metrics] for k in ("fetch_tasks", "fetch_batch_rows")}


def crawl_workload(num_cpus: int, n_hosts: int = 16, pages_per_host: int = 2000, warmup: bool = True) -> dict:
    """The headline workload: a multi-host bounded crawl over the
    deterministic synthetic corpus (fetch → parse → spans, no blob
    downloads). Returns timings + counts."""
    from bbcrawl_ray.cli.partition import CrawlerSpec
    from bbcrawl_ray.pipelines.crawl import CrawlConfig, run_crawl

    seeds = [
        {
            "seed_id": f"s{h:03d}",
            "pager": "query",
            "blueprint_url": f"http://forum{h}.example/t",
            "start": 1,
            "end": pages_per_host,
        }
        for h in range(n_hosts)
    ]
    if warmup:
        # untimed mini-crawl: warms the worker pool (module imports),
        # parquet writers and actor paths so the timed run measures
        # steady-state throughput, not cold-start
        crawl_workload(num_cpus, n_hosts=4, pages_per_host=50, warmup=False)
    root = tempfile.mkdtemp(prefix="bbray_bench_")
    try:
        cfg = CrawlConfig(
            crawler=CrawlerSpec(crawler="src", tags=["img", "audio", "video"]),
            seeds=seeds,
            output_root=root,
            per_host_budget=None,
            seen_shards=4,
            seen_mode="bloom",
            fetch_concurrency=(2, max(4, num_cpus)),
            fetch_batch_size=512,  # measured best on this host (256 ≈ 3.3s, 512 ≈ 3.0s median)
            fetch_num_cpus=1,
            metrics_level="lite",
        )
        t0 = time.perf_counter()
        res = run_crawl(cfg)
        wall = time.perf_counter() - t0
        pages = sum(m["pages_parsed"] for m in res.metrics)
        frontier_urls = n_hosts * pages_per_host
        return {
            "wall_s": round(wall, 3),
            "pages": pages,
            "frontier_urls": frontier_urls,
            "pages_per_s": round(pages / wall, 1),
            "frontier_urls_per_s": round(frontier_urls / wall, 1),
            **fetch_layouts(res.metrics),
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def discovery_workload(num_cpus: int, n_hosts: int = 8, pages_per_host: int = 500) -> dict:
    """Frontier-discovery bench: follow_links crawl where epoch 0's pages
    offer pages × link_next_pages links back into the frontier — the
    seen filter + _links_to_frontier path is what's being measured
    (almost every offered link is a re-offer and must die cheaply)."""
    from bbcrawl_ray.cli.partition import CrawlerSpec
    from bbcrawl_ray.pipelines.crawl import CrawlConfig, run_crawl
    from bbcrawl_ray.sources.corpus import CorpusConfig

    seeds = [
        {
            "seed_id": f"d{h:03d}",
            "pager": "query",
            "blueprint_url": f"http://forum{h}.example/t",
            "start": 1,
            "end": pages_per_host,
        }
        for h in range(n_hosts)
    ]
    root = tempfile.mkdtemp(prefix="bbray_disc_")
    try:
        cfg = CrawlConfig(
            crawler=CrawlerSpec(crawler="src", tags=["img"]),
            seeds=seeds,
            output_root=root,
            corpus=CorpusConfig(link_next_pages=8),
            follow_links=True,
            same_host_only=True,
            max_epochs=2,
            seen_shards=4,
            seen_mode="bloom",
            fetch_concurrency=(2, max(4, num_cpus)),
            fetch_batch_size=512,
            fetch_num_cpus=1,
            metrics_level="lite",
        )
        t0 = time.perf_counter()
        res = run_crawl(cfg)
        wall = time.perf_counter() - t0
        pages = sum(m["pages_parsed"] for m in res.metrics)
        seed_pages = n_hosts * pages_per_host
        offered = sum(m.get("frontier_selected", 0) for m in res.metrics[1:])
        dedup_hits = sum(m.get("dedup_hits", 0) for m in res.metrics[1:])
        return {
            "wall_s": round(wall, 3),
            "pages": pages,
            "seed_pages": seed_pages,
            "discovered_pages": pages - seed_pages,
            "links_offered": offered,
            "seen_filter_kills": dedup_hits,
            "pages_per_s": round(pages / wall, 1),
            **fetch_layouts(res.metrics),
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def discovery_skew_workload(
    num_cpus: int,
    hot_pages: int = 2000,
    cold_hosts: int = 7,
    cold_pages: int = 60,
    budget: int = 600,
    delay: float = 0.001,
) -> dict:
    """Hot-host discovery stress (round-4 verdict #3): ONE host owns
    ~90 %+ of discovered links (cutter seed: distinct path per page, so
    every page discovers link_next_pages NEW urls; query-pager cold
    hosts collapse to 2 distinct links each), with a per-host politeness
    delay AND a skew_split_threshold that salts the hot host's winners
    across the fetch pool. Reports the budget+salting drain across
    epochs, whether cold hosts completed UNAFFECTED in epoch 0, the
    measured hot link share, and the politeness floor vs measured wall
    — the reference's serial-politeness semantics (api.go:104-113)
    lifted to a parallel frontier."""
    import glob

    import pyarrow.parquet as pq

    from bbcrawl_ray.cli.partition import CrawlerSpec
    from bbcrawl_ray.functions.urlfns import hosts_of_batch
    from bbcrawl_ray.pipelines.crawl import CrawlConfig, run_crawl

    digits = len(str(hot_pages))
    seeds = [
        {
            "seed_id": "hot",
            "pager": "cutter",
            "blueprint_url": f"http://hot.example/p/{'0' * digits}.html",
            "start": 1,
            "end": hot_pages,
            "cut_index": 22,
            "cut_len": digits,
            "digits": digits,
        }
    ] + [
        {
            "seed_id": f"cold{h}",
            "pager": "query",
            "blueprint_url": f"http://cold{h}.example/t",
            "start": 1,
            "end": cold_pages,
        }
        for h in range(cold_hosts)
    ]
    root = tempfile.mkdtemp(prefix="bbray_skew_")
    try:
        cfg = CrawlConfig(
            crawler=CrawlerSpec(crawler="src", tags=["img"]),
            seeds=seeds,
            output_root=root,
            follow_links=True,
            same_host_only=True,
            per_host_budget=budget,
            min_host_delay_s=delay,
            skew_split_threshold=max(64, budget // 3),  # salting engages
            max_epochs=3,
            seen_shards=4,
            seen_mode="bloom",
            fetch_concurrency=(2, max(4, num_cpus)),
            fetch_batch_size=256,
            fetch_num_cpus=1,
            metrics_level="full",
        )
        t0 = time.perf_counter()
        res = run_crawl(cfg)
        wall = time.perf_counter() - t0
        # measured link skew: DISTINCT urls discovered by epoch 0's pages
        # (cold hosts offer the same 2 urls from every page — offers
        # collapse; what the frontier actually grows by is distinct urls)
        urls: set = set()
        for f in glob.glob(
            f"{root}/checkpoints/epoch=00000/parsed/record_kind=link/*.parquet"
        ):
            t = pq.read_table(f, columns=["media_ref"])
            urls.update(t["media_ref"].to_pylist())
        import pyarrow as pa

        link_hosts = (
            hosts_of_batch(pa.array(sorted(urls), pa.string())).to_pylist()
            if urls
            else []
        )
        hot_links = sum(1 for h in link_hosts if h == "hot.example")
        per_epoch = [
            {
                "hot_docs": m["docs_per_seed"].get("hot", 0),
                "cold_docs": sum(
                    v for k, v in m["docs_per_seed"].items() if k.startswith("cold")
                ),
                "wall_s": m["wall_s"],
            }
            for m in res.metrics
        ]
        floor = round((budget - 1) * delay, 3)
        return {
            "wall_s": round(wall, 3),
            "per_epoch": per_epoch,
            "hot_link_share": round(hot_links / max(1, len(link_hosts)), 3),
            "cold_done_epoch0": per_epoch[0]["cold_docs"] == cold_hosts * cold_pages,
            "hot_drained_per_epoch": all(e["hot_docs"] == budget for e in per_epoch),
            "politeness_floor_s": floor,
            "politeness_held": all(e["wall_s"] >= floor for e in per_epoch),
            **fetch_layouts(res.metrics),
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


BENCH_QUERIES = [
    "pricing_summary",
    "filter_project",
    "segment_revenue",
    "events_hourly",
    "top_orders",
    "token_counts",
    "dedup_exact",
    "minhash_clusters",
    "embedding_knn",
    # round-2 additions (new keys; the r1-comparable set above is unchanged)
    "doc_fingerprints",
    "simhash_pairs",
    "events_last_order",
    # round-3 additions (new keys; earlier rounds' comparable set unchanged)
    "ngram_jaccard_pairs",
    "dedup_keep_first",
    "corpus_prep",
    # round-3 continuation: engine-join regression lines (outer + rollup)
    "customer_order_counts",
    "revenue_rollup",
    # round-3 second continuation: quality-filter pass + the five-table
    # Q5-shaped join (deepest join composition in the suite)
    "repetition_signals",
    "nation_revenue",
    # the two-pass broadcast-vocab scoring pipeline (perplexity proxy)
    "doc_token_freq",
    # round-5 additions (new keys; earlier rounds' comparable set
    # unchanged): the byte-gated supplier join and the bucketed
    # sessionize showcase (time_buckets=8 shapes its distributed side)
    "supplier_lineitem_volume",
    "events_sessions",
]


def run_queries(sf_dir: str, repeats: int = 3) -> dict:
    """Per-query wall time, median of ``repeats`` back-to-back runs.

    This VM takes bursty CPU steal (/proc/stat steal: ~620 CPU-s in the
    first 12 min of one session); identical code measured 2.7 s and
    14.3 s for the same query 30 min apart. A single sample is the
    noise, not the query — the median of three adjacent runs is stable.
    """
    from bbcrawl_ray.pipelines.queries import QUERIES

    out = {}
    for name in BENCH_QUERIES:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            res = QUERIES[name](sf_dir)
            if hasattr(res, "to_pandas"):
                res.to_pandas()  # consume the lazy pipeline
            times.append(round(time.perf_counter() - t0, 3))
        out[name] = sorted(times)[len(times) // 2]
    return out


def _num_cpus() -> int:
    """``$RAY_GRAFT_CPUS``, else the CPUs this process may run on."""
    return int(os.environ.get("RAY_GRAFT_CPUS") or len(os.sched_getaffinity(0)))


def main() -> None:
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = _num_cpus()

    _set_worker_log_config()
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    _quiet_ray_data_logs()

    # warm the page cache so we measure compute + shuffle, not cold disk
    for name in ("lineitem", "orders", "documents", "embeddings", "events"):
        with open(os.path.join(sf_dir, f"{name}.parquet"), "rb") as f:
            f.read()

    # median of 3 timed runs: this VM's wall clock drifts ±20-50% over
    # minutes (single-run r3 samples spanned 3.3-7.6 s on identical
    # code), so one sample is noise, not a measurement; the first call
    # also runs the untimed warmup
    runs = [crawl_workload(num_cpus, warmup=(i == 0)) for i in range(3)]
    crawl = sorted(runs, key=lambda r: r["wall_s"])[len(runs) // 2]
    crawl["wall_s_runs"] = [r["wall_s"] for r in runs]
    discovery = discovery_workload(num_cpus)
    discovery_skew = discovery_skew_workload(num_cpus)
    queries = run_queries(sf_dir)
    # metric name matches the value: wall-seconds of the headline crawl
    # (throughput lives in crawl.pages_per_s — r1 reported seconds under
    # a throughput-named metric)
    result = {
        "metric": "crawl_wall_s",
        "value": crawl["wall_s"],
        "unit": "sec",
        "queries": queries,
        "sf": sf_dir,
        "num_cpus": num_cpus,
        "crawl": crawl,
        "discovery": discovery,
        "discovery_skew": discovery_skew,
    }
    print(json.dumps(result))
    ray.shutdown()


def _steal_s() -> float:
    """Host-wide CPU steal so far, in seconds (/proc/stat ``cpu`` line)."""
    with open("/proc/stat") as f:
        steal = int(f.readline().split()[8])
    return steal / os.sysconf("SC_CLK_TCK")


def scaling() -> None:
    """The (1, 4) pair on the 32k-page crawl, each run in a fresh process.

    This shared VM takes bursty CPU steal, so one pair is noise: three
    temporally ADJACENT (1, 4) pairs, each run's steal recorded, and the
    median pair by efficiency is the reported figure."""

    def run(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), BBRAY_BENCH_CRAWL_ONLY="1")
        steal = _steal_s()
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        crawl = json.loads(out.strip().splitlines()[-1])["crawl"]
        return dict(crawl, steal_s=round(_steal_s() - steal, 1))

    lo, hi = 1, 4
    pairs = []
    for _ in range(3):
        r_lo, r_hi = run(lo), run(hi)
        pairs.append(
            {
                "pages_per_s": [r_lo["pages_per_s"], r_hi["pages_per_s"]],
                "frontier_urls_per_s": [r_lo["frontier_urls_per_s"], r_hi["frontier_urls_per_s"]],
                "wall_s": [r_lo["wall_s"], r_hi["wall_s"]],
                "steal_s": [r_lo["steal_s"], r_hi["steal_s"]],
                "fetch_tasks": [r_lo["fetch_tasks"], r_hi["fetch_tasks"]],
                "efficiency": round((r_hi["pages_per_s"] / r_lo["pages_per_s"]) / (hi / lo), 3),
            }
        )
    # report the MEDIAN pair's numbers so throughput and efficiency in the
    # output are from the same measurement
    median_pair = sorted(pairs, key=lambda p: p["efficiency"])[len(pairs) // 2]
    print(
        json.dumps(
            {
                "metric": "scaling_efficiency",
                "cpus": [lo, hi],
                "pages": r_hi["pages"],
                **{k: median_pair[k] for k in ("pages_per_s", "frontier_urls_per_s", "wall_s", "steal_s")},
                "scaling_efficiency": median_pair["efficiency"],
                "pairs": pairs,
            }
        )
    )


def main_crawl_only() -> None:
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = _num_cpus()
    _set_worker_log_config()
    import ray

    ray.init(
        address="local", num_cpus=num_cpus, include_dashboard=False, logging_level="ERROR"
    )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    _quiet_ray_data_logs()
    pph = int(os.environ.get("BBRAY_BENCH_PAGES_PER_HOST", "2000"))
    crawl = crawl_workload(num_cpus, pages_per_host=pph)
    print(
        json.dumps(
            {
                "metric": "crawl_pages_per_s",
                "value": crawl["wall_s"],
                "unit": "sec",
                "queries": {},
                "sf": sf_dir,
                "num_cpus": num_cpus,
                "crawl": crawl,
            }
        )
    )
    ray.shutdown()


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        scaling()
    elif os.environ.get("BBRAY_BENCH_CRAWL_ONLY"):
        main_crawl_only()
    else:
        main()
