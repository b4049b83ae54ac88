"""One benchmark leg, run in a fresh process with its own Ray instance.

``perfbench/run.py`` starts this as ``python3 -m perfbench.child SPEC``
with the repository root as working directory and on ``PYTHONPATH``;
SPEC is a JSON file naming the leg, its inputs and where to write the
result. A leg warms up (untimed), then runs the number of whole rounds
of its operations the spec names. A traced leg runs one untraced round
and one traced round instead.
"""

from __future__ import annotations

import glob
import json
import shutil
import sys
import tempfile
import time
import traceback

from perfbench import checks, trace

# the 22 query lines of the sf0.1 bench, by family
RELATIONAL = [
    "pricing_summary",
    "filter_project",
    "segment_revenue",
    "events_hourly",
    "top_orders",
    "customer_order_counts",
    "revenue_rollup",
    "nation_revenue",
    "supplier_lineitem_volume",
    "events_last_order",
    "events_sessions",
]
TEXT = [
    "token_counts",
    "dedup_exact",
    "minhash_clusters",
    "embedding_knn",
    "doc_fingerprints",
    "simhash_pairs",
    "ngram_jaccard_pairs",
    "dedup_keep_first",
    "corpus_prep",
    "repetition_signals",
    "doc_token_freq",
]
TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()

# the frontier crawl: the bench.py discovery_skew shape, fixed (seed-
# independent, so the resume fault fails the same share of every run)
HOT_PAGES, COLD_HOSTS, COLD_PAGES, BUDGET, DELAY, EPOCHS = 2000, 7, 60, 600, 0.001, 2


def op(name: str, wall: float, errors: list[str], **detail) -> dict:
    return {"name": name, "ok": not errors, "wall": wall, "errors": errors, **detail}


def read_docs(parsed_dir: str, columns: list[str]):
    import pyarrow as pa
    import pyarrow.parquet as pq

    files = sorted(glob.glob(f"{parsed_dir}/record_kind=doc/*.parquet"))
    if not files:
        return pa.table({c: pa.array([], pa.string()) for c in columns})
    return pa.concat_tables([pq.read_table(f, columns=columns) for f in files])


def epoch_parsed(root: str, epoch: int) -> str:
    return f"{root}/checkpoints/epoch={epoch:05d}/parsed"


def spans_named(spans, prefix):
    return [s for s in spans if s["name"].startswith(prefix)]


def total(spans, key=None) -> float:
    if key is None:
        return float(sum(s["end"] - s["start"] for s in spans))
    return float(sum(s["attrs"].get(key, 0) for s in spans))


# ---------------------------------------------------------------------------
# crawl workload


def crawl_layers(spans, epoch_walls, window) -> dict:
    """Per-layer metrics of the one crawl that ran during ``window``."""
    lo, hi = window
    sp = [s for s in spans if lo <= s["start"] <= hi]
    fetch, parse = spans_named(sp, "fetch."), spans_named(sp, "parse.")
    seen, waits = spans_named(sp, "seen."), spans_named(sp, "politeness.wait_turn")
    pagers, links = spans_named(sp, "pagers."), spans_named(sp, "crawl.links_to_frontier")
    wf, wp = spans_named(sp, "checkpoint.write_frontier"), spans_named(sp, "checkpoint.write_parsed")
    writes = spans_named(sp, "checkpoint.write_")
    first_wait = 0.0
    for w in wp:
        starts = [s["start"] for s in fetch if w["start"] <= s["start"] <= w["end"]]
        if starts:
            first_wait += min(starts) - w["start"]
    rows_in = total(seen, "rows_in")
    return {
        "checkpoint.parsed_write_s": total(wp),
        "checkpoint.frontier_write_s": total(wf),
        "checkpoint.mb_written": total(writes, "bytes") / 1e6,
        "checkpoint.files": total(writes, "files"),
        "fetch.rows": total(fetch, "rows"),
        "fetch.busy_s": total(fetch),
        "fetch.body_mb": total(fetch, "body_bytes") / 1e6,
        "parse.rows": total(parse, "rows"),
        "parse.busy_s": total(parse),
        "parse.spans": total(parse, "spans"),
        "parse.links": total(parse, "links"),
        "fetchparse.first_batch_wait_s": first_wait,
        "seen.rows_in": rows_in,
        "seen.rows_out": total(seen, "rows_out"),
        "seen.new_ratio": total(seen, "rows_out") / rows_in if rows_in else 0.0,
        "seen.busy_s": total(seen),
        "politeness.wait_s": total(waits),
        "politeness.waits": float(len(waits)),
        "pagers.rows": total(pagers, "rows"),
        "pagers.busy_s": total(pagers),
        "crawl.links_to_frontier_s": total(links),
        "crawl.links_rows": total(links, "rows_in"),
        "crawl.epoch_tail_s": sum(epoch_walls) - total(wf) - total(wp),
    }


class CrawlLeg:
    """The crawl workload in one Ray instance.

    bounded: 16 query-pager hosts, one epoch, no budget, bloom seen
    filter, task-mode fetch (the bench.py headline shape), once a
    round. frontier (full-CPU leg only): one hot
    cutter host and 7 cold query hosts, per-host budget, 1 ms politeness
    delay, skew salting, 2 epochs, then a resume of epoch 1 from a copy
    of the epoch-0 checkpoint. The frontier inputs do not depend on
    the seed, so the resume fault fails the same share of operations in
    every run.
    """

    def __init__(self, spec: dict):
        import random

        self.spec = spec
        rng = random.Random(spec["seed"])
        tag = f"{rng.getrandbits(32):08x}"
        pages = spec["pages_per_host"]
        self.seeds = []
        self.expected: set[str] = set()
        for h in range(spec["hosts"]):
            bp = f"http://forum{h}-{tag}.example/t?t={rng.randrange(1, 10**6)}"
            self.seeds.append(
                {"seed_id": f"s{h:03d}", "pager": "query", "blueprint_url": bp, "start": 1, "end": pages}
            )
            self.expected.update(checks.query_pager_urls(bp, 1, pages))
        self.sample = sorted(rng.sample(sorted(self.expected), 24))

        digits = len(str(HOT_PAGES))
        self.hot_host = "hot.example"
        self.cold_hosts = [f"cold{h}.example" for h in range(COLD_HOSTS)]
        self.frontier_seeds = [
            {
                "seed_id": "hot",
                "pager": "cutter",
                "blueprint_url": f"http://{self.hot_host}/p/{'0' * digits}.html",
                "start": 1,
                "end": HOT_PAGES,
                "cut_index": 22,
                "cut_len": digits,
                "digits": digits,
            }
        ] + [
            {"seed_id": f"cold{h}", "pager": "query", "blueprint_url": f"http://{host}/t", "start": 1, "end": COLD_PAGES}
            for h, host in enumerate(self.cold_hosts)
        ]

    def _root(self) -> str:
        return tempfile.mkdtemp(prefix="crawl_", dir=self.spec["workdir"])

    def bounded_cfg(self, seeds, root):
        from bbcrawl_ray.cli.partition import CrawlerSpec
        from bbcrawl_ray.pipelines.crawl import CrawlConfig

        return CrawlConfig(
            crawler=CrawlerSpec(crawler="src", tags=["img", "audio", "video"]),
            seeds=seeds,
            output_root=root,
            per_host_budget=None,
            seen_shards=4,
            seen_mode="bloom",
            fetch_concurrency=(2, max(4, self.spec["ncpu"])),
            fetch_batch_size=512,
            fetch_num_cpus=1,
            metrics_level="lite",
        )

    def frontier_cfg(self, root, epochs):
        from bbcrawl_ray.cli.partition import CrawlerSpec
        from bbcrawl_ray.pipelines.crawl import CrawlConfig

        return CrawlConfig(
            crawler=CrawlerSpec(crawler="src", tags=["img"]),
            seeds=self.frontier_seeds,
            output_root=root,
            follow_links=True,
            same_host_only=True,
            per_host_budget=BUDGET,
            min_host_delay_s=DELAY,
            skew_split_threshold=max(64, BUDGET // 3),
            max_epochs=epochs,
            seen_shards=4,
            seen_mode="bloom",
            fetch_concurrency=(2, max(4, self.spec["ncpu"])),
            fetch_batch_size=256,
            fetch_num_cpus=1,
            metrics_level="full",
        )

    def warmup(self):
        """The bounded crawl's task layout (one expansion task per host)
        over 20 pages a host; at 1 CPU, where tasks run one at a time,
        4 hosts."""
        from bbcrawl_ray.pipelines import crawl

        root = self._root()
        hosts = self.seeds if self.spec["ncpu"] > 1 else self.seeds[:4]
        mini = [dict(s, end=20, seed_id=f"w{s['seed_id']}") for s in hosts]
        crawl.run_crawl(self.bounded_cfg(mini, root))
        shutil.rmtree(root, ignore_errors=True)

    def round(self, rec=None) -> list[dict]:
        """The bounded crawl, then (full-CPU leg) the frontier crawl."""
        ops = [self.bounded()]
        if self.spec["frontier"]:
            ops += self.frontier()
        return ops

    def bounded(self) -> dict:
        import pyarrow as pa
        import pyarrow.compute as pc

        from bbcrawl_ray.pipelines import crawl
        from bbcrawl_ray.sources.corpus import CorpusConfig, synth_thread_html

        root = self._root()
        try:
            t_start = time.time()
            t0 = time.perf_counter()
            res = crawl.run_crawl(self.bounded_cfg(self.seeds, root))
            wall = time.perf_counter() - t0
            # checks, outside the timed region
            docs = read_docs(epoch_parsed(root, 0), ["doc_id", "url"]).to_pylist()
            sampled = read_docs(epoch_parsed(root, 0), ["url", "spans"])
            sampled = sampled.filter(pc.is_in(sampled["url"], value_set=pa.array(self.sample)))
            spans = {d["url"]: d["spans"] for d in sampled.to_pylist()}
            rows = [dict(d, spans=spans.get(d["url"], [])) for d in docs]
            corpus = CorpusConfig()
            errors = checks.check_bounded(
                rows, self.expected, lambda u: synth_thread_html(u, corpus), self.sample
            )
            return op(
                "bounded",
                wall,
                errors,
                pages=sum(m["pages_parsed"] for m in res.metrics),
                epoch_walls=[m["wall_s"] for m in res.metrics],
                window=(t_start, t_start + wall),
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def frontier(self) -> list[dict]:
        from bbcrawl_ray.pipelines import crawl

        a, b = self._root(), self._root()
        try:
            t_start = time.time()
            t0 = time.perf_counter()
            res = crawl.run_crawl(self.frontier_cfg(a, EPOCHS))
            wall = time.perf_counter() - t0
            walls = [m["wall_s"] for m in res.metrics]
            epochs = [read_docs(epoch_parsed(a, e), ["url"]).to_pylist() for e in range(len(walls))]
            errors = checks.check_frontier(
                epochs, self.hot_host, self.cold_hosts, COLD_PAGES, BUDGET, DELAY, walls
            )
            if len(walls) != EPOCHS:
                errors.append(f"ran {len(walls)} epochs, expected {EPOCHS}")
            pages = sum(m["pages_parsed"] for m in res.metrics)
            ops = [op("frontier", wall, errors, pages=pages, epoch_walls=walls, window=(t_start, t_start + wall))]

            # resume the last epoch from a copy of the earlier epochs' checkpoint
            for e in range(EPOCHS - 1):
                shutil.copytree(f"{a}/checkpoints/epoch={e:05d}", f"{b}/checkpoints/epoch={e:05d}")
            t_start = time.time()
            t0 = time.perf_counter()
            res = crawl.run_crawl(self.frontier_cfg(b, 1), resume=True)
            wall = time.perf_counter() - t0
            ran = [m["epoch"] for m in res.metrics]
            errors = [] if ran == [EPOCHS - 1] else [f"resume ran epochs {ran}"]
            walls = [m["wall_s"] for m in res.metrics]
            ops.append(op("resume", wall, errors, epoch_walls=walls, window=(t_start, t_start + wall)))
            resumed = read_docs(epoch_parsed(b, EPOCHS - 1), ["url"]).to_pylist()
            ops.append(op("resume_equivalence", 0.0, checks.check_resume(resumed, epochs[-1])))
            return ops
        finally:
            shutil.rmtree(a, ignore_errors=True)
            shutil.rmtree(b, ignore_errors=True)

    def layers(self, spans, ops) -> dict:
        by_name = {o["name"]: o for o in ops}  # the last op of each name
        out = {}
        for name in ("bounded", "frontier"):
            o = by_name.get(name)
            if o is not None:
                for k, v in crawl_layers(spans, o["epoch_walls"], o["window"]).items():
                    out[f"{name}.{k}"] = v
        if "resume" in by_name:
            r = by_name["resume"]
            out["frontier.resume_rebuild_s"] = r["wall"] - sum(r["epoch_walls"])
        return out


# ---------------------------------------------------------------------------
# query legs


class QueryLeg:
    """The 22 query lines over the generated tables, relational family first."""

    def __init__(self, spec):
        self.spec = spec
        self.sf = spec["tables_dir"]
        self.family = {n: "relational" for n in RELATIONAL} | {n: "text" for n in TEXT}
        self.oracle = None

    def run_line(self, name):
        from bbcrawl_ray.pipelines.queries import QUERIES

        res = QUERIES[name](self.sf)
        return res.to_pandas() if hasattr(res, "to_pandas") else res

    def warmup(self):
        for name in self.family:
            self.run_line(name)

    def _oracle(self) -> dict:
        """DuckDB results for the oracle-backed lines and the documents
        the other checks need; computed once, outside any timed region."""
        if self.oracle is None:
            import duckdb

            from bbcrawl_ray.pipelines.queries import ORACLE_SQL

            con = duckdb.connect()
            for t in TABLES:
                con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{self.sf}/{t}.parquet')")
            self.oracle = {n: con.execute(ORACLE_SQL[n]).df() for n in self.family if n in ORACLE_SQL}
            self.docs = con.execute("SELECT doc_id, text FROM documents").df()
            con.close()
            # the reference minhash_clusters is checked against
            self.distributed = self.run_line("minhash_clusters_distributed")
        return self.oracle

    def check(self, name, df) -> list[str]:
        oracle = self._oracle()
        if name in oracle:
            return checks.check_frame(df, oracle[name])
        if name == "minhash_clusters":
            return checks.check_clusters(df, self.distributed)
        if name == "simhash_pairs":
            return checks.check_simhash_pairs(df, self.docs)
        if name == "doc_fingerprints":
            return checks.check_fingerprints(df, self.docs)
        return [f"no check for {name}"]

    def round(self, rec=None) -> list[dict]:
        timed = []
        for name, family in self.family.items():
            span = rec.begin(f"q.{name}") if rec else None
            t0 = time.perf_counter()
            df = self.run_line(name)
            wall = time.perf_counter() - t0
            if span is not None:
                rec.end(span)
            timed.append((name, family, wall, df))
        # checks, outside the timed region
        return [op(name, wall, self.check(name, df), family=fam) for name, fam, wall, df in timed]

    def layers(self, spans, ops) -> dict:
        out = {f"q.{o['name']}_s": o["wall"] for o in ops}
        for layer in ("relops", "dedup"):
            drv = [s for s in spans if s["main"] and s["name"].startswith(layer + ".")]
            ids = {s["id"] for s in drv}
            outer = [s for s in drv if s["parent"] not in ids]
            out[f"{layer}.eager_s"] = total(outer)
            out[f"{layer}.calls"] = float(len(outer))
        executed = spans_named(spans, "ray.execute")
        for fam in ("relational", "text"):
            lines = [s for s in spans_named(spans, "q.") if self.family[s["name"][2:]] == fam]
            inside = [e for e in executed if any(q["start"] <= e["start"] <= q["end"] for q in lines)]
            out[f"ops.{fam}"] = total(inside, "ops")
        return out


# ---------------------------------------------------------------------------


def init_ray(spec: dict) -> None:
    import ray

    kw = dict(
        address="local",
        num_cpus=spec["ncpu"],
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=spec["object_store_mb"] * 2**20,
    )
    if spec.get("ray_temp"):
        kw["_temp_dir"] = spec["ray_temp"]
    ray.init(**kw)
    import logging

    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


LEGS = {"crawl": CrawlLeg, "queries": QueryLeg}


def run(spec: dict) -> dict:
    result = {"ops": [], "layers": {}, "setup_s": None}
    rec = None
    init_ray(spec)
    leg = LEGS[spec["leg"]](spec)
    if spec["trace"]:
        rec = trace.install_main(spec["trace_dir"], spec["run_id"])
    leg.warmup()
    result["setup_s"] = time.time() - spec["t_spawn"]

    try:
        if not spec["trace"]:
            for _ in range(spec["rounds"]):
                result["ops"].extend(leg.round())
        else:
            untraced = leg.round()
            rec.set_enabled(True)
            traced = leg.round(rec)
            rec.set_enabled(False)
            rec.flush()
            result["ops"].extend(untraced + [dict(o, traced=True) for o in traced])
            spans = trace.load_spans(spec["trace_dir"])
            trace.attach_parents(spans)
            layers = leg.layers(spans, traced)
            for layer, v in trace.self_times(spans).items():
                layers[f"self.{layer}_s"] = v
            layers["trace.overhead_s"] = sum(o["wall"] for o in traced) - sum(
                o["wall"] for o in untraced
            )
            result["layers"] = layers
    except Exception:
        traceback.print_exc()
        result["ops"].append(op("error", 0.0, [traceback.format_exc(limit=3)]))
    return result


def main() -> int:
    with open(sys.argv[1]) as f:
        spec = json.load(f)
    try:
        result = run(spec)
    finally:
        import ray

        ray.shutdown()
    with open(spec["result"], "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
