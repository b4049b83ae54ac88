"""End-to-end crawl pipeline tests (Ray, synthetic + mapping transports).

Covers SURVEY.md §5 items 3-4: crawl-order parity vs a pure-Python
oracle, URL-seen dedup idempotence, politeness budget enforcement,
checkpoint → resume equivalence, and download resume semantics.
"""

import os
import shutil
import tempfile

import pytest

from bbcrawl_ray.cli.partition import CrawlerSpec
from bbcrawl_ray.sources.corpus import Response
from bbcrawl_ray.sources.pagers import expand_seed


@pytest.fixture()
def tmp_root():
    d = tempfile.mkdtemp(prefix="bbray_test_")
    yield d
    shutil.rmtree(d, ignore_errors=True)


SEED = {
    "seed_id": "s1",
    "pager": "vb4",
    "blueprint_url": "http://forum.example/threads/42",
    "start": 1,
    "end": 8,
}


def run(cfg_kwargs, resume=False):
    from bbcrawl_ray.pipelines.crawl import CrawlConfig, run_crawl

    cfg = CrawlConfig(**cfg_kwargs)
    return run_crawl(cfg, resume=resume)


def test_crawl_order_parity_and_spans(ray_session, tmp_root):
    """Documents sorted by (seed_id, page_num) = the pager's page order,
    one doc per page, spans non-empty and offset-consecutive."""
    res = run(
        dict(
            crawler=CrawlerSpec(crawler="src", tags=["img", "audio", "video"]),
            seeds=[SEED],
            output_root=tmp_root,
        )
    )
    docs = res.documents.to_pandas().sort_values(["seed_id", "page_num"])
    oracle = expand_seed(SEED)
    assert list(docs["page_num"]) == [p for p, _ in oracle]
    assert list(docs["url"]) == [u for _, u in oracle]
    assert list(docs["doc_id"]) == [f"s1/{p}" for p, _ in oracle]
    for spans in docs["spans"]:
        offsets = [s["offset"] for s in spans]
        assert offsets == list(range(len(spans)))
        kinds = {s["kind"] for s in spans}
        assert "text" in kinds and ("img" in kinds or "attachment" in kinds)


def test_url_seen_dedup_reoffered(ray_session, tmp_root):
    """The same URL offered by two seeds is fetched exactly once."""
    seed2 = {**SEED, "seed_id": "s2"}  # same blueprint → same URLs
    res = run(
        dict(
            crawler=CrawlerSpec(crawler="src", tags=["img"]),
            seeds=[SEED, seed2],
            output_root=tmp_root,
        )
    )
    docs = res.documents.to_pandas()
    # 8 pages total despite 16 frontier rows; first-wins across seeds
    assert len(docs) == 8
    assert sorted(docs["page_num"]) == list(range(1, 9))
    assert sum(res.metrics[0]["seen_sizes"]) == 8


def test_politeness_budget_defers(ray_session, tmp_root):
    res = run(
        dict(
            crawler=CrawlerSpec(crawler="src", tags=["img"]),
            seeds=[SEED],
            output_root=tmp_root,
            per_host_budget=3,
            max_epochs=2,
        )
    )
    # 3 pages in epoch 0 (best priority = lowest page numbers), 3 more in epoch 1
    assert [m["pages_parsed"] for m in res.metrics] == [3, 3]
    docs = res.documents.to_pandas().sort_values("page_num")
    assert list(docs["page_num"]) == [1, 2, 3, 4, 5, 6]


def test_checkpoint_resume_equivalence(ray_session, tmp_root):
    """Run epochs 0-1, kill, resume 2-3 → identical union as one 4-epoch run."""
    base = dict(
        crawler=CrawlerSpec(crawler="src", tags=["img"]),
        seeds=[SEED],
        per_host_budget=2,
    )
    full = run({**base, "output_root": f"{tmp_root}/full", "max_epochs": 4})
    full_docs = full.documents.to_pandas().sort_values("page_num")

    part = run({**base, "output_root": f"{tmp_root}/part", "max_epochs": 2})
    assert part.epochs_run == 2
    resumed = run({**base, "output_root": f"{tmp_root}/part", "max_epochs": 2}, resume=True)
    assert [m["epoch"] for m in resumed.metrics] == [2, 3]
    from bbcrawl_ray.pipelines.crawl import read_parquet_dirs
    from bbcrawl_ray import schemas

    all_parsed = read_parquet_dirs(
        [
            f"{tmp_root}/part/checkpoints/epoch={e:05d}/parsed/record_kind=doc"
            for e in range(4)
        ],
        schemas.PARSED,
    )
    part_docs = all_parsed.to_pandas().sort_values("page_num")
    assert list(part_docs["page_num"]) == list(full_docs["page_num"])
    assert list(part_docs["doc_id"]) == list(full_docs["doc_id"])


def test_mapping_transport_and_redirect_policies(ray_session, tmp_root):
    url1 = "http://m.example/t"
    url2 = "http://m.example/t/page2"
    pages = {
        url1: Response(
            302, {"Location": ["http://m.example/real"]}, b"", "http://m.example/real"
        ),
        "http://m.example/real": Response(
            200, {"Content-Type": ["text/html; charset=utf-8"]},
            b'<html><body><img src="/i/a.jpg">ok</body></html>',
        ),
        url2: Response(200, {}, b"<html></html>"),  # missing content-type
    }
    seeds = [
        {"seed_id": "m1", "pager": "vb4", "blueprint_url": url1, "start": 1, "end": 2}
    ]
    res = run(
        dict(
            crawler=CrawlerSpec(crawler="src", tags=["img"], allow_redirect=True),
            seeds=seeds,
            output_root=tmp_root,
            transport="mapping",
            pages=pages,
        )
    )
    docs = res.documents.to_pandas()
    man = res.manifest.to_pandas()
    assert len(docs) == 1  # page 1 via redirect; page 2 errored (no content-type)
    errs = man[man.status == "error"]
    assert any("No Content-Type" in e for e in errs["error"])

    # deny policy: the redirect itself is an error (redirect.go:16-22)
    res2 = run(
        dict(
            crawler=CrawlerSpec(crawler="src", tags=["img"], allow_redirect=False),
            seeds=seeds,
            output_root=f"{tmp_root}/deny",
            transport="mapping",
            pages=pages,
        )
    )
    man2 = res2.manifest.to_pandas()
    assert any("Attempted Redirection" in e for e in man2["error"])


def test_downloads_and_skip_exists(ray_session, tmp_root):
    res = run(
        dict(
            crawler=CrawlerSpec(crawler="file"),
            seeds=[
                {
                    "seed_id": "f1",
                    "pager": "cutter",
                    "blueprint_url": "http://files.example/img/photo1.jpg",
                    "start": 1,
                    "end": 3,
                    "cut_index": 31,
                    "cut_len": 1,
                }
            ],
            output_root=tmp_root,
            download_media=True,
        )
    )
    man = res.manifest.to_pandas()
    assert list(man["status"]) == ["ok"] * 3
    names = sorted(man["out_name"])
    assert names == ["1 - photo1.jpg", "2 - photo2.jpg", "3 - photo3.jpg"]
    for n in names:
        assert os.path.exists(f"{tmp_root}/files/{n}")
    # rerun: blobs exist → skipped (reference downloader.go:267-273 parity)
    res2 = run(
        dict(
            crawler=CrawlerSpec(crawler="file"),
            seeds=[
                {
                    "seed_id": "f1",
                    "pager": "cutter",
                    "blueprint_url": "http://files.example/img/photo1.jpg",
                    "start": 1,
                    "end": 3,
                    "cut_index": 31,
                    "cut_len": 1,
                }
            ],
            output_root=tmp_root,
            download_media=True,
        )
    )
    assert list(res2.manifest.to_pandas()["status"]) == ["skipped_exists"] * 3


def test_discovery_crawl_follow_links(ray_session, tmp_root):
    """Frontier discovery e2e (covers the vectorized _links_to_frontier):
    pagination links found in fetched pages become next-epoch frontier
    rows — same-host-filtered, deduped, with synthetic high page_nums —
    and the discovered pages actually get crawled; re-offered links die
    at the seen filter, so no document repeats."""
    seeds = [
        {
            "seed_id": f"h{i}",
            "pager": "query",
            "blueprint_url": f"http://forum{i}.example/t",
            "start": 1,
            "end": 3,
        }
        for i in range(2)
    ]
    res = run(
        dict(
            crawler=CrawlerSpec(crawler="src", tags=["img"]),
            seeds=seeds,
            output_root=tmp_root,
            follow_links=True,
            same_host_only=True,
            max_epochs=3,
        )
    )
    docs = res.documents.to_pandas()
    # 2 hosts × 3 seed pages crawled in epoch 0; the synthetic corpus
    # links each page to the next 2 pages → discovery must add more
    assert len(docs) > 6
    assert res.epochs_run >= 2
    # every page (seed or discovered) stays on a seed host and is unique
    from bbcrawl_ray.functions.urlfns import host_of

    hosts = {host_of(u) for u in docs["url"]}
    assert hosts <= {"forum0.example", "forum1.example"}
    assert docs["url"].is_unique
    assert docs["doc_id"].is_unique
    # discovered frontier rows carry depth >= 1 in the checkpoint
    import glob

    import pyarrow.parquet as pq

    depth_max = 0
    for f in glob.glob(f"{tmp_root}/checkpoints/**/*.parquet", recursive=True):
        cols = pq.read_schema(f).names
        if "depth" not in cols:
            continue
        t = pq.read_table(f, columns=["depth"])
        if t.num_rows:
            depth_max = max(depth_max, max(t["depth"].to_pylist()))
    assert depth_max >= 1


def test_hot_host_skew_drains_politely_without_starving_cold_hosts(ray_session, tmp_root):
    """The reference's serial-politeness semantics (api.go:104-113)
    lifted to a parallel frontier, adversarially: ONE host owns ~90 %
    of discovered links (a cutter-pager seed has a distinct path per
    page, so every page discovers link_next_pages NEW urls; query-pager
    cold hosts collapse to 2 distinct links per host) AND a per-host
    delay + budget + a skew_split_threshold small enough to salt the
    hot host's winners across the fetch pool. Asserts:

    - cold hosts are UNAFFECTED: all their seed pages parse in epoch 0
      (never deferred by the hot host's backlog),
    - the hot host drains budget-per-epoch across epochs,
    - per-host spacing HOLDS even with the hot host salted over
      multiple actors (each epoch's wall >= (budget-1) x delay),
    - every deferred frontier row belongs to the hot host, and
      deferred rows keep the PLAIN host key (salting marks winners only).
    """
    import glob

    import pyarrow.parquet as pq

    hot_pages, budget, delay = 40, 16, 0.02
    seeds = [
        {
            "seed_id": "hot",
            "pager": "cutter",
            # path distinct per page => discovered links scale with pages
            "blueprint_url": "http://hot.example/p/0000.html",
            "start": 1,
            "end": hot_pages,
            "cut_index": 22,
            "cut_len": 4,
            "digits": 4,
        },
    ] + [
        {
            "seed_id": f"cold{h}",
            "pager": "query",
            "blueprint_url": f"http://cold{h}.example/t",
            "start": 1,
            "end": 6,
        }
        for h in range(2)
    ]
    res = run(
        dict(
            crawler=CrawlerSpec(crawler="src", tags=["img"]),
            seeds=seeds,
            output_root=f"{tmp_root}/skew",
            follow_links=True,
            same_host_only=True,
            per_host_budget=budget,
            min_host_delay_s=delay,
            skew_split_threshold=8,  # 16 winners -> salted into 2 sub-shards
            max_epochs=3,
            fetch_mode="actors",
            fetch_concurrency=(2, 4),
            fetch_batch_size=4,
            metrics_level="full",
        )
    )
    assert res.epochs_run == 3
    # link skew is as constructed: epoch 0's hot pages discover 2 links
    # each vs 2 per cold HOST -> hot owns 32 of 36 offered urls (~89 %)
    per_seed_0 = res.metrics[0]["docs_per_seed"]
    assert per_seed_0["hot"] == budget
    assert per_seed_0["cold0"] == 6 and per_seed_0["cold1"] == 6
    # hot drains budget per epoch; cold hosts keep discovering unimpeded
    for m in res.metrics:
        assert m["docs_per_seed"]["hot"] == budget
        # politeness floor: budget hot fetches spaced >= delay apart
        assert m["wall_s"] >= (budget - 1) * delay, m
    assert res.metrics[1]["docs_per_seed"]["cold0"] == 2  # /t/next{1,2}
    assert res.metrics[2]["docs_per_seed"]["cold0"] == 4  # /t/nextA/nextB
    # deferred rows: hot-only, and NEVER salted (plain host key)
    deferred_hosts = set()
    deferred_shards = set()
    for f in glob.glob(
        f"{tmp_root}/skew/checkpoints/**/selected=false/*.parquet", recursive=True
    ):
        t = pq.read_table(f, columns=["host", "host_shard"])
        deferred_hosts.update(t["host"].to_pylist())
        deferred_shards.update(t["host_shard"].to_pylist())
    assert deferred_hosts == {"hot.example"}
    assert deferred_shards == {"hot.example"}
    # salting DID happen for winners in epoch 0 (threshold 8 < budget 16)
    salted = set()
    for f in glob.glob(
        f"{tmp_root}/skew/checkpoints/epoch=00000/**/selected=true/*.parquet",
        recursive=True,
    ):
        salted.update(pq.read_table(f, columns=["host_shard"])["host_shard"].to_pylist())
    assert any(s.startswith("hot.example#") for s in salted), salted


def test_politeness_enforced_across_actor_pool(ray_session, tmp_root):
    """min_host_delay_s holds GLOBALLY even when one host's rows scatter
    over several fetch actors: N pages of one host cannot finish faster
    than (N-1) x delay (HostClock slot reservation, state/politeness.py)."""
    import time

    from bbcrawl_ray.cli.partition import CrawlerSpec
    from bbcrawl_ray.pipelines.crawl import CrawlConfig, run_crawl

    n_pages, delay = 6, 0.12
    cfg = CrawlConfig(
        crawler=CrawlerSpec(crawler="src", tags=["img"]),
        seeds=[
            {
                "seed_id": "s1",
                "pager": "query",
                "blueprint_url": "http://one.example/t",
                "start": 1,
                "end": n_pages,
            }
        ],
        output_root=f"{tmp_root}/polite",
        min_host_delay_s=delay,
        fetch_mode="actors",
        fetch_concurrency=(2, 2),   # MULTIPLE actors share the one host
        fetch_batch_size=2,         # rows split across actors
        fetch_num_cpus=0.5,
        metrics_level="lite",
    )
    t0 = time.monotonic()
    res = run_crawl(cfg)
    docs = res.documents.count()
    wall = time.monotonic() - t0
    assert docs == n_pages
    # 6 fetches at >= 0.12s spacing need >= 5 * 0.12 = 0.6s of wall time;
    # without the global clock two actors would halve it
    assert wall >= (n_pages - 1) * delay, wall


def test_resume_keeps_discovered_links(ray_session, tmp_root):
    """A resume rebuilds the next frontier as deferred ∪ discovered, as
    the epoch loop does: with follow_links, a 1-epoch crawl plus a
    1-epoch resume crawls epoch 1 exactly like one 2-epoch crawl."""
    seeds = [
        {
            "seed_id": f"h{i}",
            "pager": "query",
            "blueprint_url": f"http://forum{i}.example/t",
            "start": 1,
            "end": 3,
        }
        for i in range(2)
    ]
    base = dict(
        crawler=CrawlerSpec(crawler="src", tags=["img"]),
        seeds=seeds,
        follow_links=True,
        per_host_budget=2,
    )
    run({**base, "output_root": f"{tmp_root}/full", "max_epochs": 2})
    run({**base, "output_root": f"{tmp_root}/part", "max_epochs": 1})
    resumed = run({**base, "output_root": f"{tmp_root}/part", "max_epochs": 1}, resume=True)
    assert [m["epoch"] for m in resumed.metrics] == [1]

    from bbcrawl_ray import schemas
    from bbcrawl_ray.pipelines.crawl import read_parquet_dirs

    def epoch1_urls(root):
        d = f"{root}/checkpoints/epoch=00001/parsed/record_kind=doc"
        return set(read_parquet_dirs([d], schemas.PARSED).to_pandas()["url"])

    full_urls = epoch1_urls(f"{tmp_root}/full")
    # epoch 1 holds deferred seed pages AND discovered pages
    assert any("/next" in u for u in full_urls), full_urls
    assert epoch1_urls(f"{tmp_root}/part") == full_urls


@pytest.mark.parametrize("mode", ["exact", "bloom"])
def test_back_to_back_crawls_reuse_empty_state_actors(ray_session, tmp_root, monkeypatch, mode):
    """Two identical crawls in one Ray session: the second leases the
    first one's seen shards (same actor ids), yet starts from an empty
    filter — every page is parsed again and seen_sizes is full."""
    from bbcrawl_ray.state import seen

    leased = []
    real_lease = seen._lease

    def spy(n, *args):
        actors = real_lease(n, *args)
        leased.append([a._actor_id.hex() for a in actors])
        return actors

    monkeypatch.setattr(seen, "_lease", spy)
    cfg = dict(crawler=CrawlerSpec(crawler="src", tags=["img"]), seeds=[SEED], seen_mode=mode)
    for i in range(2):
        res = run({**cfg, "output_root": f"{tmp_root}/run{i}"})
        assert res.documents.count() == 8
        m = res.metrics[0]
        assert m["pages_parsed"] == 8
        assert sum(m["seen_sizes"]) == 8
        assert {"state_lease_s", "frontier_write_s", "parsed_write_s"} <= set(m)
    assert len(leased) == 2 and leased[1] == leased[0]


def test_delayed_crawls_keep_clocks_on_leased_seen_shards(ray_session, tmp_root, monkeypatch):
    """Two back-to-back crawls with a host delay in one Ray session: both
    lease the same seen shards, each crawl's fetch clock routes to exactly
    those shards, and no crawl starts an actor class of this package
    beyond ``SeenShard`` (the second starts none: only its fetch pool and
    Ray Data's own actors)."""
    import ray.actor

    from bbcrawl_ray.pipelines import crawl
    from bbcrawl_ray.state import seen

    leased, clocks, started = [], [], []
    real_lease, real_fetch_cfg = seen._lease, crawl._fetch_cfg
    real_remote = ray.actor.ActorClass._remote

    def lease(n, *args):
        actors = real_lease(n, *args)
        leased.append([a._actor_id.hex() for a in actors])
        return actors

    def fetch_cfg(*args):
        fc = real_fetch_cfg(*args)
        clocks.append([a._actor_id.hex() for a in fc.clock.shards])
        return fc

    def remote(self, *args, **kwargs):
        meta = self.__ray_metadata__
        if meta.modified_class.__module__.startswith("bbcrawl_ray."):
            started[-1].append(meta.class_name)
        return real_remote(self, *args, **kwargs)

    monkeypatch.setattr(seen, "_lease", lease)
    monkeypatch.setattr(crawl, "_fetch_cfg", fetch_cfg)
    monkeypatch.setattr(ray.actor.ActorClass, "_remote", remote)
    cfg = dict(
        crawler=CrawlerSpec(crawler="src", tags=["img"]),
        seeds=[SEED],
        min_host_delay_s=0.001,
        fetch_mode="actors",
        fetch_concurrency=(1, 2),
        fetch_num_cpus=0.5,
        metrics_level="lite",
    )
    for i in range(2):
        started.append([])
        res = run({**cfg, "output_root": f"{tmp_root}/run{i}"})
        assert res.documents.count() == 8
    assert len(leased) == 2 and leased[1] == leased[0]
    assert clocks == leased
    assert set(started[0]) <= {"SeenShard"} and started[1] == []


@pytest.mark.parametrize(
    "rows,slots", [(0, 4), (3, 4), (6400, 1), (6400, 4), (10**6, 4)]
)
def test_fetch_layout_whole_waves(rows, slots):
    """The fetch stage runs in whole waves of at most 4 batches a task,
    and its batch never exceeds a block, so Ray's bundler never merges
    two blocks into one task."""
    from bbcrawl_ray.pipelines.crawl import fetch_layout

    batch = 512
    tasks, batch_rows = fetch_layout(rows, slots, batch)
    assert 1 <= batch_rows <= batch
    if rows == 0:
        assert tasks == 0
        return
    assert tasks % min(slots, rows) == 0
    assert rows // tasks >= 1  # repartition's smallest block
    assert batch_rows <= rows // tasks
    assert -(-rows // tasks) <= 4 * batch_rows
    if rows == 6400:
        assert (tasks, batch_rows) == (4, 512)


@pytest.mark.parametrize("mode", ["tasks", "actors"])
def test_metrics_record_fetch_layout(ray_session, tmp_root, mode):
    """metrics.json records each epoch's fetch task count and batch rows;
    the tasks fill whole waves of the fetch slots."""
    from bbcrawl_ray.state.checkpoint import CheckpointManager

    res = run(
        dict(
            crawler=CrawlerSpec(crawler="src", tags=["img"]),
            seeds=[SEED],
            output_root=tmp_root,
            fetch_mode=mode,
            fetch_concurrency=(2, 2),
            fetch_num_cpus=0.5,
        )
    )
    m = CheckpointManager(res.checkpoint_root).read_json(0, "metrics.json")
    slots = 4 if mode == "tasks" else 2  # the session's CPUs; the pool's actors
    assert m["fetch_tasks"] > 0 and m["fetch_tasks"] % slots == 0
    assert 1 <= m["fetch_batch_rows"] <= 64
    assert m == res.metrics[0]


def test_crawl_leaves_the_global_data_context(ray_session, tmp_root):
    """The crawl sizes its blocks on its own datasets' contexts; the
    session's DataContext keeps every field, target_max_block_size too."""
    from ray.data import DataContext

    def fields():
        return {
            k: v
            for k, v in vars(DataContext.get_current()).items()
            if v is None or isinstance(v, (bool, int, float, str))
        }

    before = fields()
    run(dict(crawler=CrawlerSpec(crawler="src", tags=["img"]), seeds=[SEED], output_root=tmp_root))
    assert "target_max_block_size" in before
    assert fields() == before
