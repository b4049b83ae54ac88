"""State-layer tests: seen shards, politeness/skew, cookie file, robots."""

import numpy as np
import pyarrow as pa
import pytest

from bbcrawl_ray.functions.cookiefile import CookieFileError, parse_cookie_lines
from bbcrawl_ray.stages.fetch import RobotsRules
from bbcrawl_ray.state.seen import _BloomSeen, _CuckooSeen


def test_bloom_fp_rate_reasonable():
    b = _BloomSeen(capacity=10_000, bits_per_key=10, num_hashes=7)
    rng = np.random.default_rng(3)
    first = rng.integers(0, 2**63, size=10_000, dtype=np.int64).astype(np.uint64)
    b.check_and_add(first)
    probe = rng.integers(0, 2**63, size=10_000, dtype=np.int64).astype(np.uint64)
    fresh = np.setdiff1d(probe, first)
    is_new = b.check_and_add(fresh)
    fp_rate = 1.0 - is_new.mean()
    assert fp_rate < 0.03  # theoretical ~1% at 10 bits/key


def test_cuckoo_insert_and_lookup():
    c = _CuckooSeen(capacity=5_000)
    rng = np.random.default_rng(9)
    keys = np.unique(rng.integers(0, 2**63, size=4_000, dtype=np.int64).astype(np.uint64))
    new = c.check_and_add(keys)
    assert new.sum() >= len(keys) * 0.99  # fp collisions possible, rare
    again = c.check_and_add(keys)
    assert not again.any()


def test_seen_shard_pool_routing(ray_session):
    from bbcrawl_ray.state.seen import SeenSet

    seen = SeenSet(num_shards=3, mode="exact")
    urls = [f"http://h/{i}" for i in range(100)]
    hashes = np.arange(100, dtype=np.uint64)
    first = seen.check_and_add_batch(hashes, urls)
    assert first.all()
    second = seen.check_and_add_batch(hashes, urls)
    assert not second.any()
    assert sum(seen.sizes()) == 100


def test_budget_frontier_skew_split(ray_session):
    import ray.data as rd

    from bbcrawl_ray.sources.pagers import expand_seeds_batch
    from bbcrawl_ray.state.politeness import budget_frontier

    seeds = pa.Table.from_pylist(
        [
            {
                "seed_id": "hot",
                "pager": "query",
                "blueprint_url": "http://hot.example/t",
                "start": 1,
                "end": 90,
                "name": "page",
                "cut_index": 0,
                "cut_len": 0,
                "step": 1,
                "digits": 0,
                "adjust": 0,
                "startpage": "",
            },
            {
                "seed_id": "cold",
                "pager": "query",
                "blueprint_url": "http://cold.example/t",
                "start": 1,
                "end": 5,
                "name": "page",
                "cut_index": 0,
                "cut_len": 0,
                "step": 1,
                "digits": 0,
                "adjust": 0,
                "startpage": "",
            },
        ]
    )
    frontier = rd.from_arrow(expand_seeds_batch(seeds))
    out = budget_frontier(frontier, per_host_budget=60, skew_split_threshold=20).to_pandas()
    hot = out[out.host == "hot.example"]
    cold = out[out.host == "cold.example"]
    # budget: 60 of 90 selected, best-priority (lowest pages) first
    assert hot.selected.sum() == 60
    assert set(hot[hot.selected].page_num) == set(range(1, 61))
    assert cold.selected.all()
    # skew split: the hot host's WINNERS fan into ceil(60/20)=3 sub-shards;
    # deferred rows keep the plain host key (they never fetch this epoch)
    assert hot[hot.selected].host_shard.nunique() == 3
    assert (hot[~hot.selected].host_shard == "hot.example").all()
    assert cold.host_shard.nunique() == 1


def test_cookie_file_parse():
    lines = [
        "# Netscape HTTP Cookie File",
        "",
        ".forum.example\tTRUE\t/\tFALSE\t0\tsession\tabc123",
        "#HttpOnly_www.other.example\tFALSE\t/\tTRUE\t0\ttok\txyz",
    ]
    jar = parse_cookie_lines(lines)
    assert jar == {
        "forum.example": {"session": "abc123"},
        "www.other.example": {"tok": "xyz"},
    }
    with pytest.raises(CookieFileError):
        parse_cookie_lines(["bad\tline"])


def test_robots_crawl_delay(ray_session):
    """A host whose robots.txt declares Crawl-delay gets that spacing even
    when the configured floor is lower."""
    import time

    import pyarrow as pa

    from bbcrawl_ray.sources.corpus import Response
    from bbcrawl_ray.stages.fetch import FetchConfig, Fetcher

    import ray

    pages = {
        "http://slow.example/robots.txt": Response(
            200, {"Content-Type": ["text/plain"]}, b"User-agent: *\nCrawl-delay: 0.1\n"
        ),
        "http://slow.example/a": Response(200, {"Content-Type": ["text/html"]}, b"<p>a</p>"),
        "http://slow.example/b": Response(200, {"Content-Type": ["text/html"]}, b"<p>b</p>"),
    }
    cfg = FetchConfig(transport="mapping", pages_ref=ray.put(pages), obey_robots=True)
    f = Fetcher(cfg)
    batch = pa.table(
        {
            "url": ["http://slow.example/a", "http://slow.example/b"],
            "host": ["slow.example", "slow.example"],
            "seed_id": ["s", "s"],
            "page_num": [1, 2],
        }
    )
    t0 = time.monotonic()
    out = f(batch)
    assert list(out["error"].to_pylist()) == ["", ""]
    assert time.monotonic() - t0 >= 0.1  # robots delay enforced between fetches


def test_robots_rules():
    r = RobotsRules("User-agent: *\nDisallow: /private/\nDisallow: /tmp\n")
    assert not r.allowed("/private/x")
    assert not r.allowed("/tmpfile")
    assert r.allowed("/public")
    other = RobotsRules("User-agent: googlebot\nDisallow: /\n")
    assert other.allowed("/anything")  # rules scoped to other agents ignored
    d = RobotsRules("User-agent: *\nCrawl-delay: 2.5\n")
    assert d.crawl_delay == 2.5


def test_fetcher_robots_and_politeness(ray_session):
    """obey_robots blocks /private/ pages; cookies reach the transport."""
    import time

    from bbcrawl_ray.stages.fetch import FetchConfig, Fetcher

    cfg = FetchConfig(transport="synthetic", obey_robots=True, min_host_delay_s=0.05)
    f = Fetcher(cfg)
    batch = pa.table(
        {
            "url": ["http://h.example/private/x", "http://h.example/t", "http://h.example/t2"],
            "host": ["h.example", "h.example", "h.example"],
            "seed_id": ["s", "s", "s"],
            "page_num": [1, 2, 3],
        }
    )
    t0 = time.monotonic()
    out = f(batch)
    elapsed = time.monotonic() - t0
    errs = out["error"].to_pylist()
    assert errs[0] == "blocked by robots.txt"
    assert errs[1] == "" and errs[2] == ""
    # min-delay enforced between the two same-host page fetches
    assert elapsed >= 0.05


def test_host_clock_global_spacing(ray_session):
    """Slots reserved from many concurrent workers for ONE host are spaced
    >= delay apart — the politeness guarantee across the whole fetch pool."""
    import time

    import ray

    from bbcrawl_ray.state.politeness import HostClock
    from bbcrawl_ray.state.seen import SeenSet

    seen = SeenSet(num_shards=2)
    clock = HostClock(seen.shards)

    @ray.remote(num_cpus=0)
    def reserve_one():
        return clock.reserve("same.example", 0.1)

    slots = sorted(ray.get([reserve_one.remote() for _ in range(8)]))
    diffs = [b - a for a, b in zip(slots, slots[1:])]
    assert all(d >= 0.1 - 1e-6 for d in diffs), diffs
    # distinct hosts do not contend: a first reservation is immediate
    # (slot time is never in the future, regardless of RPC latency)
    assert clock.reserve("a.example", 5.0) <= time.time()
    assert clock.reserve("b.example", 5.0) <= time.time()
    seen.return_shards()


def test_fetch_batches_clock_reservations(ray_session):
    """RPCs to the host clock per batch == distinct hosts, not rows:
    the first hit of a host reserves every remaining slot for that host
    in one reserve(host, delay, n) call (round-3 item #5)."""
    import time as _time

    from bbcrawl_ray.stages.fetch import FetchConfig, Fetcher

    class CountingClock:
        def __init__(self):
            self.calls = []

        def reserve(self, host, delay, n=1):
            self.calls.append((host, delay, n))
            return _time.time()

    clock = CountingClock()
    f = Fetcher(FetchConfig(min_host_delay_s=0.001, clock=clock))
    n_a, n_b = 5, 3
    urls = [f"http://a.example/t?page={i}" for i in range(n_a)] + [
        f"http://b.example/t?page={i}" for i in range(n_b)
    ]
    hosts = ["a.example"] * n_a + ["b.example"] * n_b
    batch = pa.table(
        {
            "url": pa.array(urls),
            "host": pa.array(hosts),
            "seed_id": pa.array(["s"] * (n_a + n_b)),
            "page_num": pa.array(range(n_a + n_b), pa.int64()),
        }
    )
    out = f(batch)
    assert out.num_rows == n_a + n_b
    assert len(clock.calls) == 2
    assert {(h, n) for h, _, n in clock.calls} == {
        ("a.example", n_a),
        ("b.example", n_b),
    }
    # second batch starts fresh (no stale slots reused)
    f(batch)
    assert len(clock.calls) == 4


def test_budget_frontier_multiblock_exact(ray_session):
    """Budgeted selection is exact across many blocks: the per-block
    top-(budget) prune (skew safety) must not change which rows win."""
    import ray.data as rd

    from bbcrawl_ray import schemas
    from bbcrawl_ray.state.politeness import budget_frontier

    n = 200
    rows = pa.table(
        {
            "url": pa.array([f"http://hot.example/p{i:04d}" for i in range(n)]),
            "canon_url": pa.array([f"http://hot.example/p{i:04d}" for i in range(n)]),
            "host": pa.array(["hot.example"] * n),
            "page_num": pa.array(list(range(n)), pa.int64()),
            "priority": pa.array([i % 7 for i in range(n)], pa.int64()),
            "depth": pa.array([0] * n, pa.int32()),
            "seed_id": pa.array(["s"] * n),
            "url_hash": pa.array([i for i in range(n)], pa.uint64()),
            "discovered_from": pa.array([""] * n),
            "epoch": pa.array([0] * n, pa.int32()),
        },
        schema=schemas.FRONTIER,
    )
    frontier = rd.from_arrow(rows).repartition(10)
    out = budget_frontier(frontier, per_host_budget=15, skew_split_threshold=5).to_pandas()
    assert len(out) == n  # nothing lost: every non-winner deferred
    expected = (
        out.sort_values(["priority", "page_num", "url"], ascending=[False, True, True])
        .head(15)["page_num"]
        .tolist()
    )
    assert sorted(out[out.selected]["page_num"].tolist()) == sorted(expected)
    # skew split applies to the winners: ceil(15/5)=3 sub-shards
    assert out[out.selected]["host_shard"].nunique() == 3


def test_budget_frontier_repeated_offers_take_no_slots(ray_session):
    """A URL offered twice (two link batches, different offering pages)
    takes one budget slot: a host at its budget selects ``budget``
    distinct URLs, the kept row is the least (seed_id, discovered_from)
    offer, and 1 block or 4 blocks of the same rows select the same."""
    import ray.data as rd

    from bbcrawl_ray import schemas
    from bbcrawl_ray.state.politeness import budget_frontier

    budget, n = 5, 8
    # URL p0000 (the best-ranked) is offered three times
    idx = [0, 0, 0] + list(range(1, n))
    froms = ["http://hot.example/b", "http://hot.example/a", "http://hot.example/c"]
    froms += ["http://hot.example/a"] * (n - 1)
    rows = pa.table(
        {
            "url": pa.array([f"http://hot.example/p{i:04d}" for i in idx]),
            "canon_url": pa.array([f"http://hot.example/p{i:04d}" for i in idx]),
            "host": pa.array(["hot.example"] * len(idx)),
            "page_num": pa.array(idx, pa.int64()),
            "priority": pa.array([0] * len(idx), pa.int64()),
            "depth": pa.array([1] * len(idx), pa.int32()),
            "seed_id": pa.array(["s2", "s1", "s1"] + ["s1"] * (n - 1)),
            "url_hash": pa.array(idx, pa.uint64()),
            "discovered_from": pa.array(froms),
            "epoch": pa.array([1] * len(idx), pa.int32()),
        },
        schema=schemas.FRONTIER,
    )
    chosen = []
    for blocks in (1, 4):
        out = budget_frontier(
            rd.from_arrow(rows).repartition(blocks), per_host_budget=budget
        ).to_pandas()
        sel = out[out.selected].sort_values("page_num")
        assert len(sel) == budget and sel["url_hash"].is_unique
        assert sel["page_num"].tolist() == list(range(budget))
        first = sel.iloc[0]
        assert (first["seed_id"], first["discovered_from"]) == ("s1", "http://hot.example/a")
        chosen.append(sel[["url", "seed_id", "discovered_from"]].to_records(index=False).tolist())
    assert chosen[0] == chosen[1]


def test_relative_redirect_resolution(ray_session):
    """A relative Location resolves against the current URL and the hop's
    politeness/cookies key on the resolved host (not the frontier row's)."""
    import ray

    from bbcrawl_ray.sources.corpus import Response
    from bbcrawl_ray.stages.fetch import FetchConfig, Fetcher

    pages = {
        "http://a.example/start": Response(302, {}, b"", redirect_to="/moved"),
        "http://a.example/moved": Response(
            200, {"Content-Type": ["text/html"]}, b"<p>ok</p>"
        ),
    }
    f = Fetcher(FetchConfig(transport="mapping", pages_ref=ray.put(pages)))
    batch = pa.table(
        {
            "url": ["http://a.example/start"],
            "host": ["a.example"],
            "seed_id": ["s"],
            "page_num": [1],
        }
    )
    out = f(batch)
    assert out["error"].to_pylist() == [""]
    assert out["redirect_chain"].to_pylist() == [["http://a.example/moved"]]
    assert out["status"].to_pylist() == [200]


def test_headers_multivalue_preserved(ray_session):
    """Repeated headers (multiple Set-Cookie) all land in the PAGES headers
    map; plain-string values are kept whole."""
    import ray

    from bbcrawl_ray.sources.corpus import Response
    from bbcrawl_ray.stages.fetch import FetchConfig, Fetcher

    pages = {
        "http://h.example/p": Response(
            200,
            {
                "Content-Type": ["text/html"],
                "Set-Cookie": ["a=1", "b=2"],
                "X-Plain": "whole-string",
            },
            b"<p>x</p>",
        )
    }
    f = Fetcher(FetchConfig(transport="mapping", pages_ref=ray.put(pages)))
    batch = pa.table(
        {
            "url": ["http://h.example/p"],
            "host": ["h.example"],
            "seed_id": ["s"],
            "page_num": [1],
        }
    )
    hdrs = f(batch)["headers"].to_pylist()[0]
    pairs = set(hdrs.items()) if isinstance(hdrs, dict) else set(hdrs)
    assert ("Set-Cookie", "a=1") in pairs and ("Set-Cookie", "b=2") in pairs
    assert ("X-Plain", "whole-string") in pairs


def test_cookie_domain_scoping(ray_session):
    """A jar entry for forum.example applies to www.forum.example
    (publicsuffix jar semantics, crawlers.go:96-111) but a cookie can
    never scope to a public suffix."""
    import ray

    from bbcrawl_ray.functions.publicsuffix import cookie_domains
    from bbcrawl_ray.sources.corpus import Response
    from bbcrawl_ray.stages.fetch import FetchConfig, Fetcher

    assert cookie_domains("www.forum.example.com") == [
        "www.forum.example.com", "forum.example.com", "example.com",
    ]
    assert cookie_domains("shop.co.uk") == ["shop.co.uk"]

    seen_headers = {}

    class Spy:
        def get(self, url, headers=None):
            seen_headers[url] = dict(headers or {})
            return Response(200, {"Content-Type": ["text/html"]}, b"<p>x</p>")

    f = Fetcher(FetchConfig(transport="synthetic",
                            cookies={"forum.example": {"session": "abc"},
                                     "www.forum.example": {"extra": "1"}}))
    f.transport = Spy()
    batch = pa.table(
        {
            "url": ["http://www.forum.example/t", "http://other.example/t"],
            "host": ["www.forum.example", "other.example"],
            "seed_id": ["s", "s"],
            "page_num": [1, 2],
        }
    )
    f(batch)
    ck = seen_headers["http://www.forum.example/t"].get("Cookie", "")
    assert "session=abc" in ck and "extra=1" in ck
    assert "Cookie" not in seen_headers["http://other.example/t"]


def test_charset_whatwg_labels(ray_session):
    """WHATWG labels (x-sjis, windows-874, latin1) decode; bogus labels
    error instead of silently mangling (BodyUTF8 parity)."""
    from bbcrawl_ray.functions.charsets import decode_body

    s = "héllo"
    txt, err = decode_body(s.encode("latin-1"), "latin1")
    assert err == "" and txt == s  # latin1 → windows-1252 superset
    txt, err = decode_body("こんにちは".encode("shift_jis"), "x-sjis")
    assert err == "" and txt == "こんにちは"
    txt, err = decode_body("ภาษาไทย".encode("cp874"), "windows-874")
    assert err == "" and txt == "ภาษาไทย"
    txt, err = decode_body(b"abc", "not-a-charset")
    assert "unsupported charset" in err
    # replacement encodings decode to error
    _, err = decode_body(b"abc", "hz-gb-2312")
    assert err


def test_budget_frontier_bounded_groups(ray_session):
    """Skew safety: a host with 10x skew_split_threshold rows never
    materializes as one giant group — the per-block prune bounds the
    grouped stage's input to budget x num_blocks."""
    import ray
    import ray.data as rd

    from bbcrawl_ray import schemas
    from bbcrawl_ray.state.politeness import budget_frontier

    @ray.remote(num_cpus=0)
    class Probe:
        def __init__(self):
            self.max_n = 0

        def record(self, n):
            self.max_n = max(self.max_n, n)

        def max_seen(self):
            return self.max_n

    threshold = 50
    n = 10 * threshold  # one hot host, 500 rows
    n_blocks = 10
    budget = 30
    rows = pa.table(
        {
            "url": pa.array([f"http://hot.example/p{i:05d}" for i in range(n)]),
            "canon_url": pa.array([f"http://hot.example/p{i:05d}" for i in range(n)]),
            "host": pa.array(["hot.example"] * n),
            "page_num": pa.array(list(range(n)), pa.int64()),
            "priority": pa.array([0] * n, pa.int64()),
            "depth": pa.array([0] * n, pa.int32()),
            "seed_id": pa.array(["s"] * n),
            "url_hash": pa.array(list(range(n)), pa.uint64()),
            "discovered_from": pa.array([""] * n),
            "epoch": pa.array([0] * n, pa.int32()),
        },
        schema=schemas.FRONTIER,
    )
    probe = Probe.remote()
    frontier = rd.from_arrow(rows).repartition(n_blocks)
    out = budget_frontier(
        frontier, per_host_budget=budget, skew_split_threshold=threshold,
        group_size_probe=probe,
    ).to_pandas()
    assert len(out) == n
    assert out.selected.sum() == budget
    # winners are the global best (priority ties -> page_num asc)
    assert sorted(out[out.selected].page_num) == list(range(budget))
    max_group = ray.get(probe.max_seen.remote())
    assert max_group <= budget * n_blocks  # bounded, not the whole host
    assert max_group < n  # strictly smaller than the hot host's rows


def test_fetch_resyncs_stale_prereserved_slots(ray_session):
    """A worker that drifts behind its prereserved slot schedule (slow
    fetches) must NOT fire the stale past slots back-to-back — it
    abandons them and re-batches the host's remaining rows from the
    live clock, so the global min-delay spacing survives drift."""
    import time as _time

    import pyarrow as pa

    from bbcrawl_ray.stages.fetch import FetchConfig, Fetcher

    class DriftClock:
        """First reserve hands out a schedule 10 s in the past (as if
        the worker fell far behind it); later reserves answer live."""

        def __init__(self):
            self.calls = []
            self.releases = []

        def reserve(self, host, delay, n=1):
            self.calls.append((host, delay, n))
            if len(self.calls) == 1:
                return _time.time() - 10.0
            return _time.time()

        def release(self, host, expected_end, unused_s):
            self.releases.append((host, round(unused_s, 6)))
            return True

    clock = DriftClock()
    f = Fetcher(FetchConfig(min_host_delay_s=0.001, clock=clock))
    n_rows = 4
    batch = pa.table(
        {
            "url": pa.array([f"http://a.example/t?page={i}" for i in range(n_rows)]),
            "host": pa.array(["a.example"] * n_rows),
            "seed_id": pa.array(["s"] * n_rows),
            "page_num": pa.array(range(n_rows), pa.int64()),
        }
    )
    out = f(batch)
    assert out.num_rows == n_rows
    # call 1: the full-batch reservation (stale). Row 2 pops a stale slot
    # and re-batches the remaining 3 rows in ONE live call — not one RPC
    # per row, and never a silent fire on the stale schedule.
    assert [(h, n) for h, _, n in clock.calls] == [("a.example", 4), ("a.example", 3)]
    # the abandoned slots (stale popped + 2 remaining) were RELEASED back
    # to the clock so the re-batch does not queue behind the burned window
    assert clock.releases == [("a.example", round(3 * 0.001, 6))]


def test_host_clock_release_rolls_back_unused_window(ray_session):
    """A seen shard's clock release is compare-and-swap: it rolls the
    clock back by the unused seconds only while next_free still equals
    the caller's window end, so a drifting worker resynchronizes without
    queueing behind its own phantom backlog — and never clobbers a
    reservation someone else made after it."""
    from bbcrawl_ray.state.politeness import HostClock
    from bbcrawl_ray.state.seen import SeenSet

    seen = SeenSet(num_shards=1)
    clock = HostClock(seen.shards)
    delay = 1.0
    first = clock.reserve("h.example", delay, 5)
    window_end = first + 5 * delay
    # roll back 3 unused slots: succeeds, and the next reservation lands
    # ~2 slots after `first`, not 5
    assert clock.release("h.example", window_end, 3 * delay) is True
    nxt = clock.reserve("h.example", delay, 1)
    assert abs(nxt - (first + 2 * delay)) < 0.2
    # a second release against the OLD window end must fail (CAS):
    assert clock.release("h.example", window_end, 1.0) is False
    seen.return_shards()


def test_released_seen_shard_clock_is_empty(ray_session):
    """A re-leased shard starts with no host clocks: its first
    reservation is due now, not on the previous lease's schedule."""
    import time

    from bbcrawl_ray.state.politeness import HostClock
    from bbcrawl_ray.state.seen import SeenSet

    seen = SeenSet(num_shards=1)
    first_id = seen.shards[0]._actor_id
    clock = HostClock(seen.shards)
    clock.reserve("h.example", 100.0, 5)  # booked 500 s ahead
    assert clock.reserve("h.example", 100.0) > time.time() + 400
    seen.return_shards()
    again = SeenSet(num_shards=1)
    assert again.shards[0]._actor_id == first_id
    assert HostClock(again.shards).reserve("h.example", 100.0) <= time.time()
    again.return_shards()


def test_returned_seen_shards_are_reset(ray_session):
    """Handing a set back empties its shards at once: an idle shard
    holds no keys until the next crawl leases it."""
    import ray

    from bbcrawl_ray.state.seen import SeenSet

    seen = SeenSet(num_shards=2, mode="exact")
    seen.check_and_add_batch(np.arange(10, dtype=np.uint64), [f"http://h/{i}" for i in range(10)])
    assert sum(seen.sizes()) == 10
    shards = seen.shards
    seen.return_shards()
    assert ray.get([a.size.remote() for a in shards]) == [0, 0]


def test_seen_lease_falls_back_to_fresh_shards(ray_session, monkeypatch):
    """A dead pooled shard, or a free list from another Ray session, is
    never handed out: the lease starts fresh, empty shards instead."""
    import time

    import ray

    from bbcrawl_ray.state import seen as seen_mod
    from bbcrawl_ray.state.seen import SeenSet

    urls = [f"http://h/{i}" for i in range(20)]
    hashes = np.arange(20, dtype=np.uint64)

    def leased_ids():
        seen = SeenSet(num_shards=2, mode="exact")
        assert seen.check_and_add_batch(hashes, urls).all()
        assert sum(seen.sizes()) == 20
        ids = {a._actor_id for a in seen.shards}
        return seen, ids

    seen, first = leased_ids()
    dead = seen.shards[0]
    seen.return_shards()
    ray.kill(dead)
    # ray.kill is asynchronous: lease only once the shard is really dead
    deadline = time.time() + 60
    while True:
        try:
            ray.get(dead.size.remote(), timeout=30)
        except ray.exceptions.RayActorError:
            break
        assert time.time() < deadline, "the killed shard never died"
        time.sleep(0.05)
    seen, second = leased_ids()
    assert not first & second
    seen.return_shards()

    # a free list left by an earlier session is dropped, not reused
    monkeypatch.setattr(seen_mod, "_session", ("a-dead-node", "a-dead-job"))
    seen, third = leased_ids()
    assert not second & third
    seen.return_shards()


def test_lease_free_list_thread_safe(ray_session):
    """Threads leasing and handing back seen sets at once never hold the
    same shard actor together (a lost update on the free list would)."""
    import sys
    import threading

    from bbcrawl_ray.state.seen import SeenSet

    in_use, lock, clashes, done = set(), threading.Lock(), [], []

    def worker():
        for i in range(15):
            seen = SeenSet(num_shards=1, mode="exact")
            aid = seen.shards[0]._actor_id
            with lock:
                if aid in in_use:
                    clashes.append(aid)
                in_use.add(aid)
            seen.check_and_add_batch(np.array([i], dtype=np.uint64), [f"http://h/{i}"])
            with lock:
                in_use.discard(aid)
            seen.return_shards()
        done.append(1)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(done) == 8 and not clashes
