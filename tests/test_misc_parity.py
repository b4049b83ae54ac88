"""Coverage for the remaining §2 surface: exclusion, strict errors,
debug dumps, custom-pager registry, charset decode, tag+attrs query."""

import glob
import os
import shutil
import tempfile

import pytest

from bbcrawl_ray.cli.partition import CrawlerSpec
from bbcrawl_ray.functions.htmldom import elements_by_tag_and_attrs, parse_html
from bbcrawl_ray.sources.corpus import Response
from bbcrawl_ray.sources.pagers import expand_seed, register_pager


@pytest.fixture()
def tmp_root():
    d = tempfile.mkdtemp(prefix="bbray_misc_")
    yield d
    shutil.rmtree(d, ignore_errors=True)


def test_elements_by_tag_and_attrs():
    root = parse_html('<div a="1" b="2">x</div><div a="1">y</div><span a="1" b="2"></span>')
    hits = elements_by_tag_and_attrs(root, "div", [("a", "1"), ("b", "2")])
    assert len(hits) == 1
    assert elements_by_tag_and_attrs(root, "div", []) and len(
        elements_by_tag_and_attrs(root, "div", [])
    ) == 2  # empty attr set matches every div


def test_custom_pager_registry():
    def evens(row):
        for p in range(row["start"], row["end"] + 1):
            yield p, f"{row['blueprint_url']}/e{2 * p}"

    register_pager("evens", evens)
    rows = expand_seed(
        {"seed_id": "x", "pager": "evens", "blueprint_url": "http://h.example/t", "start": 1, "end": 3}
    )
    assert rows == [
        (1, "http://h.example/t/e2"),
        (2, "http://h.example/t/e4"),
        (3, "http://h.example/t/e6"),
    ]


def _one_page_crawl(tmp_root, pages, crawler, **cfg_kw):
    from bbcrawl_ray.pipelines.crawl import CrawlConfig, run_crawl

    cfg = CrawlConfig(
        crawler=crawler,
        seeds=[{"seed_id": "m", "pager": "vb4", "blueprint_url": "http://m.example/t", "start": 1, "end": 1}],
        output_root=tmp_root,
        transport="mapping",
        pages=pages,
        **cfg_kw,
    )
    return run_crawl(cfg)


HTML_ONE_IMG = b'<html><body><img src="/i/a.jpg"><img src="http://m.example/i/b.jpg"></body></html>'
PAGE_OK = {
    "http://m.example/t": Response(
        200, {"Content-Type": ["text/html; charset=utf-8"]}, HTML_ONE_IMG
    )
}


def test_exclude_list_marks_rows(ray_session, tmp_root):
    """-exclude is ENFORCED here (the reference parses but never applies
    it — crawler_src.go:215-222 has no callers; documented divergence)."""
    res = _one_page_crawl(
        tmp_root,
        PAGE_OK,
        CrawlerSpec(crawler="src", tags=["img"], exclude=["http://m.example/i/a.jpg"]),
    )
    man = res.manifest.to_pandas()
    by_ref = dict(zip(man["media_ref"], man["status"]))
    assert by_ref["http://m.example/i/a.jpg"] == "excluded"
    assert by_ref["http://m.example/i/b.jpg"] == "pending"


def test_strict_errors_aborts(ray_session, tmp_root):
    """Reference parity: a page FETCH error aborts the run (api.go:104-113).
    Note: a non-2xx response with a Content-Type is NOT a fetch error —
    Go's client.Do succeeds on 404/500 and the body is parsed; the
    BodyUTF8 missing-Content-Type error is what kills the reference."""
    pages = {"http://m.example/t": Response(200, {}, b"<html></html>")}
    with pytest.raises(Exception, match="page fetch failed|No Content-Type|RayTaskError"):
        res = _one_page_crawl(
            tmp_root, pages, CrawlerSpec(crawler="src", tags=["img"]), strict_errors=True
        )
        res.documents.to_pandas()


def test_non_2xx_body_is_parsed(ray_session, tmp_root):
    """A 404 WITH Content-Type parses like any page (Go client.Do parity)."""
    pages = {
        "http://m.example/t": Response(
            404,
            {"Content-Type": ["text/html; charset=utf-8"]},
            b'<html><body>gone <img src="/x/a.jpg"></body></html>',
        )
    }
    res = _one_page_crawl(tmp_root, pages, CrawlerSpec(crawler="src", tags=["img"]))
    docs = res.documents.to_pandas()
    assert len(docs) == 1
    kinds = [s["kind"] for s in docs.iloc[0]["spans"]]
    assert "img" in kinds


def test_debug_header_dumps(ray_session, tmp_root):
    res = _one_page_crawl(
        tmp_root, PAGE_OK, CrawlerSpec(crawler="src", tags=["img"], debug=True)
    )
    res.documents.to_pandas()
    dumps = sorted(glob.glob(f"{tmp_root}/debug/*.txt"))
    assert any("Request Header" in d for d in dumps)
    assert any("Response Header" in d for d in dumps)
    resp_dump = [d for d in dumps if "Response Header" in d][0]
    assert "Content-Type:\ttext/html; charset=utf-8" in open(resp_dump).read()


def test_non_utf8_charset_decode(ray_session, tmp_root):
    """BodyUTF8 parity: charset from Content-Type drives the decode."""
    body = '<html><body><p>café motor</p><img src="/x.jpg"></body></html>'.encode(
        "iso-8859-1"
    )
    pages = {
        "http://m.example/t": Response(
            200, {"Content-Type": ["text/html; charset=ISO-8859-1"]}, body
        )
    }
    res = _one_page_crawl(tmp_root, pages, CrawlerSpec(crawler="src", tags=["img"]))
    docs = res.documents.to_pandas()
    texts = [s["text"] for s in docs.iloc[0]["spans"] if s["kind"] == "text"]
    assert "café motor" in texts


def test_custom_extractor_registry_e2e(ray_session, tmp_root):
    """A driver-registered extractor must reach worker processes (shipped
    by value through the stage constructors) and dedup metrics must count
    re-offered URLs."""
    from bbcrawl_ray.pipelines.crawl import CrawlConfig, run_crawl
    from bbcrawl_ray.stages.parse import ManifestRow, register_extractor

    def first_img_only(url, page_num, root, spec):
        from bbcrawl_ray.functions.htmldom import attr_val, elements_by_tag
        from bbcrawl_ray.functions.urlfns import resolve_link

        for n in elements_by_tag(root, "img"):
            src = attr_val(n, "src")
            if src:
                return [
                    ManifestRow(resolve_link(url, src), out_name=f"first-{page_num}.img")
                ]
        return []

    register_extractor("first-img-test", first_img_only)
    seeds = [
        {"seed_id": "a", "pager": "vb4", "blueprint_url": "http://forum.example/t", "start": 1, "end": 3},
        {"seed_id": "b", "pager": "vb4", "blueprint_url": "http://forum.example/t", "start": 1, "end": 3},
    ]
    res = run_crawl(
        CrawlConfig(
            crawler=CrawlerSpec(crawler="first-img-test"), seeds=seeds, output_root=tmp_root
        )
    )
    man = res.manifest.to_pandas()
    assert sorted(man["out_name"]) == ["first-1.img", "first-2.img", "first-3.img"]
    m = res.metrics[0]
    assert m["frontier_selected"] == 6 and m["dedup_hits"] == 3 and m["pages_parsed"] == 3


def test_loglevel_parse_and_filtering():
    import logging

    import pytest

    from bbcrawl_ray.functions.loglevels import LEVELS, configure, parse_loglevel

    assert parse_loglevel("ERROR") == "error"
    with pytest.raises(ValueError):
        parse_loglevel("chatty")
    # syslog severity ordering
    assert LEVELS["panic"] > LEVELS["error"] > LEVELS["notice"] > LEVELS["debug"]

    log = configure("error")
    child = logging.getLogger("bbcrawl_ray.pipelines.crawl")
    assert not child.isEnabledFor(logging.WARNING)  # warning < error: filtered
    assert child.isEnabledFor(logging.ERROR)
    configure("debug")
    assert child.isEnabledFor(logging.DEBUG)
    configure("error")  # restore default for other tests
    assert log is logging.getLogger("bbcrawl_ray")


def test_download_error_bodies_knob(ray_session, tmp_path):
    """Default: non-200 download is an error row, no file. error_bodies=True
    restores reference behavior (downloader.go:277-317): body written."""
    import pyarrow as pa
    import ray

    from bbcrawl_ray.sources.corpus import Response
    from bbcrawl_ray.stages.download import Downloader
    from bbcrawl_ray.stages.fetch import FetchConfig

    pages = {
        "http://h.example/gone.jpg": Response(
            404, {"Content-Type": ["text/html"]}, b"<h1>not found</h1>"
        )
    }
    fcfg = FetchConfig(transport="mapping", pages_ref=ray.put(pages))
    batch = pa.table(
        {
            "media_ref": ["http://h.example/gone.jpg"],
            "out_name": ["gone.jpg"],
            "out_dir": [""],
            "status": ["pending"],
            "error": [""],
            "bytes": [0],
            "post_id": [""],
            "att_ordinal": [0],
            "header_filename": [""],
        }
    )
    d1 = Downloader(fcfg, str(tmp_path / "a"))
    r1 = d1(batch).to_pylist()[0]
    assert r1["status"] == "error" and "404" in r1["error"]
    assert not (tmp_path / "a" / "gone.jpg").exists()

    d2 = Downloader(fcfg, str(tmp_path / "b"), error_bodies=True)
    r2 = d2(batch).to_pylist()[0]
    assert r2["status"] == "ok" and "404" in r2["error"]
    assert (tmp_path / "b" / "gone.jpg").read_bytes() == b"<h1>not found</h1>"


def test_review_fix_regressions(ray_session):
    """Round-2 review fixes: bytes-codec charset labels error instead of
    crashing; single-label hosts keep their own cookies; asof_join
    refuses silently-corrupting >2^53 int payloads."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from bbcrawl_ray.functions.charsets import decode_body
    from bbcrawl_ray.functions.publicsuffix import cookie_domains
    from bbcrawl_ray.pipelines.relops import asof_join

    # hex/zlib/base64 are bytes codecs Python knows — must be an error
    # row, not a LookupError escaping the parse stage
    for label in ("hex", "zlib_codec", "base64", "rot13"):
        txt, err = decode_body(b"<html>", label)
        assert err, label
    # the exact host is always a cookie candidate, even when it is a
    # public-suffix label (localhost, dev hosts)
    assert cookie_domains("localhost") == ["localhost"]
    assert cookie_domains("test") == ["test"]
    assert cookie_domains("example.com")[0] == "example.com"

    left = rd.from_arrow(
        pa.table(
            {
                "k": pa.array([1], pa.int64()),
                "t": pa.array([pd.Timestamp("2024-01-02")]),
                "big_id": pa.array([2**62 + 1], pa.int64()),
            }
        )
    )
    right = rd.from_arrow(
        pa.table(
            {
                "k": pa.array([1], pa.int64()),
                "rt": pa.array([pd.Timestamp("2024-01-01")]),
                "v": pa.array([7], pa.int64()),
            }
        )
    )
    with pytest.raises(Exception, match="2\\^53"):
        asof_join(
            left, right, key="k", left_time="t", right_time="rt", value_cols=["v"]
        ).to_pandas()


def test_http_transport_loopback():
    """Exercise the real urllib transport against a canned loopback
    server (no external network): 200 with repeated headers and body,
    404 via the HTTPError path, and 302 with the Location surfaced but
    NOT followed (redirect policy belongs to the Fetcher)."""
    import threading
    from http.server import BaseHTTPRequestHandler, HTTPServer

    from bbcrawl_ray.sources.corpus import HttpTransport

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            if self.path == "/ok":
                body = b"<html>hi</html>"
                self.send_response(200)
                self.send_header("Content-Type", "text/html; charset=utf-8")
                self.send_header("Set-Cookie", "a=1")
                self.send_header("Set-Cookie", "b=2")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
            elif self.path == "/redir":
                self.send_response(302)
                self.send_header("Location", "/ok")
                self.send_header("Content-Length", "0")
                self.end_headers()
            else:
                body = b"<h1>not here</h1>"
                self.send_response(404)
                self.send_header("Content-Type", "text/html")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        def log_message(self, *a):  # keep pytest output clean
            pass

    srv = HTTPServer(("127.0.0.1", 0), Handler)
    port = srv.server_address[1]
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        tr = HttpTransport(timeout=5.0)
        ok = tr.get(f"http://127.0.0.1:{port}/ok", headers={"X-Test": "1"})
        assert ok.status == 200
        assert ok.body == b"<html>hi</html>"
        assert ok.headers["Content-Type"] == ["text/html; charset=utf-8"]
        assert ok.headers["Set-Cookie"] == ["a=1", "b=2"]  # repeats survive

        missing = tr.get(f"http://127.0.0.1:{port}/nope")
        assert missing.status == 404
        assert missing.body == b"<h1>not here</h1>"  # non-2xx bodies kept

        redir = tr.get(f"http://127.0.0.1:{port}/redir")
        assert redir.status == 302
        assert redir.redirect_to == "/ok"  # surfaced, not followed
    finally:
        srv.shutdown()
        srv.server_close()


def test_asof_output_blocks_schema_uniform(ray_session, monkeypatch):
    """All NON-EMPTY blocks out of asof_join carry ONE schema and dtype
    set (round-2's bench tail showed float64-vs-int64 o_orderkey blocks
    out of the union — fixed by casting int value columns to the wire
    dtype in tag_right and enforcing one final dtype map in merge).

    Ray's own sort machinery still emits schema-LESS empty blocks
    whenever sort partitions > distinct shard keys — reproduced with a
    schema-stable UDF returning non-empty frames on plain
    ``groupby().map_groups``, so it is Ray-internal and benign; bench.py
    filters that known noise and this test pins the part we own."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray
    import ray.data as rd

    from bbcrawl_ray.pipelines import relops
    from bbcrawl_ray.pipelines.relops import asof_join

    monkeypatch.setattr(relops, "SMALL_BYTES", 0)  # force the distributed side

    n = 5_000
    rng = np.random.default_rng(3)
    lt = pd.DataFrame(
        {
            "k": rng.integers(0, 50, n),
            "t": pd.Timestamp("2024-01-01")
            + pd.to_timedelta(rng.integers(0, 10**5, n), unit="s"),
            "eid": np.arange(n, dtype=np.int64),
        }
    )
    rt = pd.DataFrame(
        {
            "k": rng.integers(0, 50, n // 4),
            "rt": pd.Timestamp("2024-01-01")
            + pd.to_timedelta(rng.integers(0, 10**5, n // 4), unit="s"),
            "v": rng.integers(0, 10**6, n // 4).astype(np.int64),
        }
    )
    out = asof_join(
        rd.from_pandas(lt).repartition(8),
        rd.from_pandas(rt).repartition(8),
        key="k",
        left_time="t",
        right_time="rt",
        value_cols=["v"],
        n_shards=16,
    ).materialize()
    schemas = set()
    for t in ray.get(out.to_arrow_refs()):
        if t.num_rows:
            schemas.add(tuple((f.name, str(f.type)) for f in t.schema))
    assert len(schemas) == 1, schemas
    (schema,) = schemas
    assert dict(schema)["v"] == "int64"  # right dtype restored, not float


def test_asof_join_data_sized_shards_strings_and_skew(ray_session, monkeypatch):
    """Round-3 items: (a) shard count derives from row count, no fixed
    64; (b) string left payloads and string value columns survive with
    dtype-matched nulls (no float-NaN/string mixed blocks); (c) on a
    skewed key stream the per-shard input is bounded by hot-key mass +
    the hashed remainder — pinned here against a merge_asof oracle."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from bbcrawl_ray.pipelines import relops
    from bbcrawl_ray.pipelines.relops import asof_join, data_sized_shards, shard_of

    monkeypatch.setattr(relops, "SMALL_BYTES", 0)  # force the distributed side

    assert data_sized_shards(1) == 16
    assert data_sized_shards(500_000 * 64) == 64
    assert data_sized_shards(500_000 * 640) == 640

    rng = np.random.default_rng(5)
    n, rn = 20_000, 5_000
    keys = (rng.zipf(1.3, size=n) % 400).astype(np.int64)  # heavy head
    lt = pd.DataFrame(
        {
            "k": keys,
            "t": pd.Timestamp("2024-01-01")
            + pd.to_timedelta(rng.integers(0, 10**6, n), unit="s"),
            "label": pd.Series([f"L{i % 7}" for i in range(n)], dtype=object),
        }
    )
    rt = pd.DataFrame(
        {
            "k": (rng.zipf(1.3, size=rn) % 400).astype(np.int64),
            "rt": pd.Timestamp("2024-01-01")
            + pd.to_timedelta(rng.integers(0, 10**6, rn), unit="s"),
            "v": rng.integers(0, 1000, rn).astype(np.int64),
            "tag": pd.Series([f"T{i % 5}" for i in range(rn)], dtype=object),
        }
    ).drop_duplicates(["k", "rt"])  # unambiguous as-of choice for the oracle

    # per-shard input bound: a single key can never split, so the bound
    # is hot-key mass plus the hashed spread of everything else
    shards = data_sized_shards(n + rn, target_rows=1000)
    sizes = pd.Series(shard_of(lt["k"], shards)).value_counts()
    hot = lt["k"].value_counts().iloc[0]
    assert sizes.max() <= hot + 4 * (n / shards)

    out = asof_join(
        rd.from_pandas(lt),
        rd.from_pandas(rt),
        key="k",
        left_time="t",
        right_time="rt",
        value_cols=["v", "tag"],
        n_shards=shards,
    ).to_pandas()
    # right-schema dtypes restored without explicit value_casts
    assert str(out["v"].dtype) == "int64" and out["tag"].dtype == object
    assert out["label"].dtype == object

    oracle = pd.merge_asof(
        lt.sort_values("t", kind="mergesort"),
        rt.sort_values("rt", kind="mergesort"),
        left_on="t",
        right_on="rt",
        by="k",
        direction="backward",
    ).dropna(subset=["v"])[["k", "t", "label", "v", "tag"]]
    oracle["v"] = oracle["v"].astype("int64")
    key_cols = ["k", "t", "label", "v", "tag"]
    pd.testing.assert_frame_equal(
        out[key_cols].sort_values(key_cols, kind="mergesort").reset_index(drop=True),
        oracle.sort_values(key_cols, kind="mergesort").reset_index(drop=True),
        check_dtype=False,
    )


def test_request_uri_fast_path_parity():
    """The scheme-less fast path in _request_uri must agree with the
    full urlsplit parse on every link shape rel2abs can receive
    (protocol-relative and fragment links take the slow path)."""
    from urllib.parse import urlsplit

    from bbcrawl_ray.functions.urlfns import _request_uri

    def slow(link: str) -> str:
        s = urlsplit(link)
        requri = s.path or "/"
        if s.query:
            requri += "?" + s.query
        return requri

    cases = [
        "", "/", "a", "a/b", "/a/b", "a?x=1", "/a?x=1&y=2", "a#frag",
        "/a/b#c", "//host/path", "//host/path?q=2", "?onlyquery",
        "p;params", "a%20b/c", "./rel", "../up", "#only", "a?b#c",
        # shapes urlsplit normalizes that MUST take the slow path:
        # trailing empty query, embedded tab/CR/LF (removed anywhere),
        # leading/trailing space or C0 control (stripped)
        "a?", "/a?", "a\tb", "a\nb", "a\rb", " a", "a ", "\x01a", "a\x1f",
        " a?x=1 ", "\ta\t",
    ]
    for link in cases:
        assert _request_uri(link) == slow(link), link


_WINDOW_OPS = ["sessionize", "windowed_lag", "windowed_running_sum", "asof_join"]


def _window_case(op):
    """(run(buckets) -> Dataset, pandas oracle, output columns) for one
    windowed operator over 25 keys, ~4k events in 8 blocks."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from bbcrawl_ray.pipelines import relops as R

    rng = np.random.default_rng(31)
    n, rn = 4_000, 800
    t0 = pd.Timestamp("2024-01-01")
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 25, n).astype(np.int64),
            "t": (t0 + pd.to_timedelta(rng.integers(0, 10**5, n), unit="s")).astype("datetime64[us]"),
            "v": rng.integers(-50, 50, n).astype(np.int64),
            "eid": np.arange(n, dtype=np.int64),
        }
    ).drop_duplicates(["k", "t"])
    rt = pd.DataFrame(
        {
            "k": rng.integers(0, 25, rn).astype(np.int64),
            "rt": (t0 + pd.to_timedelta(rng.integers(0, 10**5, rn), unit="s")).astype("datetime64[us]"),
            "w": rng.integers(0, 10**6, rn).astype(np.int64),
        }
    ).drop_duplicates(["k", "rt"])

    def src(frame):
        return rd.from_pandas(frame).repartition(8)

    s = df.sort_values(["k", "t", "eid"], kind="mergesort")
    gap = pd.Timedelta(minutes=30)
    kw = dict(key="k", order_cols=["t", "eid"], value_col="v", keep_cols=["eid"])
    if op == "sessionize":
        brk = s.groupby("k")["t"].diff() > gap
        s = s.assign(session_id=brk.groupby(s["k"]).cumsum().astype("int64") + 1)
        oracle = (
            s.groupby(["k", "session_id"])
            .agg(n_events=("t", "size"), session_start=("t", "min"))
            .reset_index()
        )
        oracle["n_events"] = oracle["n_events"].astype("int64")
        return (
            lambda b: R.sessionize(src(df), "k", "t", gap, time_buckets=b),
            oracle,
            ["k", "session_id", "n_events", "session_start"],
        )
    if op == "windowed_lag":
        oracle = s.assign(value_delta=s.groupby("k")["v"].diff()).dropna(subset=["value_delta"])
        return (
            lambda b: R.windowed_lag(src(df), time_buckets=b, **kw),
            oracle,
            ["k", "eid", "value_delta"],
        )
    if op == "windowed_running_sum":
        oracle = s.assign(running=s.groupby("k")["v"].cumsum())
        return (
            lambda b: R.windowed_running_sum(src(df), out_col="running", time_buckets=b, **kw),
            oracle,
            ["k", "eid", "running"],
        )
    oracle = pd.merge_asof(
        df.sort_values("t", kind="mergesort"),
        rt.sort_values("rt", kind="mergesort"),
        left_on="t", right_on="rt", by="k", direction="backward",
    ).dropna(subset=["w"])
    oracle["w"] = oracle["w"].astype("int64")
    return (
        lambda b: R.asof_join(
            src(df), src(rt), key="k", left_time="t", right_time="rt",
            value_cols=["w"], time_buckets=b,
        ),
        oracle,
        ["k", "t", "v", "eid", "w"],
    )


@pytest.mark.parametrize("buckets", [1, 4])
@pytest.mark.parametrize("op", _WINDOW_OPS)
def test_window_paths_agree(ray_session, monkeypatch, op, buckets):
    """Every windowed operator gives the pandas oracle's frame, dtypes
    included, on both sides of the byte gate: within ``SMALL_BYTES``
    one coalesced task with no min/max time-axis pass, whatever
    ``time_buckets`` says; at ``SMALL_BYTES`` = 0 the key-shard (and,
    with buckets, time-bucket) shuffles."""
    import pandas as pd

    from bbcrawl_ray.pipelines import relops as R

    run, oracle, cols = _window_case(op)
    minmax_calls = []
    agg_minmax = R._agg_minmax
    monkeypatch.setattr(
        R, "_agg_minmax", lambda *a: minmax_calls.append(a) or agg_minmax(*a)
    )

    def frame(ds):
        return ds.to_pandas()[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)

    expect = oracle[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)
    small = frame(run(buckets))
    assert not minmax_calls
    monkeypatch.setattr(R, "SMALL_BYTES", 0)
    distributed = frame(run(buckets))
    assert bool(minmax_calls) == (buckets > 1)
    assert len(expect) > 100
    pd.testing.assert_frame_equal(small, expect, check_dtype=True)
    pd.testing.assert_frame_equal(distributed, expect, check_dtype=True)


def test_running_sum_offsets_join_paths_agree(ray_session, monkeypatch):
    """windowed_running_sum with time buckets joins its per-bucket
    offsets back onto the stream: the broadcast merge (a budget just
    under the input's size, so the window runs bucketed but the offsets
    fit) and the engine hash join (``SMALL_BYTES`` = 0) give identical
    rows, equal to the pandas cumsum oracle."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from bbcrawl_ray.pipelines import relops as R

    rng = np.random.default_rng(7)
    n = 3_000
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 6, n).astype(np.int64),
            "t": pd.Timestamp("2024-01-01")
            + pd.to_timedelta(rng.integers(0, 10**5, n), unit="s"),
            "v": rng.integers(-50, 50, n).astype(np.int64),
            "eid": np.arange(n, dtype=np.int64),
        }
    )
    cols = ["k", "eid", "running"]
    kw = dict(
        key="k", order_cols=["t", "eid"], value_col="v", keep_cols=["eid"],
        out_col="running", time_buckets=5,
    )

    def run():
        out = R.windowed_running_sum(rd.from_pandas(df).repartition(6), **kw).to_pandas()
        return out[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)

    joins = []
    for name in ("broadcast_join", "hash_join"):
        fn = getattr(R, name)
        monkeypatch.setattr(R, name, lambda *a, _n=name, _f=fn, **k: joins.append(_n) or _f(*a, **k))
    in_bytes = rd.from_pandas(df).repartition(6).materialize().size_bytes()
    monkeypatch.setattr(R, "SMALL_BYTES", in_bytes - 1)
    broadcast = run()
    monkeypatch.setattr(R, "SMALL_BYTES", 0)
    hashed = run()
    assert joins == ["broadcast_join", "hash_join"]
    s = df.sort_values(["k", "t", "eid"], kind="mergesort")
    oracle = s.assign(running=s.groupby("k")["v"].cumsum())[cols]
    oracle = oracle.sort_values(cols, kind="mergesort").reset_index(drop=True)
    pd.testing.assert_frame_equal(broadcast, oracle)
    pd.testing.assert_frame_equal(hashed, oracle)


def test_asof_time_buckets_monster_key(ray_session, monkeypatch):
    """Round-3 verdict #3: a SINGLE key holding ~all rows cannot be
    split by key-sharding — time_buckets partitions it by time range
    with a boundary carry. Pinned: (a) bit-identical to the unbucketed
    path and to a merge_asof oracle, (b) every pandas group stays under
    a per-group row cap ~ hot_rows / buckets."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from bbcrawl_ray.pipelines import relops
    from bbcrawl_ray.pipelines.relops import asof_join

    monkeypatch.setattr(relops, "SMALL_BYTES", 0)  # force the distributed side

    rng = np.random.default_rng(11)
    n, rn, B = 40_000, 4_000, 16
    # one monster key (0) carries ~95% of rows; a few small keys ride along
    keys = np.where(rng.random(n) < 0.95, 0, rng.integers(1, 5, n)).astype(np.int64)
    lt = pd.DataFrame(
        {
            "k": keys,
            "t": pd.Timestamp("2024-01-01")
            + pd.to_timedelta(rng.integers(0, 10**6, n), unit="s"),
            "eid": np.arange(n, dtype=np.int64),
        }
    )
    rt = pd.DataFrame(
        {
            "k": np.where(rng.random(rn) < 0.95, 0, rng.integers(1, 5, rn)).astype(np.int64),
            "rt": pd.Timestamp("2024-01-01")
            + pd.to_timedelta(rng.integers(0, 10**6, rn), unit="s"),
            "v": rng.integers(0, 10**6, rn).astype(np.int64),
        }
    ).drop_duplicates(["k", "rt"])

    kw = dict(key="k", left_time="t", right_time="rt", value_cols=["v"], n_shards=4)
    bucketed = asof_join(
        rd.from_pandas(lt).repartition(8), rd.from_pandas(rt).repartition(8),
        time_buckets=B, **kw,
    ).to_pandas()
    plain = asof_join(
        rd.from_pandas(lt).repartition(8), rd.from_pandas(rt).repartition(8), **kw
    ).to_pandas()

    cols = ["k", "t", "eid", "v"]
    def norm(df):
        return df[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)

    pd.testing.assert_frame_equal(norm(bucketed), norm(plain))

    oracle = pd.merge_asof(
        lt.sort_values("t", kind="mergesort"),
        rt.sort_values("rt", kind="mergesort"),
        left_on="t", right_on="rt", by="k", direction="backward",
    ).dropna(subset=["v"])
    oracle["v"] = oracle["v"].astype("int64")
    pd.testing.assert_frame_equal(norm(bucketed), norm(oracle))

    # per-group row cap: the monster key's mass divides across buckets
    from bbcrawl_ray.pipelines.relops import _bucket_of, shard_of

    t0 = float(min(lt["t"].min().value, rt["rt"].min().value))
    t1 = float(max(lt["t"].max().value, rt["rt"].max().value))
    span = t1 - t0
    g_l = shard_of(lt["k"], 4).to_numpy() * B + _bucket_of(lt["t"], t0, span, B)
    g_r = shard_of(rt["k"], 4).to_numpy() * B + _bucket_of(rt["rt"], t0, span, B)
    group_sizes = pd.Series(np.concatenate([g_l, g_r])).value_counts()
    hot = int((keys == 0).sum())
    assert group_sizes.max() <= hot // B + 6 * ((n + rn) // (4 * B))


def test_sessionize_time_buckets_seam_merge(ray_session, monkeypatch):
    """Bucketed sessionize must stitch sessions across bucket seams:
    a crafted stream whose sessions straddle bucket boundaries (and one
    session spanning several buckets) comes out bit-identical to the
    unbucketed path and to a pandas oracle; the monster key's level-1
    groups stay bounded by bucket."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from bbcrawl_ray.pipelines import relops
    from bbcrawl_ray.pipelines.relops import sessionize

    monkeypatch.setattr(relops, "SMALL_BYTES", 0)  # force the distributed side
    rng = np.random.default_rng(7)
    base = pd.Timestamp("2024-03-01")
    rows = []
    # user 0 (monster): a dense run spanning many hours (ONE session
    # across every bucket seam), then sparse isolated events
    t = base
    for _ in range(3_000):
        t += pd.Timedelta(minutes=int(rng.integers(1, 29)))
        rows.append((0, t))
    for i in range(50):
        rows.append((0, t + pd.Timedelta(hours=2 + 3 * i)))
    # users 1..4: sessions placed randomly
    for u in range(1, 5):
        t = base + pd.Timedelta(minutes=int(rng.integers(0, 600)))
        for _ in range(200):
            t += pd.Timedelta(minutes=int(rng.integers(1, 120)))
            rows.append((u, t))
    df = pd.DataFrame(rows, columns=["user_id", "ts"])
    df["user_id"] = df["user_id"].astype("int64")
    df["ts"] = df["ts"].astype("datetime64[us]")
    gap = pd.Timedelta(minutes=30)

    def run(buckets):
        return (
            sessionize(
                rd.from_pandas(df.sample(frac=1.0, random_state=1)).repartition(6),
                "user_id", "ts", gap, n_shards=4, time_buckets=buckets,
            )
            .to_pandas()
            .sort_values(["user_id", "session_id"])
            .reset_index(drop=True)
        )

    bucketed, plain = run(12), run(1)
    pd.testing.assert_frame_equal(bucketed, plain)

    # pandas oracle
    s = df.sort_values(["user_id", "ts"], kind="mergesort")
    brk = s.groupby("user_id")["ts"].diff() > gap
    s = s.assign(session_id=brk.groupby(s["user_id"]).cumsum().astype("int64") + 1)
    oracle = (
        s.groupby(["user_id", "session_id"])
        .agg(n_events=("ts", "size"), session_start=("ts", "min"))
        .reset_index()
        .sort_values(["user_id", "session_id"])
        .reset_index(drop=True)
    )
    oracle["n_events"] = oracle["n_events"].astype("int64")
    oracle["session_start"] = oracle["session_start"].astype("datetime64[us]")
    pd.testing.assert_frame_equal(bucketed, oracle)


def test_download_streams_body_in_chunks(ray_session, tmp_path):
    """Round-3 verdict missing #1: downloads stream wire → file in
    bounded chunks (reference io.Copy, downloader.go:308) — a loopback
    body much larger than chunk_bytes arrives intact while no single
    read exceeds the chunk size; manifest row unchanged in shape."""
    import threading
    from http.server import BaseHTTPRequestHandler, HTTPServer

    import pyarrow as pa

    from bbcrawl_ray.stages.download import Downloader
    from bbcrawl_ray.stages.fetch import FetchConfig

    body = bytes(range(256)) * 8192  # 2 MiB, deterministic pattern

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            self.send_response(200)
            self.send_header("Content-Type", "application/octet-stream")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *a):  # noqa: D102 — quiet
            pass

    srv = HTTPServer(("127.0.0.1", 0), Handler)
    port = srv.server_address[1]
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    try:
        chunk = 64 * 1024
        d = Downloader(
            FetchConfig(transport="http"), str(tmp_path), chunk_bytes=chunk
        )

        read_sizes: list[int] = []
        inner = d.fetcher.transport

        class RecordingReader:
            def __init__(self, r):
                self._r = r

            def read(self, n=-1):
                data = self._r.read(n)
                read_sizes.append(len(data))
                return data

            def close(self):
                self._r.close()

        class RecordingTransport:
            def get(self, url, headers=None):
                return inner.get(url, headers=headers)

            def get_stream(self, url, headers=None):
                meta, reader = inner.get_stream(url, headers=headers)
                return meta, RecordingReader(reader)

        d.fetcher.transport = RecordingTransport()

        batch = pa.table(
            {
                "media_ref": [f"http://127.0.0.1:{port}/big.bin"],
                "out_name": ["big.bin"],
                "out_dir": [""],
                "status": ["pending"],
                "error": [""],
                "bytes": [0],
                "post_id": [""],
                "att_ordinal": [0],
                "header_filename": [""],
            }
        )
        row = d(batch).to_pylist()[0]
        assert row["status"] == "ok"
        assert row["bytes"] == len(body)
        assert (tmp_path / "big.bin").read_bytes() == body
        # bounded buffering: many small reads, never a whole-body read
        assert max(read_sizes) <= chunk
        assert len([s for s in read_sizes if s]) >= len(body) // chunk
    finally:
        srv.shutdown()
        srv.server_close()


def test_windowed_lag_and_running_sum_monster_key(ray_session, monkeypatch):
    """Round-3 verdict #3 (window family): windowed_lag and
    windowed_running_sum split a single monster key by time bucket —
    bucketed output is bit-identical to the unbucketed path and to a
    pandas oracle, negative values included (running totals must sum
    raw values, never max a cumsum)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from bbcrawl_ray.pipelines import relops
    from bbcrawl_ray.pipelines.relops import windowed_lag, windowed_running_sum

    monkeypatch.setattr(relops, "SMALL_BYTES", 0)  # force the distributed side
    rng = np.random.default_rng(13)
    n = 30_000
    keys = np.where(rng.random(n) < 0.9, 0, rng.integers(1, 6, n)).astype(np.int64)
    df = pd.DataFrame(
        {
            "k": keys,
            "ts": pd.Timestamp("2024-05-01")
            + pd.to_timedelta(rng.integers(0, 10**6, n), unit="s"),
            "eid": np.arange(n, dtype=np.int64),
            "v": rng.integers(-500, 500, n).astype(np.int64),  # negatives!
        }
    )
    ds = lambda: rd.from_pandas(df.sample(frac=1.0, random_state=2)).repartition(6)  # noqa: E731

    kw = dict(
        key="k", order_cols=["ts", "eid"], value_col="v", keep_cols=["eid"], n_shards=4
    )

    def norm(d, cols):
        out = d.to_pandas()[cols].sort_values(cols, kind="mergesort")
        return out.reset_index(drop=True)

    # --- lag
    lag_cols = ["k", "eid", "value_delta"]
    lag_b = norm(windowed_lag(ds(), time_buckets=12, out_col="value_delta", **kw), lag_cols)
    lag_p = norm(windowed_lag(ds(), time_buckets=1, out_col="value_delta", **kw), lag_cols)
    pd.testing.assert_frame_equal(lag_b, lag_p)
    s = df.sort_values(["k", "ts", "eid"], kind="mergesort")
    o = s.assign(value_delta=s.groupby("k")["v"].diff()).dropna(subset=["value_delta"])
    o["value_delta"] = o["value_delta"].astype("int64")
    lag_b["value_delta"] = lag_b["value_delta"].astype("int64")
    pd.testing.assert_frame_equal(
        lag_b, o[lag_cols].sort_values(lag_cols, kind="mergesort").reset_index(drop=True)
    )

    # --- running sum
    run_cols = ["k", "eid", "running"]
    run_b = norm(windowed_running_sum(ds(), time_buckets=12, out_col="running", **kw), run_cols)
    run_p = norm(windowed_running_sum(ds(), time_buckets=1, out_col="running", **kw), run_cols)
    pd.testing.assert_frame_equal(run_b, run_p)
    o2 = s.assign(running=s.groupby("k")["v"].cumsum())
    pd.testing.assert_frame_equal(
        run_b,
        o2[run_cols].sort_values(run_cols, kind="mergesort").reset_index(drop=True),
    )


def test_grouped_rank_topk_monster_key_and_ties(ray_session, monkeypatch):
    """grouped_rank_topk: RANK<=k with ties, monster-key safe — one
    group holds ~all rows with heavy value ties; output equals the
    pandas rank oracle on both the broadcast and the forced hash-join
    mapping transport."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from bbcrawl_ray.pipelines import relops
    from bbcrawl_ray.pipelines.relops import grouped_rank_topk

    rng = np.random.default_rng(17)
    n = 25_000
    g = np.where(rng.random(n) < 0.92, "HOT", rng.choice(["a", "b", "c"], n))
    df = pd.DataFrame(
        {
            "g": g,
            "rid": np.arange(n, dtype=np.int64),
            # tiny value domain → heavy ties; ties at the k-th rank
            # must ALL surface (SQL RANK), not be cut at k rows
            "v": rng.integers(0, 40, n).astype(np.int64),
        }
    )
    ds = lambda: rd.from_pandas(df.sample(frac=1.0, random_state=3)).repartition(8)  # noqa: E731

    oracle = df.assign(
        rank=df.groupby("g")["v"].rank(method="min", ascending=False).astype("int64")
    )
    oracle = oracle[oracle["rank"] <= 2]

    cols = ["g", "rid", "v", "rank"]

    def norm(d):
        out = d.to_pandas()[cols].sort_values(cols, kind="mergesort")
        return out.reset_index(drop=True)

    broadcast = norm(grouped_rank_topk(ds(), "g", "v", 2, rank_col="rank"))
    monkeypatch.setattr(relops, "SMALL_BYTES", 0)
    hashed = norm(grouped_rank_topk(ds(), "g", "v", 2, rank_col="rank"))
    expect = oracle[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)
    assert len(expect) > 2 * 4  # ties actually expanded beyond k rows/group
    pd.testing.assert_frame_equal(broadcast, expect)
    pd.testing.assert_frame_equal(hashed, expect)


def test_bucketed_operators_empty_inputs(ray_session, monkeypatch):
    """Empty inputs through the time-bucketed operators: the min/max
    sizing aggregates return None on zero rows — must degrade to the
    single-bucket path and yield empty results, not crash."""
    import pandas as pd
    import ray.data as rd

    from bbcrawl_ray.pipelines import relops
    from bbcrawl_ray.pipelines.relops import (
        asof_join, sessionize, windowed_lag, windowed_running_sum,
    )

    # an empty pandas block still measures its schema's bytes, so a
    # zero budget sends it down the bucketed path too
    monkeypatch.setattr(relops, "SMALL_BYTES", 0)  # force the distributed side

    empty = pd.DataFrame(
        {
            "k": pd.Series([], dtype="int64"),
            "ts": pd.Series([], dtype="datetime64[us]"),
            "eid": pd.Series([], dtype="int64"),
            "v": pd.Series([], dtype="int64"),
        }
    )
    e = lambda: rd.from_pandas(empty)  # noqa: E731

    assert sessionize(e(), "k", "ts", pd.Timedelta(minutes=30), time_buckets=4).count() == 0
    assert (
        windowed_lag(e(), key="k", order_cols=["ts", "eid"], value_col="v",
                     keep_cols=["eid"], time_buckets=4, n_shards=2).count() == 0
    )
    assert (
        windowed_running_sum(e(), key="k", order_cols=["ts", "eid"], value_col="v",
                             keep_cols=["eid"], time_buckets=4, n_shards=2).count() == 0
    )
    right = pd.DataFrame(
        {
            "k": pd.Series([], dtype="int64"),
            "rt": pd.Series([], dtype="datetime64[us]"),
            "val": pd.Series([], dtype="int64"),
        }
    )
    out = asof_join(
        e(), rd.from_pandas(right), key="k", left_time="ts", right_time="rt",
        value_cols=["val"], time_buckets=4, n_shards=2,
    )
    assert out.count() == 0
