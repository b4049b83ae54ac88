"""Differential test: fast regex DOM vs stdlib html.parser DOM.

The fast tokenizer must produce EXACTLY the same extraction results
(spans, manifests, links) as the stdlib path over the synthetic corpus
and the golden fixtures — any divergence is a correctness bug, not a
perf trade-off.
"""

from bbcrawl_ray.cli.partition import CrawlerSpec
from bbcrawl_ray.functions.htmldom import parse_html_fast, parse_html_stdlib
from bbcrawl_ray.sources.corpus import CorpusConfig, synth_thread_html
from bbcrawl_ray.stages.parse import (
    extract_spans,
    src_crawler_manifest,
    vb_attachments_manifest,
)
from tests.test_extract import HTML as GOLDEN_HTML
from tests.test_extract import PAGE_URL

SRC_SPEC = CrawlerSpec(crawler="src", tags=["img", "audio", "video"])
VB_SPEC = CrawlerSpec(crawler="vb-attachments")


def assert_same_extraction(url: str, html: str):
    fast = parse_html_fast(html)
    std = parse_html_stdlib(html)
    assert extract_spans(url, fast) == extract_spans(url, std)
    m_f = [vars(m) for m in src_crawler_manifest(url, 1, fast, SRC_SPEC)]
    m_s = [vars(m) for m in src_crawler_manifest(url, 1, std, SRC_SPEC)]
    assert m_f == m_s
    v_f = [vars(m) for m in vb_attachments_manifest(url, 1, fast, VB_SPEC)]
    v_s = [vars(m) for m in vb_attachments_manifest(url, 1, std, VB_SPEC)]
    assert v_f == v_s


def test_fast_parser_matches_on_synthetic_corpus():
    cfg = CorpusConfig()
    for h in range(4):
        for p in range(1, 26):
            url = f"http://forum{h}.example/t?page={p}"
            assert_same_extraction(url, synth_thread_html(url, cfg))


def test_fast_parser_matches_on_golden_fixture():
    assert_same_extraction(PAGE_URL, GOLDEN_HTML)


def test_fast_parser_edge_cases():
    cases = [
        "plain text only",
        "a < b and <notatag and <3",
        '<div id="x">&amp; entities &lt;here&gt;</div>',
        "<p>unclosed <div><span>deep",
        '<img src="a.jpg"/><br/><div/>text after',
        "<!-- comment --><p>after comment</p><!DOCTYPE html>",
        '<a href=bare>unquoted attr</a><a href=\'sq\'>single</a>',
        "<P CLASS=\"UPPER\">case folding</P>",
        "",
        "<video src=/v.mp4><source src=/w.mp4></video>",
        # attribute sections html.parser reads its own way: a quote in
        # an attribute name ends the tag early, '==' skips to the value
        '<a/">">',
        "<img src==/a.jpg>",
    ]
    for html in cases:
        assert_same_extraction("http://h.example/x", html)


def test_fast_parser_falls_back_on_cdata_elements():
    html = "<script>if (a < b) { x('<img src=fake.jpg>') }</script><img src='/r.jpg'>"
    spans = [
        (kind, ref)
        for kind, _, ref in extract_spans("http://h.example/x", parse_html_fast(html))
        if kind != "text"
    ]
    # the <img> inside the script must NOT be extracted
    assert spans == [("img", "http://h.example/r.jpg")]
