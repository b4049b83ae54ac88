"""Hypothesis fuzz: the fast HTML tokenizer must NEVER diverge from the
stdlib parser on extraction output — spans, discovered links and both
manifests (which read the documents' subtree ``end`` indices) — so its
fallback guards have to catch every construct it doesn't model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from bbcrawl_ray.cli.partition import CrawlerSpec
from bbcrawl_ray.functions.htmldom import parse_html_fast, parse_html_stdlib
from bbcrawl_ray.stages.parse import (
    _page_pass,
    src_crawler_manifest,
    vb_attachments_manifest,
)

SRC_SPEC = CrawlerSpec(crawler="src", tags=["img", "audio", "video"])
SRC_FILTERED = CrawlerSpec(crawler="src", tags=["img", "video"], attrs={"class": ["big"]})
VB_SPEC = CrawlerSpec(crawler="vb-attachments")

_ALPHABET = "abc <>=\"'/!-imgsrcvideopst._?&;#x123\n\t"

fragments = st.lists(
    st.one_of(
        st.text(_ALPHABET, max_size=12),
        st.sampled_from(
            [
                '<img src="/a.jpg">',
                "<img src=b.png >",
                "<video src='/v.mp4'>",
                "<source src=/s.webm>",
                "</video>",
                "<div id=\"posts\">",
                "<div id='post_1'>",
                "<a id=attachment1 href=/f.zip>",
                "</a>",
                "</div>",
                "<!-- c -->",
                "<p>",
                "</p>",
                "text & more",
                "&amp;",
                "<",
                ">",
                '"',
                "<script>var x=1;</script>",
                "<img src=a.jpg/>",
                "<div id=x/>",
                "<!-- a > b --  >",
                "<!-- bad --!>",
                "<![CDATA[ <x> ]]>",
                "<!DOCTYPE html>",
                "<o:p/>",
                "<a 1=2>",
                "<div =x/>",
                "<a href=/f.zip/>",
                "<audio src=/a.mp3>",
                "<audio>",
                "</audio>",
                "<track src='/t.vtt'>",
                "<video class=big>",
                "<img class=big src=/c.jpg>",
                "<div id=post2>",
                "<a id=attachment2>",
                "<a href=/next?p=2>",
                "<a href=//[bad>",
                "<img src=//[bad>",
                "<img src=noext>",
            ]
        ),
    ),
    max_size=12,
)


def _outcome(fn):
    try:
        return fn()
    except ValueError as e:  # e.g. an unparseable '//[' src: both sides must raise
        return ("raised", str(e))


def _page(url, root):
    kinds, texts, refs, links = [], [], [], []
    _page_pass(url, root, kinds, texts, refs, links)
    return list(zip(kinds, texts, refs)), links


def extraction(url: str, root) -> dict:
    """Everything ParsePages derives from one page, or the error it raises."""
    out = {"spans_links": _outcome(lambda: _page(url, root))}
    for name, spec in (("src", SRC_SPEC), ("src_filtered", SRC_FILTERED), ("vb", VB_SPEC)):
        extract = vb_attachments_manifest if spec is VB_SPEC else src_crawler_manifest
        out[name] = _outcome(lambda: [vars(m) for m in extract(url, 7, root, spec)])
    return out


@given(fragments)
@settings(max_examples=300, deadline=None)
def test_fast_parser_never_diverges(parts):
    html = "".join(parts)
    url = "http://h.example/page"
    fast = extraction(url, parse_html_fast(html))
    std = extraction(url, parse_html_stdlib(html))
    assert fast == std, html
