"""Golden span-sequence + manifest-naming tests (FIXTURES.md §F2-F4).

Pure-Python (no Ray): drives the extractors directly on crafted HTML
exercising every reference path — fileid/attid counters, scrapeAV
multi-source subdirs, avTag collision dedup, non-RFC-3986 relative
URL resolution, posts/attachment regexes, no-posts error path.
"""

import pytest

from bbcrawl_ray.cli.partition import CrawlerSpec
from bbcrawl_ray.functions import naming
from bbcrawl_ray.functions.htmldom import parse_html
from bbcrawl_ray.functions.urlfns import rel2abs
from bbcrawl_ray.stages.parse import (
    extract_spans,
    src_crawler_manifest,
    vb_attachments_manifest,
    file_crawler_manifest,
)

PAGE_URL = "http://forum.example/threads/deep/path/page1"

HTML = """
<html><body>
Intro text
<img src="/a/one.jpg">
<img src="pic.jpg" class="big">
<audio src="/snd/a.mp3"></audio>
<video>
  <source src="/v/x.mp4">
  <source src="/v2/x.mp4">
  <track src="/v/x.vtt">
</video>
<div id="posts">
  <div id="post_12">first post
    <a id="attachment7" href="files/f7.zip">z</a>
    <a id="attachment8" href="http://abs.example/f8.zip">z</a>
  </div>
  <div id="post13"><a id="attachment9" href="/d/f9">y</a></div>
</div>
</body></html>
"""


def test_spans_golden():
    got = extract_spans(PAGE_URL, parse_html(HTML))
    assert got == [
        ("text", "Intro text", ""),
        ("img", "", "http://forum.example/a/one.jpg"),
        # non-RFC-3986 parity: page path context DROPPED (util_url.go:30-49)
        ("img", "", "http://forum.example/pic.jpg"),
        ("audio", "", "http://forum.example/snd/a.mp3"),
        ("source", "", "http://forum.example/v/x.mp4"),
        ("source", "", "http://forum.example/v2/x.mp4"),
        ("track", "", "http://forum.example/v/x.vtt"),
        ("text", "first post", ""),
        ("attachment", "", "http://forum.example/files/f7.zip"),
        ("text", "z", ""),  # anchor text is document text, pre-order
        ("attachment", "", "http://abs.example/f8.zip"),
        ("text", "z", ""),
        ("attachment", "", "http://forum.example/d/f9"),
        ("text", "y", ""),
    ]


def test_src_crawler_manifest_fileids_and_avtag():
    spec = CrawlerSpec(crawler="src", tags=["img", "audio", "video"])
    rows = src_crawler_manifest(PAGE_URL, 1, parse_html(HTML), spec)
    by_name = [(r.out_dir, r.out_name, r.media_ref, r.status) for r in rows]
    # fileid sequence: img→1, img→2, audio(single)→3, video(multi)→dir 1-4
    assert by_name[0] == ("", "1-1.jpg", "http://forum.example/a/one.jpg", "pending")
    assert by_name[1] == ("", "1-2.jpg", "http://forum.example/pic.jpg", "pending")
    assert by_name[2] == ("", "1-3.mp3", "http://forum.example/snd/a.mp3", "pending")
    av = [r for r in rows if r.out_dir == "1-4"]
    assert len(av) == 3
    assert av[0].out_name == "x.mp4"
    # filename collision from a different src → deterministic 64-char
    # name over 'a'..'y' with the reference's double-dot quirk
    assert len(av[1].out_name) == 64 + len("..mp4")
    assert av[1].out_name.endswith("..mp4")
    assert set(av[1].out_name[:64]) <= set("abcdefghijklmnopqrstuvwxy")
    assert av[2].out_name == "x.vtt"


def test_src_crawler_tag_and_attr_filters():
    spec = CrawlerSpec(crawler="src", tags=["img"], attrs={"class": ["big"]})
    rows = src_crawler_manifest(PAGE_URL, 1, parse_html(HTML), spec)
    # only the class=big img matches; fileid restarts at 1
    assert [(r.out_name, r.media_ref) for r in rows] == [
        ("1-1.jpg", "http://forum.example/pic.jpg")
    ]


def test_vb_attachments_manifest():
    spec = CrawlerSpec(crawler="vb-attachments")
    rows = vb_attachments_manifest(PAGE_URL, 1, parse_html(HTML), spec)
    got = [(r.post_id, r.att_ordinal, r.out_name, r.media_ref) for r in rows]
    assert got == [
        ("12", 1, "12-1-f7.zip", "http://forum.example/files/f7.zip"),
        ("12", 2, "12-2-f8.zip", "http://abs.example/f8.zip"),
        ("13", 1, "13-1-f9", "http://forum.example/d/f9"),
    ]


def test_vb_no_posts_error_row():
    spec = CrawlerSpec(crawler="vb-attachments")
    rows = vb_attachments_manifest(PAGE_URL, 1, parse_html("<html><body>hi</body></html>"), spec)
    assert len(rows) == 1 and rows[0].status == "error"
    assert "No posts found" in rows[0].error


def test_vb_attid_increments_on_failure():
    html = """
    <div id="posts"><div id="post_5">
      <a id="attachment1">no href</a>
      <a id="attachment2" href="/ok/file.bin">ok</a>
    </div></div>"""
    rows = vb_attachments_manifest(PAGE_URL, 1, parse_html(html), CrawlerSpec(crawler="vb-attachments"))
    assert rows[0].status == "error" and rows[0].att_ordinal == 1
    # attid 2 even though attid 1 failed (crawlers.go:268-272,308)
    assert rows[1].att_ordinal == 2 and rows[1].out_name == "5-2-file.bin"


def test_file_crawler_manifest():
    rows = file_crawler_manifest("http://files.example/x/report.pdf", 3)
    assert rows[0].out_name == "3 - report.pdf"
    # no basename → empty name (auto-named at download time)
    rows2 = file_crawler_manifest("http://files.example/x/", 4)
    assert rows2[0].out_name == ""


def test_rel2abs_parity():
    # drops path context AND port (url.Hostname) — util_url.go:30-49
    assert rel2abs("http://h.example:8080/a/b/p", "foo.jpg?x=1") == "http://h.example/foo.jpg?x=1"
    assert rel2abs("https://h.example/a/b/p", "/abs/foo.jpg") == "https://h.example/abs/foo.jpg"


def test_unique_name_quirks():
    assert naming.unique_name(2, 5, "http://h/x/y.tar.gz") == "2-5.gz"
    with pytest.raises(naming.NamingError):
        naming.unique_name(1, 1, "http://h/ends.")  # dot at end → no suffix
    with pytest.raises(naming.NamingError):
        naming.unique_name(1, 1, "http://h/nodot")  # whole path becomes "ext" → '/' panic parity


def test_av_tag_dedup_identical_reoffer():
    names, errors = naming.av_tag_names(["http://h/a/x.mp4", "http://h/a/x.mp4"])
    assert names == {"http://h/a/x.mp4": "x.mp4"} and errors == []
    # one bad src must not abort the tag (crawler_src.go:170-174 parity)
    names2, errors2 = naming.av_tag_names(["http://h/a/", "http://h/a/y.mp4"])
    assert names2 == {"http://h/a/y.mp4": "y.mp4"}
    assert len(errors2) == 1 and errors2[0][0] == "http://h/a/"


def test_header_filename():
    assert naming.header_filename(['attachment; filename="report.pdf"']) == "report.pdf"
    with pytest.raises(naming.NamingError):
        naming.header_filename(["attachment"])
    with pytest.raises(naming.NamingError):
        naming.header_filename(['attachment; filename="a/b"'])
