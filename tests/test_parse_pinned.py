"""Pinned ParsePages output: a fixed batch of pages, hashed.

The hashes were taken on the tree-walking extractor that the flat
pre-order document replaced; any change to spans, manifest rows,
discovered links, their order or the output schema changes them.
Pure Python (no Ray): the batch function is called directly.
"""

import hashlib
import json

import pyarrow as pa

from bbcrawl_ray.cli.partition import CrawlerSpec
from bbcrawl_ray.sources.corpus import CorpusConfig, synth_thread_html
from bbcrawl_ray.stages.parse import ParsePages

# constructs the synthetic corpus does not emit: nested media, a
# media tag carrying an attachment id, stray '<', entities, unclosed
# elements, a posts container nested in a post, a protocol-relative
# src and a <script> (which sends the page to the stdlib builder)
EXTRA_PAGES = [
    """<html><body><p>a &amp; b &lt; c</p>
<video id="v1" class="post-image"><source src="/m/a.mp4"><video src="/m/in.mp4">
<source src="/m/a.mp4"><track src="//cdn.example/t.vtt"></video>
<source src="http://abs.example/b.webm"></video>
<audio src="/m/only.mp3"></audio><audio><source src="/m/s.ogg"></audio>
<img id="attachment5" src="/m/skip.jpg" href="/m/att5.bin">
<img src="?q=1"><img src=""><img src="/dup.jpg"><img src="/x/dup.jpg">
<div id="posts"><div id="post_1">one <a id="attachment1" href="/f/1.zip">f</a>
<div id="post2"><a id="attachment2">no href</a><a id="attachment3" href="/f/">dir</a></div>
<a href="#frag">frag</a><a href="/t?page=2">next</a></div></div>
<p>unclosed <div><span>deep a < b</body></html>""",
    """<html><head><script>var s = '<img src="fake.jpg">';</script></head>
<body><div id="posts"><div id="post_77"><img src="/real.jpg">
<a id="attachment770" href="/attach/f770.zip">att</a><a href="/t2">t2</a>
</div></div></body></html>""",
    "plain text page, no markup",
    "",
]


def _batch() -> pa.Table:
    cfg = CorpusConfig()
    urls, bodies, encs, errs = [], [], [], []
    for h in range(3):
        for p in range(1, 7):
            url = f"http://forum{h}.example/t?page={p}"
            urls.append(url)
            bodies.append(synth_thread_html(url, cfg).encode())
            encs.append("utf-8")
            errs.append("")
    for k, html in enumerate(EXTRA_PAGES):
        urls.append(f"http://edge.example/p{k}/page")
        bodies.append(html.encode())
        encs.append("utf-8")
        errs.append("")
    urls += ["http://edge.example/latin", "http://edge.example/bad", "http://edge.example/down"]
    bodies += ["<p>café</p><img src='/c.jpg'>".encode("latin-1"), b"<p>x</p>", b""]
    encs += ["iso-8859-1", "no-such-charset", "utf-8"]
    errs += ["", "", "HTTP 503"]
    n = len(urls)
    return pa.table(
        {
            "url": urls,
            "seed_id": [f"s{i % 4}" for i in range(n)],
            "page_num": list(range(1, n + 1)),
            "error": errs,
            "encoding": encs,
            "body": pa.array(bodies, pa.binary()),
        }
    )


def _digest(out: pa.Table) -> str:
    blob = json.dumps([str(out.schema), out.to_pylist()], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def test_src_with_links_output_pinned():
    spec = CrawlerSpec(
        crawler="src",
        tags=["img", "audio", "video"],
        exclude=["http://forum0.example/img/p0-0.jpg", "http://edge.example/m/only.mp3"],
    )
    out = ParsePages(spec, discover_links=True)(_batch())
    assert _digest(out) == "33dc3e91e4dc356e"


def test_src_attr_filter_output_pinned():
    spec = CrawlerSpec(crawler="src", tags=["img", "video"], attrs={"class": ["post-image"]})
    out = ParsePages(spec)(_batch())
    assert _digest(out) == "202c98974bde3a8a"


def test_vb_attachments_output_pinned():
    out = ParsePages(CrawlerSpec(crawler="vb-attachments"))(_batch())
    assert _digest(out) == "aa4a5c9ec9d42f80"
    named = ParsePages(CrawlerSpec(crawler="vb-attachments", names_from_header=True))(_batch())
    assert _digest(named) == "5841f47c7b2d7bb8"
