"""Checks of the program's outputs against results computed apart from it.

Nothing here calls into ``bbcrawl_ray`` except to obtain inputs (the
synthetic page bodies and the query SQL the oracle runs): page URLs are
re-derived from the reference QueryPager rule, span sequences from a
stdlib ``html.parser`` walk, query results from DuckDB. Every checker
returns a list of failure messages; an empty list means the output
passed. ``perfbench/selftest.py`` shows that each checker rejects a
perturbed output.
"""

from __future__ import annotations

import re
from html.parser import HTMLParser
from urllib.parse import parse_qsl, urlencode, urljoin, urlsplit

ATTACHMENT_ID = re.compile(r"^attachment[0-9]+$")
MEDIA_TAGS = ("img", "audio", "video", "source", "track")


# -- crawl: page URLs --------------------------------------------------------


def query_pager_urls(blueprint: str, start: int, end: int, name: str = "page") -> list[str]:
    """The reference QueryPager: set ``name`` to start..end, re-encode the
    query with keys sorted and values form-escaped (Go ``Values.Encode``)."""
    base, _, query = blueprint.partition("?")
    pairs = [(k, v) for k, v in parse_qsl(query, keep_blank_values=True) if k != name]
    out = []
    for page in range(start, end + 1):
        q = sorted(pairs + [(name, str(page))], key=lambda kv: kv[0])
        out.append(f"{base}?{urlencode(q)}")
    return out


# -- crawl: span sequences (FIXTURES.md §F3) ---------------------------------


class _SpanWalk(HTMLParser):
    def __init__(self, page_url: str):
        super().__init__(convert_charrefs=True)
        self.page_url = page_url
        self.spans: list[tuple[str, str, str]] = []

    def handle_starttag(self, tag, attrs):
        a = dict(attrs)
        node_id = a.get("id") or ""
        if node_id and ATTACHMENT_ID.match(node_id):
            if a.get("href"):
                self.spans.append(("attachment", "", urljoin(self.page_url, a["href"])))
            return
        if tag in MEDIA_TAGS and a.get("src"):
            self.spans.append((tag, "", urljoin(self.page_url, a["src"])))

    def handle_startendtag(self, tag, attrs):
        self.handle_starttag(tag, attrs)

    def handle_data(self, data):
        t = data.strip()
        if t:
            self.spans.append(("text", t, ""))


def expected_spans(page_url: str, html: str) -> list[tuple[str, str, str, int]]:
    """(kind, text, media_ref, offset) in document order, offsets 0..n-1."""
    w = _SpanWalk(page_url)
    w.feed(html)
    w.close()
    return [(k, t, r, i) for i, (k, t, r) in enumerate(w.spans)]


def spans_of_doc(spans: list[dict]) -> list[tuple[str, str, str, int]]:
    return [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in spans]


def check_bounded(docs: list[dict], expected_urls: set[str], html_of, sample: list[str]) -> list[str]:
    """``docs``: rows with doc_id, url, spans. ``html_of(url)`` gives the
    page body the synthetic transport serves for ``url``."""
    bad = []
    if len(docs) != len(expected_urls):
        bad.append(f"doc count {len(docs)} != hosts x pages {len(expected_urls)}")
    ids = [d["doc_id"] for d in docs]
    if len(set(ids)) != len(ids):
        bad.append(f"{len(ids) - len(set(ids))} duplicate doc_ids")
    urls = {d["url"] for d in docs}
    if urls != expected_urls:
        bad.append(
            f"doc URLs differ from the QueryPager expansion: "
            f"{len(urls - expected_urls)} unexpected, {len(expected_urls - urls)} missing"
        )
    by_url = {d["url"]: d for d in docs}
    for url in sample:
        d = by_url.get(url)
        if d is None:
            continue  # already reported as missing
        got = spans_of_doc(d["spans"])
        want = expected_spans(url, html_of(url))
        if got != want:
            bad.append(f"span sequence of {url} differs from the html.parser walk")
    return bad


# -- crawl: frontier epochs --------------------------------------------------


def check_frontier(
    epochs: list[list[dict]],
    hot_host: str,
    cold_hosts: list[str],
    cold_pages: int,
    budget: int,
    delay: float,
    epoch_walls: list[float],
) -> list[str]:
    """``epochs[e]``: the doc rows (url) parsed in epoch ``e``."""
    bad = []
    host = lambda u: (urlsplit(u).hostname or "").lower()  # noqa: E731
    for e, docs in enumerate(epochs):
        hot = sum(1 for d in docs if host(d["url"]) == hot_host)
        if hot != budget:
            bad.append(f"epoch {e}: hot host parsed {hot} pages, budget is {budget}")
    cold = set(cold_hosts)
    cold0 = sum(1 for d in epochs[0] if host(d["url"]) in cold) if epochs else 0
    if cold0 != len(cold_hosts) * cold_pages:
        bad.append(f"epoch 0: cold hosts parsed {cold0}, expected {len(cold_hosts) * cold_pages}")
    seen: set[str] = set()
    for e, docs in enumerate(epochs):
        urls = [d["url"] for d in docs]
        twice = len(urls) - len(set(urls)) + len(set(urls) & seen)
        if twice:
            bad.append(f"epoch {e}: {twice} URLs parsed twice")
        seen.update(urls)
    floor = (budget - 1) * delay
    for e, w in enumerate(epoch_walls):
        if w < floor:
            bad.append(f"epoch {e}: wall {w:.3f}s below the politeness floor {floor:.3f}s")
    return bad


def check_resume(resumed: list[dict], uninterrupted: list[dict]) -> list[str]:
    """The resumed epoch must parse exactly the uninterrupted epoch's docs."""
    a = sorted(d["url"] for d in resumed)
    b = sorted(d["url"] for d in uninterrupted)
    if a == b:
        return []
    return [
        f"resumed epoch parsed {len(a)} docs, uninterrupted {len(b)} "
        f"({len(set(b) - set(a))} missing, {len(set(a) - set(b))} extra)"
    ]


# -- queries -----------------------------------------------------------------


def canonical(df):
    """Column order, row order and index removed; NaN-safe."""
    cols = sorted(df.columns)
    df = df[cols]
    return df.sort_values(cols, kind="mergesort", na_position="first").reset_index(drop=True)


def check_frame(got, want) -> list[str]:
    import pandas as pd

    if sorted(got.columns) != sorted(want.columns):
        return [f"columns {sorted(got.columns)} != oracle {sorted(want.columns)}"]
    if len(got) != len(want):
        return [f"{len(got)} rows != oracle {len(want)} rows"]
    try:
        pd.testing.assert_frame_equal(
            canonical(got), canonical(want), check_dtype=False, check_exact=False, rtol=1e-9
        )
    except AssertionError as e:
        return [f"values differ from the oracle: {str(e).splitlines()[0]}"]
    return []


def check_clusters(clusters, distributed) -> list[str]:
    """minhash_clusters: equal to the distributed variant, and a partition."""
    bad = []
    if len(clusters) != len(distributed) or not canonical(clusters).equals(canonical(distributed)):
        bad.append("minhash_clusters differs from minhash_clusters_distributed")
    ids = clusters["doc_id"].tolist()
    if len(set(ids)) != len(ids):
        bad.append("minhash clusters are not a partition: a doc is in two clusters")
    return bad


def check_simhash_pairs(pairs, docs) -> list[str]:
    """Pairs unique and ordered (left < right); every identical-text pair present."""
    bad = []
    p = list(zip(pairs["left_id"].tolist(), pairs["right_id"].tolist()))
    if len(set(p)) != len(p):
        bad.append("simhash_pairs has duplicate pairs")
    if any(a >= b for a, b in p):
        bad.append("simhash_pairs has a pair with left_id >= right_id")
    by_text: dict[str, list[int]] = {}
    for i, t in zip(docs["doc_id"].tolist(), docs["text"].tolist()):
        by_text.setdefault(t, []).append(i)
    have = set(p)
    missing = 0
    for ids in by_text.values():
        ids = sorted(ids)
        for x in range(len(ids)):
            for y in range(x + 1, len(ids)):
                if (ids[x], ids[y]) not in have:
                    missing += 1
    if missing:
        bad.append(f"simhash_pairs misses {missing} identical-text pairs")
    return bad


def check_fingerprints(fps, docs) -> list[str]:
    bad = []
    ids = fps["doc_id"].tolist()
    if len(ids) != len(set(ids)) or set(ids) != set(docs["doc_id"].tolist()):
        bad.append("doc_fingerprints is not one row per document")
        return bad
    fp_of = dict(zip(ids, fps["fingerprint"].tolist()))
    by_text: dict[str, set] = {}
    for i, t in zip(docs["doc_id"].tolist(), docs["text"].tolist()):
        by_text.setdefault(t, set()).add(fp_of[i])
    if any(len(v) > 1 for v in by_text.values()):
        bad.append("identical texts got different fingerprints")
    return bad
