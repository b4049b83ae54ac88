"""Self-test of the benchmark's checkers.

    python3 perfbench/run.py --selftest

Each checker must accept the program's real output and reject one
perturbed copy of it: a dropped span, two swapped span offsets, a
dropped oracle row and a URL parsed twice (plus the other checkers'
own perturbations). Runs in-process without Ray in a few seconds; exits
non-zero when a checker accepts a perturbed output or rejects a good one.
"""

from __future__ import annotations

import copy
import sys

import pandas as pd

from perfbench import checks


def _parsed_docs(urls: list[str]) -> list[dict]:
    """The program's own fetch + parse of ``urls``, called in-process."""
    import pyarrow as pa

    from bbcrawl_ray.cli.partition import CrawlerSpec
    from bbcrawl_ray.stages.fetch import FetchConfig, Fetcher
    from bbcrawl_ray.stages.parse import ParsePages

    batch = pa.table(
        {
            "url": urls,
            "host": ["forum0.example"] * len(urls),
            "seed_id": ["s000"] * len(urls),
            "page_num": list(range(1, len(urls) + 1)),
        }
    )
    pages = Fetcher(FetchConfig())(batch)
    out = ParsePages(CrawlerSpec(crawler="src", tags=["img"]))(pages)
    return [r for r in out.to_pylist() if r["record_kind"] == "doc"]


def cases():
    """(description, must_pass, failures) for every checker run."""
    from bbcrawl_ray.sources.corpus import CorpusConfig, synth_thread_html

    corpus = CorpusConfig()
    html_of = lambda u: synth_thread_html(u, corpus)  # noqa: E731
    urls = checks.query_pager_urls("http://forum0.example/t?t=7", 1, 4)
    docs = _parsed_docs(urls)
    expected = set(urls)
    yield "bounded: program output", True, checks.check_bounded(docs, expected, html_of, urls)

    dropped = copy.deepcopy(docs)
    del dropped[1]["spans"][3]
    for i, s in enumerate(dropped[1]["spans"]):
        s["offset"] = i
    yield "bounded: a dropped span", False, checks.check_bounded(dropped, expected, html_of, urls)

    swapped = copy.deepcopy(docs)
    sp = swapped[2]["spans"]
    sp[0]["offset"], sp[1]["offset"] = sp[1]["offset"], sp[0]["offset"]
    yield "bounded: two swapped offsets", False, checks.check_bounded(swapped, expected, html_of, urls)

    missing = docs[:-1]
    yield "bounded: a missing page", False, checks.check_bounded(missing, expected, html_of, urls)

    want = pd.DataFrame({"k": [1, 2, 3], "cents": [100, 250, 7]})
    got = want.sample(frac=1.0, random_state=1)[["cents", "k"]]
    yield "oracle: reordered rows and columns", True, checks.check_frame(got, want)
    yield "oracle: a dropped row", False, checks.check_frame(got.iloc[:-1], want)
    changed = got.copy()
    changed.iloc[0, 0] += 1
    yield "oracle: a changed value", False, checks.check_frame(changed, want)

    hot = [{"url": f"http://hot.example/p/{i}.html"} for i in range(6)]
    cold = [{"url": f"http://cold0.example/t?page={i}"} for i in range(3)]
    epochs = [hot[:2] + cold, hot[2:4], hot[4:6]]
    args = ("hot.example", ["cold0.example"], 3, 2, 0.001, [1.0, 1.0, 1.0])
    yield "frontier: good epochs", True, checks.check_frontier(epochs, *args)
    twice = [hot[:2] + cold, hot[2:4], [hot[4], hot[1]]]
    yield "frontier: a URL parsed twice", False, checks.check_frontier(twice, *args)
    yield "frontier: resume equal", True, checks.check_resume(hot[4:6], hot[4:6])
    yield "frontier: resume short", False, checks.check_resume(hot[4:5], hot[4:6])

    texts = pd.DataFrame({"doc_id": [1, 2, 3, 4], "text": ["a b", "c d", "a b", "e"]})
    pairs = pd.DataFrame({"left_id": [1], "right_id": [3]})
    yield "simhash: good pairs", True, checks.check_simhash_pairs(pairs, texts)
    yield "simhash: a reversed pair", False, checks.check_simhash_pairs(
        pd.DataFrame({"left_id": [3, 1], "right_id": [1, 3]}), texts
    )
    yield "simhash: a missed identical pair", False, checks.check_simhash_pairs(
        pairs.iloc[:0], texts
    )
    fps = pd.DataFrame({"doc_id": [1, 2, 3, 4], "fingerprint": [9, 8, 9, 7]})
    yield "fingerprints: good", True, checks.check_fingerprints(fps, texts)
    yield "fingerprints: identical texts differ", False, checks.check_fingerprints(
        fps.assign(fingerprint=[9, 8, 6, 7]), texts
    )
    clusters = pd.DataFrame({"doc_id": [1, 3], "cluster_id": [1, 1]})
    yield "clusters: good", True, checks.check_clusters(clusters, clusters)
    overlapping = pd.DataFrame({"doc_id": [1, 3, 3], "cluster_id": [1, 1, 3]})
    yield "clusters: a doc in two clusters", False, checks.check_clusters(overlapping, overlapping)
    yield "clusters: differ from distributed", False, checks.check_clusters(clusters.iloc[:1], clusters)


def main() -> int:
    bad = 0
    for name, must_pass, failures in cases():
        ok = (not failures) == must_pass
        bad += not ok
        verdict = "ok  " if ok else "FAIL"
        print(f"{verdict} {name}: {'accepted' if not failures else failures[0]}")
    print(f"selftest: {bad} checker(s) misjudged")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
