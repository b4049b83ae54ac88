#!/usr/bin/env python
"""Dedup scale probe: run the near-dup suite on a corpus 10x the bench
scale with a 10x duplication rate.

Builds a 50k-doc corpus by cloning sf0.1's 5k documents ten times with
distinct doc_ids (every text has exactly 10 copies), which drives the
candidate-pair count past the broadcast/driver gates so the JOIN verify
tier and distributed label-propagation CC run — the paths a web-scale
dup rate exercises. Prints one JSON line with wall times + result
sanity (every 10-clone set must land in one cluster).

Usage: python tools/scale_probe.py [--out PROBE_rN.json]  [RAY_GRAFT_CPUS=4]

With ``--out`` the JSON line is ALSO written to the given file — the
machine-readable cross-round artifact (op, corpus, wall seconds,
row counts and an order-insensitive output hash per op), so dedup-at-
dup-rate comparisons stop depending on BASELINE.md prose.
"""

import hashlib
import json
import os
import sys
import time


def table_hash(df) -> str:
    """Order-insensitive sha256 of a small result frame: columns sorted
    by name, rows sorted by value, then a CANONICAL per-column encoding
    — integers/bools cast to int64 bytes, floats to float64 bytes,
    everything else to utf-8 strings. (A to_csv rendering would tie the
    hash to pandas float repr / dtype-width drift across versions and
    fake cross-round regressions — ADVICE r4.)"""
    import numpy as np
    import pandas as pd

    d = df[sorted(df.columns)]
    if len(d):
        d = d.sort_values(list(d.columns), kind="mergesort")
    h = hashlib.sha256()
    h.update(("|".join(map(str, d.columns))).encode())
    for c in d.columns:
        col = d[c]
        h.update(b"\x00" + str(c).encode() + b"\x00")
        if pd.api.types.is_bool_dtype(col) or pd.api.types.is_integer_dtype(col):
            h.update(np.ascontiguousarray(col.to_numpy(dtype=np.int64)).tobytes())
        elif pd.api.types.is_float_dtype(col):
            h.update(np.ascontiguousarray(col.to_numpy(dtype=np.float64)).tobytes())
        else:
            h.update("\x1f".join(col.astype(str)).encode())
    return h.hexdigest()[:16]

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", len(os.sched_getaffinity(0)))),
            include_dashboard=False,
            logging_level="ERROR",
        )
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False

    import pandas as pd

    from bbcrawl_ray.pipelines.relops import read_table
    from bbcrawl_ray.stages import dedup as D

    sf = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    base = read_table(sf, "documents", columns=["doc_id", "text"]).to_pandas()
    n_base = len(base)
    clones = pd.concat(
        [base.assign(doc_id=base["doc_id"] + i * n_base) for i in range(10)],
        ignore_index=True,
    )
    ds = rd.from_pandas(clones).repartition(64).materialize()
    out: dict = {"n_docs": len(clones), "n_base": n_base}

    t0 = time.perf_counter()
    exact = D.exact_dedup(ds, key="text").to_pandas()
    out["exact_s"] = round(time.perf_counter() - t0, 2)
    out["exact_groups"] = len(exact)
    out["exact_hash"] = table_hash(exact)
    assert (exact["dup_count"] >= 10).all(), "every text has 10 clones"

    t0 = time.perf_counter()
    clusters = D.minhash_dedup(ds, threshold=0.5).to_pandas()
    out["minhash_gated_s"] = round(time.perf_counter() - t0, 2)
    out["minhash_rows"] = len(clusters)
    out["minhash_hash"] = table_hash(clusters)
    # sanity: the 10 clones of any base doc share a cluster
    cl = clusters.set_index("doc_id")["cluster_id"]
    probe_ids = base["doc_id"].iloc[:50]
    for d in probe_ids:
        cids = {cl.get(d + i * n_base) for i in range(10)}
        cids.discard(None)
        assert len(cids) <= 1, f"clone set of {d} split across clusters: {cids}"

    t0 = time.perf_counter()
    dist = D.minhash_dedup(
        ds, threshold=0.5, broadcast_gates=False, cc_driver_gate=None
    ).to_pandas()
    out["minhash_distributed_s"] = round(time.perf_counter() - t0, 2)
    out["minhash_distributed_hash"] = table_hash(dist)
    assert len(dist) == len(clusters), "gated vs distributed row-count parity"
    assert out["minhash_distributed_hash"] == out["minhash_hash"], "bit-identical outputs"

    t0 = time.perf_counter()
    sh = D.simhash_near_dup(ds, max_hamming=10).to_pandas()
    out["simhash_s"] = round(time.perf_counter() - t0, 2)
    out["simhash_pairs"] = len(sh)
    out["simhash_hash"] = table_hash(sh)

    t0 = time.perf_counter()
    ng = D.ngram_jaccard_pairs(ds, n=3, threshold_num=1, threshold_den=2).to_pandas()
    out["ngram_s"] = round(time.perf_counter() - t0, 2)
    out["ngram_pairs"] = len(ng)
    out["ngram_hash"] = table_hash(ng)

    # as-of stress at 10x the bench event volume: exercises the
    # data-sized shard derivation (round-2 verdict #2) well past the
    # bench scale — 1M events against 1.5M orders through the tagged
    # union + coarse-shard asof
    from bbcrawl_ray.pipelines import relops as R

    ev = read_table(sf, "events", columns=["event_id", "user_id", "ts"]).to_pandas()
    ne = len(ev)
    ev10 = pd.concat(
        [ev.assign(event_id=ev["event_id"] + i * ne) for i in range(10)],
        ignore_index=True,
    )
    orders = read_table(sf, "orders", columns=["o_custkey", "o_orderkey", "o_orderdate"])
    ev_ds = rd.from_pandas(ev10).repartition(64).materialize()
    t0 = time.perf_counter()
    asof = R.asof_join(
        ev_ds,
        orders,
        key="user_id",
        left_time="ts",
        right_time="o_orderdate",
        value_cols=["o_orderkey"],
        right_key="o_custkey",
        value_casts={"o_orderkey": "int64"},
    )
    out["asof_10x_rows"] = asof.count()
    out["asof_10x_s"] = round(time.perf_counter() - t0, 2)

    out["corpus"] = f"{sf} documents x10 clones"
    out["num_cpus"] = int(ray.cluster_resources().get("CPU", 0))
    line = json.dumps(out)
    print(line)
    if "--out" in sys.argv:
        path = sys.argv[sys.argv.index("--out") + 1]
        with open(path, "w") as f:
            f.write(line + "\n")
    ray.shutdown()


if __name__ == "__main__":
    main()
