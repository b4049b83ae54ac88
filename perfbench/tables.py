"""Seeded generator of the TPC-H-ish tables the query lines read.

Same schemas and value domains as the tables the queries were written
against (``region nation customer supplier part orders lineitem events
documents embeddings``, one parquet file each); row counts follow the
scale factor ``sf`` (lineitem has about 6M x sf rows). The same seed
and scale give byte-identical files. A small share of documents are
exact copies of others, so the dedup lines have duplicates to find.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
P_TYPES = ["ECONOMY", "LARGE", "MEDIUM", "PROMO", "SMALL", "STANDARD"]
P_ADJ = ["blue", "cold", "hot", "large", "new", "old", "red", "small"]
P_NOUN = ["anvil", "bolt", "gear", "gizmo", "plate", "ring", "rod", "widget"]
EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]
LANGS = ["en"] * 3 + ["de", "es", "fr", "zh"]
WORDS = (
    "a agg batch big column customer data fast filter group hash join key line "
    "merge order part query row scan slow small sort spark stream table the "
    "value vector window"
).split()
DAY_US = 86_400 * 10**6


def _ts(days: np.ndarray, base: str) -> pa.Array:
    t0 = np.datetime64(base, "us").astype(np.int64)
    return pa.array(t0 + days.astype(np.int64) * DAY_US, pa.timestamp("us"))


def _money(rng, lo, hi, n) -> np.ndarray:
    return np.round(rng.uniform(lo, hi, n), 2)


def make_tables(seed: int, sf: float) -> dict[str, pa.Table]:
    rng = np.random.default_rng(seed)
    n_cust = max(150, int(150_000 * sf))
    n_supp = max(10, int(10_000 * sf))
    n_part = max(200, int(200_000 * sf))
    n_ord = max(1500, int(1_500_000 * sf))
    n_line = max(6000, int(6_000_000 * sf))
    n_ev = max(1000, int(1_000_000 * sf))
    n_users = max(15, int(15_000 * sf))
    n_docs = max(500, int(50_000 * sf))
    n_vec = max(500, int(20_000 * sf))

    t: dict[str, pa.Table] = {}
    t["region"] = pa.table(
        {"r_regionkey": pa.array(range(5), pa.int32()), "r_name": pa.array(REGIONS)}
    )
    t["nation"] = pa.table(
        {
            "n_nationkey": pa.array(range(25), pa.int32()),
            "n_name": pa.array([f"NATION_{i}" for i in range(25)]),
            "n_regionkey": pa.array([i % 5 for i in range(25)], pa.int32()),
        }
    )
    t["customer"] = pa.table(
        {
            "c_custkey": pa.array(np.arange(n_cust), pa.int64()),
            "c_name": pa.array([f"Customer#{i:09d}" for i in range(n_cust)]),
            "c_nationkey": pa.array(rng.integers(0, 25, n_cust), pa.int32()),
            "c_acctbal": pa.array(_money(rng, -999.99, 9999.99, n_cust)),
            "c_mktsegment": pa.array(np.array(SEGMENTS)[rng.integers(0, 5, n_cust)]),
        }
    )
    t["supplier"] = pa.table(
        {
            "s_suppkey": pa.array(np.arange(n_supp), pa.int64()),
            "s_name": pa.array([f"Supplier#{i:09d}" for i in range(n_supp)]),
            "s_nationkey": pa.array(rng.integers(0, 25, n_supp), pa.int32()),
            "s_acctbal": pa.array(_money(rng, -999.99, 9999.99, n_supp)),
        }
    )
    adj, noun = rng.integers(0, 8, n_part), rng.integers(0, 8, n_part)
    t["part"] = pa.table(
        {
            "p_partkey": pa.array(np.arange(n_part), pa.int64()),
            "p_name": pa.array([f"{P_ADJ[a]} {P_NOUN[b]}" for a, b in zip(adj, noun)]),
            "p_brand": pa.array([f"Brand#{b}" for b in rng.integers(1, 26, n_part)]),
            "p_type": pa.array(np.array(P_TYPES)[rng.integers(0, 6, n_part)]),
            "p_size": pa.array(rng.integers(1, 51, n_part), pa.int32()),
            "p_retailprice": pa.array(np.round(900 + (np.arange(n_part) % 1000) / 10, 1)),
        }
    )
    t["orders"] = pa.table(
        {
            "o_orderkey": pa.array(np.arange(n_ord), pa.int64()),
            "o_custkey": pa.array(rng.integers(0, n_cust, n_ord), pa.int64()),
            "o_orderstatus": pa.array(np.array(["F", "O", "P"])[rng.integers(0, 3, n_ord)]),
            "o_totalprice": pa.array(_money(rng, 1000, 500_000, n_ord)),
            "o_orderdate": _ts(rng.integers(0, 2404, n_ord), "1995-01-01"),
            "o_orderpriority": pa.array(np.array(PRIORITIES)[rng.integers(0, 5, n_ord)]),
        }
    )
    t["lineitem"] = pa.table(
        {
            "l_orderkey": pa.array(rng.integers(0, n_ord, n_line), pa.int64()),
            "l_partkey": pa.array(rng.integers(0, n_part, n_line), pa.int64()),
            "l_suppkey": pa.array(rng.integers(0, n_supp, n_line), pa.int64()),
            "l_linenumber": pa.array(rng.integers(1, 8, n_line), pa.int32()),
            "l_quantity": pa.array(rng.integers(1, 51, n_line).astype(np.float64)),
            "l_extendedprice": pa.array(_money(rng, 900, 105_000, n_line)),
            "l_discount": pa.array(rng.integers(0, 11, n_line) / 100.0),
            "l_tax": pa.array(rng.integers(0, 9, n_line) / 100.0),
            "l_returnflag": pa.array(np.array(["A", "N", "R"])[rng.integers(0, 3, n_line)]),
            "l_linestatus": pa.array(np.array(["F", "O"])[rng.integers(0, 2, n_line)]),
            "l_shipdate": _ts(rng.integers(1, 2500, n_line), "1995-01-01"),
        }
    )
    ev_us = np.sort(rng.integers(0, 30 * DAY_US, n_ev))
    t["events"] = pa.table(
        {
            "event_id": pa.array(np.arange(n_ev), pa.int64()),
            "ts": pa.array(np.datetime64("2024-01-01", "us").astype(np.int64) + ev_us, pa.timestamp("us")),
            "user_id": pa.array(rng.integers(0, n_users, n_ev), pa.int64()),
            "event_type": pa.array(np.array(EVENT_TYPES)[rng.integers(0, 5, n_ev)]),
            "value": pa.array(_money(rng, 0.01, 490, n_ev)),
            "props": pa.array([f'{{"k": {k}}}' for k in rng.integers(0, 100, n_ev)]),
        }
    )
    texts = [
        " ".join(np.array(WORDS)[rng.integers(0, len(WORDS), int(k))])
        for k in rng.integers(10, 101, n_docs)
    ]
    # about 1 in 400 documents repeats an earlier one verbatim
    for i in rng.choice(np.arange(1, n_docs), max(2, n_docs // 400), replace=False):
        texts[i] = texts[int(rng.integers(0, i))]
    t["documents"] = pa.table(
        {
            "doc_id": pa.array(np.arange(n_docs), pa.int64()),
            "text": pa.array(texts),
            "lang": pa.array(np.array(LANGS)[rng.integers(0, len(LANGS), n_docs)]),
            "source": pa.array([f"src{i % 20}" for i in range(n_docs)]),
            "n_chars": pa.array([len(x) for x in texts], pa.int64()),
        }
    )
    labels = rng.integers(0, 10, n_vec)
    centers = rng.normal(0, 1, (10, 64))
    vecs = centers[labels] + rng.normal(0, 1.5, (n_vec, 64))
    vecs = (vecs / np.linalg.norm(vecs, axis=1, keepdims=True)).astype(np.float32)
    t["embeddings"] = pa.table(
        {
            "vec_id": pa.array(np.arange(n_vec), pa.int64()),
            "embedding": pa.array(list(vecs), pa.list_(pa.float32())),
            "label": pa.array(labels, pa.int32()),
        }
    )
    return t


def write_tables(out_dir: str, seed: int, sf: float) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name, table in make_tables(seed, sf).items():
        pq.write_table(table, os.path.join(out_dir, f"{name}.parquet"))
