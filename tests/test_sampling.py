"""Sampling + HLL sketch operator tests."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd


def test_hll_accuracy_and_merge(ray_session):
    from bbcrawl_ray.stages.sampling import HllSketch, approx_distinct

    rng = np.random.default_rng(5)
    n_distinct = 20_000
    vals = rng.integers(0, n_distinct, size=60_000)  # heavy repeats
    true_distinct = len(np.unique(vals))
    ds = rd.from_arrow(pa.table({"v": pa.array(vals, pa.int64())})).repartition(8)
    est = approx_distinct(ds, "v", p=12)
    assert abs(est - true_distinct) / true_distinct < 0.05

    # mergeability: union estimate == sketch-of-union estimate
    a, b = HllSketch(10), HllSketch(10)
    u = HllSketch(10)
    h1 = rng.integers(0, 2**63, size=5000, dtype=np.int64).astype(np.uint64)
    h2 = rng.integers(0, 2**63, size=5000, dtype=np.int64).astype(np.uint64)
    a.add_hashes(h1)
    b.add_hashes(h2)
    u.add_hashes(np.concatenate([h1, h2]))
    assert a.merge(b).estimate() == u.estimate()


def test_key_mod_sample(ray_session):
    from bbcrawl_ray.stages.sampling import key_mod_sample

    ds = rd.range(1000).map_batches(
        lambda t: pa.table({"k": t["id"]}), batch_format="pyarrow"
    )
    out = key_mod_sample(ds, "k", 10, 3).to_pandas()
    assert len(out) == 300
    assert set(out["k"] % 10) == {0, 1, 2}


def test_stratified_sample_deterministic(ray_session):
    from bbcrawl_ray.stages.sampling import stratified_sample

    tbl = pa.table(
        {
            "stratum": pa.array(["a"] * 50 + ["b"] * 5),
            "k": pa.array(list(range(50)) + list(range(100, 105)), pa.int64()),
        }
    )
    ds = rd.from_arrow(tbl).repartition(4)
    out = stratified_sample(ds, "stratum", ["k"], 10).to_pandas()
    assert len(out[out.stratum == "a"]) == 10
    assert len(out[out.stratum == "b"]) == 5  # fewer rows than n → keep all
    # deterministic across runs / partitionings
    out2 = stratified_sample(rd.from_arrow(tbl), "stratum", ["k"], 10).to_pandas()
    assert sorted(out[out.stratum == "a"]["k"]) == sorted(out2[out2.stratum == "a"]["k"])


def test_count_min_sketch_bounds():
    import numpy as np

    from bbcrawl_ray.stages.sampling import CountMinSketch

    rng = np.random.default_rng(5)
    keys = rng.integers(0, 2**63, size=5000, dtype=np.int64).astype(np.uint64)
    true = {}
    sk = CountMinSketch(width=2048, depth=4)
    for rep, k in ((7, keys[0]), (3, keys[1]), (1, keys[2])):
        sk.add_hashes(np.repeat(np.array([k], dtype=np.uint64), rep))
        true[int(k)] = rep
    sk.add_hashes(keys[3:])  # background noise
    probe = keys[:3]
    est = sk.estimate_hashes(probe)
    for e, k in zip(est, probe):
        assert e >= true[int(k)]                 # never under-counts
        assert e <= true[int(k)] + 5000 * 3 / 2048 + 1  # eps*N slack
    # merge(a, b) == sketch of the union
    a, b = CountMinSketch(512, 3), CountMinSketch(512, 3)
    a.add_hashes(keys[:100]); b.add_hashes(keys[100:200])
    both = CountMinSketch(512, 3); both.add_hashes(keys[:200])
    assert (a.merge(b).counts == both.counts).all()


def test_approx_token_counts(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from bbcrawl_ray.stages.sampling import approx_token_counts

    docs = ["the quick fox", "the lazy dog", "the fox again"] * 50
    ds = rd.from_arrow(pa.table({"text": pa.array(docs, pa.string())})).repartition(4)
    est = approx_token_counts(ds, "text", ["the", "fox", "missing"])
    assert est["the"] >= 150 and est["fox"] >= 100
    assert est["the"] <= 160 and est["fox"] <= 110  # tiny corpus: near-exact
    assert est["missing"] <= 5


def test_kll_rank_error_bound():
    """Merged-sketch quantile estimates stay within 1.5% rank error on a
    200k-value stream split across 64 sketches (KLL k=200 gives ~1%)."""
    import numpy as np

    from bbcrawl_ray.stages.sampling import KllSketch

    rng = np.random.default_rng(7)
    data = rng.normal(100, 25, 200_000)
    merged = KllSketch(200)
    for part in np.array_split(data, 64):
        sk = KllSketch(200)
        sk.add(part)
        # round-trip through bytes: the merge path always sees
        # deserialized sketches in the Dataset reduce
        merged = merged.merge(KllSketch.from_bytes(200, sk.to_bytes()))
    qs = [0.01, 0.25, 0.5, 0.75, 0.9, 0.99]
    est = merged.quantiles(qs)
    sorted_d = np.sort(data)
    for q, e in zip(qs, est):
        realized = np.searchsorted(sorted_d, e) / len(data)
        assert abs(realized - q) < 0.015, (q, e, realized)
    # sketch stays O(k log n), nowhere near the stream size
    assert merged.n_stored() < 3000


def test_kll_deterministic_and_empty():
    import numpy as np

    from bbcrawl_ray.stages.sampling import KllSketch

    data = np.arange(10_000, dtype=np.float64)
    a, b = KllSketch(100), KllSketch(100)
    a.add(data)
    b.add(data)
    assert (a.quantiles([0.1, 0.5, 0.9]) == b.quantiles([0.1, 0.5, 0.9])).all()
    empty = KllSketch(100)
    assert np.isnan(empty.quantiles([0.5])).all()
    # NaN inputs are dropped, not propagated
    c = KllSketch(100)
    c.add(np.array([np.nan, 1.0, 2.0, 3.0, np.nan]))
    assert c.n_stored() == 3


def test_approx_quantiles_entry(ray_session, sf_dir):
    from bbcrawl_ray.pipelines.queries_text import q_approx_quantiles

    out = q_approx_quantiles(sf_dir)
    assert list(out.columns) == ["q", "exact_cents", "kll_cents", "rank_err"]
    assert len(out) == 5
    # realized rank error within the sketch's design bound
    assert (out["rank_err"] < 0.02).all(), out


def test_grouped_approx_quantiles_rank_error(ray_session, sf_dir):
    """Per-group KLL estimates stay within 2% rank error of each group's
    true distribution (checked against the raw per-group values)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from bbcrawl_ray.pipelines import relops as R
    from bbcrawl_ray.stages.sampling import grouped_approx_quantiles

    ds = R.read_table(sf_dir, "lineitem", columns=["l_returnflag", "l_extendedprice"])
    cents_ds = ds.map_batches(
        lambda t: pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "cents": pc.cast(R.cents(t["l_extendedprice"]), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    est = grouped_approx_quantiles(cents_ds, "l_returnflag", "cents", qs=(0.5, 0.9))
    est = est.to_pandas().set_index("l_returnflag")
    raw = cents_ds.to_pandas()
    for flag, grp in raw.groupby("l_returnflag"):
        vals = np.sort(grp["cents"].to_numpy())
        for q, col in ((0.5, "p50_est"), (0.9, "p90_est")):
            realized = np.searchsorted(vals, est.loc[flag, col], side="right") / len(vals)
            assert abs(realized - q) < 0.02, (flag, q, realized)


def test_grouped_approx_quantiles_null_keys(ray_session):
    """Null group keys form a group (like the Arrow exact paths) instead
    of being silently dropped by the pandas default."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from bbcrawl_ray.stages.sampling import grouped_approx_quantiles

    t = pa.table(
        {
            "k": pa.array(["a", "a", None, None, "b"], pa.string()),
            "v": pa.array([1.0, 3.0, 10.0, 20.0, 5.0], pa.float64()),
        }
    )
    out = grouped_approx_quantiles(rd.from_arrow(t), "k", "v", qs=(0.5,)).to_pandas()
    assert len(out) == 3
    null_row = out[out["k"].isna()]
    assert len(null_row) == 1
    assert float(null_row["p50_est"].iloc[0]) in (10.0, 20.0)


def test_weighted_sample_biases_toward_weight(ray_session, sf_dir):
    """The weighted sample overrepresents high-weight rows: sampled mean
    weight must exceed the population mean."""
    from bbcrawl_ray.pipelines import relops as R
    from bbcrawl_ray.stages.sampling import weighted_sample

    ds = R.read_table(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    pop_mean = ds.to_pandas()["o_totalprice"].mean()
    samp = weighted_sample(ds, "o_orderkey", "o_totalprice", 100).to_pandas()
    assert len(samp) == 100
    assert samp["o_orderkey"].is_unique
    assert samp["o_totalprice"].mean() > pop_mean


def test_grouped_approx_distinct_error(ray_session, sf_dir):
    """Per-group HLL estimates land within the sketch's design error
    (~1.6% at p=12; allow 5%) of the exact distinct counts."""
    from bbcrawl_ray.pipelines.queries_text import q_grouped_approx_distinct

    out = q_grouped_approx_distinct(sf_dir)
    assert len(out) >= 2
    assert (out["rel_err"] < 0.05).all(), out


def test_kll_merges_ignore_block_order(ray_session):
    """KLL compaction depends on merge order, so both KLL entries merge
    a key's sketches in byte order: the same blocks in reverse order
    give the same estimates."""
    from bbcrawl_ray.stages.sampling import approx_quantiles, grouped_approx_quantiles

    rng = np.random.default_rng(11)
    blocks = [
        pa.table(
            {
                "k": pa.array(["a", "b"] * 1500),
                "v": pa.array(rng.lognormal(3 + i / 4, 1, 3000)),
            }
        )
        for i in range(8)
    ]
    runs = []
    for order in (blocks, blocks[::-1]):
        est = grouped_approx_quantiles(rd.from_arrow(order), "k", "v", qs=(0.5, 0.9), sketch_k=32)
        est = est.to_pandas().sort_values("k").reset_index(drop=True)
        runs.append((est, approx_quantiles(rd.from_arrow(order), "v", [0.5, 0.9], k=32)))
    (g1, q1), (g2, q2) = runs
    assert g1[["p50_est", "p90_est"]].equals(g2[["p50_est", "p90_est"]])
    assert (q1 == q2).all()


@pytest.mark.parametrize(
    "make",
    [
        lambda S: (S.HllSketch(10), S.HllSketch(12)),
        lambda S: (S.CountMinSketch(512, 3), S.CountMinSketch(512, 4)),
        lambda S: (S.KllSketch(100), S.KllSketch(200)),
    ],
    ids=["hll", "count_min", "kll"],
)
def test_sketch_merge_rejects_mismatched_parameters(make):
    """Merging sketches of different parameters raises ``ValueError`` —
    a hard limit that ``python -O`` cannot strip, as it strips asserts."""
    from bbcrawl_ray.stages import sampling

    a, b = make(sampling)
    with pytest.raises(ValueError):
        a.merge(b)
