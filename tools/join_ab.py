#!/usr/bin/env python
"""Join A/B: ``relops.hash_join`` (the two-sided task exchange) against
Ray Data's ``Dataset.join`` (hash-shuffle aggregator actors), called
directly as the reference.

Three shapes, rows/keys 1k/100, 400k/100k and 4M/1M: the left side
holds ``rows`` rows of random int64 keys in [0, keys) and an int64
payload, as a materialized 32-block input; the right side holds
``keys`` distinct keys shifted by keys/4 (so a quarter of the left
keys miss and a quarter of the right keys are unmatched) with an int64
payload, also materialized. Each shape runs ``inner`` and
``left_outer``.

Three variants per shape and join type, run alternately 5 times (wall
of the join plus materializing its output; inputs already
materialized):
  exchange        ``hash_join`` at the default ``SMALL_BYTES`` budget
                  (one reducer when both sides fit, else
                  ``data_sized_shards`` reducers);
  exchange_dist   ``hash_join`` with ``SMALL_BYTES`` = 0 (always the
                  distributed side);
  dataset_join    ``Dataset.join`` with num_partitions = max(2, min(16,
                  CPUs // 2)), the fan-out ``hash_join`` gave it before
                  it moved to the exchange.
Before timing, each variant's output is sorted and compared with
``Dataset.join``'s, values and dtypes.

Prints one JSON line per shape and join type (median, min and max
seconds per variant, output rows, equality), then a markdown table of
median [range].

Usage: python tools/join_ab.py [--runs N] [--shapes 1k,400k,4m]
       (RAY_GRAFT_CPUS sets the local cluster's CPUs)
"""

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SHAPES = {"1k": (1_000, 100), "400k": (400_000, 100_000), "4m": (4_000_000, 1_000_000)}
JOIN_TYPES = ("inner", "left_outer")
VARIANTS = ("exchange", "exchange_dist", "dataset_join")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--shapes", default=",".join(SHAPES))
    args = ap.parse_args()

    import logging

    import numpy as np
    import pandas as pd
    import pyarrow as pa
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
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from bbcrawl_ray.pipelines import relops as R

    cpus = int(ray.cluster_resources().get("CPU", 0))
    engine_parts = max(2, min(16, cpus // 2))
    default_budget = R.SMALL_BYTES
    rng = np.random.default_rng(0)
    table_rows = []
    for shape in args.shapes.split(","):
        rows, keys = SHAPES[shape]
        left = rd.from_arrow(
            pa.table({"k": rng.integers(0, keys, rows), "v": rng.integers(0, 1000, rows)})
        ).repartition(32).materialize()
        rkeys = np.arange(keys, dtype=np.int64) + keys // 4
        right = rd.from_arrow(
            pa.table({"rk": rkeys, "w": rng.integers(0, 1000, keys)})
        ).repartition(32).materialize()

        for join_type in JOIN_TYPES:
            def exchange(budget):
                def run():
                    R.SMALL_BYTES = budget
                    try:
                        return R.hash_join(left, right, "k", "rk", join_type).materialize()
                    finally:
                        R.SMALL_BYTES = default_budget

                return run

            variants = {
                "exchange": exchange(default_budget),
                "exchange_dist": exchange(0),
                "dataset_join": lambda: left.join(
                    right, join_type=join_type, num_partitions=engine_parts,
                    on=("k",), right_on=("rk",),
                ).materialize(),
            }

            def frame(ds):
                df = R.to_pandas_schema_safe(ds)
                cols = sorted(df.columns)
                return df[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)

            ref = frame(variants["dataset_join"]())
            equal = {}
            for name in ("exchange", "exchange_dist"):
                try:
                    pd.testing.assert_frame_equal(frame(variants[name]()), ref, check_dtype=True)
                    equal[name] = True
                except AssertionError:
                    equal[name] = False
            del ref

            times = {v: [] for v in VARIANTS}
            for i in range(args.runs):
                order = VARIANTS if i % 2 == 0 else VARIANTS[::-1]
                for name in order:
                    t0 = time.perf_counter()
                    out = variants[name]()
                    times[name].append(time.perf_counter() - t0)
                    n_out = out.count()
                    del out
            rec = {
                "shape": f"{rows}/{keys}",
                "join_type": join_type,
                "num_cpus": cpus,
                "out_rows": n_out,
                "equal_to_dataset_join": equal,
                **{
                    v: {
                        "median_s": round(statistics.median(t), 3),
                        "min_s": round(min(t), 3),
                        "max_s": round(max(t), 3),
                    }
                    for v, t in times.items()
                },
            }
            print(json.dumps(rec), flush=True)
            table_rows.append(rec)

    print("\n| rows/keys | join | exchange | exchange, SMALL_BYTES=0 | Dataset.join | equal |")
    print("| --- | --- | --- | --- | --- | --- |")
    for r in table_rows:
        cells = [
            f"{r[v]['median_s']:.2f} [{r[v]['min_s']:.2f}, {r[v]['max_s']:.2f}]" for v in VARIANTS
        ]
        eq = "yes" if all(r["equal_to_dataset_join"].values()) else "NO"
        print(f"| {r['shape']} | {r['join_type']} | {' | '.join(cells)} | {eq} |")


if __name__ == "__main__":
    main()
