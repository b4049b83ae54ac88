#!/usr/bin/env python
"""Grouped-aggregate probe: ``relops.partial_group_aggregate`` (Count +
Sum by an int key) on both sides of the ``SMALL_BYTES`` gate.

Two shapes, each a materialized 32-block input of random int64 keys
and values: 400k rows in 100k groups, and 4M rows in 1M groups. Each
shape runs once with the budget raised past the partials (one
coalesced Arrow combine) and once with it at 0 (the per-shard Arrow
combine), and the two outputs must agree. Prints one JSON line: wall
seconds per shape and side (input already materialized; partial stage,
combine and fetching the result included), output rows and the summed
count.

Usage: python tools/agg_probe.py  [RAY_GRAFT_CPUS=4]
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SHAPES = [(400_000, 100_000), (4_000_000, 1_000_000)]


def main() -> None:
    import numpy as np
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

    from bbcrawl_ray.pipelines import relops as R

    default_budget = R.SMALL_BYTES
    out: dict = {"num_cpus": int(ray.cluster_resources().get("CPU", 0))}
    rng = np.random.default_rng(0)
    for rows, groups in SHAPES:
        ds = rd.from_arrow(
            pa.table(
                {
                    "k": pa.array(rng.integers(0, groups, rows)),
                    "v": pa.array(rng.integers(0, 1000, rows)),
                }
            )
        ).repartition(32).materialize()
        name = f"{rows // 1000}k_{groups // 1000}k"
        results = {}
        for side, budget in (("coalesced", 1 << 62), ("sharded", 0)):
            R.SMALL_BYTES = budget
            t0 = time.perf_counter()
            res = R.partial_group_aggregate(
                ds, ["k"], {"s": ("sum", "v"), "n": ("count", None)}
            ).to_arrow_refs()
            table = pa.concat_tables(t for t in ray.get(res) if t.num_rows)
            out[f"{name}.{side}_s"] = round(time.perf_counter() - t0, 2)
            results[side] = table.sort_by("k")
        R.SMALL_BYTES = default_budget
        if not results["coalesced"].equals(results["sharded"]):
            raise SystemExit(f"{name}: the two sides disagree")
        out[f"{name}.rows"] = results["sharded"].num_rows
        out[f"{name}.count_sum"] = int(results["sharded"]["n"].to_numpy().sum())
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
