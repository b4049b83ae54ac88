#!/usr/bin/env python
"""Same-window interleaved profiling/A-B for the two slowest oracle
lines (round-4 verdict Next #4): customer_order_counts and
nation_revenue.

Modes:
  --profile   run each query once and dump ds.stats() so the cost is
              attributed to stages, not guessed at.
  --ab        interleave the two queries back-to-back (A B A B A B) and
              print per-query medians — the only comparison shape that is
              meaningful on this steal-prone VM (BASELINE.md protocol).

Usage: python tools/join_ab.py [--profile|--ab] [sf_dir]
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def steal() -> int:
    with open("/proc/stat") as f:
        return int(f.readline().split()[8])


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
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)

    sf = sys.argv[-1] if len(sys.argv) > 2 and not sys.argv[-1].startswith("--") else "/root/testdata/sf0.1"
    from bbcrawl_ray.pipelines.queries import QUERIES

    if "--profile" in sys.argv:
        for name in ("customer_order_counts", "nation_revenue"):
            t0 = time.perf_counter()
            ds = QUERIES[name](sf)
            ds = ds.materialize()
            wall = time.perf_counter() - t0
            print(f"==== {name}: {wall:.3f}s ====")
            print(ds.stats())
        return

    if "--ab" in sys.argv:
        s0 = steal()
        variants = {
            "customer_order_counts": lambda: QUERIES["customer_order_counts"](sf).to_pandas(),
            "nation_revenue": lambda: QUERIES["nation_revenue"](sf).to_pandas(),
        }
        times: dict = {k: [] for k in variants}
        for _ in range(3):
            for k, fn in variants.items():
                t0 = time.perf_counter()
                fn()
                times[k].append(round(time.perf_counter() - t0, 3))
        out = {
            k: {"runs": v, "median": sorted(v)[1]} for k, v in times.items()
        }
        out["steal_cpu_s"] = (steal() - s0) / 100.0
        print(json.dumps(out))
        return

    print("pass --profile or --ab")


if __name__ == "__main__":
    main()
