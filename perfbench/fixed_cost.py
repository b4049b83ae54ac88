"""Engine fixed-cost table: Ray Data operators on small inputs.

    python3 perfbench/run.py --fixed-cost

Times each operator the query lines are built from, over rows x block
count x ``num_partitions``, as the median of three runs on an input
that is materialized first (so only the operator is timed). Cases are
named ``op-format-blocks-partitions`` as in Ray's own map_batches
harness; ``rows`` is a column of its own. The figures are reference
data for the README, not benchmark metrics: they say how much of a
query line is per-operator fixed cost rather than work on rows.
"""

from __future__ import annotations

import json
import statistics
import time

ROWS = (1_000, 100_000)
BLOCKS = (1, 8, 64)
PARTITIONS = (1, 4)
REPEATS = 3


def _input(rows: int, blocks: int):
    import pyarrow as pa
    import ray.data as rd

    return (
        rd.range(rows, override_num_blocks=blocks)
        .map_batches(
            lambda t: t.append_column("k", pa.array(t["id"].to_numpy() % 100)),
            batch_format="pyarrow",
        )
        .materialize()
    )


def _cases(ds, rows: int, blocks: int):
    """(name, thunk) pairs; each thunk executes the operator to the end."""
    import ray.data

    yield f"map_batches-pyarrow-{blocks}-1", lambda: ds.map_batches(
        lambda t: t, batch_format="pyarrow"
    ).materialize()
    yield f"map_batches-pandas-{blocks}-1", lambda: ds.map_batches(
        lambda df: df, batch_format="pandas"
    ).materialize()
    yield f"materialize-arrow-{blocks}-1", lambda: ray.data.range(
        rows, override_num_blocks=blocks
    ).materialize()
    yield f"repartition1-arrow-{blocks}-1", lambda: ds.repartition(1).materialize()
    yield f"sort_limit-arrow-{blocks}-1", lambda: ds.sort("k").limit(10).materialize()
    for p in PARTITIONS:
        yield f"groupby_count-arrow-{blocks}-{p}", lambda p=p: ds.groupby(
            "k", num_partitions=p
        ).count().materialize()
        yield f"join-arrow-{blocks}-{p}", lambda p=p: ds.join(
            ds, join_type="inner", num_partitions=p, on=("id",), right_suffix="_r"
        ).materialize()


def main(ncpu: int) -> int:
    import logging

    import ray
    from ray.data.context import DataContext, ShuffleStrategy

    ray.init(address="local", num_cpus=ncpu, include_dashboard=False, logging_level="ERROR", log_to_driver=False)
    try:
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PULL_BASED
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        table = []
        for rows in ROWS:
            for blocks in BLOCKS:
                ds = _input(rows, blocks)
                for name, thunk in _cases(ds, rows, blocks):
                    times = []
                    for _ in range(REPEATS):
                        t0 = time.perf_counter()
                        thunk()
                        times.append(time.perf_counter() - t0)
                    row = {"case": name, "rows": rows, "median_s": statistics.median(times)}
                    table.append(row)
                    print(f"{name:32s} rows={rows:>7d} {row['median_s']:.3f}s", flush=True)
        print(json.dumps({"cpus": ncpu, "fixed_cost": table}))
    finally:
        ray.shutdown()
    return 0
