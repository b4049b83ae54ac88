"""Generic relational operators, Ray-Data-first.

The reference has no relational layer (it is a crawl CLI); these are
the engine's general-purpose operators exercised by the driver
contract (``__ray_entry__.queries``) against the TPC-H-ish testdata,
and reused by the crawl pipeline for frontier scheduling
(SURVEY.md §2.7: joins/lookups, aggregations, sorts/limits, set ops).

Scale posture:
- reads prune columns at the source (``read_parquet(columns=...)``);
- per-batch work is vectorized pyarrow.compute over zero-copy Arrow;
- aggregations pre-combine inside ``map_batches`` (partial aggregate)
  so the keyed tail only sees one row per key per block;
- small-side joins broadcast via ``ray.put`` once per job, never a
  shuffle; lookups happen with pandas merge / pyarrow ``is_in`` per
  batch;
- top-k prunes locally per block before the global sort-limit.

Transport: every operator here (and the dedup / text queries built on
them) that can run its tail either as one task / broadcast or
distributed decides with ``_fits`` against the ONE budget
``SMALL_BYTES`` — measured bytes of the materialized input, never a row
count, so nothing data-proportional lands in one task or on the driver
as the corpus grows. Every keyed stage — the keyed tails, the windows,
sequence packing and the crawl's per-host budget — runs on ONE
transport, ``_exchange``: plain Ray tasks that split rows by a route
(a key hash or an integer shard id) into reducers, each running one
callable that groups by the key itself. The small side is its one-
reducer case; never the engine's grouped aggregate, sort shuffle or
hash shuffle, whose fixed costs dwarf it. Stages that emit no more
rows than they read go through the gate (``_by_key``); pair
expansions, whose output outgrows their input, are always sharded
(``_sharded``). Joins above the budget use the engine hash join.
"""

from __future__ import annotations

import logging
import os
from typing import Callable, Iterable, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd
from ray.data import Dataset
from ray.data.aggregate import Max, Min
from ray.data.block import BlockAccessor

_log = logging.getLogger(__name__)

# ---------------------------------------------------------------------------
# transport

# The engine's shuffle and hash join carry a fixed cost per invocation
# whatever their input size (1.2-1.7 s per hash shuffle on 1k rows at 4
# CPUs), so an input under this budget runs as one task (the exchange's
# one reducer) or ships once as a broadcast instead. Tests force the
# distributed side by patching it to 0.
SMALL_BYTES = 64 << 20


def _fits(ds: Dataset | Sequence[Dataset], op: str) -> bool:
    """True when the measured size of the materialized ``ds`` (or of
    several datasets together) is within ``SMALL_BYTES``: the small
    side of ``op``'s transport choice. Reads the budget at call time."""
    parts = ds if isinstance(ds, (list, tuple)) else (ds,)
    nbytes = sum(p.size_bytes() or 0 for p in parts)
    fits = nbytes <= SMALL_BYTES
    _log.debug("%s: %d bytes, budget %d, small=%s", op, nbytes, SMALL_BYTES, fits)
    return fits


@ray.remote
def _split(route: Callable, n: int, *blocks) -> list[pa.Table]:
    """One split task over a run of blocks: one slice per reducer."""
    parts: list[list[pa.Table]] = [[] for _ in range(n)]
    for b in blocks:
        t = BlockAccessor.for_block(b).to_arrow()
        dest = np.asarray(route(t), np.int64)
        order = np.argsort(dest, kind="stable")
        bounds = np.searchsorted(dest[order], np.arange(n + 1))
        if bounds[0] or bounds[-1] != len(dest):
            raise ValueError(f"_exchange: a route id falls outside [0, {n})")
        for j in range(n):
            parts[j].append(t.take(order[bounds[j] : bounds[j + 1]]))
    return [pa.concat_tables(p, promote_options="permissive") for p in parts]


@ray.remote(num_returns=2)
def _reduce(fn: Callable, batch_format: str, *parts) -> tuple[pa.Table, int]:
    """One reducer: ``fn``'s output and its row count, or -1 rows with
    no call of ``fn`` when the parts hold no row."""
    tables = [BlockAccessor.for_block(p).to_arrow() for p in parts]
    nonempty = [x for x in tables if x.num_rows] or tables[:1]
    t = pa.concat_tables(nonempty, promote_options="permissive")
    if not t.num_rows:
        return t, -1
    out = fn(t if batch_format == "pyarrow" else BlockAccessor.for_block(t).to_pandas())
    if isinstance(out, pd.DataFrame):
        # not Ray's pandas conversion, which types every all-null (so
        # every empty) column as null: a typed empty result stays typed
        out = pa.Table.from_pandas(out, preserve_index=False)
    return out, out.num_rows


def _exchange(ds: Dataset, route: Callable | None, n: int, fn: Callable, batch_format: str) -> Dataset:
    """The engine's one keyed transport, in plain Ray tasks: each row
    of ``ds`` goes to reducer ``route(arrow_table)[row]`` in ``[0, n)``,
    and one reduce task per reducer runs ``fn`` once over its rows (per
    ``batch_format``). The output is the reducers' results in reducer
    order, rows in input order within one, so calls are repeatable.

    ``n`` = 1 is the small side: no split task, one reduce over every
    non-empty block. Above it, the non-empty blocks form at most 4 ×
    cluster-CPU contiguous runs, one split task each with
    ``num_returns=n``: a call holds at most 4 × CPUs × ``n`` slice
    refs, and a reducer holds its rows and ``fn``'s output in memory.

    Empty contract: a zero-row input comes back as it is and ``fn`` is
    never called; a reducer with no row does not call ``fn``; empty
    outputs are dropped unless all are, when the first typed one is
    kept. Only per-reducer row counts reach the driver.

    On a 4-CPU host over 1k to 4M rows, Ray's sort shuffle plus
    ``map_groups`` took 2.6-6x as long as this exchange, and its hash
    shuffle (``repartition(n, keys=)``) 5-11 s whatever the size."""
    ds = ds.materialize()
    refs = [ref for b in ds.iter_internal_ref_bundles() for ref, md in b.blocks if md.num_rows]
    if not refs:
        return ds
    fn_ref = ray.put(fn)
    if n == 1:
        slices = [refs]
    else:
        route_ref = ray.put(route)
        runs = np.array_split(np.arange(len(refs)), min(len(refs), 4 * _cluster_cpus()))
        split = _split.options(num_returns=n)
        outs = [split.remote(route_ref, n, *(refs[i] for i in run)) for run in runs]
        slices = [[o[j] for o in outs] for j in range(n)]
    tables, counts = zip(*(_reduce.remote(fn_ref, batch_format, *s) for s in slices))
    rows = ray.get(list(counts))
    keep = [t for t, r in zip(tables, rows) if r > 0] or [tables[rows.index(0)]]
    return rd.from_arrow_refs(keep)


def _cluster_cpus() -> int:
    try:
        return int(ray.cluster_resources().get("CPU", 0)) or 4
    except Exception:  # noqa: BLE001 — uninitialised Ray in unit contexts
        return 4


def _key_route(keys: Sequence[str], n: int) -> Callable:
    """Route rows by the hash of their ``keys`` (``shard_of``)."""
    return lambda t: shard_of(t.select(list(keys)).to_pandas(), n)


def _column_route(col: str, div: int = 1) -> Callable:
    """Route rows by an integer id column: reducer ``col // div``."""
    return lambda t: t[col].to_numpy() // div


def _by_key(partials: Dataset, keys: Sequence[str], fn: Callable, batch_format: str) -> Dataset:
    """The one keyed tail: ``fn`` must group by ``keys`` itself, so
    running it over any key-closed slice of ``partials`` gives that
    slice's share of the answer. Within ``SMALL_BYTES`` it runs once
    over everything (the exchange with ``n`` = 1); above it,
    ``_sharded``. One callable on both sides, so the transport cannot
    change schema, dtypes, null keys or ties."""
    partials = partials.materialize()
    if _fits(partials, fn.__qualname__):
        return _exchange(partials, None, 1, fn, batch_format)
    return _sharded(partials, keys, fn, batch_format)


def _sharded(partials: Dataset, keys: Sequence[str], fn: Callable, batch_format: str) -> Dataset:
    """The distributed side of the keyed tail: the exchange routes rows
    by the hash of ``keys`` to ``data_sized_shards`` reducers, sized
    from the materialized blocks' row counts, and ``fn`` (which groups
    by ``keys`` itself) runs once per reducer. Stages whose output or
    CPU grows faster than their input (pair expansion) call it
    directly: an input-bytes budget bounds neither, and one task would
    run serially what the reducers spread."""
    partials = partials.materialize()
    n = data_sized_shards(partials.count())  # block metadata, no pass
    return _exchange(partials, _key_route(keys, n), n, fn, batch_format)


def rows_per_group(g: pd.DataFrame, key: str, row: Callable, columns: Sequence[str]) -> pd.DataFrame:
    """One row per ``key`` group of ``g``, null keys included: the key,
    then ``row(group)``'s values for ``columns``. The whole-frame form of
    a one-row-per-group UDF that ``_by_key`` runs on either side."""
    groups = g.groupby(key, sort=False, dropna=False)
    rows = [{key: grp[key].iloc[0], **row(grp)} for _, grp in groups]
    return pd.DataFrame(rows, columns=[key, *columns])


# ---------------------------------------------------------------------------
# sources


def read_table(
    sf_dir: str,
    name: str,
    columns: Sequence[str] | None = None,
    filter_expr=None,
) -> Dataset:
    """Columnar scan of one testdata table with projection/filter pushdown."""
    path = os.path.join(sf_dir, f"{name}.parquet")
    kwargs = {}
    if columns is not None:
        kwargs["columns"] = list(columns)
    if filter_expr is not None:
        kwargs["filter"] = filter_expr
    return rd.read_parquet(path, **kwargs)


_CONSTANT_DIMS = {"nation", "region"}  # TPC-H: 25 / 5 rows at EVERY sf


def read_dim_pandas(sf_dir: str, name: str, columns: Sequence[str] | None = None) -> pd.DataFrame:
    """Driver-side read of a CONSTANT-size dimension table via pyarrow
    directly — no Ray execution for a 25-row lookup (each tiny
    read-job costs ~0.3 s of pure scheduling; profiled round 5).
    Restricted to tables whose size does NOT scale with the corpus
    (any other name raises ``ValueError``), so this can never become a
    data-proportional driver pull — everything else goes through
    ``read_table`` + a byte-gated transport."""
    import pyarrow.parquet as pq

    if name not in _CONSTANT_DIMS:
        raise ValueError(f"read_dim_pandas is for constant dims, not {name!r}")
    return pq.read_table(
        os.path.join(sf_dir, f"{name}.parquet"), columns=list(columns) if columns else None
    ).to_pandas()


# ---------------------------------------------------------------------------
# per-batch transforms


def filter_arrow(ds: Dataset, pred: Callable[[pa.Table], pa.ChunkedArray], **kwargs) -> Dataset:
    """Vectorized filter: ``pred`` returns a boolean mask for the batch."""
    return ds.map_batches(
        lambda t: t.filter(pred(t)), batch_format="pyarrow", **kwargs
    )


def cents(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Money double → exact integer cents (deterministic across summation
    orders, so aggregate results value-hash identically to the SQL oracle)."""
    return pc.cast(pc.round(pc.multiply(col, pa.scalar(100.0))), pa.int64())


# ---------------------------------------------------------------------------
# aggregation


def _group_by(t: pa.Table, keys: list[str], spec: list) -> pa.Table:
    """``t.group_by(keys).aggregate(spec)`` as keys, then aggregates,
    exact on null keys. pyarrow 16's multi-key grouper splits groups
    whose key row holds a null next to a string or bool key (188 groups
    for 181 distinct (string, int64) rows), so with two or more keys
    each key holding nulls groups as (null flag, nulls filled) and turns
    back into nulls after."""
    nullable = [k for k in keys if t[k].null_count] if len(keys) > 1 else []
    types = {k: t[k].type for k in nullable}
    flags = [f"{k}\x00null" for k in nullable]
    for k, flag in zip(nullable, flags):
        valid = t[k].drop_null()
        t = t.append_column(flag, pc.cast(pc.is_null(t[k]), pa.int8()))
        filled = pc.fill_null(t[k], valid[0]) if len(valid) else pa.array(np.zeros(t.num_rows, np.int8))
        t = t.set_column(t.schema.get_field_index(k), k, filled)
    g = t.group_by([*keys, *flags]).aggregate(spec)

    def key(k: str):
        if k not in types:
            return g[k]
        if types[k] == t[k].type:
            return pc.if_else(pc.equal(g[f"{k}\x00null"], 1), pa.scalar(None, types[k]), g[k])
        return pa.nulls(g.num_rows, types[k])  # the key was null in every row

    vals = [i for i, c in enumerate(g.column_names) if c not in keys and c not in flags]
    return pa.table(
        [*(key(k) for k in keys), *(g.column(i) for i in vals)],
        names=[*keys, *(g.column_names[i] for i in vals)],
    )


_COMBINE_OP = {"sum": "sum", "min": "min", "max": "max", "count": "sum"}


def partial_group_aggregate(
    ds: Dataset,
    keys: Sequence[str],
    aggs: dict[str, tuple[str, str | None]],
) -> Dataset:
    """Grouped aggregate with named outputs: ``aggs`` maps output column
    → (op, input column), op in sum|min|max|count (count counts ROWS,
    SQL ``count(*)``, and ignores the input column). Output columns are
    the keys, then ``aggs`` in order.

    Combiner-style: each Arrow batch pre-aggregates with
    ``pyarrow.Table.group_by`` (one output row per key per batch), then
    ``_by_key`` runs one Arrow combine over the partials — sums and
    counts add, mins and maxes fold. Only ~num_blocks × num_keys rows
    ever reach the combine, and both transports run the same combine,
    so schema, dtypes (timestamps keep their unit) and null keys never
    depend on the gate."""
    keys = list(keys)
    outs = list(aggs)

    def grouped(t: pa.Table, spec: list) -> pa.Table:
        return _group_by(t, keys, spec).rename_columns([*keys, *outs])

    def partial(t: pa.Table) -> pa.Table:
        return grouped(
            t, [([], "count_all") if op == "count" else (col, op) for op, col in aggs.values()]
        )

    def combine(t: pa.Table) -> pa.Table:
        return grouped(t, [(out, _COMBINE_OP[op]) for out, (op, _) in aggs.items()])

    partials = ds.map_batches(partial, batch_format="pyarrow").materialize()
    return _by_key(partials, keys, combine, "pyarrow")


# ---------------------------------------------------------------------------
# sort / top-k / distinct


def topk(
    ds: Dataset,
    by: Sequence[str],
    descending: Sequence[bool],
    k: int,
) -> Dataset:
    """Global top-k: prune to k rows per block first, then a BYTE-GATED
    tail over the ≤ k × num_blocks pruned rows — one coalesced
    sort-take task within ``SMALL_BYTES`` (the engine sort is an
    all-to-all with multi-second fixed cost), the engine sort-limit
    above it.

    ``by`` must be a TOTAL order (append a unique column such as the
    row id): on ties at the k-th row the two tails may keep different
    rows, so only a total order makes the choice a pure transport
    decision."""
    by = list(by)
    descending = list(descending)
    order = [(c, "descending" if d else "ascending") for c, d in zip(by, descending)]

    def local_prune(t: pa.Table) -> pa.Table:
        if t.num_rows <= k:
            return t
        idx = pc.sort_indices(t, sort_keys=order)
        return t.take(idx[:k])

    pruned = ds.map_batches(local_prune, batch_format="pyarrow").materialize()
    if _fits(pruned, "topk"):
        def global_take(t: pa.Table) -> pa.Table:
            idx = pc.sort_indices(t, sort_keys=order)
            return t.take(idx[: min(k, t.num_rows)])

        return _exchange(pruned, None, 1, global_take, "pyarrow")
    return pruned.sort(by, descending=descending).limit(k)


def distinct(ds: Dataset, cols: Sequence[str]) -> Dataset:
    """Distinct tuples: per-block Arrow dedup, then the same Arrow
    dedup as the keyed tail (``_by_key``) over the partials."""
    cols = list(cols)

    def local(t: pa.Table) -> pa.Table:
        return _group_by(t.select(cols), cols, [])

    deduped = ds.map_batches(local, batch_format="pyarrow").materialize()
    return _by_key(deduped, cols, local, "pyarrow")


# ---------------------------------------------------------------------------
# broadcast joins (small side shipped once via the object store)


def broadcast_join(
    ds: Dataset,
    small: pd.DataFrame,
    left_on: str | list[str],
    right_on: str | list[str],
    how: str = "inner",
    **kwargs,
) -> Dataset:
    """Hash-join each batch against a broadcast small side (no shuffle).

    The small side goes into the object store ONCE (``ray.put``); every
    task reads the same zero-copy plasma object instead of re-shipping
    it per batch.
    """
    ref = ray.put(small)

    def join_batch(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.merge(ray.get(ref), left_on=left_on, right_on=right_on, how=how)

    # Stateless tasks: ray.get(ref) per task is a zero-copy plasma read of
    # the one broadcast object; tasks never starve other stages the way a
    # CPU-reserving actor pool can on a small cluster.
    return ds.map_batches(join_batch, batch_format="pandas", **kwargs)


def auto_join(
    left: Dataset,
    right: Dataset,
    left_on: str,
    right_on: str,
    num_partitions: int | None = None,
    how: str = "inner",
) -> Dataset:
    """Size-adaptive INNER join transport: the right side materializes
    (its blocks stay in the object store) and its MEASURED byte size
    picks the path — within ``SMALL_BYTES`` it ships once as a
    broadcast map-side join (no shuffle at all); above it, both sides
    hash-shuffle through the engine join. Same gate philosophy as the
    dedup broadcast paths: the decision is bytes, never a row-count
    heuristic, so it cannot OOM the driver at any corpus size, and the
    fallback is the fully distributed transport. The engine's shuffle
    join carries a multi-second fixed aggregator cost per invocation,
    so joins whose small side is dimension-sized (a filtered customer
    set, a lookup table) should never pay it.

    ``how``: ``inner`` (default) or ``left_outer``. The broadcast
    left_outer path mirrors the engine's output exactly (pinned by
    ``test_auto_join_left_outer_paths_agree``): the right key column is
    dropped (the engine coalesces it into the left key, which for a
    LEFT outer is just the left key) and the payload columns keep the
    right side's Arrow types, nullable where a left row missed, in
    every block — as the engine's join emits them. full_outer is
    NOT offered — unmatched RIGHT rows must be emitted exactly once
    globally, which a per-batch broadcast merge cannot decide."""
    if how not in ("inner", "left_outer"):
        raise ValueError(f"auto_join: unsupported how={how!r}")
    right = right.materialize()
    if _fits(right, "auto_join"):
        # schema-safe: Ray 2.49 to_pandas() drops columns on zero-row
        # datasets, and merge() on a column-less frame raises KeyError —
        # an empty dimension side must yield an empty inner join instead
        joined = broadcast_join(
            left,
            to_pandas_schema_safe(right),
            left_on=left_on,
            right_on=right_on,
            how="left" if how == "left_outer" else "inner",
        )
        if how == "left_outer":
            if right_on != left_on:
                joined = joined.drop_columns([right_on])
            # a miss turns an integer payload into float64 NaN in THAT
            # batch only; cast back so all blocks share one schema
            rs = right.schema()
            joined = cast_columns(
                joined,
                {n: _as_arrow_type(t) for n, t in zip(rs.names, rs.types) if n != right_on},
            )
        return joined
    if num_partitions is None:
        # grow the fan-out with the MEASURED right side above the
        # cluster-sized floor: each aggregator holds one partition pair
        # in memory, so a fixed cap becomes an OOM cliff at 100× the
        # data — while each partition also costs ~0.1 s of fixed
        # aggregator overhead (interleaved A/B at 32 CPUs, BASELINE.md
        # round 4), so small joins must not over-partition either.
        nbytes = right.size_bytes() or 0
        num_partitions = max(join_partitions(None), -(-nbytes // (256 << 20)))
    return hash_join(
        left,
        right,
        on=left_on,
        right_on=right_on,
        num_partitions=num_partitions,
        join_type=how,
    )


def auto_semi_join(
    left: Dataset,
    right: Dataset,
    on: str,
    right_on: str | None = None,
    anti: bool = False,
    num_partitions: int | None = None,
) -> Dataset:
    """Size-adaptive SEMI/ANTI join: the right side's DISTINCT key set
    materializes (blocks stay in the object store) and its MEASURED
    byte size picks the transport — within ``SMALL_BYTES`` the keys
    ship once and every batch filters with a C++ ``is_in`` kernel (no
    shuffle); above it the engine's hash-partitioned left_semi /
    left_anti join runs (both sides shuffle). Same gate philosophy as
    ``auto_join``: the decision is bytes, never a row-count heuristic,
    so no data-proportional key set can ever land on the driver (the
    round-3 verdict's ``customers_no_big_orders`` finding).

    NULL-key semantics (identical on both transports, pinned by
    ``test_auto_semi_join_null_keys_agree``): a null RIGHT key is
    dropped from the key set, and a null LEFT key never matches —
    excluded by semi, kept by anti. This is SQL EXISTS / NOT EXISTS
    (``on = key`` is NULL for null keys → no match), and it is what the
    engine's left_semi/left_anti hash join already does; the broadcast
    ``is_in`` path agrees only because nulls are removed here (Arrow's
    is_in would otherwise match null-to-null)."""
    right_on = right_on or on
    keys_ds = distinct(
        filter_arrow(
            right.select_columns([right_on]), lambda t: pc.is_valid(t[right_on])
        ),
        [right_on],
    ).materialize()
    if _fits(keys_ds, "auto_semi_join"):
        keys = collect_column(keys_ds, right_on)
        return broadcast_semi_join(left, keys.tolist(), on=on, anti=anti)
    return hash_join(
        left,
        keys_ds,
        on=on,
        right_on=right_on,
        join_type="left_anti" if anti else "left_semi",
        num_partitions=num_partitions,
    )


def grouped_topk(
    ds: Dataset,
    group_cols: Sequence[str],
    by: Sequence[str],
    descending: Sequence[bool],
    k: int,
    out_cols: Sequence[str] | None = None,
) -> Dataset:
    """Top-k WITHIN each group: per-block per-group prune first (the
    global winners of any group are a subset of every block's own
    per-group top-k), then the SAME sort+grouped-head as the keyed tail
    (``_by_key``) over ≤ k × num_blocks rows per group. Without the
    prune a low-cardinality group column (e.g. 5 market segments)
    funnels the ENTIRE fact table into 5 pandas groups — the prune
    bounds each group by blocks, not rows."""
    group_cols = list(group_cols)
    by = list(by)
    ascending = [not d for d in descending]
    out_cols = list(out_cols) if out_cols is not None else None

    def local(df: pd.DataFrame) -> pd.DataFrame:
        pruned = (
            df.sort_values(by, ascending=ascending, kind="mergesort")
            .groupby(group_cols, sort=False, dropna=False)
            .head(k)
        )
        return pruned[out_cols] if out_cols else pruned

    pruned = ds.map_batches(local, batch_format="pandas").materialize()
    return _by_key(pruned, group_cols, local, "pandas")


def broadcast_semi_join(ds: Dataset, keys: Iterable, on: str, anti: bool = False) -> Dataset:
    """Semi/anti join against a broadcast key set, as a vectorized filter."""
    key_arr = pa.array(list(keys))
    ref = ray.put(key_arr)

    def fn(t: pa.Table) -> pa.Table:
        mask = pc.is_in(t[on], value_set=ray.get(ref))
        if anti:
            mask = pc.invert(mask)
        return t.filter(mask)

    return ds.map_batches(fn, batch_format="pyarrow")


def join_partitions(requested: int | None = None, rows: int | None = None) -> int:
    """Hash-join fan-out sized to the cluster: the engine's shuffle
    aggregator actors reserve resources per partition, so a fixed 16 on
    a 4-CPU cluster starves the map stages feeding them — two CHAINED
    joins (32 aggregators) deadlock outright. Half the CPUs (capped at
    16, floored at 2) leaves headroom for map stages and for a second
    concurrent join; on big clusters callers pass ``requested`` when a
    join's input justifies more fan-out.

    With a KNOWN row count the fan-out targets ~100k rows/partition up
    to ~3/4 of the cluster's CPUs — the remaining quarter is HEADROOM
    for the map stages feeding the shuffle (aggregators == cpus is
    exactly the starvation above, reappearing at the top end) — so a
    few-hundred-row label table gets 2 partitions, not 16."""
    if requested is not None:
        return max(2, requested)
    cpus = _cluster_cpus()
    if rows is not None:
        cap = min(max(2, cpus), max(16, (cpus * 3) // 4))
        return max(2, min(cap, -(-rows // 100_000)))
    return max(2, min(16, cpus // 2))


def hash_join(
    left: Dataset,
    right: Dataset,
    on: str | Sequence[str],
    right_on: str | Sequence[str] | None = None,
    num_partitions: int | None = None,
    join_type: str = "inner",
) -> Dataset:
    """Both-sides-large join: Ray Data's hash-partitioned ``Dataset.join``
    (each side shuffles on the key; use ``broadcast_join`` when one side
    fits in the object store instead). ``join_type`` passes through to
    the engine: inner / left_outer / right_outer / full_outer /
    left_semi / right_semi / left_anti / right_anti. Outer joins
    COALESCE the key into the left key column; left_semi/left_anti
    return LEFT columns only, right_semi/right_anti RIGHT columns
    only. ``on`` accepts one key or a key tuple. ``num_partitions``
    defaults to a CLUSTER-SIZED fan-out (see ``join_partitions``)."""
    num_partitions = join_partitions(num_partitions)
    on_t = (on,) if isinstance(on, str) else tuple(on)
    if right_on is None:
        right_t = None
    else:
        right_t = (right_on,) if isinstance(right_on, str) else tuple(right_on)
    return left.join(
        right,
        join_type=join_type,
        num_partitions=num_partitions,
        on=on_t,
        right_on=right_t,
    )


def shard_of(s: pd.Series | pd.DataFrame, n_shards: int) -> pd.Series:
    """Deterministic coarse shard id for grouped-UDF batching; a frame
    hashes its rows (multi-column keys).

    Numeric keys normalize to float64 first: pd.util.hash_pandas_object
    is DTYPE-sensitive (int64 5 and float64 5.0 hash differently), so
    two datasets carrying the same key at different widths — or one
    dataset whose batches with nulls convert an int key to float64 —
    would otherwise route equal values to different shards."""

    def norm(c: pd.Series) -> pd.Series:
        if pd.api.types.is_numeric_dtype(c) and not pd.api.types.is_float_dtype(c):
            return c.astype("float64")
        return c

    s = s.apply(norm) if isinstance(s, pd.DataFrame) else norm(s)
    return (pd.util.hash_pandas_object(s, index=False) % n_shards).astype("int64")


_SHARD_TARGET_ROWS = 500_000  # ≈50-100 MB of typical event rows per group


def _as_arrow_type(t) -> pa.DataType:
    """Ray's ``Dataset.schema().types`` holds Arrow types for Arrow
    blocks but numpy dtypes / ``object`` for pandas blocks — normalize
    so downstream type tests never crash on a ``from_pandas`` source."""
    if isinstance(t, pa.DataType):
        return t
    dt = np.dtype(t)
    if dt == np.dtype("O"):
        return pa.string()
    return pa.from_numpy_dtype(dt)


def rank_select_quantiles(vals: np.ndarray, cum: np.ndarray, qs: Sequence[float]) -> list:
    """Exact type-1 quantiles from a VALUE-COUNT representation: the
    element at 1-indexed rank ceil(q·n), given sorted distinct values
    and their cumulative counts. Engine-independent (no interpolation),
    so results value-hash identically to the SQL oracle. ONE definition
    shared by the grouped exact path and the sketch-comparison entry."""
    import math

    n = int(cum[-1])
    return [vals[(cum >= math.ceil(q * n)).argmax()] for q in qs]


def data_sized_shards(
    total_rows: int, target_rows: int = _SHARD_TARGET_ROWS, min_shards: int = 16
) -> int:
    """Reducer count for the exchange's distributed side (``_sharded``,
    the windows, ``pack_sequences``), derived from the DATA, not a
    constant: each reducer holds its rows as ONE table or pandas
    DataFrame in one worker, so a fixed count becomes a worker-OOM
    cliff at 100× the data (round-2 verdict item #2). No upper cap —
    reducers scale with rows; the floor keeps small inputs spread
    across a test cluster."""
    return max(min_shards, -(-int(total_rows) // target_rows))


def _time_num(x) -> float:
    """Scalar time → float64 ns-epoch (datetime-likes) or plain float —
    the engine's Min/Max aggregate returns pandas Timestamp, numpy
    datetime64 or stdlib datetime depending on the block format; None
    (empty input) maps to 0 so span computes to <= 0 and bucketing
    degrades to the single-bucket path."""
    import datetime as _dt

    if x is None:
        return 0.0
    if isinstance(x, (np.datetime64, _dt.datetime)) or hasattr(x, "value"):
        return float(pd.Timestamp(x).value)
    return float(x)


def _agg_minmax(ds: Dataset, col: str) -> tuple[float, float]:
    """(min, max) of one column as floats; (0, 0) on empty input (Ray's
    aggregate returns None/empty there)."""
    agg = ds.aggregate(Min(col), Max(col))
    if not agg:
        return 0.0, 0.0
    return _time_num(agg.get(f"min({col})")), _time_num(agg.get(f"max({col})"))


def _bucket_of(s: pd.Series, t0: float, span: float, n_buckets: int) -> np.ndarray:
    """Equal-width time-bucket index in [0, n_buckets) — float math is
    fine because lefts and rights run the IDENTICAL computation, so a
    boundary value lands in the same bucket on both sides."""
    if span <= 0 or n_buckets <= 1:
        return np.zeros(len(s), np.int64)
    if s.dtype.kind == "M":
        v = s.astype("datetime64[ns]").astype("int64").to_numpy().astype(np.float64)
    else:
        v = s.to_numpy().astype(np.float64)
    b = np.floor((v - t0) / span * n_buckets).astype(np.int64)
    return np.clip(b, 0, n_buckets - 1)


def asof_join(
    left: Dataset,
    right: Dataset,
    key: str,
    left_time: str,
    right_time: str,
    value_cols: Sequence[str],
    right_key: str | None = None,
    value_casts: dict[str, str] | None = None,
    n_shards: int | None = None,
    time_buckets: int = 1,
) -> Dataset:
    """Distributed AS-OF join (Ray Data has none): for every left row,
    the right row with the greatest ``right_time`` <= ``left_time``
    within the same ``key`` — ties on right_time break to the LAST of
    ``value_cols`` order (sort is stable on (time, values)).

    Canonical composition: tag both sides onto ONE aligned schema,
    union, one exchange on a coarse KEY-SHARD (so the reducers run a
    bounded number of vectorized pandas calls, not one Python call per
    key), per-shard (key, time)-sort + per-key forward-fill of the
    right values. Left rows with no prior right row drop (inner
    semantics). ``n_shards`` defaults to ``data_sized_shards`` over the
    summed input row counts, so one shard group stays ≈50-100 MB at any
    scale; pass it explicitly to pin the distributed layout.

    ``time_buckets`` > 1 handles the SINGLE-MONSTER-KEY skew that
    key-sharding cannot split (round-3 verdict #3): rows additionally
    partition into equal-width time-range buckets and the group key
    becomes (key_shard, bucket), bounding every pandas group by
    ~hot_key_rows / time_buckets. Correctness across bucket seams comes
    from a BOUNDARY CARRY: the last right row per (key, bucket) — same
    (time, values) tie-break as the merge — is forward-replicated into
    every later bucket up to the key's next occupied one, so a left row
    whose as-of match lives in an earlier bucket still sees it. Costs
    one extra combiner-reduced exchange over the right side, routed by
    key shard; the output is bit-identical to the unbucketed path.

    Every exit path — both tag stages and every ``merge`` branch,
    including empty groups — enforces ONE dtype map, so the union and
    the output never emit mixed-schema blocks (round-2 verdict #3).

    BYTE-GATED transport (the one gate, ``_fits``): when the two sides'
    MEASURED combined size is within ``SMALL_BYTES``, the exchange has
    ONE reducer running the IDENTICAL ``merge`` closure over the whole
    frame — the per-key sort+ffill is global, so the output is
    bit-identical while the split tasks and the min/max time-axis pass
    are skipped, whatever ``n_shards`` / ``time_buckets`` say. Above
    the budget they shape the exchange's (key shard, bucket) reducers.
    Both sides are pinned by ``test_window_paths_agree``.
    """
    (left, right), n_shards, time_buckets, shard_id = _window_prep(
        [(left, left_time), (right, right_time)], n_shards, time_buckets
    )
    value_cols = list(value_cols)
    right_key = right_key or key
    lschema = left.schema()
    rschema = right.schema()
    ltypes = [_as_arrow_type(t) for t in lschema.types]
    rtypes = [_as_arrow_type(t) for t in rschema.types]
    left_cols = list(lschema.names)
    out_schema = left_cols + value_cols
    # the union must be schema-uniform: integer payload columns carry
    # NaN on the right-tagged rows, so BOTH sides upcast to float64 and
    # the merge casts back (left rows never hold NaN in their payload)
    int_cols = [
        c for c, t in zip(lschema.names, ltypes) if pa.types.is_integer(t) and c != key
    ]
    ts_cols = [c for c, t in zip(lschema.names, ltypes) if pa.types.is_timestamp(t)]
    int_value_cols = [
        c for c, t in zip(rschema.names, rtypes) if pa.types.is_integer(t) and c in value_cols
    ]
    # ONE final dtype map applied on every merge() exit: left columns
    # recover their source dtypes, value columns recover the RIGHT
    # schema's dtypes (value_casts overrides)
    _final = {
        c: np.dtype(t.to_pandas_dtype())
        for c, t in list(zip(lschema.names, ltypes))
        + [(c, t) for c, t in zip(rschema.names, rtypes) if c in value_cols]
    }
    final_dtypes: dict = {c: _final[c] for c in out_schema}
    if value_casts:
        final_dtypes.update(value_casts)

    key_type = ltypes[lschema.names.index(key)]

    def _normalize_key(s: pd.Series) -> pd.Series:
        # both sides must carry the key at the LEFT's width — the union
        # column and the shard hash are dtype-sensitive
        if pa.types.is_integer(key_type):
            return s.astype("int64")
        if pa.types.is_floating(key_type):
            return s.astype("float64")
        return s

    def _check_float_safe(s: pd.Series, col: str) -> None:
        # integer payloads ride through float64 to carry NaN across the
        # union; beyond 2^53 that SILENTLY corrupts — refuse loudly.
        # (raw min/max, not abs(): abs(int64 min) wraps negative and
        # would slip past the guard)
        if len(s) and (s.max() > 2**53 or s.min() < -(2**53)):
            raise ValueError(
                f"asof_join: integer column {col!r} holds values above 2^53, "
                "which cannot round-trip through the NaN-carrying float64 "
                "union — cast it to string first or drop it from the join"
            )

    def _null_placeholder(col: str, n: int) -> pd.Series:
        """Dtype-matched nulls for the absent side's columns — the WIRE
        dtype across the union: timestamps → NaT, numerics → float64
        NaN, everything else (string/bool/object) → object None. A
        mixed float-NaN/string union is exactly the mixed-schema block
        noise the round-2 bench tail was full of."""
        t = _final.get(col)
        if t is not None and t.kind == "M":
            # the SOURCE's time unit, not a hardcoded [us] — a [ns]
            # from_pandas input must union against [ns] placeholders
            return pd.Series([pd.NaT] * n, dtype=t)
        if t is not None and t.kind in "iuf":
            return pd.Series(np.full(n, np.nan), dtype="float64")
        return pd.Series([None] * n, dtype="object")

    def tag_left(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df[key] = _normalize_key(df[key])
        df["_t"] = df[left_time]
        df["_is_left"] = True
        df["_shard"] = shard_id(df[key], df["_t"])
        for c in int_cols:
            _check_float_safe(df[c], c)
            df[c] = df[c].astype("float64")
        for c in value_cols:
            df[c] = _null_placeholder(c, len(df))
        return df[[*left_cols, *value_cols, "_t", "_is_left", "_shard"]]

    def tag_right(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {key: _normalize_key(df[right_key]), "_t": df[right_time], "_is_left": False}
        )
        out["_shard"] = shard_id(out[key], out["_t"])
        n = len(df)
        for c in left_cols:
            if c == key:
                continue
            out[c] = _null_placeholder(c, n)
        for c in value_cols:
            out[c] = df[c]
            if c in int_value_cols:
                _check_float_safe(out[c], c)
                # match tag_left's float64 NaN placeholder — int64 here
                # vs float64 there was the round-2 mixed-schema warning
                out[c] = out[c].astype("float64")
        return out[[*left_cols, *value_cols, "_t", "_is_left", "_shard"]]

    lt = left.map_batches(tag_left, batch_format="pandas")
    rt = right.map_batches(tag_right, batch_format="pandas")
    sort_cols = [key, "_t", "_is_left", *value_cols]
    wire_cols = [*left_cols, *value_cols, "_t", "_is_left", "_shard"]

    carries = None
    if time_buckets > 1:
        # boundary carry: the last right row per (key, bucket) — same
        # (time, values) tie-break as the merge's ffill — replicated
        # into every later bucket up to the key's next occupied bucket,
        # so every bucket group sees its as-of predecessor. Per-block
        # combiner first: the carry exchange moves ≤ keys × buckets rows
        # per block, never the right stream. The exchange routes by
        # key shard (_shard // time_buckets), co-locating ALL buckets of
        # a key for the expansion.
        rt = rt.materialize()  # consumed by the union AND the carry pass
        dedup_sort = [key, "_shard", "_t", *value_cols]

        def last_per_bucket(df: pd.DataFrame) -> pd.DataFrame:
            df = df.sort_values(dedup_sort, kind="mergesort")
            return df.drop_duplicates([key, "_shard"], keep="last")

        def expand(g: pd.DataFrame) -> pd.DataFrame:
            g = g.sort_values(dedup_sort, kind="mergesort")
            g = g.drop_duplicates([key, "_shard"], keep="last")
            b = (g["_shard"] % time_buckets).to_numpy()
            kb = (g["_shard"] - b).to_numpy()  # kshard × buckets component
            k = g[key].to_numpy()
            n = len(g)
            nxt = np.full(n, time_buckets, np.int64)
            same = k[:-1] == k[1:]
            nxt[:-1][same] = b[1:][same]
            is_last = np.ones(n, bool)
            is_last[:-1] = ~same
            counts = np.maximum(nxt - b - is_last.astype(np.int64), 0)
            total = int(counts.sum())
            if total == 0:
                return g[wire_cols].iloc[0:0]
            idx = np.repeat(np.arange(n), counts)
            out = g.iloc[idx].copy()
            starts = np.repeat(np.cumsum(counts) - counts, counts)
            offs = np.arange(total) - starts
            out["_shard"] = kb[idx] + b[idx] + 1 + offs
            return out[wire_cols]

        pre = rt.map_batches(last_per_bucket, batch_format="pandas")
        carries = _exchange(pre, _column_route("_shard", time_buckets), n_shards, expand, "pandas")

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        # rights sort before lefts at equal time (False < True), so a
        # right row AT the left's timestamp is visible to it; ffill is
        # per-key via a vectorized pandas groupby, no per-key Python
        g = g.sort_values(sort_cols, kind="mergesort")
        filled = g.groupby(key, sort=False)[value_cols].ffill()
        out = g.loc[g["_is_left"], left_cols].copy()
        for c in value_cols:
            out[c] = filled.loc[g["_is_left"], c]
        out = out.dropna(subset=value_cols)
        # ONE dtype map on every exit — empty groups included — so no
        # merge branch can emit a block with a divergent schema
        return out[out_schema].astype(final_dtypes)

    # one reducer per (key shard, bucket) id; within the budget that is
    # one task running the identical merge over the whole frame
    unioned = lt.union(rt)
    if carries is not None:
        unioned = unioned.union(carries)
    return _exchange(unioned, _column_route("_shard"), n_shards * time_buckets, merge, "pandas")


def sessionize(
    ds: Dataset,
    key: str,
    ts: str,
    gap: pd.Timedelta,
    n_shards: int | None = None,
    time_buckets: int = 1,
) -> Dataset:
    """Distributed sessionization: events partition by ``key``, break
    into sessions at ``ts`` gaps > ``gap``; output one row per session
    — (key, session_id, n_events, session_start), session_id numbering
    1..n per key in time order (the SQL window-function semantics).

    Everything is INTERVAL-merge over summaries: an event is a trivial
    (start=end=ts, n=1) summary, and the per-key merge chains summaries
    whose start is within ``gap`` of the previous end. With
    ``time_buckets`` = 1 that is one key-shard exchange of the events
    (the round-3 shape). With ``time_buckets`` > 1 — the
    single-monster-key path (round-3 verdict #3) — a FIRST exchange
    per (key_shard, time_bucket) compresses each bucket's events into
    per-key session summaries, and only the summaries reach the per-key
    merge, which stitches sessions across bucket seams (two summaries
    merge iff the seam gap is <= ``gap``; chains spanning many buckets
    compose transitively through the same cumsum). A monster key's
    second-pass group is bounded by its SESSION count, not its event
    count — the 100× reduction sessions give on real event streams.
    Outputs are bit-identical across bucket settings."""
    (ds,), n_shards, time_buckets, shard_id = _window_prep([(ds, ts)], n_shards, time_buckets)

    def merge_sessions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, "_start", "_end"], kind="mergesort")
        # first summary of a key: shift() yields NaT/NaN, the > compares
        # False, so its break flag is False and ids start at 1
        brk = (g["_start"] - g.groupby(key, sort=False)["_end"].shift()) > gap
        sid = brk.groupby(g[key], sort=False).cumsum().astype("int64") + 1
        out = (
            g.assign(session_id=sid)
            .groupby([key, "session_id"], sort=False)
            .agg(n_events=("_n", "sum"), session_start=("_start", "min"))
            .reset_index()
        )
        out["n_events"] = out["n_events"].astype("int64")
        if out["session_start"].dtype.kind == "M":
            out["session_start"] = out["session_start"].astype("datetime64[us]")
        return out[[key, "session_id", "n_events", "session_start"]]

    def to_summaries(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({key: df[key], "_start": df[ts], "_end": df[ts], "_n": np.int64(1)})

    def add_shard(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(_shard=shard_id(df[key], df[ts]))

    def summarize(g: pd.DataFrame) -> pd.DataFrame:
        # one (key_shard, bucket) group: events → per-key session
        # summaries, all vectorized (per-key diff/cumsum, no Python per key)
        g = g.sort_values([key, ts], kind="mergesort")
        brk = g.groupby(key, sort=False)[ts].diff() > gap
        sid = brk.groupby(g[key], sort=False).cumsum()
        out = (
            g.assign(_s=sid)
            .groupby([key, "_s"], sort=False)
            .agg(_start=(ts, "min"), _end=(ts, "max"), _n=(ts, "size"))
            .reset_index()[[key, "_start", "_end", "_n"]]
        )
        out["_n"] = out["_n"].astype("int64")
        return out

    if time_buckets == 1:
        summaries = ds.map_batches(to_summaries, batch_format="pandas")
    else:
        sharded = ds.map_batches(add_shard, batch_format="pandas")
        n = n_shards * time_buckets
        summaries = _exchange(sharded, _column_route("_shard"), n, summarize, "pandas")
    return _exchange(summaries, _key_route([key], n_shards), n_shards, merge_sessions, "pandas")


def _window_prep(sides: list, n_shards: int | None, time_buckets: int):
    """Shared sizing for the windowed operators over ``sides``, a list
    of (dataset, time column): materialize (size, count and min/max
    would re-execute lineage), measure with ``_fits``, derive shards
    from data and the time-bucket axis from both sides' min/max.
    Returns (materialized datasets, n_shards, time_buckets, shard_id),
    where ``shard_id(keys, times)`` is each row's reducer id: key shard
    × time_buckets + time bucket. Within ``SMALL_BYTES`` that is always
    0 (one reducer, no min/max pass), whatever ``n_shards`` /
    ``time_buckets`` say: every windowed operator's per-group pandas
    function groups by the key internally, so one reducer over the
    whole frame is bit-identical to the key-shard layout. Both sides
    are pinned by ``test_window_paths_agree``."""
    sides = [(ds.materialize(), ts) for ds, ts in sides]
    mats = [ds for ds, _ in sides]
    t0 = span = 0.0
    if _fits(mats, "window"):
        n_shards, time_buckets = 1, 1
    elif n_shards is None:
        n_shards = data_sized_shards(sum(ds.count() for ds in mats))
    time_buckets = max(1, int(time_buckets))
    if time_buckets > 1:
        bounds = [_agg_minmax(ds, ts) for ds, ts in sides]
        t0 = min(lo for lo, _ in bounds)
        span = max(hi for _, hi in bounds) - t0
        if span <= 0:
            time_buckets = 1

    def shard_id(keys: pd.Series, times: pd.Series) -> np.ndarray:
        base = shard_of(keys, n_shards).to_numpy()
        return base * time_buckets + _bucket_of(times, t0, span, time_buckets)

    return mats, n_shards, time_buckets, shard_id


def windowed_lag(
    ds: Dataset,
    key: str,
    order_cols: Sequence[str],
    value_col: str,
    out_col: str = "value_delta",
    keep_cols: Sequence[str] | None = None,
    n_shards: int | None = None,
    time_buckets: int = 1,
) -> Dataset:
    """Per-key LAG delta window: each row's ``value_col`` minus the
    previous row's (ordered by ``order_cols`` within ``key``); rows with
    no predecessor drop (the SQL inner-lag shape). One key-shard exchange
    by default. ``time_buckets`` > 1 splits a monster key by time range
    (first ``order_cols`` entry is the time axis): each (key, bucket)'s
    LAST row — lag needs exactly one predecessor — is carried to the
    key's NEXT OCCUPIED bucket, so bucket-first rows still see their
    true predecessor. Output identical across bucket settings."""
    order_cols = list(order_cols)
    ts = order_cols[0]
    keep_cols = list(keep_cols) if keep_cols is not None else []
    (ds,), n_shards, time_buckets, shard_id = _window_prep([(ds, ts)], n_shards, time_buckets)

    def add_shard(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(_shard=shard_id(df[key], df[ts]), _carry=False)

    sharded = ds.map_batches(add_shard, batch_format="pandas")

    def delta_group(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, *order_cols, "_carry"], kind="mergesort")
        g = g.assign(**{out_col: g.groupby(key, sort=False)[value_col].diff()})
        out = g[~g["_carry"]].dropna(subset=[out_col])
        return out[[key, *keep_cols, out_col]]

    if time_buckets > 1:
        sharded = sharded.materialize()  # union + carry pass both consume it

        def last_per_bucket(df: pd.DataFrame) -> pd.DataFrame:
            df = df.sort_values([key, "_shard", *order_cols], kind="mergesort")
            return df.drop_duplicates([key, "_shard"], keep="last")

        def to_next_bucket(g: pd.DataFrame) -> pd.DataFrame:
            g = last_per_bucket(g)
            if len(g) < 2:
                return g.iloc[0:0]
            k = g[key].to_numpy()
            keep = k[:-1] == k[1:]  # non-last row of its key
            out = g.iloc[:-1][keep].copy()
            out["_shard"] = g["_shard"].to_numpy()[1:][keep]  # next OCCUPIED bucket
            out["_carry"] = True
            return out

        # routed by key shard: every bucket of a key meets its next one
        pre = sharded.map_batches(last_per_bucket, batch_format="pandas")
        carries = _exchange(
            pre, _column_route("_shard", time_buckets), n_shards, to_next_bucket, "pandas"
        )
        sharded = sharded.union(carries)
    n = n_shards * time_buckets
    return _exchange(sharded, _column_route("_shard"), n, delta_group, "pandas")


def windowed_running_sum(
    ds: Dataset,
    key: str,
    order_cols: Sequence[str],
    value_col: str,
    out_col: str = "running",
    keep_cols: Sequence[str] | None = None,
    n_shards: int | None = None,
    time_buckets: int = 1,
) -> Dataset:
    """Per-key RUNNING SUM window (rows unbounded preceding → current,
    ordered by ``order_cols``). One key-shard exchange by default.
    ``time_buckets`` > 1 splits a monster key by time range using the
    ASSOCIATIVITY of sums: each (key, bucket) cumsums locally and emits
    its bucket TOTAL; a tiny per-key pass turns totals into exclusive
    prefix OFFSETS per bucket; offsets join back (broadcast merge within
    ``SMALL_BYTES``, engine multi-key hash join above) and add.
    Output identical across bucket settings."""
    order_cols = list(order_cols)
    ts = order_cols[0]
    keep_cols = list(keep_cols) if keep_cols is not None else []
    (ds,), n_shards, time_buckets, shard_id = _window_prep([(ds, ts)], n_shards, time_buckets)

    def add_shard(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(_shard=shard_id(df[key], df[ts]))

    sharded = ds.map_batches(add_shard, batch_format="pandas")
    if time_buckets > 1:
        sharded = sharded.materialize()  # cumsum pass + totals pass

    def local_cumsum(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, *order_cols], kind="mergesort")
        g = g.assign(**{out_col: g.groupby(key, sort=False)[value_col].cumsum()})
        return g[[key, *keep_cols, out_col, "_shard"]]

    partial = _exchange(
        sharded, _column_route("_shard"), n_shards * time_buckets, local_cumsum, "pandas"
    )
    if time_buckets == 1:
        return partial.map_batches(
            lambda df: df.drop(columns=["_shard"]), batch_format="pandas"
        )

    # bucket totals are ORDER-FREE sums of the raw values (never a
    # max of the cumsum, which breaks on negative values): per-batch
    # combiner, then a per-key exclusive prefix over buckets, routed
    # by key shard
    def bucket_totals(df: pd.DataFrame) -> pd.DataFrame:
        t = df.groupby([key, "_shard"], sort=False)[value_col].sum().reset_index()
        return t.rename(columns={value_col: "_total"})

    def to_offsets(g: pd.DataFrame) -> pd.DataFrame:
        g = (
            g.groupby([key, "_shard"], sort=False)["_total"].sum().reset_index()
        ).sort_values([key, "_shard"], kind="mergesort")
        excl = g.groupby(key, sort=False)["_total"].cumsum() - g["_total"]
        return g.assign(_offset=excl)[[key, "_shard", "_offset"]]

    totals = sharded.map_batches(bucket_totals, batch_format="pandas")
    offsets = _exchange(
        totals, _column_route("_shard", time_buckets), n_shards, to_offsets, "pandas"
    )

    # every (key, bucket) in the stream exists in offsets by
    # construction — the inner join is total, dtypes survive
    on = [key, "_shard"]
    if _fits(offsets, "windowed_running_sum"):
        joined = broadcast_join(partial, to_pandas_schema_safe(offsets), on, on)
    else:
        joined = hash_join(partial, offsets, on=on)
    out_cols = [key, *keep_cols, out_col]

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df[out_col] = df[out_col] + df["_offset"]
        return df[out_cols]

    return joined.map_batches(finish, batch_format="pandas")


def compact_blocks(ds: Dataset) -> Dataset:
    """Materialize and drop EMPTY blocks, ahead of an engine join.

    Ray's hash join emits zero-column empty blocks for empty
    partitions, and feeding those into a further ``Dataset.join`` fails
    with "No match for key field reference" (the exchange never emits
    them: it drops empty reducers). Row blocks stay in the object store
    (refs are reused, nothing lands on the driver). Row counts come
    from the block metadata, not from a remote count task per block
    (0.04–1.5 s per call on a 4-CPU host)."""
    mat = ds.materialize()
    rows = [md.num_rows for b in mat.iter_internal_ref_bundles() for _, md in b.blocks]
    keep = [r for r, n in zip(mat.to_arrow_refs(), rows) if n != 0]
    if not keep:
        return mat
    return rd.from_arrow_refs(keep)


def grouped_rank_topk(
    ds: Dataset,
    group: str,
    value_col: str,
    k: int,
    rank_col: str = "rank",
    num_partitions: int | None = None,
) -> Dataset:
    """RANK() <= k within each group, descending by ``value_col``, ties
    share a rank (SQL RANK semantics — a group can emit more than k
    rows). Monster-key safe BY CONSTRUCTION: no group's row set is ever
    co-located. Two passes:

    1. candidate reduction — per block, the k highest DISTINCT values
       per group with their row counts (any global top-k distinct value
       is a local top-k distinct value in every block it appears in);
       the keyed tail (``_by_key``) over that combiner stream computes
       each group's exact top-k distinct values, their global counts,
       and therefore their RANKS (rank of value v = 1 + rows strictly
       above v);
    2. the (group, value, rank) mapping — k rows per group — joins back
       onto the stream: broadcast merge within ``SMALL_BYTES``, the
       engine's multi-key hash join above it. Rows whose value misses
       the mapping drop (rank > k).
    """

    def local_candidates(df: pd.DataFrame) -> pd.DataFrame:
        c = (
            df.groupby([group, value_col], sort=False)
            .size()
            .rename("_n")
            .reset_index()
        )
        c = c.sort_values([group, value_col], ascending=[True, False], kind="mergesort")
        return c.groupby(group, sort=False).head(k)

    def to_ranks(g: pd.DataFrame) -> pd.DataFrame:
        g = (
            g.groupby([group, value_col], sort=False)["_n"].sum().reset_index()
        ).sort_values([group, value_col], ascending=[True, False], kind="mergesort")
        g = g.groupby(group, sort=False).head(k)
        above = g.groupby(group, sort=False)["_n"].cumsum() - g["_n"]
        g[rank_col] = (above + 1).astype("int64")
        return g[g[rank_col] <= k][[group, value_col, rank_col]]

    cands = ds.map_batches(local_candidates, batch_format="pandas").materialize()
    mapping = _by_key(cands, [group], to_ranks, "pandas").materialize()

    # pandas turns an int column with nulls into float64 in the batches
    # that hold one: both joins give the keys back the stream's types
    on = [group, value_col]
    s = ds.schema()  # None for an empty stream: nothing to restore
    types = {c: _as_arrow_type(t) for c, t in zip(s.names, s.types) if c in on} if s else {}
    if _fits(mapping, "grouped_rank_topk"):
        joined = broadcast_join(ds, to_pandas_schema_safe(mapping), on, on)
    else:
        joined = hash_join(ds, cast_columns(mapping, types), on=on, num_partitions=num_partitions)
    return cast_columns(joined, types)


def cast_columns(ds: Dataset, types: dict[str, pa.DataType]) -> Dataset:
    """Dtype normalization across blocks (e.g. a pandas batch turns an
    int column with nulls into float64; the driver's value-hash and the
    engine join are dtype-strict)."""

    def fn(t: pa.Table) -> pa.Table:
        for col, typ in types.items():
            i = t.schema.get_field_index(col)
            t = t.set_column(i, col, pc.cast(t[col], typ))
        return t

    return ds.map_batches(fn, batch_format="pyarrow")


def to_pandas_schema_safe(ds: Dataset) -> pd.DataFrame:
    """``Dataset.to_pandas()`` that keeps the SCHEMA on empty results.

    Ray 2.49's ``to_pandas`` returns a zero-COLUMN frame for zero-row
    datasets even when ``ds.schema()`` is fully typed, so callers that
    sort or index by column crash on legitimately-empty answers (e.g. a
    duplicate-free corpus through a dedup pipeline)."""
    df = ds.to_pandas()
    if len(df.columns) == 0:
        sch = ds.schema()
        if sch is not None:
            df = pd.DataFrame(
                {
                    n: pd.Series(
                        [], dtype=np.dtype(_as_arrow_type(t).to_pandas_dtype())
                    )
                    for n, t in zip(sch.names, sch.types)
                }
            )
    return df


def collect_column(ds: Dataset, col: str) -> np.ndarray:
    """Materialize one column of a SMALL dataset on the driver."""
    parts = [b[col].to_numpy(zero_copy_only=False) for b in ds.iter_batches(batch_format="pyarrow")]
    return np.concatenate(parts) if parts else np.array([])
