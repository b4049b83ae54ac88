"""Span recorder for the traced benchmark run.

The traced run wraps calls into the program's layers from outside the
program: the wrappers below replace public functions and methods of
``bbcrawl_ray`` modules. In every process of a traced run (the child
and each Ray worker) ``perfbench/hook/sitecustomize.py`` installs an
import hook that wraps the worker-side layers as their modules load;
:func:`install_main` adds the layers that run in the main process. No Ray
``runtime_env`` is used, so Ray schedules and pools its workers exactly
as in an untraced run.

A span records name, start, end, the span that was open in the same
thread when it started (its parent), the run id and the process id,
plus counts of the work the call did. Spans stay in memory. The main process
writes its spans out when the run ends. Ray ends its worker processes
with SIGKILL, so neither ``atexit`` nor a SIGTERM handler ever runs in
them; a worker therefore writes its buffered spans out when its
outermost traced call returns (once per batch a UDF handles).

Recording is switched on and off by a flag file, so one Ray instance
serves an untraced and a traced pass and their difference is the
tracing overhead.
"""

from __future__ import annotations

import functools
import glob
import importlib
import importlib.abc
import inspect
import itertools
import json
import os
import sys
import threading
import time

ENV_DIR = "PERFBENCH_TRACE_DIR"
ENV_RUN = "PERFBENCH_RUN_ID"

# query-side layers: every public function counts as a call into the layer
QUERY_LAYERS = {
    "relops": "bbcrawl_ray.pipelines.relops",
    "dedup": "bbcrawl_ray.stages.dedup",
    "textops": "bbcrawl_ray.stages.textops",
    "similarity": "bbcrawl_ray.stages.similarity",
    "sampling": "bbcrawl_ray.stages.sampling",
}


class Recorder:
    """Per-process span store."""

    def __init__(self, out_dir: str, run_id: str, main: bool):
        self.out_dir = out_dir
        self.run_id = run_id
        self.main = main  # the process that runs ray.init (else a Ray worker)
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._flag = os.path.join(out_dir, "ENABLED")
        self.enabled_override: bool | None = None

    def enabled(self) -> bool:
        if self.enabled_override is not None:
            return self.enabled_override
        return os.path.exists(self._flag)

    def set_enabled(self, on: bool) -> None:
        """Main process: switch recording on or off in every process."""
        self.enabled_override = on
        if on:
            open(self._flag, "w").close()
        elif os.path.exists(self._flag):
            os.remove(self._flag)

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def begin(self, name: str, **attrs) -> dict:
        st = self._stack()
        span = {
            "id": f"{os.getpid()}:{next(self._ids)}",
            "name": name,
            "start": time.time(),
            "end": None,
            "parent": st[-1]["id"] if st else None,
            "run": self.run_id,
            "pid": os.getpid(),
            "main": self.main,
            "attrs": attrs,
        }
        st.append(span)
        return span

    def end(self, span: dict, at: float | None = None) -> None:
        span["end"] = time.time() if at is None else at
        st = self._stack()
        st.pop()
        with self._lock:
            self.spans.append(span)
        if not st and not self.main:
            self.flush()

    def flush(self) -> None:
        with self._lock:
            out, self.spans = self.spans, []
        if not out:
            return
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as f:
            for s in out:
                f.write(json.dumps(s) + "\n")


REC: Recorder | None = None


def _rec() -> Recorder | None:
    """This process's recorder; a Ray worker makes its own on first use.

    Looked up through the module at call time: a wrapper that Ray
    pickles by value must still find THIS process's recorder."""
    mod = sys.modules.get("perfbench.trace")
    if mod is None:
        return None
    if mod.REC is None and os.environ.get(ENV_DIR):
        mod.REC = Recorder(os.environ[ENV_DIR], os.environ.get(ENV_RUN, ""), main=False)
    return mod.REC


def _traced(name, fn, attrs_in=None, attrs_out=None, name_of=None, main_only=False):
    """Wrap ``fn`` so each call records one span (none when ``name_of``
    returns None for the call)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = _rec()
        if rec is None or (main_only and not rec.main) or not rec.enabled():
            return fn(*args, **kwargs)
        span_name = name_of(*args, **kwargs) if name_of else name
        if span_name is None:
            return fn(*args, **kwargs)
        span = rec.begin(span_name, **(attrs_in(*args, **kwargs) if attrs_in else {}))
        end = None
        try:
            out = fn(*args, **kwargs)
            end = time.time()
            if attrs_out is not None:
                span["attrs"].update(attrs_out(out, *args, **kwargs))
        finally:
            rec.end(span, end)
        return out

    wrapper.__perfbench_original__ = fn
    return wrapper


def _replace_everywhere(module_name: str, attr: str, wrapper) -> None:
    """Rebind ``module.attr`` and every ``bbcrawl_ray`` module global
    that holds the same object (``from x import f`` copies)."""
    mod = sys.modules[module_name]
    original = getattr(mod, attr)
    for m in list(sys.modules.values()):
        name = getattr(m, "__name__", "")
        if not name.startswith("bbcrawl_ray"):
            continue
        d = getattr(m, "__dict__", {})
        for k, v in list(d.items()):
            if v is original:
                setattr(m, k, wrapper)


def _patch_method(cls, attr, name, **kw) -> None:
    fn = cls.__dict__[attr]
    if hasattr(fn, "__perfbench_original__"):
        return
    setattr(cls, attr, _traced(name, fn, **kw))


def _patch_function(module_name, attr, name, **kw) -> None:
    mod = sys.modules[module_name]
    fn = getattr(mod, attr)
    if hasattr(fn, "__perfbench_original__"):
        return
    _replace_everywhere(module_name, attr, _traced(name, fn, **kw))


# -- per-layer counts --------------------------------------------------------


def _fetch_out(out, self, batch):
    import pyarrow.compute as pc

    body = pc.sum(pc.binary_length(out["body"])).as_py() or 0
    return {"rows": int(out.num_rows), "body_bytes": int(body)}


def _parse_out(out, self, batch):
    import pyarrow.compute as pc

    kind = out["record_kind"]
    docs = out.filter(pc.equal(kind, "doc"))
    spans = pc.sum(pc.list_value_length(docs["spans"])).as_py() or 0
    links = pc.sum(pc.equal(kind, "link").cast("int64")).as_py() or 0
    return {"rows": int(batch.num_rows), "spans": int(spans), "links": int(links)}


def _seen_out(out, self, batch):
    return {"rows_in": int(batch.num_rows), "rows_out": int(out.num_rows)}


def _wait_name(self, host):
    # the same effective delay Fetcher._wait_turn computes: only a call
    # that can wait counts as a politeness wait
    delay = self.cfg.min_host_delay_s
    rules = self.robots.get(host)
    if rules is not None and rules.crawl_delay > delay:
        delay = rules.crawl_delay
    return "politeness.wait_turn" if delay > 0 else None


def _write_part_name(self, epoch, part, ds, **kw):
    return f"checkpoint.write_{part}"


def _write_part_out(out, self, epoch, part, ds, **kw):
    files = [f for f in glob.glob(f"{out}/**/*", recursive=True) if os.path.isfile(f)]
    return {
        "epoch": int(epoch),
        "files": len(files),
        "bytes": int(sum(os.path.getsize(f) for f in files)),
    }


def _links_out(out, links, *a, **k):
    return {"rows_in": int(links.num_rows), "rows": int(out.num_rows)}


def _pager_out(out, batch):
    return {"rows": int(out.num_rows)}


def _patch_fetch(mod) -> None:
    _patch_method(mod.Fetcher, "__call__", "fetch.call", attrs_out=_fetch_out)
    _patch_method(mod.Fetcher, "_wait_turn", None, name_of=_wait_name)


def _patch_parse(mod) -> None:
    _patch_method(mod.ParsePages, "__call__", "parse.call", attrs_out=_parse_out)


def _patch_seen(mod) -> None:
    _patch_method(mod.SeenFilter, "__call__", "seen.filter", attrs_out=_seen_out)


def _patch_pagers(mod) -> None:
    _patch_function(mod.__name__, "expand_seeds_batch", "pagers.expand", attrs_out=_pager_out)


def _patch_crawl(mod) -> None:
    _patch_function(
        mod.__name__, "_links_to_frontier", "crawl.links_to_frontier", attrs_out=_links_out
    )


# layers whose calls run in Ray workers: patched as soon as their module
# has executed, so later ``from x import f`` copies bind the wrapper
WORKER_PATCHES = {
    "bbcrawl_ray.stages.fetch": _patch_fetch,
    "bbcrawl_ray.stages.parse": _patch_parse,
    "bbcrawl_ray.state.seen": _patch_seen,
    "bbcrawl_ray.sources.pagers": _patch_pagers,
    "bbcrawl_ray.pipelines.crawl": _patch_crawl,
}


class _PostImportPatcher(importlib.abc.MetaPathFinder):
    """Runs ``WORKER_PATCHES[name]`` right after module ``name`` executes."""

    def find_spec(self, name, path, target=None):
        if name not in WORKER_PATCHES:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        run_module = spec.loader.exec_module

        def exec_module(module):
            run_module(module)
            WORKER_PATCHES[name](module)

        spec.loader.exec_module = exec_module
        return spec


def install_import_hook() -> None:
    """Called from ``perfbench/hook/sitecustomize.py`` at interpreter start
    in every process of a traced run (the child and all Ray workers)."""
    if not any(isinstance(f, _PostImportPatcher) for f in sys.meta_path):
        sys.meta_path.insert(0, _PostImportPatcher())


def _count_operators(dag) -> int:
    """Physical operators of one executed Ray Data plan (input buffers aside)."""
    seen, stack, n = set(), [dag], 0
    while stack:
        op = stack.pop()
        if id(op) in seen:
            continue
        seen.add(id(op))
        n += type(op).__name__ != "InputDataBuffer"
        stack.extend(op.input_dependencies)
    return n


def _patch_main_layers() -> None:
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from bbcrawl_ray.pipelines import crawl
    from bbcrawl_ray.state.checkpoint import CheckpointManager

    # every plan Ray Data executes, gate probes and materialisations included
    _patch_method(
        StreamingExecutor,
        "execute",
        "ray.execute",
        attrs_in=lambda self, dag, *a, **k: {"ops": _count_operators(dag)},
        main_only=True,
    )
    _patch_method(
        CheckpointManager,
        "write_part",
        None,
        name_of=_write_part_name,
        attrs_out=_write_part_out,
    )
    _patch_function(
        "bbcrawl_ray.state.politeness", "budget_frontier", "politeness.budget_frontier"
    )
    _patch_function(
        crawl.__name__,
        "run_crawl",
        "crawl.run_crawl",
        attrs_in=lambda cfg, resume=False: {"resume": bool(resume)},
    )
    for layer, module_name in QUERY_LAYERS.items():
        mod = importlib.import_module(module_name)
        for attr, fn in list(vars(mod).items()):
            if (
                attr.startswith("_")
                or not inspect.isfunction(fn)
                or fn.__module__ != module_name
            ):
                continue
            _patch_function(module_name, attr, f"{layer}.{attr}", main_only=True)


def install_main(out_dir: str, run_id: str) -> Recorder:
    """Add the main-process wrappers (the import hook has wrapped the
    worker-side layers already); recording starts off."""
    global REC
    import bbcrawl_ray.pipelines.queries  # noqa: F401  (binds the query layers)

    REC = Recorder(out_dir, run_id, main=True)
    REC.set_enabled(False)
    _patch_main_layers()
    return REC


def load_spans(out_dir: str) -> list[dict]:
    spans = []
    for path in sorted(glob.glob(os.path.join(out_dir, "spans-*.jsonl"))):
        with open(path) as f:
            spans.extend(json.loads(line) for line in f if line.strip())
    return spans


# -- analysis ----------------------------------------------------------------


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _union_len(intervals: list[tuple[float, float]]) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def attach_parents(spans: list[dict]) -> None:
    """A worker's outermost span gets as parent the innermost main-process span
    that was open when it started (cross-process causality by time)."""
    main = [s for s in spans if s["main"]]
    for s in spans:
        if s["main"] or s["parent"] is not None:
            continue
        best = None
        for d in main:
            if d["start"] <= s["start"] <= d["end"]:
                if best is None or d["start"] >= best["start"]:
                    best = d
        s["parent"] = best["id"] if best else None


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per layer: span duration minus the part its children cover."""
    kids: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out: dict[str, float] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        inside = [
            (max(a, s["start"]), min(b, s["end"]))
            for a, b in kids.get(s["id"], [])
            if b > s["start"] and a < s["end"]
        ]
        covered = _union_len(inside)
        layer = layer_of(s["name"])
        out[layer] = out.get(layer, 0.0) + max(0.0, dur - covered)
    return out
