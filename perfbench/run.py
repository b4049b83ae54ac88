#!/usr/bin/env python3
"""The repository benchmark: one command, one workload, one JSON line.

    python3 perfbench/run.py --workload crawl --seed 1 --seconds 26 --trace 0

Workloads (see perfbench/README.md for what each stresses and why):
``crawl`` and ``queries``. Every leg of a workload runs in a fresh
child process (``perfbench/child.py``) with its own Ray instance,
under a watchdog that kills the child's process group and every
process the child started.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics.

Other modes: ``--fixed-cost`` prints the engine fixed-cost table
(``perfbench/fixed_cost.py``); ``--selftest`` shows that every checker
rejects a perturbed output (``perfbench/selftest.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MARKER = "PERFBENCH_RUN_ID"

# the one operation that fails on every run until the resume fault
# (run_crawl(resume=True) drops the links discovered in the last
# complete epoch) is fixed; correct stays true when only it fails
KNOWN_FAULTS = {("crawl", "resume_equivalence")}

# a run must end within 180 s: the watchdog shares 170 s among the legs
WATCHDOG_S = 170.0
# operations in one round of each leg; a hung leg counts its rounds failed
ROUND_OPS = {"crawl_full": 4, "crawl_1cpu": 1, "queries": 22}
CRAWL_PAGES_PER_HOST = 400
CRAWL_HOSTS = 16
TABLE_SCALE = 0.02
# measured seconds per round on a 4-CPU host: one crawl round (the bounded
# crawl, the frontier crawl and its resume, one 1-CPU bounded crawl) and
# one query pass; --seconds is divided by these into whole rounds
CRAWL_ROUND_S = 40.0
QUERY_PASS_S = 13.0


def host_cpus() -> int:
    """Ray's CPU count: the affinity mask, capped at 4 (``nproc`` follows
    OMP_NUM_THREADS and can read 1 on a 4-CPU host)."""
    return min(4, len(os.sched_getaffinity(0)))


def steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over CPUs."""
    with open("/proc/stat") as f:
        cpu = f.readline().split()
    return int(cpu[8]) / os.sysconf("SC_CLK_TCK") if len(cpu) > 8 else 0.0


def host_line(ncpu: int) -> str:
    with open("/proc/loadavg") as f:
        load = " ".join(f.read().split()[:3])
    return f"host: cpus={ncpu} affinity={len(os.sched_getaffinity(0))} steal_s={steal_s():.1f} loadavg={load}"


# -- processes -----------------------------------------------------------------


def marked_pids(run_id: str, verdicts: dict | None = None) -> list[int]:
    """Every live process whose environment carries this run's marker
    (the child, its Ray daemons and Ray workers). ``verdicts`` caches
    the answer per (pid, start time) across calls."""
    tag = f"{MARKER}={run_id}".encode()
    verdicts = {} if verdicts is None else verdicts
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as f:
                key = (name, f.read().rsplit(b")", 1)[1].split()[19])
            if key not in verdicts:
                with open(f"/proc/{name}/environ", "rb") as f:
                    verdicts[key] = tag in f.read().split(b"\0")
        except (OSError, IndexError):
            continue
        if verdicts[key]:
            out.append(int(name))
    return out


def rss_mb(pids: list[int]) -> float:
    page = os.sysconf("SC_PAGE_SIZE")
    tot = 0
    for p in pids:
        try:
            with open(f"/proc/{p}/statm") as f:
                tot += int(f.read().split()[1]) * page
        except (OSError, IndexError, ValueError):
            continue
    return tot / 2**20


class RssSampler(threading.Thread):
    """Peak summed RSS of the run's processes, sampled from /proc."""

    def __init__(self, run_id: str, period: float = 0.5):
        super().__init__(daemon=True)
        self.run_id, self.period = run_id, period
        self.peak = 0.0
        self._halt = threading.Event()

    def run(self):
        verdicts: dict = {}
        while not self._halt.is_set():
            self.peak = max(self.peak, rss_mb(marked_pids(self.run_id, verdicts)))
            self._halt.wait(self.period)

    def stop(self):
        self._halt.set()
        self.join()


def reap(run_id: str, timeout: float = 20.0) -> None:
    """SIGKILL whatever is left of a run and wait until it is gone."""
    deadline = time.monotonic() + timeout
    while True:
        pids = [p for p in marked_pids(run_id) if p != os.getpid()]
        if not pids:
            return
        for p in pids:
            try:
                os.kill(p, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if time.monotonic() > deadline:
            print(f"warning: processes {pids} did not exit", file=sys.stderr)
            return
        time.sleep(0.1)


def run_leg(spec: dict, workdir: str, timeout: float) -> tuple[dict | None, str]:
    """Run one leg in a child process group; returns (result, status)."""
    run_id = spec["run_id"]
    spec_path = os.path.join(workdir, f"{spec['name']}.spec.json")
    spec["result"] = os.path.join(workdir, f"{spec['name']}.result.json")
    spec["t_spawn"] = time.time()
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    env = dict(os.environ)
    env[MARKER] = run_id
    paths = [ROOT]
    if spec["trace"]:
        # the hook directory's sitecustomize installs the trace wrappers
        # in the child and in every Ray worker it starts
        paths.append(os.path.join(HERE, "hook"))
        env["PERFBENCH_TRACE_DIR"] = spec["trace_dir"]
    env["PYTHONPATH"] = os.pathsep.join(paths + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("RAY_ADDRESS", None)
    log_path = os.path.join(workdir, f"{spec['name']}.log")
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.child", spec_path],
            cwd=ROOT,
            env=env,
            stdout=log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=timeout)
            status = "ok" if code == 0 else f"exit {code}"
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            status = "timeout"
    reap(run_id)
    result = None
    if os.path.exists(spec["result"]):
        with open(spec["result"]) as f:
            result = json.load(f)
    if result is None or status != "ok":
        with open(log_path) as f:
            tail = f.read()[-3000:]
        print(f"leg {spec['name']}: {status}\n{tail}", file=sys.stderr)
    if result is not None:
        walls = " ".join(
            f"{o['name']}={o['wall']:.2f}" + (f"{o['epoch_walls']}" if o.get("epoch_walls") else "")
            for o in result["ops"]
        )
        print(f"leg {spec['name']}: setup_s={result['setup_s'] or 0:.2f} {walls}", flush=True)
    return result, status


# -- workloads -----------------------------------------------------------------


def legs_for(workload: str, args, ncpu: int, workdir: str) -> list[dict]:
    base = {
        "seed": args.seed,
        "trace": bool(args.trace),
        "workdir": workdir,
        "ncpu": ncpu,
        "object_store_mb": 768,
        "ray_temp": ray_temp_dir(workdir),
    }
    # --seconds sets whole rounds, never a deadline, so every run of a
    # workload attempts the same operations whatever the host's speed
    if workload == "crawl":
        rounds = max(1, round(args.seconds / CRAWL_ROUND_S))
        leg = dict(base, leg="crawl", hosts=CRAWL_HOSTS, pages_per_host=CRAWL_PAGES_PER_HOST, rounds=rounds)
        full = dict(leg, name="crawl_full", frontier=True)
        one = dict(leg, name="crawl_1cpu", ncpu=1, frontier=False)
        return [full] if args.trace else [full, one]
    if workload == "queries":
        tables = os.path.join(workdir, "tables")
        from perfbench.tables import write_tables

        write_tables(tables, args.seed, TABLE_SCALE)
        rounds = max(1, round(args.seconds / QUERY_PASS_S))
        return [dict(base, leg="queries", name="queries", tables_dir=tables, rounds=rounds)]
    raise SystemExit(f"unknown workload {workload!r}")


def ray_temp_dir(workdir: str) -> str | None:
    """Ray's session dir inside the checkout when its socket paths fit
    the 107-byte AF_UNIX limit; otherwise Ray's default."""
    path = os.path.join(workdir, "r")
    return path if len(path) <= 40 else None


def median(xs):
    return statistics.median(xs) if xs else None


def summarize(workload: str, legs: dict) -> tuple:
    """(primary_s, secondary_s, detail figures) from each leg's untraced
    operations; a time is None when its operation did not succeed."""

    def walls(leg: str, name: str) -> list:
        return [o["wall"] for o in legs.get(leg, []) if o["name"] == name and o["ok"]]

    if workload == "crawl":
        primary, secondary = median(walls("crawl_full", "bounded")), median(walls("crawl_1cpu", "bounded"))
        pages = CRAWL_HOSTS * CRAWL_PAGES_PER_HOST
        frontier = [o for o in legs.get("crawl_full", []) if o["name"] == "frontier" and o["ok"]]
        detail = {
            "pages_per_s": pages / primary if primary else None,
            "pages_per_s_1cpu": pages / secondary if secondary else None,
            "scaling_eff": secondary / primary / host_cpus() if primary and secondary else None,
            "frontier.pages_per_s": median([o["pages"] / o["wall"] for o in frontier]),
            "frontier.epoch_p50_s": median([median(o["epoch_walls"]) for o in frontier]),
            "frontier.resume_s": median(walls("crawl_full", "resume")),
        }
        return primary, secondary, detail
    # per line the fastest pass, summed per family: a line's wall grows in
    # one pass now and then by a one-off event (Ray starting a worker
    # process, a burst of CPU stolen by the hypervisor), which the other
    # pass does not repeat
    fam = {}
    for name in ("relational", "text"):
        best: dict = {}
        for o in legs.get("queries", []):
            if o.get("family") == name:
                best[o["name"]] = min(best.get(o["name"], o["wall"]), o["wall"])
        fam[name] = sum(best.values()) if best else None
    return fam["relational"], fam["text"], {"relational_s": fam["relational"], "text_s": fam["text"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=26)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--fixed-cost", action="store_true")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "bbcrawl_ray", "pipelines")):
        print(f"error: the program (bbcrawl_ray/) is not next to {HERE}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    if args.selftest:
        from perfbench.selftest import main as selftest

        return selftest()
    ncpu = host_cpus()
    print(host_line(ncpu), flush=True)
    if args.fixed_cost:
        from perfbench.fixed_cost import main as fixed_cost

        return fixed_cost(ncpu)
    if not args.workload:
        p.error("--workload is required")

    work_parent = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_parent, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="", dir=work_parent)
    run_id = uuid.uuid4().hex[:12]
    steal0, t0 = steal_s(), time.monotonic()
    sampler = RssSampler(run_id)
    sampler.start()
    results: dict = {}
    statuses: dict = {}
    legs = []
    try:
        legs = legs_for(args.workload, args, ncpu, workdir)
        for leg in legs:
            leg["run_id"] = run_id
            if leg["trace"]:
                leg["trace_dir"] = os.path.join(workdir, f"trace_{leg['name']}")
                os.makedirs(leg["trace_dir"])
            left = max(1.0, WATCHDOG_S - (time.monotonic() - t0))
            results[leg["name"]], statuses[leg["name"]] = run_leg(leg, workdir, left)
    finally:
        sampler.stop()
        reap(run_id)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_parent)
        except OSError:
            pass

    # steal during the run says how much a slow run owes to other guests
    print(f"host: run wall_s={time.monotonic() - t0:.1f} steal_s={steal_s() - steal0:.1f}")
    if any(s not in ("ok", "timeout") for s in statuses.values()):
        return 1
    ops = [o for r in results.values() if r for o in r["ops"]]
    # a traced run's end-to-end figures come from its untraced round
    untraced = {name: [o for o in r["ops"] if not o.get("traced")] for name, r in results.items() if r}
    primary, secondary, detail = summarize(args.workload, untraced)
    setups = [r["setup_s"] for r in results.values() if r and r.get("setup_s") is not None]
    # a leg the watchdog killed costs its whole watchdog time
    metrics = {
        "setup_s": (median(setups) or WATCHDOG_S, "s"),
        "primary_s": (primary or WATCHDOG_S, "s"),
        "secondary_s": (secondary or WATCHDOG_S, "s"),
        "peak_rss_mb": (sampler.peak, "MB"),
    }
    rounds = lambda leg: 2 if leg["trace"] else leg["rounds"]  # noqa: E731  (untraced + traced)
    hung = sum(ROUND_OPS[leg["name"]] * rounds(leg) for leg in legs if statuses[leg["name"]] == "timeout")
    attempted = len(ops) + hung
    failed = sum(1 for o in ops if not o["ok"]) + hung
    correct = all(o["ok"] or (args.workload, o["name"]) in KNOWN_FAULTS for o in ops)
    for o in ops:
        if not o["ok"]:
            print(f"failed: {o['name']}: {'; '.join(o['errors'])[:500]}")
    print("detail: " + json.dumps({k: round(v, 4) for k, v in detail.items() if v is not None}))
    if args.trace:
        layers: dict = {}
        for r in results.values():
            for k, v in (r or {}).get("layers", {}).items():
                layers[k] = layers.get(k, 0.0) + v
        for k, v in detail.items():
            if k.startswith("frontier.") and v is not None:
                layers[k] = v
        out_metrics = layer_metrics(layers)
    else:
        out_metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out_metrics}))
    return 0


def layer_metrics(layers: dict) -> dict:
    """Every per-layer metric of BENCHMARK.json; 0 for a layer the
    workload does not run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer"]
    return {m["name"]: {"value": float(layers.get(m["name"], 0.0)), "unit": m["unit"]} for m in spec}


if __name__ == "__main__":
    sys.exit(main())
