#!/usr/bin/env python
"""Crawl memory probe: the peak RSS of one crawl shape, split by process.

Runs the budgeted frontier shape in one Ray session: one hot cutter
host and 7 cold query hosts, a per-host budget, a 1 ms politeness
delay, ``follow_links``, 2 epochs, then a resume of epoch 1 from a copy
of the epoch-0 checkpoint (so state started by the first crawl and not
yet freed shows beside the second crawl's). A thread samples every
0.5 s the RSS of this run's own processes (this process plus every
process whose environment carries the run's marker: Ray's daemons and
workers), read from ``/proc``. Prints one JSON line: the peak summed
RSS, the process count at that sample, and per process title
(``ray::SeenShard``, ``ray::IDLE``, ``raylet``, ...) the count and RSS
at that sample.

Usage: python tools/rss_probe.py  [RAY_GRAFT_CPUS=4]
"""

import json
import os
import re
import shutil
import sys
import tempfile
import threading
import time
import uuid

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

MARKER = "RSS_PROBE_RUN"
HOT_PAGES, COLD_HOSTS, COLD_PAGES, BUDGET, DELAY, EPOCHS = 2000, 7, 60, 600, 0.001, 2
PAGE = os.sysconf("SC_PAGE_SIZE")


def run_pids(tag: bytes) -> list[int]:
    """This process and every live process whose environment has ``tag``."""
    out = [os.getpid()]
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == os.getpid():
            continue
        try:
            with open(f"/proc/{name}/environ", "rb") as f:
                if tag in f.read().split(b"\0"):
                    out.append(int(name))
        except OSError:
            continue
    return out


def title(pid: int) -> str:
    """The Ray process title without the running method's name
    (``ray::SeenShard.reserve`` → ``ray::SeenShard``), else the
    executable's name, with the script of a Python process."""
    with open(f"/proc/{pid}/cmdline", "rb") as f:
        argv = [a.decode(errors="replace") for a in f.read().split(b"\0") if a]
    if not argv:
        return "?"
    if argv[0].startswith("ray::"):
        return re.sub(r"\.[A-Za-z_]\w*$", "", argv[0].split()[0])
    name = os.path.basename(argv[0].split()[0])
    scripts = [os.path.basename(a) for a in argv[1:] if a.endswith(".py")]
    return f"{name} {scripts[0]}" if name.startswith("python") and scripts else name


def sample(tag: bytes) -> dict[str, list[float]]:
    """RSS in MB of each of this run's processes, grouped by title."""
    out: dict[str, list[float]] = {}
    for pid in run_pids(tag):
        try:
            with open(f"/proc/{pid}/statm") as f:
                rss = int(f.read().split()[1]) * PAGE / 2**20
            out.setdefault(title(pid), []).append(rss)
        except (OSError, IndexError, ValueError):
            continue
    return out


class Sampler(threading.Thread):
    def __init__(self, tag: bytes, period: float = 0.5):
        super().__init__(daemon=True)
        self.tag, self.period = tag, period
        self.peak: dict[str, list[float]] = {}
        self._halt = threading.Event()

    def run(self):
        while not self._halt.is_set():
            now = sample(self.tag)
            if sum(map(sum, now.values())) > sum(map(sum, self.peak.values())):
                self.peak = now
            self._halt.wait(self.period)

    def stop(self):
        self._halt.set()
        self.join()


def frontier_cfg(root: str, epochs: int, ncpu: int):
    from bbcrawl_ray.cli.partition import CrawlerSpec
    from bbcrawl_ray.pipelines.crawl import CrawlConfig

    digits = len(str(HOT_PAGES))
    seeds = [
        {
            "seed_id": "hot",
            "pager": "cutter",
            "blueprint_url": f"http://hot.example/p/{'0' * digits}.html",
            "start": 1,
            "end": HOT_PAGES,
            "cut_index": 22,
            "cut_len": digits,
            "digits": digits,
        }
    ] + [
        {"seed_id": f"cold{h}", "pager": "query", "blueprint_url": f"http://cold{h}.example/t", "start": 1, "end": COLD_PAGES}
        for h in range(COLD_HOSTS)
    ]
    return CrawlConfig(
        crawler=CrawlerSpec(crawler="src", tags=["img"]),
        seeds=seeds,
        output_root=root,
        follow_links=True,
        same_host_only=True,
        per_host_budget=BUDGET,
        min_host_delay_s=DELAY,
        skew_split_threshold=max(64, BUDGET // 3),
        max_epochs=epochs,
        seen_shards=4,
        seen_mode="bloom",
        fetch_concurrency=(2, max(4, ncpu)),
        fetch_batch_size=256,
        fetch_num_cpus=1,
        metrics_level="full",
    )


def main() -> None:
    run_id = uuid.uuid4().hex
    os.environ[MARKER] = run_id  # inherited by every process Ray starts
    import ray

    ncpu = int(os.environ.get("RAY_GRAFT_CPUS", len(os.sched_getaffinity(0))))
    ray.init(address="local", num_cpus=ncpu, include_dashboard=False, logging_level="ERROR")
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False
    from bbcrawl_ray.pipelines.crawl import run_crawl

    sampler = Sampler(f"{MARKER}={run_id}".encode())
    sampler.start()
    work = tempfile.mkdtemp(prefix="rss_probe_")
    walls = []
    try:
        t0 = time.perf_counter()
        run_crawl(frontier_cfg(f"{work}/a", EPOCHS, ncpu))
        walls.append(round(time.perf_counter() - t0, 2))
        for e in range(EPOCHS - 1):
            shutil.copytree(f"{work}/a/checkpoints/epoch={e:05d}", f"{work}/b/checkpoints/epoch={e:05d}")
        t0 = time.perf_counter()
        run_crawl(frontier_cfg(f"{work}/b", 1, ncpu), resume=True)
        walls.append(round(time.perf_counter() - t0, 2))
    finally:
        sampler.stop()
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
    peak = sampler.peak
    by_title = {
        t: {"n": len(v), "rss_mb": round(sum(v))}
        for t, v in sorted(peak.items(), key=lambda kv: -sum(kv[1]))
    }
    print(
        json.dumps(
            {
                "num_cpus": ncpu,
                "crawl_walls_s": walls,
                "peak_rss_mb": round(sum(map(sum, peak.values()))),
                "processes": sum(len(v) for v in peak.values()),
                "by_title": by_title,
            }
        )
    )


if __name__ == "__main__":
    main()
