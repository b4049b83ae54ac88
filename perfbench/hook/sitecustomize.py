"""Loaded at interpreter start by every Python process of a traced run.

``perfbench/run.py`` puts this directory on ``PYTHONPATH`` only for a
traced run (``--trace 1``), so the Ray workers that run the crawl's
map_batches UDFs wrap the program's layers as their modules load.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    from perfbench import trace

    trace.install_import_hook()
