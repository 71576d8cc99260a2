"""The benchmark worker reads the package through fixed names.

``perfbench/worker.py`` imports its stage functions from the modules they
lived in when it was written and reports ``cache_info()`` of the caches on
its ``CACHES`` list; these tests keep every one of those names working.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKER = REPO / "perfbench" / "worker.py"


def run_worker(*argv):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, str(WORKER), *argv], capture_output=True, text=True, cwd=REPO, env=env
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def worker_caches():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker.CACHES


def test_worker_sweep_runs_every_stage():
    result = run_worker("sweep", "--rank", "2", "--table-rank", "2")
    assert result["ok"] and result["failures"] == [], result


def test_worker_profiled_query_reports_every_cache():
    result = run_worker("query", "--profile", "--", "components", "--group", "A2", "--center", "full")
    assert result["ok"], result
    assert set(result["caches"]) == {f"{m}.{f}" for m, f in worker_caches()}


def test_worker_caches_are_lru_caches():
    for mod_name, fn_name in worker_caches():
        fn = getattr(importlib.import_module(f"coroots.{mod_name}"), fn_name)
        assert hasattr(fn, "cache_info"), f"{mod_name}.{fn_name}"
