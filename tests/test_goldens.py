"""Benchmark goldens in tier 1: a fixed subset of the perfbench cells.

``perfbench/goldens.json`` holds the output digest of every spec the
repository benchmark can send; ``perfbench/check.digest`` reduces a
result to its simulated statistics before hashing. This module
re-simulates a small covering subset (every cluster, every pipeline
schedule, training, inference and serving, one search and one
setpoint grid at ``jobs=1`` and ``jobs=2``) and compares digests, so a
change that moves an output fails here and not only in the benchmark.
Each cell is answered again from the store with the memo emptied, and
one runs in a fresh interpreter under a fixed ``PYTHONHASHSEED``. The
perfbench files are only read.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.core.sweep as sweep
from repro.api import submit, submit_many

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check = _load("check")
specs = _load("specs")
GOLDENS = check.load_goldens()


def _cold(kind: str, cluster: str, schedule: str, model: str) -> dict:
    return next(
        cell for cell in GOLDENS["cells"]["cold"]
        if (cell["kind"], cell["cluster"], cell["pipeline_schedule"],
            cell["model"], cell["microbatch_size"])
        == (kind, cluster, schedule, model, 4)
    )


#: One spec per (kind, cluster, schedule) the subset covers; the
#: zb-h1 cell also runs under a static clock ceiling.
CELLS = {
    "train-mi250x32-zb-h1-capped": specs.cold_variants(
        _cold("training", "mi250x32", "zb-h1", "mixtral-8x7b"))[2],
    "train-h100x64-1f1b": _cold("training", "h100x64", "1f1b", "gpt3-13b"),
    "train-h200x32-interleaved": _cold(
        "training", "h200x32", "interleaved", "gpt3-13b"),
    "infer-h100x64": _cold("inference", "h100x64", "1f1b", "gpt3-13b"),
    "serving-mi250x32": specs.serving_variants(
        GOLDENS["cells"]["serving"][0])[0],
}
SEARCH = specs.search_spec(0, GOLDENS["cells"]["optimize"][0])
GRID = specs.sweep_grid(0, GOLDENS["cells"]["sweep"][0])


def _golden(spec: dict) -> str:
    return GOLDENS["entries"][specs.key(spec)]["digest"]


@pytest.fixture(autouse=True)
def _fresh_memo():
    sweep._CACHE.clear()
    yield
    sweep._CACHE.clear()


@pytest.mark.parametrize("name", sorted(CELLS) + ["search"])
def test_cell_matches_golden_cold_and_from_the_store(name):
    spec = SEARCH if name == "search" else CELLS[name]
    request = specs.to_request(spec)
    assert check.digest(submit(request)) == _golden(spec)
    sweep._CACHE.clear()
    assert check.digest(submit(request)) == _golden(spec)


@pytest.mark.parametrize("jobs", [1, 2])
def test_setpoint_grid_matches_goldens(jobs):
    requests = [specs.to_request(spec) for spec in GRID]
    results = submit_many(requests, jobs=jobs)
    assert [check.digest(r) for r in results] == [_golden(s) for s in GRID]
    assert results.report.cached == []
    sweep._CACHE.clear()
    again = submit_many(requests, jobs=jobs)
    assert [check.digest(r) for r in again] == [_golden(s) for s in GRID]
    assert again.report.cached == [0, 1, 2]


def test_cell_in_a_fresh_interpreter_with_a_fixed_hash_seed(tmp_path):
    spec = CELLS["train-h100x64-1f1b"]
    script = (
        "import json, sys\n"
        "sys.path[:0] = [sys.argv[1]]\n"
        "import check, specs\n"
        "from repro.api import submit\n"
        "spec = json.loads(sys.argv[2])\n"
        "print(check.digest(submit(specs.to_request(spec))))\n"
    )
    env = dict(
        os.environ,
        PYTHONHASHSEED="12345",
        PYTHONPATH=str(ROOT / "src"),
        REPRO_CACHE_DIR=str(tmp_path / "store"),
    )
    out = subprocess.run(
        [sys.executable, "-c", script, str(PERFBENCH), json.dumps(spec)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == _golden(spec)
