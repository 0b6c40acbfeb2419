"""Smoke self-test of the benchmark at tiny sizes (about a minute).

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that each workload reaches the layers it is meant to exercise and
bypasses the ones it is meant to bypass, that a seed reproduces its
artifacts, and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# per-layer metrics that must be non-zero / exactly zero on each workload
EXERCISED = {
    "train-gen": ["generator.train_self_s", "numeric.cross_entropy_s",
                  "numeric.xavier_init_s", "checkpoint.save_s", "textproc.encode_s"],
    "evaluate": ["generator.generate_s", "harness.evaluate_self_s", "lexicon.score_s",
                 "lexicon.assign_levels_s", "checkpoint.load_s"],
    "prepare": ["harness.synth_s", "classifier.train_self_s", "classifier.label_self_s",
                "numeric.matrix_s", "lexicon.calibrate_s", "lexicon.score_s"],
}
BYPASSED = {
    "train-gen": ["generator.generate_s", "classifier.train_self_s", "numeric.matrix_s",
                  "lexicon.score_s"],
    "evaluate": ["generator.train_self_s", "classifier.train_self_s", "numeric.matrix_s",
                 "numeric.xavier_init_s"],
    "prepare": ["generator.train_self_s", "generator.generate_s", "numeric.cross_entropy_s"],
}


def run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].split(" ", 1)[1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace, section):
    result, record = parse(run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record["errors"] + record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(isinstance(v, float) and math.isfinite(v) for v in values.values())
    if trace == 0:
        assert all(v > 0 for v in values.values())
    else:
        assert all(values[name] > 0 for name in EXERCISED[workload])
        assert all(values[name] == 0 for name in BYPASSED[workload])


def test_a_seed_reproduces_its_artifacts():
    first = parse(run("prepare", 0, seed=11))[1]
    second = parse(run("prepare", 0, seed=11))[1]
    assert first["iteration0_sha256"] == second["iteration0_sha256"]
    other = parse(run("prepare", 0, seed=12))[1]
    assert other["iteration0_sha256"] != first["iteration0_sha256"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("prepare", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
