"""Smoke test of the benchmark itself, at tiny workload sizes.

    python -m pytest benchmarks/test_smoke.py

Kept outside the Tier-1 testpaths: each case starts several interpreters.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import workloads  # noqa: E402


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_matches_workloads():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3, proc.stderr
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace:
        sampling = result["metrics"]["correlations.sample_counts.calls"]["value"]
        assert (sampling == 0) == (workload == "exact_d8_bias")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "sweep_d4", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_gate_catches_defects():
    from dmrecon import experiments, io

    wcfg = workloads.WORKLOADS["sweep_d4"].config(5, tiny=True)
    doc = io.parse_config(wcfg.text())
    rows = experiments.sort_rows(experiments.run_scenario(doc.scenarios[0], doc.root_seed))
    good = gate.parse_rows(io.results_csv(rows))
    assert gate.check(wcfg, good) == []

    def corrupted(method, seed_sign, scale):
        out = [dict(r) for r in good]
        for r in out:
            if r["method"] == method and (int(r["seed"]) < 0) == (seed_sign < 0):
                r["trace_distance"] = repr(float(r["trace_distance"]) * scale + 1e-6)
        return out

    assert any("row count" in p for p in gate.check(wcfg, good[:-1]))
    assert any("not exact" in p for p in gate.check(wcfg, corrupted("II", -1, 1.0)))
    assert any("median trace distance" in p for p in gate.check(wcfg, corrupted("I", 1, 100.0)))
