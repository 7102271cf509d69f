"""Pinned end-to-end output: `dmrecon run` on tests/data/golden.cfg.

The scenarios cover all four methods, sampled and exact sources, both
reference modes (a QST reference with and without QST among the methods),
bias, purity sweeps, degenerate II rows, and degenerate QST method and
reference estimates. Every column
must match the pinned CSV byte for byte, except `delta_rho`: that one is a
sum of squared propagated errors, whose last bits depend on the order of
summation, so it is compared at a relative tolerance of 1e-14 (about 45
float64 ulp). Non-finite values must match exactly.

A failure lists every moved cell, counted by (scenario, method, seed -1 or
sampled, column), with a few examples: the record a deliberate
regeneration of the pinned CSV asks for.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from pathlib import Path

import pytest

from dmrecon import cli

DATA = Path(__file__).resolve().parent / "data"
DELTA_RHO_RTOL = 1e-14
EXAMPLES = 5


def _read(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _close(got: str, want: str) -> bool:
    a, b = float(got), float(want)
    if not (math.isfinite(a) and math.isfinite(b)):
        return got == want
    return abs(a - b) <= DELTA_RHO_RTOL * abs(b)


def _same(col: str, got: str, want: str) -> bool:
    return _close(got, want) if col == "delta_rho" else got == want


def mismatch_report(got: list[dict[str, str]], want: list[dict[str, str]]) -> str:
    """Every cell of `got` that differs from `want`, counted and exemplified; "" if none.

    The rows are compared in order. Counts are keyed by (scenario, method,
    seed -1 or sampled, column); moved rows are counted once per scenario.
    """
    lines = []
    if len(got) != len(want):
        lines.append(f"{len(got)} rows written, {len(want)} pinned")
    if got and want and list(got[0]) != list(want[0]):
        lines.append(f"columns {list(got[0])}, pinned {list(want[0])}")
    cells, rows, examples = Counter(), Counter(), []
    for i, (g, w) in enumerate(zip(got, want)):
        moved = [col for col in w if not _same(col, g.get(col, ""), w[col])]
        if moved:
            rows[w["scenario_id"]] += 1
        for col in moved:
            seeds = "seed -1" if w["seed"] == "-1" else "sampled"
            cells[w["scenario_id"], w["method"], seeds, col] += 1
            if len(examples) < EXAMPLES:
                examples.append(f"  row {i + 1} {w['scenario_id']} {w['method']} seed {w['seed']} "
                                f"{col}: {g.get(col)} != pinned {w[col]}")
    if cells:
        lines.append(f"{sum(rows.values())} of {len(want)} rows moved, by scenario: "
                     + ", ".join(f"{sid} {n}" for sid, n in sorted(rows.items())))
        lines.append("moved cells by (scenario, method, seeds, column):")
        lines.extend(f"  {' '.join(key)}: {n}" for key, n in sorted(cells.items()))
        lines.append("first moved cells:")
        lines.extend(examples)
    return "\n".join(lines)


def test_golden_results(tmp_path, monkeypatch):
    monkeypatch.delenv("DMRECON_SEED", raising=False)
    assert cli.main(["run", "--config", str(DATA / "golden.cfg"), "--out", str(tmp_path)]) == 0
    report = mismatch_report(_read(tmp_path / "results.csv"), _read(DATA / "golden_results.csv"))
    if report:
        pytest.fail(report, pytrace=False)


def test_mismatch_report_counts_every_moved_cell():
    # the report itself: a clean match is silent, and every moved cell is
    # counted under its key, with the tolerance of its column
    row = {"scenario_id": "s", "method": "W", "seed": "0", "trace_distance": "0.5",
           "delta_rho": "0.25"}
    want = [row, {**row, "seed": "-1"}, {**row, "method": "QST"}]
    assert mismatch_report(want, want) == ""
    nudged = str(0.25 * (1 + 1e-15))
    assert mismatch_report([{**r, "delta_rho": nudged} for r in want], want) == ""
    got = [{**row, "trace_distance": "0.6", "delta_rho": "0.3"}, {**row, "seed": "-1"},
           {**row, "method": "QST", "trace_distance": "0.7"}]
    report = mismatch_report(got, want)
    assert "2 of 3 rows moved, by scenario: s 2" in report
    assert "  s W sampled trace_distance: 1" in report
    assert "  s W sampled delta_rho: 1" in report
    assert "  s QST sampled trace_distance: 1" in report
    assert "seed -1" not in report
    assert "row 3 s QST seed 0 trace_distance: 0.7 != pinned 0.5" in report
    assert "2 rows written, 3 pinned" in mismatch_report(got[:2], want)
