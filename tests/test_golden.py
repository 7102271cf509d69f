"""Pinned end-to-end output: `dmrecon run` on tests/data/golden.cfg.

The scenarios cover all four methods, sampled and exact sources, both
reference modes (a QST reference with and without QST among the methods),
bias, purity sweeps, degenerate II rows, and degenerate QST method and
reference estimates. Every column
must match the pinned CSV byte for byte, except `delta_rho`: that one is a
sum of squared propagated errors, whose last bits depend on the order of
summation, so it is compared at a relative tolerance of 1e-14 (about 45
float64 ulp). Non-finite values must match exactly.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from dmrecon import cli

DATA = Path(__file__).resolve().parent / "data"
DELTA_RHO_RTOL = 1e-14


def _read(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _close(got: str, want: str) -> bool:
    a, b = float(got), float(want)
    if not (math.isfinite(a) and math.isfinite(b)):
        return got == want
    return abs(a - b) <= DELTA_RHO_RTOL * abs(b)


def test_golden_results(tmp_path, monkeypatch):
    monkeypatch.delenv("DMRECON_SEED", raising=False)
    assert cli.main(["run", "--config", str(DATA / "golden.cfg"), "--out", str(tmp_path)]) == 0
    got = _read(tmp_path / "results.csv")
    want = _read(DATA / "golden_results.csv")
    assert len(got) == len(want)
    assert list(got[0]) == list(want[0])
    for i, (g, w) in enumerate(zip(got, want)):
        for col in w:
            if col == "delta_rho":
                assert _close(g[col], w[col]), (i, col, g[col], w[col])
            else:
                assert g[col] == w[col], (i, col, g[col], w[col])
