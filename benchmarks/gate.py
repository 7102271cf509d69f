"""Correctness gate applied to the results.csv of every benchmark run.

The checks hold under any random stream, so a deliberate change of the
sampling stream does not trip them:

1. The row count equals the one the config grid implies.
2. In every unbiased scenario, each expectation row (seed = -1) of the exact
   estimators I and II has trace_distance < EXACT_TOL: the paper's claim
   that both reproduce the state at any coupling strength.
3. Statistical check, on sampled rows of W, I and II in scenarios compared
   against the true state. For each (method, theta) with finite rows,
       median(trace_distance) <= td_expected + STAT_FACTOR * sqrt(d)/2 * median(delta_rho)
   where td_expected is the expectation row's trace distance (the estimator's
   systematic error, zero for I and II). The triangle inequality bounds each
   sampled row by td_expected plus its distance to the expectation, and a
   d x d difference has trace distance at most sqrt(d)/2 times its Frobenius
   norm, whose typical size is the propagated delta_rho. Groups whose
   td_expected is 1 or more are skipped: no state lies that far from the
   truth, so the estimator's trace normalisation is near-singular there (W
   towards theta = pi/2) and the linearized delta_rho does not describe it.

Same-seed runs must also give the same results.csv bytes; run.py checks
that across runs with the sha256 of the file.
"""

from __future__ import annotations

import csv
import io
import math
import statistics

from workloads import METHODS

EXACT_TOL = 1e-9
STAT_FACTOR = 3.0


def parse_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def degenerate_counts(rows: list[dict]) -> dict[str, int]:
    """Rows per method whose reconstruction had no state estimate (nan distance)."""
    counts = dict.fromkeys(METHODS, 0)
    for row in rows:
        if math.isnan(float(row["trace_distance"])):
            counts[row["method"]] = counts.get(row["method"], 0) + 1
    return counts


def check(wcfg, rows: list[dict]) -> list[str]:
    """Every gate problem found in the rows of one run; empty when correct."""
    problems = []
    if len(rows) != wcfg.expected_rows:
        problems.append(f"row count {len(rows)} != {wcfg.expected_rows} implied by the config")
    by_scenario: dict[str, list[dict]] = {}
    for row in rows:
        by_scenario.setdefault(row["scenario_id"], []).append(row)
    for scn in wcfg.scenarios:
        scn_rows = by_scenario.get(scn.sid, [])
        if not scn.biased:
            problems += _exactness(scn, scn_rows)
        if scn.source == "sampled" and scn.reference == "truth":
            problems += _statistics(scn, scn_rows)
    return problems


def _exactness(scn, rows: list[dict]) -> list[str]:
    problems = []
    for row in rows:
        if row["method"] in ("I", "II") and int(row["seed"]) == -1:
            td = float(row["trace_distance"])
            if not td < EXACT_TOL:
                problems.append(
                    f"{scn.sid}: method {row['method']} at theta={row['theta_a']} "
                    f"p={row['purity_p']} is not exact: trace distance {td!r}"
                )
    return problems


def _statistics(scn, rows: list[dict]) -> list[str]:
    expected: dict[tuple, float] = {}
    sampled: dict[tuple, list[tuple[float, float]]] = {}
    for row in rows:
        if row["method"] not in ("W", "I", "II"):
            continue
        key = (row["method"], row["theta_a"])
        td, dr = float(row["trace_distance"]), float(row["delta_rho"])
        if int(row["seed"]) == -1:
            expected[key] = td
        elif math.isfinite(td) and math.isfinite(dr):
            sampled.setdefault(key, []).append((td, dr))
    problems = []
    for key, pairs in sorted(sampled.items()):
        td_exp = expected.get(key, math.nan)
        if not td_exp < 1.0:
            continue
        median_td = statistics.median(td for td, _ in pairs)
        limit = td_exp + STAT_FACTOR * math.sqrt(scn.d) / 2 * statistics.median(
            dr for _, dr in pairs
        )
        if median_td > limit:
            problems.append(
                f"{scn.sid}: method {key[0]} at theta={key[1]}: median trace distance "
                f"{median_td:.4g} exceeds {limit:.4g} over {len(pairs)} seeds"
            )
    return problems
