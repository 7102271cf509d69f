"""Acceptance suite: one test per headline requirement.

Each test prints a PASS/FAIL line (visible with `pytest -s` or on failure),
and every tolerance is pinned here rather than imported, so the file reads
as the package's contract.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from dense_oracle import couplings

from dmrecon import cli, correlations, metrics, qmath, states
from dmrecon.correlations import (
    PAIRS_EXACT_I,
    PAIRS_EXACT_II,
    PAIRS_WEAK,
    analytic_correlation,
    correlation_set,
)
from dmrecon.experiments import Scenario, run_scenario
from dmrecon.protocol import CouplingConfig, kraus_operators
from dmrecon.reconstruct import (
    born_probabilities,
    qst_least_squares,
    qst_linear_inversion,
    reconstruct_exact_i,
    reconstruct_exact_ii,
    reconstruct_weak,
    standard_projector_family,
)


def report(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"{status} criterion {num}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description} {suffix}"


def sampled_delta_rhos(rho, theta, n, pairs, rebuild, seeds):
    cfg = CouplingConfig(2, theta)
    tables = correlations.build_tables(rho, cfg, pairs)
    out = []
    for seed in seeds:
        cs = correlations.correlation_set_from_tables(tables, n=n, root_seed=seed)
        result = rebuild(cs)
        out.append(metrics.compare(result.finalized, result.element_errors, rho.matrix)[1])
    return np.array(out)


def test_criterion_1_exactness_at_arbitrary_strength():
    t0 = time.time()
    worst = 0.0
    for d in (2, 3, 4, 5):
        for theta in (0.1, 0.5, 1.0, math.pi / 2):
            cfg = CouplingConfig(d, theta)
            for seed in range(20):
                rho = states.random_density(d, 1000 * d + seed)
                correls = correlation_set(rho, cfg, PAIRS_EXACT_I)
                for rebuild in (reconstruct_exact_i, reconstruct_exact_ii):
                    dist = qmath.trace_distance(rebuild(correls).finalized, rho.matrix)
                    worst = float(np.maximum(worst, dist))  # keeps a nan distance
    elapsed = time.time() - t0
    report(
        1,
        "exact estimators reproduce the state at every strength (T < 1e-9)",
        worst < 1e-9 and elapsed < 30,
        f"worst T {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 6))
        rho = states.random_density(d, int(rng.integers(0, 2**31)))
        cfg = CouplingConfig(d, float(rng.uniform(0.05, math.pi / 2)))
        j = int(rng.integers(1, d + 1))
        k = int(rng.integers(1, d + 1))
        cs = correlation_set(rho, cfg, PAIRS_EXACT_I)
        for (oa, ob), trace_val in zip(cs.pairs, cs.values[j - 1, k - 1]):
            gap = abs(trace_val - analytic_correlation(rho, j, k, oa, ob, cfg))
            worst = float(np.maximum(worst, gap))
    elapsed = time.time() - t0
    report(
        2,
        "trace correlations match all eight closed forms (1e-10, 200 scenarios)",
        worst < 1e-10 and elapsed < 60,
        f"worst gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_kraus_operators_match_exponential():
    # the Kraus operators the run applies are the |00> pointer columns of
    # U_B U_A, both couplings exp(-i theta P (x) Y) built as matrix exponentials
    t0 = time.time()
    worst = 0.0
    for d in (1, 2, 5, 16):
        for theta in (1e-8, 0.4, 1.3, math.pi / 2):
            cfg = CouplingConfig(d, theta)
            kraus = kraus_operators(cfg)
            for j in range(1, d + 1):
                u_a, u_b = couplings(j, cfg)
                oracle = (u_b @ u_a).reshape(d, 2, 2, d, 2, 2)[:, :, :, :, 0, 0]
                dev = np.max(np.abs(kraus[j - 1] - oracle.transpose(1, 2, 0, 3)))
                worst = float(np.maximum(worst, dev))
    elapsed = time.time() - t0
    report(
        3,
        "projector-form Kraus operators match the matrix exponential (1e-12)",
        worst < 1e-12 and elapsed < 5,
        f"worst dev {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_weak_estimator_bias():
    rho = states.pure_state(states.b0_state(2))
    cfg_strong = CouplingConfig(2, math.pi / 2)
    correls = correlation_set(rho, cfg_strong, PAIRS_EXACT_I)
    t_weak = qmath.trace_distance(reconstruct_weak(correls).finalized, rho.matrix)
    t_i = qmath.trace_distance(reconstruct_exact_i(correls).finalized, rho.matrix)
    t_ii = qmath.trace_distance(reconstruct_exact_ii(correls).finalized, rho.matrix)
    cfg_weak = CouplingConfig(2, 0.01)
    correls_weak = correlation_set(rho, cfg_weak, PAIRS_WEAK)
    t_small = qmath.trace_distance(
        reconstruct_weak(correls_weak).finalized, rho.matrix
    )
    ok = t_weak > 0.05 and t_i < 1e-9 and t_ii < 1e-9 and t_small < 1e-3
    report(
        4,
        "weak estimator biased at full strength, exact ones are not",
        ok,
        f"T(W)={t_weak:.3f}, T(I)={t_i:.1e}, T(II)={t_ii:.1e}, T(W)@0.01={t_small:.1e}",
    )


def test_criterion_5_statistical_scaling():
    t0 = time.time()
    rho = states.pure_state(states.b0_state(2))
    seeds = range(50)

    ns = [10**3, 10**4, 10**5]
    med_n = [
        float(np.median(sampled_delta_rhos(rho, 0.2, n, PAIRS_WEAK, reconstruct_weak, seeds)))
        for n in ns
    ]
    slope_n = float(np.polyfit(np.log(ns), np.log(med_n), 1)[0])

    thetas = [0.05, 0.1, 0.2]
    med_t = [
        float(np.median(sampled_delta_rhos(rho, t, 10**4, PAIRS_WEAK, reconstruct_weak, seeds)))
        for t in thetas
    ]
    slope_t = float(np.polyfit(np.log(thetas), np.log(med_t), 1)[0])

    floor_ok = True
    for theta, med in zip(thetas, med_t):
        floor = metrics.error_lower_bound("W", 2, theta, 10**4)
        floor_ok = floor_ok and med >= 0.9 * floor
    for n, med in zip(ns, med_n):
        floor = metrics.error_lower_bound("W", 2, 0.2, n)
        floor_ok = floor_ok and med >= 0.9 * floor

    elapsed = time.time() - t0
    ok = abs(slope_n + 0.5) < 0.1 and abs(slope_t + 2.0) < 0.3 and floor_ok and elapsed < 300
    report(
        5,
        "statistical error scales as 1/sqrt(N) and 1/theta^2, above the floor",
        ok,
        f"slope_N={slope_n:.3f}, slope_theta={slope_t:.3f}, floor_ok={floor_ok}, {elapsed:.1f}s",
    )


def test_criterion_6_strong_regime_advantage():
    t0 = time.time()
    rho = states.pure_state(states.b0_state(2))
    seeds = range(50)
    cases = [
        ("W", PAIRS_WEAK, reconstruct_weak),
        ("I", PAIRS_EXACT_I, reconstruct_exact_i),
        ("II", PAIRS_EXACT_II, reconstruct_exact_ii),
    ]
    details = []
    ok = True
    for method, pairs, rebuild in cases:
        strong = float(np.median(sampled_delta_rhos(rho, math.pi / 2, 10**4, pairs, rebuild, seeds)))
        weak = float(np.median(sampled_delta_rhos(rho, 0.1, 10**4, pairs, rebuild, seeds)))
        ok = ok and strong < weak
        details.append(f"{method}: {strong:.3g} < {weak:.3g}")
    elapsed = time.time() - t0
    report(
        6,
        "median error at theta=pi/2 beats theta=0.1 for every method",
        ok and elapsed < 120,
        "; ".join(details) + f", {elapsed:.1f}s",
    )


def test_criterion_7_double_flip_k_independence():
    rho = states.random_density(4, 777)
    cfg = CouplingConfig(4, 0.8)
    pp = correlation_set(rho, cfg, (("Pi1", "Pi1"),)).column(("Pi1", "Pi1"))[0]
    worst = float(np.max(pp.max(axis=1) - pp.min(axis=1)))
    report(
        7,
        "double-flip correlation independent of the postselected outcome (1e-12)",
        worst < 1e-12,
        f"worst spread {worst:.2e}",
    )


def test_criterion_8_bias_robustness():
    t0 = time.time()
    base = Scenario(
        scenario_id="bias",
        kind="strength_sweep",
        input_state="pure:D",
        theta_list=(0.05, math.pi / 2),
        n_events=10**7,
        seeds=tuple(range(50)),
        methods=("I", "II"),
    )
    biased = replace(base, bias_epsilon=0.02)
    rows_plain = run_scenario(base, root_seed=88)
    rows_biased = run_scenario(biased, root_seed=88)

    def t_by_key(rows):
        return {
            (r["method"], round(r["theta_a"], 6), r["seed"]): r["trace_distance"]
            for r in rows
            if r["seed"] >= 0
        }

    plain = t_by_key(rows_plain)
    tilted = t_by_key(rows_biased)
    ok = True
    details = []
    for method in ("I", "II"):
        medians = {}
        for theta in (0.05, math.pi / 2):
            inflations = [
                tilted[(method, round(theta, 6), s)] - plain[(method, round(theta, 6), s)]
                for s in range(50)
            ]
            medians[theta] = float(np.nanmedian(inflations))
        ok = ok and medians[0.05] > medians[math.pi / 2]
        details.append(f"{method}: {medians[0.05]:.3f} > {medians[math.pi / 2]:.4f}")
    elapsed = time.time() - t0
    report(
        8,
        "pointer-tilt bias inflates weak coupling more than strong coupling",
        ok,
        "; ".join(details) + f", {elapsed:.1f}s",
    )


def test_criterion_9_deterministic_csv(tmp_path, monkeypatch):
    monkeypatch.delenv("DMRECON_SEED", raising=False)
    config_text = """
[global]
root_seed = 12

[scenario p]
kind = purity_sweep
state = pure:D
purity_grid = 0.25 0.75
n_events = 2000
n_seeds = 3

[scenario s]
kind = strength_sweep
state = family:p=0.8,psi=D
theta = 0.2 1.5
n_events = 2000
n_seeds = 3
bias_epsilon = 0.01

[scenario e]
kind = error_sweep
state = mixed
theta = 0.3 1.5
n_events = 2000
n_seeds = 3

[scenario q]
kind = single
state = random:seed=4
theta = 0.9
n_events = 2000
n_seeds = 2
methods = W I II QST
reference = qst
"""
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(config_text, encoding="utf-8")

    def run_all(name):
        out_dir = tmp_path / name
        assert cli.main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
        return (out_dir / "results.csv").read_bytes()

    def run_fresh(name, hash_seed):
        # a new interpreter per run, so str hashing (set and dict order) varies
        out_dir = tmp_path / name
        env = {k: v for k, v in os.environ.items() if k != "DMRECON_SEED"}
        src = str(Path(cli.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env["PYTHONHASHSEED"] = hash_seed
        command = ["run", "--config", str(cfg), "--out", str(out_dir)]
        subprocess.run(
            [sys.executable, "-m", "dmrecon.cli", *command], env=env, capture_output=True, check=True
        )
        return (out_dir / "results.csv").read_bytes()

    first = run_all("a")
    second = run_all("b")
    fresh = [run_fresh(f"hash{seed}", seed) for seed in ("0", "1")]
    report(
        9,
        "repeated suite runs produce byte-identical CSV, in process and under two hash seeds",
        first == second == fresh[0] == fresh[1],
        f"{len(first)} bytes",
    )


def test_criterion_10_qst_reference():
    # d = 2: the family vector [H, V, D, L] read off the matrix by hand
    worst_d2 = 0.0
    for seed in range(20):
        rho = states.random_density(2, seed)
        m = rho.matrix
        probs = [
            float(m[0, 0].real),
            float(m[1, 1].real),
            0.5 + float(m[0, 1].real),
            0.5 - float(m[0, 1].imag),
        ]
        result = qst_linear_inversion(probs, 2)
        worst_d2 = float(np.maximum(worst_d2, qmath.trace_distance(result.finalized, rho.matrix)))

    worst_d4 = 0.0
    family = standard_projector_family(4)
    for seed in range(10):
        rho = states.random_density(4, 100 + seed)
        probs = born_probabilities(rho, family)
        for result in (qst_linear_inversion(probs, 4), qst_least_squares(family, probs)):
            worst_d4 = float(np.maximum(worst_d4, qmath.trace_distance(result.finalized, rho.matrix)))

    report(
        10,
        "linear-inversion tomography recovers states (d=2: 1e-12, d=4: 1e-10)",
        worst_d2 < 1e-12 and worst_d4 < 1e-10,
        f"d2 {worst_d2:.2e}, d4 {worst_d4:.2e}",
    )
