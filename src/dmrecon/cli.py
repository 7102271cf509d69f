"""Command-line interface.

    dmrecon run --config <path> --out <dir>     run every scenario, write CSV
    dmrecon exact --state <spec> --theta <t> --method <W|I|II> [--d <int>]
    dmrecon validate                            run the oracle-equivalence suite

The environment variable DMRECON_SEED, when set, overrides the config file's
root seed so CI runs can pin reproducibility externally.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import correlations, experiments, io, protocol, qmath, reconstruct, states
from .protocol import CouplingConfig


def _input_error(command: str, message: str) -> int:
    """Report bad outside input in one stderr line; exit status 2, as argparse uses."""
    print(f"dmrecon {command}: {message}", file=sys.stderr)
    return 2


def _cmd_run(args) -> int:
    try:
        text = Path(args.config).read_text(encoding="utf-8-sig")  # a leading BOM is dropped
    except (OSError, UnicodeDecodeError) as exc:
        return _input_error("run", f"cannot read config {args.config}: {exc}")
    try:
        doc = io.parse_config(text)
    except io.ConfigError as exc:
        for err in exc.errors:
            print(err, file=sys.stderr)
        return 2
    env_seed = os.environ.get("DMRECON_SEED")
    if env_seed is not None:
        try:
            doc = replace(doc, root_seed=int(env_seed))
        except ValueError:
            return _input_error("run", f"DMRECON_SEED must be an integer, got {env_seed!r}")
    out_dir = Path(args.out) if args.out else Path(doc.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _input_error("run", f"cannot create output directory {out_dir}: {exc}")
    # each scenario's rows arrive sorted and its id is unique: ordering the
    # scenarios by id gives the canonical order of `experiments.sort_rows`
    scenarios = sorted(doc.scenarios, key=lambda scn: scn.scenario_id)
    rows = np.concatenate([experiments.run_scenario(scn, doc.root_seed) for scn in scenarios])
    out_path = out_dir / "results.csv"
    try:
        io.write_results(rows, out_path)
    except OSError as exc:
        return _input_error("run", f"cannot write {out_path}: {exc}")
    print(f"wrote {len(rows)} rows to {out_path}")
    return 0


def _cmd_exact(args) -> int:
    try:
        cfg = CouplingConfig(args.d, args.theta)
        rho = states.parse_state_spec(args.state, args.d)
    except ValueError as exc:
        return _input_error("exact", str(exc))
    rebuild, pairs = experiments._RECONSTRUCTORS[args.method]
    result = rebuild(correlations.correlation_set(rho, cfg, pairs))
    if np.isnan(result.finalized).any():
        # valid input, but this estimator has no signal to normalize here
        print("dmrecon exact: cannot normalize: Hermitian part has near-zero trace", file=sys.stderr)
        return 1
    print(f"method {args.method}, d={args.d}, theta={args.theta}")
    print(io.write_matrix(result.finalized))
    return 0


def _cmd_validate(args) -> int:
    failures = 0

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        status = "ok" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))

    rng = np.random.Generator(np.random.Philox(20260808))
    y = np.array([[0, -1j], [1j, 0]])

    # Every check folds its deviations with np.maximum, which keeps a nan, so
    # a nan fails the check; Python's max(worst, nan) would drop it.

    # Projector-form Kraus operators vs the |0> columns of both exponentials, U_B U_A.
    def column0(vec: np.ndarray, theta: float) -> np.ndarray:
        u = qmath.matrix_exponential(np.kron(np.outer(vec, vec.conj()), y), theta)
        return u.reshape(vec.size, 2, vec.size, 2)[:, :, :, 0]

    # at both ends of the strength range too
    worst = 0.0
    for d in range(1, protocol.MAX_DIM + 1):
        for theta in (1e-8, 0.4, 1.3, math.pi / 2):
            kraus = protocol.kraus_operators(CouplingConfig(d, theta))
            m_b = column0(states.b0_state(d), theta)
            for j in range(1, d + 1):
                m_a = column0(states.basis_state(d, j), theta)
                oracle = np.einsum("kbm,mai->abki", m_b, m_a)
                worst = float(np.maximum(worst, np.max(np.abs(kraus[j - 1] - oracle))))
    check("Kraus operators match matrix-exponential columns", worst < 1e-12, f"max dev {worst:.2e}")

    # Trace-based vs closed-form correlations, randomized over everything.
    worst = 0.0
    for i in range(200):
        d = int(rng.integers(2, 6))
        rho = states.random_density(d, int(rng.integers(0, 2**31)))
        cfg = CouplingConfig(d, float(rng.uniform(0.05, math.pi / 2)))
        j = int(rng.integers(1, d + 1))
        k = int(rng.integers(1, d + 1))
        correls = correlations.correlation_set(rho, cfg, correlations.SUPPORTED_PAIRS)
        for pair, exact in zip(correls.pairs, correls.values[j - 1, k - 1]):
            closed = correlations.analytic_correlation(rho, j, k, pair[0], pair[1], cfg)
            worst = float(np.maximum(worst, abs(exact - closed)))
    check("trace correlations match closed forms", worst < 1e-10, f"max dev {worst:.2e}")

    # Exactness of both strong-coupling estimators.
    worst = 0.0
    for d in (2, 3, 4):
        rho = states.random_density(d, 97 + d)
        for theta in (0.2, math.pi / 2):
            cfg = CouplingConfig(d, theta)
            correls = correlations.correlation_set(rho, cfg, correlations.PAIRS_EXACT_I)
            for rebuild in (reconstruct.reconstruct_exact_i, reconstruct.reconstruct_exact_ii):
                result = rebuild(correls)
                worst = float(np.maximum(worst, qmath.trace_distance(result.finalized, rho.matrix)))
    check("exact estimators reproduce the state", worst < 1e-9, f"max distance {worst:.2e}")

    # Born probabilities from the family's kets vs Tr(|v><v| rho) with each
    # projector formed; the tomography check below feeds one vector to both sides.
    worst = 0.0
    for d in range(1, protocol.MAX_DIM + 1):
        kets = reconstruct.standard_projector_family(d)
        rho = states.random_density(d, 300 + d)
        oracle = [np.trace(np.outer(v, v.conj()) @ rho.matrix).real for v in kets]
        dev = np.max(np.abs(reconstruct.born_probabilities(rho, kets) - oracle))
        worst = float(np.maximum(worst, dev))
    check("Born probabilities match Tr(P rho)", worst <= 1e-15, f"max dev {worst:.2e}")

    # Closed-form standard-family tomography vs least squares on the same vectors.
    worst = 0.0
    for d in range(1, 7):
        family = reconstruct.standard_projector_family(d)
        for _ in range(5):
            rho = states.random_density(d, int(rng.integers(0, 2**31)))
            probs = reconstruct.born_probabilities(rho, family)
            probs = np.clip(probs + rng.normal(scale=0.02, size=probs.size), 0.0, 1.0)
            closed = reconstruct.qst_linear_inversion(probs, d)
            oracle = reconstruct.qst_least_squares(family, probs)
            worst = float(np.maximum(worst, np.max(np.abs(closed.raw - oracle.raw))))
    check(
        "standard-family QST closed form matches least squares",
        worst < 1e-12,
        f"max dev {worst:.2e}",
    )

    # Outcome classes, the sampler's categories, vs the biased tables they merge.
    worst = 0.0
    for d in range(1, protocol.MAX_DIM + 1):
        rho = states.random_density(d, int(rng.integers(0, 2**31)))
        cfg = CouplingConfig(d, float(rng.uniform(0.05, math.pi / 2)))
        epsilon, efficiency = float(rng.uniform(-0.1, 0.1)), float(rng.uniform(0.9, 1.1))
        tables = experiments.build_tables(rho, cfg, correlations.SUPPORTED_PAIRS, epsilon, efficiency)
        classes = correlations.outcome_classes(tables)
        plus, minus = classes[..., :d], classes[..., d : 2 * d]
        w = tables.weights
        for got, want in (
            (plus - minus, np.einsum("pxy,jpxyk->jpk", w, tables.probs)),
            (plus + minus, np.einsum("pxy,jpxyk->jpk", w * w, tables.probs)),
            (classes.sum(axis=-1), 1.0),
        ):
            worst = float(np.maximum(worst, np.max(np.abs(got - want))))
    check("outcome classes carry the tables' moments", worst < 1e-14, f"max dev {worst:.2e}")

    print("validation " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dmrecon", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run scenarios from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="output directory (default: from config)")
    p_run.set_defaults(func=_cmd_run)

    p_exact = sub.add_parser("exact", help="exact-correlation reconstruction of one state")
    p_exact.add_argument("--state", required=True, help="state spec, e.g. pure:D or mixed")
    p_exact.add_argument("--theta", required=True, type=float)
    p_exact.add_argument("--method", required=True, choices=tuple(experiments._RECONSTRUCTORS))
    p_exact.add_argument("--d", type=int, default=2)
    p_exact.set_defaults(func=_cmd_exact)

    p_val = sub.add_parser("validate", help="run the oracle-equivalence suite")
    p_val.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
