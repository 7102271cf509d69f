"""Benchmark workloads: each turns a workload seed into a `dmrecon run` config.

The program only ever sees the generated config text. Every seed that reaches
it (the config's `root_seed` and the `random:seed=` input state) is derived
from the workload seed, so one workload seed always gives the same inputs.

The workloads follow the paper's own sweeps, from weak coupling up to the
maximally strong theta = pi/2, the strong-measurement regime of direct
tomography (Vallone & Dequal, PRL 116, 040502, 2016; Thekkadath et al.,
PRL 117, 120401, 2016).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

HALF_PI = math.pi / 2
# The paper's strength grid: 12 log-spaced couplings from 0.05 up to pi/2.
THETA_GRID = tuple(float(t) for t in np.geomspace(0.05, HALF_PI, 12))
PURITY_GRID = tuple(float(p) for p in np.linspace(0.0, 1.0, 9))
TINY_THETAS = (0.05, 0.3, HALF_PI)
METHODS = ("W", "I", "II", "QST")


@dataclass(frozen=True)
class ScenarioSpec:
    """One `[scenario]` section, with what the correctness gate needs to know."""

    sid: str
    kind: str
    state: str
    d: int
    thetas: tuple[float, ...]
    n_seeds: int
    source: str
    reference: str = "truth"
    n_events: int = 10_000
    methods: tuple[str, ...] = METHODS
    bias_epsilon: float = 0.0
    bias_efficiency: float = 1.0
    purity_grid: tuple[float, ...] = ()

    @property
    def biased(self) -> bool:
        return self.bias_epsilon != 0.0 or self.bias_efficiency != 1.0

    @property
    def points(self) -> int:
        return len(self.purity_grid) if self.kind == "purity_sweep" else len(self.thetas)

    @property
    def expected_rows(self) -> int:
        """One row per method for the expectation (seed -1), plus one per sampled seed."""
        per_point = 1 + (self.n_seeds if self.source == "sampled" else 0)
        return self.points * len(self.methods) * per_point

    def section(self) -> str:
        lines = [
            f"[scenario {self.sid}]",
            f"kind = {self.kind}",
            f"state = {self.state}",
            f"d = {self.d}",
            "theta = " + " ".join(repr(t) for t in self.thetas),
            f"n_events = {self.n_events}",
            f"n_seeds = {self.n_seeds}",
            "methods = " + " ".join(self.methods),
            f"source = {self.source}",
            f"reference = {self.reference}",
        ]
        if self.biased:
            lines.append(f"bias_epsilon = {self.bias_epsilon!r}")
            lines.append(f"bias_efficiency = {self.bias_efficiency!r}")
        if self.purity_grid:
            lines.append("purity_grid = " + " ".join(repr(p) for p in self.purity_grid))
        return "\n".join(lines)


@dataclass(frozen=True)
class WorkloadConfig:
    """The generated inputs of one workload at one seed."""

    root_seed: int
    scenarios: tuple[ScenarioSpec, ...]

    @property
    def sampled(self) -> bool:
        return any(s.source == "sampled" for s in self.scenarios)

    @property
    def expected_rows(self) -> int:
        return sum(s.expected_rows for s in self.scenarios)

    def text(self) -> str:
        head = f"[global]\nroot_seed = {self.root_seed}\n"
        return "\n\n".join([head] + [s.section() for s in self.scenarios]) + "\n"


def derived_seed(workload: str, seed: int, role: str) -> int:
    """A 31-bit seed for one role of one workload, stable across platforms."""
    digest = hashlib.sha256(f"{workload}:{seed}:{role}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def _sweep_d4(seed: int, tiny: bool) -> WorkloadConfig:
    scn = ScenarioSpec(
        sid="sweep_d4",
        kind="strength_sweep",
        state=f"random:seed={derived_seed('sweep_d4', seed, 'state')}",
        d=4,
        thetas=TINY_THETAS if tiny else THETA_GRID,
        n_seeds=3 if tiny else 50,
        source="sampled",
    )
    return WorkloadConfig(derived_seed("sweep_d4", seed, "root"), (scn,))


def _single_d16_qstref(seed: int, tiny: bool) -> WorkloadConfig:
    scn = ScenarioSpec(
        sid="single_d16",
        kind="single",
        state=f"random:seed={derived_seed('single_d16_qstref', seed, 'state')}",
        d=16,
        thetas=(HALF_PI,) if tiny else (0.3, HALF_PI),
        n_seeds=2 if tiny else 10,
        source="sampled",
        reference="qst",
    )
    return WorkloadConfig(derived_seed("single_d16_qstref", seed, "root"), (scn,))


def _exact_d8_bias(seed: int, tiny: bool) -> WorkloadConfig:
    thetas = TINY_THETAS if tiny else THETA_GRID
    state = f"random:seed={derived_seed('exact_d8_bias', seed, 'state')}"
    common = dict(d=8, n_seeds=1, source="exact")
    bias = dict(bias_epsilon=0.02, bias_efficiency=0.97)
    scenarios = (
        ScenarioSpec(sid="strength", kind="strength_sweep", state=state, thetas=thetas, **common),
        ScenarioSpec(
            sid="strength_biased", kind="strength_sweep", state=state, thetas=thetas,
            **common, **bias,
        ),
        ScenarioSpec(
            sid="purity_biased", kind="purity_sweep", state="pure:b0", thetas=(HALF_PI,),
            purity_grid=(0.0, 0.5, 1.0) if tiny else PURITY_GRID, **common, **bias,
        ),
    )
    return WorkloadConfig(derived_seed("exact_d8_bias", seed, "root"), scenarios)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, bool], WorkloadConfig]

    def config(self, seed: int, tiny: bool = False) -> WorkloadConfig:
        return self.build(seed, tiny)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep_d4",
            "The canonical d=4 strength sweep, 50 seeds: many small calls, dominated by "
            "sampling and record assembly; where an array core or batched sampling must show.",
            _sweep_d4,
        ),
        Workload(
            "single_d16_qstref",
            "d=16 (MAX_DIM) with a QST reference: QST runs twice per seed, so the 256x256 "
            "inversion dominates; where a QST cache or a memory-hungry batch shows.",
            _single_d16_qstref,
        ),
        Workload(
            "exact_d8_bias",
            "Exact correlations at d=8 with and without bias: no sampling at all, so sampling "
            "work must not change it; evolution and outcome tables dominate.",
            _exact_d8_bias,
        ),
    )
}
