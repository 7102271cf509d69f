"""Config parsing, matrix text and CSV emission.

The config format is flat key-value text with one section per scenario:

    [global]
    root_seed = 7
    output_dir = results

    [scenario fig4-top]
    kind = strength_sweep
    state = pure:D
    d = 2
    theta = 0.05 0.1 0.5 1.5707963267948966
    n_events = 10000
    n_seeds = 50
    methods = W I II
    source = sampled

Whole files validate before anything runs; every problem is reported with
its line number, not just the first one. A key may be set once per
scenario, and once across all [global] sections.
"""

from __future__ import annotations

import csv
import io as _stdio
import math
from dataclasses import dataclass

import numpy as np

from . import qmath
from .experiments import ROW_DTYPE, BiasModel, Scenario

CSV_COLUMNS = ROW_DTYPE.names

_SCENARIO_KEYS = (
    "kind",
    "state",
    "d",
    "theta",
    "n_events",
    "seeds",
    "n_seeds",
    "methods",
    "source",
    "reference",
    "bias_epsilon",
    "bias_efficiency",
    "purity_grid",
)
_GLOBAL_KEYS = ("root_seed", "output_dir")


class ConfigError(ValueError):
    """Carries every validation problem found in a config file."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("invalid config:\n" + "\n".join(self.errors))


@dataclass(frozen=True)
class ConfigDocument:
    scenarios: tuple[Scenario, ...]
    root_seed: int = 0
    output_dir: str = "results"


def _split_sections(text: str):
    """Yield (section_name, line_number, [(lineno, key, value), ...])."""
    sections = []
    current = None
    errors = []
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = (line[1:-1].strip(), lineno, [])
            sections.append(current)
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got '{line}'")
            continue
        if current is None:
            errors.append(f"line {lineno}: assignment before any [section] header")
            continue
        key, _, value = line.partition("=")
        current[2].append((lineno, key.strip(), value.strip()))
    return sections, errors


def _parse_floats(value: str) -> list[float]:
    return [float(tok) for tok in value.split()]


def _parse_ints(value: str) -> list[int]:
    return [int(tok) for tok in value.split()]


def _build_scenario(sid: str, entries, errors: list[str]) -> Scenario | None:
    fields: dict = {}
    seen: dict[str, int] = {}
    for lineno, key, value in entries:
        if key not in _SCENARIO_KEYS:
            errors.append(f"line {lineno}: unknown scenario key '{key}'")
            continue
        if key in seen:
            errors.append(
                f"line {lineno}: key '{key}' already set on line {seen[key]}"
            )
            continue
        seen[key] = lineno
        try:
            if key == "kind":
                fields["kind"] = value
            elif key == "state":
                fields["input_state"] = value
            elif key == "d":
                fields["d"] = int(value)
            elif key == "theta":
                thetas = _parse_floats(value)
                for th in thetas:
                    if th == 0.0:
                        raise ValueError(
                            "theta = 0 makes the normalization "
                            "d/(4 sin(theta_a) sin(theta_b)) singular"
                        )
                    if not 0.0 < th <= math.pi / 2 + 1e-12:
                        raise ValueError(f"theta={th} outside (0, pi/2]")
                fields["theta_list"] = tuple(thetas)
            elif key == "n_events":
                fields["n_events"] = int(value)
            elif key == "seeds":
                fields["seeds"] = tuple(_parse_ints(value))
            elif key == "n_seeds":
                fields["seeds"] = tuple(range(int(value)))
            elif key == "methods":
                fields["methods"] = tuple(value.split())
            elif key == "source":
                fields["source"] = value
            elif key == "reference":
                fields["reference"] = value
            elif key == "bias_epsilon":
                fields["bias_epsilon"] = float(value)
            elif key == "bias_efficiency":
                fields["bias_efficiency"] = float(value)
            elif key == "purity_grid":
                fields["purity_grid"] = tuple(_parse_floats(value))
        except ValueError as exc:
            errors.append(f"line {lineno}: {exc}")
    if "seeds" in seen and "n_seeds" in seen:
        errors.append(f"section [scenario {sid}]: give either seeds or n_seeds, not both")
    eps = fields.pop("bias_epsilon", 0.0)
    eff = fields.pop("bias_efficiency", 1.0)
    if eps != 0.0 or eff != 1.0:
        try:
            fields["bias"] = BiasModel(pointer_rotation_epsilon=eps, per_projector_efficiency=eff)
        except ValueError as exc:
            errors.append(f"section [scenario {sid}]: {exc}")
    if "kind" not in fields:
        errors.append(f"section [scenario {sid}]: missing required key 'kind'")
        return None
    try:
        return Scenario(scenario_id=sid, **fields)
    except (TypeError, ValueError) as exc:
        errors.append(f"section [scenario {sid}]: {exc}")
        return None


def parse_config(text: str) -> ConfigDocument:
    """Parse and validate a whole config; raises ConfigError listing all problems."""
    sections, errors = _split_sections(text)
    root_seed = 0
    output_dir = "results"
    scenarios: list[Scenario] = []
    seen_ids: dict[str, int] = {}
    seen_global: dict[str, int] = {}  # across every [global] section
    for name, header_line, entries in sections:
        if name == "global":
            for lineno, key, value in entries:
                if key not in _GLOBAL_KEYS:
                    errors.append(f"line {lineno}: unknown global key '{key}'")
                    continue
                if key in seen_global:
                    errors.append(
                        f"line {lineno}: key '{key}' already set on line {seen_global[key]}"
                    )
                    continue
                seen_global[key] = lineno
                try:
                    if key == "root_seed":
                        root_seed = int(value)
                    elif key == "output_dir":
                        output_dir = value
                except ValueError as exc:
                    errors.append(f"line {lineno}: {exc}")
            continue
        if not name.startswith("scenario"):
            errors.append(f"line {header_line}: unknown section '[{name}]'")
            continue
        sid = name[len("scenario"):].strip()
        if not sid:
            errors.append(f"line {header_line}: scenario section needs an id")
            continue
        if sid in seen_ids:
            errors.append(
                f"line {header_line}: duplicate scenario id '{sid}' "
                f"(first defined on line {seen_ids[sid]})"
            )
            continue
        seen_ids[sid] = header_line
        scn = _build_scenario(sid, entries, errors)
        if scn is not None:
            scenarios.append(scn)
    if not scenarios and not errors:
        errors.append("config defines no scenarios")
    if errors:
        raise ConfigError(errors)
    return ConfigDocument(scenarios=tuple(scenarios), root_seed=root_seed, output_dir=output_dir)


# -- Matrix text ---------------------------------------------------------------


def write_matrix(m) -> str:
    """Render a matrix as aligned text, one row per line."""
    a = qmath.as_complex_matrix(m)
    cells = [
        [f"{a[r, c].real:+.6f}{a[r, c].imag:+.6f}i" for c in range(a.shape[1])]
        for r in range(a.shape[0])
    ]
    return "\n".join("  ".join(row) for row in cells)


# -- Results CSV ---------------------------------------------------------------


def results_csv(rows: np.ndarray) -> str:
    """Render a `ROW_DTYPE` array as CSV text, one line per row, its fields as columns.

    `tolist` turns each row into Python str, int and float cells, which the
    csv module writes as themselves, with str and with repr (nan, inf, -0.0
    and 17 significant digits as Python prints them).
    """
    buf = _stdio.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rows.tolist())
    return buf.getvalue()


def write_results(rows: np.ndarray, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(results_csv(rows))
