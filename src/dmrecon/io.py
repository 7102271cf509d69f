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

`_SCENARIO_KEYS` and `_GLOBAL_KEYS` map each key to the parser of its value;
`_FIELDS` names the three scenario keys whose `Scenario` field differs
(state, theta and n_seeds). One `_read_section` loop reads both kinds of
section. Whole files validate before anything runs, and every problem is
reported, not just the first one: a key's problem with its line number, a
whole-scenario check (kind, d, bias, seeds with n_seeds) with its
`section [scenario <id>]`. A key may be set once per scenario, and once
across all [global] sections.
"""

from __future__ import annotations

import csv
import io as _stdio
from dataclasses import dataclass

import numpy as np

from . import qmath
from .experiments import ROW_DTYPE, BiasModel, Scenario
from .protocol import check_theta

CSV_COLUMNS = ROW_DTYPE.names


def _floats(value: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in value.split())


def _thetas(value: str) -> tuple[float, ...]:
    thetas = _floats(value)
    for th in thetas:
        check_theta(th)
    return thetas


# Each key of a section and the parser of its value text.
_SCENARIO_KEYS = {
    "kind": str,
    "state": str,
    "d": int,
    "theta": _thetas,
    "n_events": int,
    "seeds": lambda value: tuple(int(tok) for tok in value.split()),
    "n_seeds": lambda value: tuple(range(int(value))),
    "methods": lambda value: tuple(value.split()),
    "source": str,
    "reference": str,
    "bias_epsilon": float,
    "bias_efficiency": float,
    "purity_grid": _floats,
}
_GLOBAL_KEYS = {"root_seed": int, "output_dir": str}
# The scenario keys whose `Scenario` field has another name; the others share theirs.
_FIELDS = {"state": "input_state", "theta": "theta_list", "n_seeds": "seeds"}


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


def _read_section(
    entries, parsers: dict, label: str, seen: dict[str, int], errors: list[str]
) -> dict:
    """Each known key's parsed value; unknown, repeated and unparsable keys go to `errors`.

    `seen` maps each key already set to its line, whether or not its value parsed.
    """
    values = {}
    for lineno, key, value in entries:
        if key not in parsers:
            errors.append(f"line {lineno}: unknown {label} key '{key}'")
        elif key in seen:
            errors.append(f"line {lineno}: key '{key}' already set on line {seen[key]}")
        else:
            seen[key] = lineno
            try:
                values[key] = parsers[key](value)
            except ValueError as exc:
                errors.append(f"line {lineno}: {exc}")
    return values


def _build_scenario(sid: str, entries, errors: list[str]) -> Scenario | None:
    seen: dict[str, int] = {}
    values = _read_section(entries, _SCENARIO_KEYS, "scenario", seen, errors)
    section = f"section [scenario {sid}]"
    if "seeds" in seen and "n_seeds" in seen:
        errors.append(f"{section}: give either seeds or n_seeds, not both")
    eps = values.pop("bias_epsilon", 0.0)
    eff = values.pop("bias_efficiency", 1.0)
    fields = {_FIELDS.get(key, key): value for key, value in values.items()}
    try:
        fields["bias"] = BiasModel(pointer_rotation_epsilon=eps, per_projector_efficiency=eff)
    except ValueError as exc:
        errors.append(f"{section}: {exc}")
    if "kind" not in fields:
        errors.append(f"{section}: missing required key 'kind'")
        return None
    try:
        return Scenario(scenario_id=sid, **fields)
    except (TypeError, ValueError) as exc:
        errors.append(f"{section}: {exc}")
        return None


def parse_config(text: str) -> ConfigDocument:
    """Parse and validate a whole config; raises ConfigError listing all problems."""
    sections, errors = _split_sections(text)
    settings: dict = {}
    scenarios: list[Scenario] = []
    seen_ids: dict[str, int] = {}
    seen_global: dict[str, int] = {}  # across every [global] section
    for name, header_line, entries in sections:
        if name == "global":
            settings.update(_read_section(entries, _GLOBAL_KEYS, "global", seen_global, errors))
            continue
        # `scenario`, whitespace, then the id: [scenarios] is no scenario section
        parts = name.split(None, 1)
        if parts[:1] != ["scenario"]:
            errors.append(f"line {header_line}: unknown section '[{name}]'")
            continue
        if len(parts) == 1:
            errors.append(f"line {header_line}: scenario section needs an id")
            continue
        sid = parts[1]
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
    return ConfigDocument(scenarios=tuple(scenarios), **settings)


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
