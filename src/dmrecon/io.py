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
reported, not just the first one: a key's problems with its line number
(every bad token of a theta, seeds or purity_grid list, in order), a
whole-scenario check (kind, d, bias, seeds with n_seeds, purity_grid in a
purity sweep only) with its `section [scenario <id>]`. A key may be set
once per scenario, and once across all [global] sections.
"""

from __future__ import annotations

import csv
import io as _stdio
from dataclasses import dataclass

import numpy as np

from . import qmath
from .experiments import ROW_DTYPE, Scenario, check_bias, check_purity_point
from .protocol import check_theta

CSV_COLUMNS = ROW_DTYPE.names


def _numbers(value: str, parse, check=None) -> tuple:
    """Each token read by `parse`, `check`ed if given; one `ConfigError` names every bad one."""
    numbers, problems = [], []
    for tok in value.split():
        try:
            numbers.append(parse(tok))
            if check is not None:
                check(numbers[-1])
        except ValueError as exc:
            problems.append(str(exc))
    if problems:
        raise ConfigError(problems)
    return tuple(numbers)


# Each key of a section and the parser of its value text.
_SCENARIO_KEYS = {
    "kind": str,
    "state": str,
    "d": int,
    "theta": lambda value: _numbers(value, float, check_theta),
    "n_events": int,
    "seeds": lambda value: _numbers(value, int),
    "n_seeds": lambda value: tuple(range(int(value))),
    "methods": lambda value: tuple(value.split()),
    "source": str,
    "reference": str,
    "bias_epsilon": float,
    "bias_efficiency": float,
    "purity_grid": lambda value: _numbers(value, float, check_purity_point),
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
    """(sections, errors): each section (name, line_number, [(lineno, key, value), ...])."""
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
                problems = exc.errors if isinstance(exc, ConfigError) else [exc]
                errors.extend(f"line {lineno}: {problem}" for problem in problems)
    return values


def _build_scenario(sid: str, entries, errors: list[str]) -> Scenario | None:
    """The section's `Scenario`, or None; every problem found goes to `errors`.

    Each bias key is checked here on its own, with the other one neutral, so
    each bad value is reported under the section even without a `kind`, and
    then dropped, so that `Scenario` does not report it a second time.
    """
    seen: dict[str, int] = {}
    values = _read_section(entries, _SCENARIO_KEYS, "scenario", seen, errors)
    section = f"section [scenario {sid}]"
    if "seeds" in seen and "n_seeds" in seen:
        errors.append(f"{section}: give either seeds or n_seeds, not both")
    eps, eff = values.get("bias_epsilon", 0.0), values.get("bias_efficiency", 1.0)
    for key, bias in (("bias_epsilon", (eps, 1.0)), ("bias_efficiency", (0.0, eff))):
        try:
            check_bias(*bias)
        except ValueError as exc:
            errors.append(f"{section}: {exc}")
            del values[key]
    fields = {_FIELDS.get(key, key): value for key, value in values.items()}
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


def _text_cell(value) -> str:
    """`value` as the csv module writes it in a row of more than one field."""
    buf = _stdio.StringIO()
    # a lone empty field is written as "", so the cell gets an empty neighbour
    csv.writer(buf, lineterminator="\n").writerow([value, ""])
    return buf.getvalue()[:-2]


def _column_cells(col: np.ndarray) -> list[str]:
    """The text of each cell of one `ROW_DTYPE` field, each distinct value formatted once.

    Numbers are keyed by their bits, which keeps 0.0 and -0.0 apart and gives
    each nan bit pattern one key, where float keys would merge the zeros and
    split every nan. Their text is what the csv module writes: repr for a
    float (nan, inf, -0.0, up to 17 significant digits) and str for an int.
    """
    if col.dtype == object:
        cells = col.tolist()
        texts = {value: _text_cell(value) for value in dict.fromkeys(cells)}
        return [texts[value] for value in cells]
    keys, inverse = np.unique(col.view(np.int64), return_inverse=True)
    text = repr if col.dtype.kind == "f" else str
    texts = [text(value) for value in keys.view(col.dtype).tolist()]
    return [texts[i] for i in inverse.tolist()]


def results_csv(rows: np.ndarray) -> str:
    """Render a `ROW_DTYPE` array as CSV text, one line per row, its fields as columns.

    The text equals, byte for byte, `csv.writer(lineterminator="\\n")` writing
    the header and `rows.tolist()`; it is built column by column instead.
    """
    columns = [_column_cells(rows[name]) for name in CSV_COLUMNS]
    lines = [",".join(CSV_COLUMNS), *map(",".join, zip(*columns))]
    return "\n".join(lines) + "\n"


def write_results(rows: np.ndarray, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(results_csv(rows))
