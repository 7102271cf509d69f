"""Config parsing, matrix serialization, CSV output."""

import csv
import dataclasses
import math
import os
import subprocess
import sys
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

from dmrecon import io
from dmrecon.experiments import ROW_DTYPE, Scenario, run_scenario
from dmrecon.io import (
    ConfigDocument,
    ConfigError,
    parse_config,
    results_csv,
    write_matrix,
)

MINIMAL = """
[scenario demo]
kind = single
state = pure:D
theta = 0.5
"""

FULL = """
[global]
root_seed = 42
output_dir = out

[scenario fig4]
kind = strength_sweep
state = pure:D
d = 2
theta = 0.1 0.5 1.5
n_events = 5000
n_seeds = 3
methods = W I II
source = sampled
reference = truth
bias_epsilon = 0.02

[scenario fig3]
kind = purity_sweep
state = pure:D
purity_grid = 0.0 0.5 1.0
n_seeds = 2
"""


class TestParseConfig:
    def test_minimal_fills_defaults(self):
        doc = parse_config(MINIMAL)
        assert len(doc.scenarios) == 1
        scn = doc.scenarios[0]
        assert scn.scenario_id == "demo"
        assert scn.methods == ("W", "I", "II")
        assert scn.n_events == 10_000
        assert len(scn.seeds) == 50
        assert doc.root_seed == 0

    def test_full_document(self):
        doc = parse_config(FULL)
        assert doc.root_seed == 42
        assert doc.output_dir == "out"
        fig4 = doc.scenarios[0]
        assert fig4.theta_list == (0.1, 0.5, 1.5)
        assert (fig4.bias_epsilon, fig4.bias_efficiency) == (0.02, 1.0)
        fig3 = doc.scenarios[1]
        assert fig3.kind == "purity_sweep"
        assert fig3.theta_list == (math.pi / 2,)

    def test_zero_theta_names_singularity(self):
        with pytest.raises(ConfigError, match="singular"):
            parse_config(MINIMAL.replace("theta = 0.5", "theta = 0"))

    def test_unknown_key_with_line_number(self):
        bad = MINIMAL + "frobnicate = 3\n"
        with pytest.raises(ConfigError, match=r"line \d+: unknown scenario key 'frobnicate'"):
            parse_config(bad)

    def test_atol_is_an_unknown_global_key(self):
        text = "[global]\natol = 1e-10\n" + MINIMAL
        with pytest.raises(ConfigError, match=r"line 2: unknown global key 'atol'"):
            parse_config(text)

    def test_duplicate_scenario_lists_both_lines(self):
        text = MINIMAL + "\n[scenario demo]\nkind = single\ntheta = 0.5\n"
        with pytest.raises(ConfigError, match=r"duplicate scenario id 'demo'.*line 2"):
            parse_config(text)

    def test_all_errors_collected(self):
        bad = """
[scenario a]
kind = nope
theta = 0
bogus = 1
"""
        with pytest.raises(ConfigError) as excinfo:
            parse_config(bad)
        assert len(excinfo.value.errors) >= 3

    def test_comments_and_blank_lines(self):
        text = "# header comment\n" + MINIMAL + "\n# trailing\n"
        assert parse_config(text).scenarios[0].scenario_id == "demo"

    def test_empty_config_rejected(self):
        with pytest.raises(ConfigError, match="no scenarios"):
            parse_config("")

    def test_repeated_global_key_rejected(self):
        # within one [global] section and across two of them
        for head, line in (
            ("[global]\nroot_seed = 1\nroot_seed = 2\n", 3),
            ("[global]\nroot_seed = 1\n[global]\nroot_seed = 2\n", 4),
        ):
            with pytest.raises(ConfigError) as excinfo:
                parse_config(head + MINIMAL)
            assert excinfo.value.errors == [f"line {line}: key 'root_seed' already set on line 2"]


# Each case's exact error list. Whole-scenario checks name the section, not a line.
ERROR_CASES = {
    "repeated scenario key": (
        "[scenario demo]\nkind = single\nd = 2\nd = 3\ntheta = 0.5\n",
        ["line 4: key 'd' already set on line 3"],
    ),
    "seeds with n_seeds": (
        MINIMAL + "seeds = 0 1\nn_seeds = 2\n",
        ["section [scenario demo]: give either seeds or n_seeds, not both"],
    ),
    "missing kind": (
        "[scenario demo]\ntheta = 0.5\n",
        ["section [scenario demo]: missing required key 'kind'"],
    ),
    "unknown section": (
        MINIMAL + "[extra]\nx = 1\n",
        ["line 6: unknown section '[extra]'"],
    ),
    "misspelled scenario headers": (
        MINIMAL + "[scenarios]\nkind = single\n[scenario_x]\nkind = single\n",
        ["line 6: unknown section '[scenarios]'", "line 8: unknown section '[scenario_x]'"],
    ),
    "theta where 16 n_ab^2 overflows": (
        MINIMAL.replace("theta = 0.5", "theta = 0.5 1e-100"),
        ["line 5: theta=1e-100 too small: 16 n_ab^2 overflows below theta ~ 3.4e-77"],
    ),
    "every bad theta on one line": (
        MINIMAL.replace("theta = 0.5", "theta = 0 3 1e-100 0.5"),
        [
            "line 5: theta = 0 makes the normalization d/(4 sin^2 theta) singular",
            "line 5: theta=3.0 outside (0, pi/2]",
            "line 5: theta=1e-100 too small: 16 n_ab^2 overflows below theta ~ 3.4e-77",
        ],
    ),
    "every bad purity point on one line": (
        "[scenario p]\nkind = purity_sweep\npurity_grid = 0 x 1.5 y nan\n",
        [
            "line 3: could not convert string to float: 'x'",
            "line 3: purity point 1.5 outside [0, 1]",
            "line 3: could not convert string to float: 'y'",
            "line 3: purity point nan outside [0, 1]",
        ],
    ),
    "every bad seed on one line": (
        MINIMAL + "seeds = 1 x y 2.5\n",
        [
            "line 6: invalid literal for int() with base 10: 'x'",
            "line 6: invalid literal for int() with base 10: 'y'",
            "line 6: invalid literal for int() with base 10: '2.5'",
        ],
    ),
    "theta where sin^2 underflows": (
        MINIMAL.replace("theta = 0.5", "theta = 1e-300"),
        ["line 5: theta=1e-300 too small: 16 n_ab^2 overflows below theta ~ 3.4e-77"],
    ),
    "repeated family parameter": (
        MINIMAL.replace("pure:D", "family:p=0.5,psi=D,p=0.2"),
        [
            "section [scenario demo]: family parameter 'p' given twice "
            "in 'family:p=0.5,psi=D,p=0.2'"
        ],
    ),
    "scenario without id": (
        "[scenario]\nkind = single\n" + MINIMAL,
        ["line 1: scenario section needs an id"],
    ),
    "line without =": (
        MINIMAL + "just words\n",
        ["line 6: expected 'key = value', got 'just words'"],
    ),
    "assignment before header": (
        "root_seed = 1\n" + MINIMAL,
        ["line 1: assignment before any [section] header"],
    ),
    "non-integer root_seed": (
        "[global]\nroot_seed = seven\n" + MINIMAL,
        ["line 2: invalid literal for int() with base 10: 'seven'"],
    ),
    "non-integer d": (
        MINIMAL + "d = two\n",
        ["line 6: invalid literal for int() with base 10: 'two'"],
    ),
    "efficiency out of range": (
        MINIMAL + "bias_efficiency = 1.5\n",
        ["section [scenario demo]: projector efficiency limited to [0.9, 1.1]"],
    ),
    "nan epsilon": (
        MINIMAL + "bias_epsilon = nan\n",
        ["section [scenario demo]: pointer rotation bias limited to |epsilon| <= 0.1 rad"],
    ),
    "infinite efficiency": (
        MINIMAL + "bias_efficiency = inf\n",
        ["section [scenario demo]: projector efficiency limited to [0.9, 1.1]"],
    ),
    "both bias values bad": (
        MINIMAL + "bias_epsilon = -inf\nbias_efficiency = nan\n",
        [
            "section [scenario demo]: pointer rotation bias limited to |epsilon| <= 0.1 rad",
            "section [scenario demo]: projector efficiency limited to [0.9, 1.1]",
        ],
    ),
    "errors in line order, then whole-scenario checks": (
        "[scenario a]\nbogus = 1\nd = x\nseeds = 0\nn_seeds = 2\nbias_epsilon = 0.5\n",
        [
            "line 2: unknown scenario key 'bogus'",
            "line 3: invalid literal for int() with base 10: 'x'",
            "section [scenario a]: give either seeds or n_seeds, not both",
            "section [scenario a]: pointer rotation bias limited to |epsilon| <= 0.1 rad",
            "section [scenario a]: missing required key 'kind'",
        ],
    ),
}


@pytest.mark.parametrize("text, expected", ERROR_CASES.values(), ids=ERROR_CASES.keys())
def test_error_messages(text, expected):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert excinfo.value.errors == expected


def test_one_name_per_input():
    # a config key is the `Scenario` field of its name, or of the one `_FIELDS`
    # gives it; the scenario-level CSV columns are `Scenario` fields too
    fields = {f.name for f in dataclasses.fields(Scenario)}
    assert {io._FIELDS.get(key, key) for key in io._SCENARIO_KEYS} <= fields
    columns = ("scenario_id", "kind", "d", "n_events", "bias_epsilon", "bias_efficiency")
    assert set(columns) <= fields and set(columns) <= set(io.CSV_COLUMNS)


class TestMatrixSerialization:
    def test_text_format_half_identity(self):
        text = write_matrix(np.eye(2) / 2)
        assert "0.500000+0.000000i" in text


class TestResultsCsv:
    def test_header_and_row_fields(self):
        scn = Scenario(
            scenario_id="c",
            kind="single",
            input_state="pure:D",
            theta_list=(0.5,),
            n_events=100,
            seeds=(0,),
            methods=("W",),
        )
        text = results_csv(run_scenario(scn, root_seed=0))
        lines = text.splitlines()
        assert lines[0] == ",".join(io.CSV_COLUMNS)
        assert lines[1].startswith("c,single,W,2,0.5,0.5,")

    def test_write_results_file(self, tmp_path):
        scn = Scenario(
            scenario_id="c-θ",
            kind="single",
            input_state="mixed",
            theta_list=(0.5,),
            n_events=100,
            seeds=(0,),
            methods=("I",),
        )
        rows = run_scenario(scn, root_seed=0)
        path = tmp_path / "r.csv"
        io.write_results(rows, path)
        assert path.read_bytes() == results_csv(rows).encode("utf-8")

    @staticmethod
    def special_rows(last_id):
        # one row array, filled column by column like the runner fills it
        rows = np.empty(3, ROW_DTYPE)
        rows["scenario_id"] = ['a,b"c', "plain", last_id]
        rows["kind"] = "single"
        rows["method"] = "W"
        rows["d"] = 3
        rows["theta_a"] = 0.1
        rows["theta_b"] = -0.0
        rows["purity_p"] = 1.0
        rows["n_events"] = [10_000, 10_000, 2**63 - 1]
        rows["seed"] = [-1, 7, 2**63 - 1]
        rows["trace_distance"] = [math.nan, 2.0 / 3.0, 2.0 / 3.0]
        rows["delta_rho"] = math.inf
        rows["bound"] = 0.12345678901234566
        rows["bias_epsilon"] = -math.inf
        rows["bias_efficiency"] = 1e-300
        return rows

    def test_exact_text_of_special_values(self):
        # floats as repr (nan, inf, -0.0, all 17 digits), ints as str up to
        # 2**63 - 1, and an id holding a comma and a quote quoted the csv way
        assert results_csv(self.special_rows("max")) == (
            ",".join(io.CSV_COLUMNS) + "\n"
            '"a,b""c",single,W,3,0.1,-0.0,1.0,10000,-1,nan,inf,0.12345678901234566,-inf,1e-300\n'
            "plain,single,W,3,0.1,-0.0,1.0,10000,7,0.6666666666666666,inf,"
            "0.12345678901234566,-inf,1e-300\n"
            "max,single,W,3,0.1,-0.0,1.0,9223372036854775807,9223372036854775807,"
            "0.6666666666666666,inf,0.12345678901234566,-inf,1e-300\n"
        )
        # a column holding 0.0, -0.0, nan and inf, each twice and never next to
        # itself: every cell reads its own text back through the dedupe's inverse
        values = [0.0, -0.0, math.nan, math.inf, -0.0, math.inf, 0.0, math.nan]
        rows = np.resize(self.special_rows("max")[1:2], len(values))
        rows["delta_rho"] = values
        column = io.CSV_COLUMNS.index("delta_rho")
        lines = results_csv(rows).splitlines()[1:]
        assert [line.split(",")[column] for line in lines] == [
            "0.0", "-0.0", "nan", "inf", "-0.0", "inf", "0.0", "nan"
        ]
        assert results_csv(rows) == oracle_csv(rows)

    def test_scenario_id_keeps_trailing_nul(self):
        # a section header can end an id in NUL; a fixed-width unicode field
        # would drop it, the object field keeps it
        rows = self.special_rows("max\x00")
        assert rows["scenario_id"][-1] == "max\x00"
        if sys.version_info < (3, 11):
            pytest.skip("the csv module writes NUL from Python 3.11 on")
        assert results_csv(rows).splitlines()[-1] == (
            "max\x00,single,W,3,0.1,-0.0,1.0,9223372036854775807,9223372036854775807,"
            "0.6666666666666666,inf,0.12345678901234566,-inf,1e-300"
        )


def oracle_csv(rows: np.ndarray) -> str:
    """The csv module writing the header and every row as Python cells: the reference."""
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(io.CSV_COLUMNS)
    writer.writerows(rows.tolist())
    return buf.getvalue()


def golden_rows() -> np.ndarray:
    # every scenario of the golden config, in the order `dmrecon run` writes them
    golden = Path(__file__).parent / "data" / "golden.cfg"
    doc = parse_config(golden.read_text(encoding="utf-8"))
    scenarios = sorted(doc.scenarios, key=lambda scn: scn.scenario_id)
    return np.concatenate([run_scenario(scn, doc.root_seed) for scn in scenarios])


def crafted_rows(with_nul: bool) -> np.ndarray:
    # repeated and distinct values whose text a value-keyed cache or a
    # hand-made quoting rule would get wrong; each column cycles its values
    ids = ["a,b", 'say "hi"', " lead", "trail ", "cr\rlf\n", "θ-ü", "", "plain"]
    if with_nul:
        ids.append("nul\x00end")
    n = len(ids)

    def cycle(*values):
        return (list(values) * n)[:n]

    rows = np.empty(n, ROW_DTYPE)
    rows["scenario_id"] = ids
    rows["kind"] = cycle("single", "")
    rows["method"] = cycle("W", "I", "II", "QST")
    rows["d"] = cycle(2, 3, 16)
    rows["theta_a"] = cycle(0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 1e-300)
    rows["theta_b"] = cycle(1e-300, 5e-324, -0.0, 0.0, 2.0 / 3.0)
    rows["purity_p"] = cycle(-0.0, 0.0)
    rows["n_events"] = cycle(0, 2**63 - 1, 1)
    rows["seed"] = cycle(-1, 2**63 - 1, 0)
    rows["trace_distance"] = cycle(math.nan, -math.nan)
    rows["delta_rho"] = cycle(math.inf, -math.inf)
    rows["bound"] = np.linspace(0.1, 0.9, n)
    rows["bias_epsilon"] = 5e-324
    rows["bias_efficiency"] = -5e-324
    return rows


class TestResultsCsvOracle:
    """`results_csv` byte for byte against the csv module writing `rows.tolist()`."""

    def test_golden_scenarios(self):
        rows = golden_rows()
        assert len(rows) == 231
        assert results_csv(rows) == oracle_csv(rows)

    @pytest.mark.parametrize("with_nul", [False, True], ids=["text", "text-with-nul"])
    def test_crafted_rows(self, with_nul):
        if with_nul and sys.version_info < (3, 11):
            pytest.skip("the csv module writes NUL from Python 3.11 on")
        rows = crafted_rows(with_nul)
        # the crafted cells really are there: both zeros and both nan signs
        assert {math.copysign(1.0, z) for z in rows["purity_p"]} == {1.0, -1.0}
        assert {math.copysign(1.0, v) for v in rows["trace_distance"]} == {1.0, -1.0}
        assert "" in rows["kind"].tolist() and "" in rows["scenario_id"].tolist()
        assert results_csv(rows) == oracle_csv(rows)

    def test_zero_rows_give_the_header_only(self):
        rows = np.empty(0, ROW_DTYPE)
        assert results_csv(rows) == oracle_csv(rows) == ",".join(io.CSV_COLUMNS) + "\n"


def test_config_document_defaults():
    doc = ConfigDocument(scenarios=())
    assert doc.root_seed == 0
    assert doc.output_dir == "results"


# Run in a fresh interpreter: prints "eager" when numpy itself imports
# numpy.random (older numpy releases), else whether the action imported it:
# `parse <config>` reads a config, anything else is a `dmrecon` command line.
_NUMPY_RANDOM_CHILD = """
import sys
import numpy
if "numpy.random" in sys.modules:
    print("eager")
    sys.exit()
from dmrecon import cli, io
if sys.argv[1] == "parse":
    with open(sys.argv[2], encoding="utf-8") as f:
        io.parse_config(f.read())
else:
    assert cli.main(sys.argv[1:]) == 0
print("numpy.random" in sys.modules)
"""


def _imports_numpy_random(*args: str) -> bool:
    """Whether the child's action imported numpy.random; skips on an eager numpy."""
    src = str(Path(io.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", _NUMPY_RANDOM_CHILD, *args],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip().splitlines()[-1]
    if out == "eager":
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert out in ("True", "False"), out
    return out == "True"


def test_reading_a_config_does_not_import_numpy_random():
    # `states.check_state_spec` checks random:seed= specs without drawing them,
    # so start-up skips the numpy.random import (about a tenth of it)
    golden = Path(__file__).parent / "data" / "golden.cfg"
    assert "random:seed=" in golden.read_text(encoding="utf-8")
    assert not _imports_numpy_random("parse", str(golden))


EXACT_RUN = """
[scenario exact-random]
kind = strength_sweep
state = random:seed=3
d = 4
theta = 0.3 1.5707963267948966
methods = W I II QST
source = exact
reference = qst
bias_epsilon = 0.02
"""


@pytest.mark.parametrize("command", ["run", "exact"])
def test_exact_runs_do_not_import_numpy_random(tmp_path, command):
    # `states.random_density` draws from a shake_256 stream, so a run that
    # samples nothing never loads numpy.random (6-10 ms of start-up)
    if command == "run":
        cfg = tmp_path / "exact.cfg"
        cfg.write_text(EXACT_RUN, encoding="utf-8")
        argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
    else:
        argv = ["exact", "--state", "random:seed=3", "--theta", "0.5", "--method", "II", "--d", "4"]
    assert not _imports_numpy_random(*argv)
