"""Config parsing, matrix serialization, CSV output."""

import math
import sys

import numpy as np
import pytest

from dmrecon import io
from dmrecon.experiments import ROW_DTYPE, BiasModel, Scenario, run_scenario
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
        assert fig4.bias == BiasModel(pointer_rotation_epsilon=0.02)
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
            scenario_id="c",
            kind="single",
            input_state="mixed",
            theta_list=(0.5,),
            n_events=100,
            seeds=(0,),
            methods=("I",),
        )
        path = tmp_path / "r.csv"
        io.write_results(run_scenario(scn, root_seed=0), path)
        assert path.read_text().startswith("scenario_id,")

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


def test_config_document_defaults():
    doc = ConfigDocument(scenarios=())
    assert doc.root_seed == 0
    assert doc.output_dir == "results"
