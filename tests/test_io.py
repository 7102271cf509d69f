"""Config parsing, matrix serialization, CSV output."""

import math
from dataclasses import replace

import numpy as np
import pytest

from dmrecon import io
from dmrecon.experiments import BiasModel, ResultRow, Scenario, run_scenario
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

    def test_exact_text_of_special_values(self):
        # floats as repr (nan, inf, -0.0, all 17 digits), ints as str, and an
        # id holding a comma and a quote quoted the csv way
        row = ResultRow(
            scenario_id='a,b"c',
            kind="single",
            method="W",
            d=3,
            theta_a=0.1,
            theta_b=-0.0,
            purity_p=1.0,
            n_events=10_000,
            seed=-1,
            trace_distance=math.nan,
            delta_rho=math.inf,
            bound=0.12345678901234566,
            bias_epsilon=-math.inf,
            bias_efficiency=1e-300,
        )
        plain = replace(row, scenario_id="plain", seed=7, trace_distance=2.0 / 3.0)
        assert results_csv([row, plain]) == (
            ",".join(io.CSV_COLUMNS) + "\n"
            '"a,b""c",single,W,3,0.1,-0.0,1.0,10000,-1,nan,inf,0.12345678901234566,-inf,1e-300\n'
            "plain,single,W,3,0.1,-0.0,1.0,10000,7,0.6666666666666666,inf,"
            "0.12345678901234566,-inf,1e-300\n"
        )


def test_config_document_defaults():
    doc = ConfigDocument(scenarios=())
    assert doc.root_seed == 0
    assert doc.output_dir == "results"
