"""End-to-end command-line runs."""

import functools
import re
import tempfile
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmrecon import correlations, experiments, io, qmath, reconstruct
from dmrecon.cli import main

GOLDEN_CFG = (Path(__file__).resolve().parent / "data" / "golden.cfg").read_text(encoding="utf-8")
# the text before the first scenario, then one block per [scenario] section
GOLDEN_BLOCKS = re.split(r"(?m)^(?=\[scenario )", GOLDEN_CFG)

CONFIG = """
[global]
root_seed = 5

[scenario smoke]
kind = single
state = pure:D
theta = 1.5707963267948966
n_events = 2000
n_seeds = 2
methods = I II
"""


def test_exact_subcommand_prints_state(capsys):
    rc = main(["exact", "--state", "pure:D", "--theta", "1.5707963267948966", "--method", "II"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "method II" in out
    assert out.count("+0.500000+0.000000i") == 4


def test_exact_subcommand_mixed_state(capsys):
    rc = main(["exact", "--state", "mixed", "--theta", "0.3", "--method", "I", "--d", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "+0.333333+0.000000i" in out


def test_run_subcommand_writes_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("DMRECON_SEED", raising=False)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(CONFIG)
    out_dir = tmp_path / "out"
    rc = main(["run", "--config", str(cfg), "--out", str(out_dir)])
    assert rc == 0
    text = (out_dir / "results.csv").read_text()
    assert text.splitlines()[0] == ",".join(io.CSV_COLUMNS)
    # 2 methods x (1 expectation + 2 seeds)
    assert len(text.splitlines()) == 1 + 6


def test_run_identical_with_same_seed(tmp_path, monkeypatch):
    monkeypatch.delenv("DMRECON_SEED", raising=False)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(CONFIG)
    outputs = []
    for name in ("a", "b"):
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / name)])
        assert rc == 0
        outputs.append((tmp_path / name / "results.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_run_orders_scenarios_by_id(tmp_path, monkeypatch):
    # scenarios listed out of id order: the run writes the bytes of one
    # canonical sort over every row, without sorting the rows again itself
    monkeypatch.delenv("DMRECON_SEED", raising=False)
    text = """
[global]
root_seed = 11

[scenario m-purity]
kind = purity_sweep
state = pure:b0
d = 2
theta = 1.0
purity_grid = 0.0 1.0
n_events = 500
seeds = 0 1
methods = W II

[scenario a-strength]
kind = strength_sweep
state = random:seed=2
d = 3
theta = 0.3 1.2
n_events = 400
seeds = 1 0
methods = I QST

[scenario z-exact]
kind = single
state = mixed
d = 2
theta = 0.8
methods = II W
source = exact
"""
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    doc = io.parse_config(text)
    ids = [scn.scenario_id for scn in doc.scenarios]
    assert ids != sorted(ids)
    rows = np.concatenate([experiments.run_scenario(scn, doc.root_seed) for scn in doc.scenarios])
    want = io.results_csv(experiments.sort_rows(rows)).encode()
    assert (tmp_path / "results.csv").read_bytes() == want


@functools.cache
def _run_bytes(text: str) -> bytes:
    """results.csv of `dmrecon run` on config text, without a DMRECON_SEED override."""
    with tempfile.TemporaryDirectory() as out, pytest.MonkeyPatch.context() as mp:
        mp.delenv("DMRECON_SEED", raising=False)
        cfg = Path(out) / "cfg.txt"
        cfg.write_text(text, encoding="utf-8")
        assert main(["run", "--config", str(cfg), "--out", out]) == 0
        return (Path(out) / "results.csv").read_bytes()


@settings(derandomize=True, max_examples=6, deadline=None)
@given(order=st.permutations(range(1, len(GOLDEN_BLOCKS))))
def test_golden_run_ignores_scenario_and_seed_order(order):
    # the golden config with its [scenario] sections permuted and every seeds
    # list reversed writes the same bytes; the unpermuted run is the one
    # tests/test_golden.py pins. Method order is left alone: it picks the pairs drawn.
    text = GOLDEN_BLOCKS[0] + "".join(GOLDEN_BLOCKS[i] for i in order)
    text = re.sub(r"(?m)^seeds = (.*)$", lambda m: "seeds = " + " ".join(m[1].split()[::-1]), text)
    assert text != GOLDEN_CFG
    assert _run_bytes(text) == _run_bytes(GOLDEN_CFG)


def test_env_seed_override_changes_output(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(CONFIG)
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
    monkeypatch.setenv("DMRECON_SEED", "99")
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "results.csv").read_bytes() != (
        tmp_path / "b" / "results.csv"
    ).read_bytes()


def test_run_reports_config_errors(tmp_path, capsys):
    cfg = tmp_path / "bad.txt"
    cfg.write_text("[scenario x]\nkind = single\ntheta = 0\n")
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "singular" in capsys.readouterr().err


def test_validate_subcommand_passes(capsys):
    rc = main(["validate"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "validation passed" in out
    # the README states how many checks run
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (n_checks,) = re.findall(r"`dmrecon validate` runs (\d+) checks", readme)
    assert out.count("[ok]") == int(n_checks)
    assert out.startswith("[ok] Kraus operators match matrix-exponential columns (max dev")
    assert "[ok] Born probabilities match Tr(P rho) (max dev" in out
    assert "[ok] standard-family QST closed form matches least squares (max dev" in out
    assert "[ok] outcome classes carry the tables' moments (max dev" in out


def test_validate_fails_on_a_nan_estimate(capsys, monkeypatch):
    # a degenerate (all-nan) exact estimate has nan distance, which must not read as 0
    def degenerate(correls):
        return SimpleNamespace(finalized=np.full((correls.dim, correls.dim), np.nan))

    monkeypatch.setattr(reconstruct, "reconstruct_exact_ii", degenerate)
    rc = main(["validate"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[FAIL] exact estimators reproduce the state (max distance nan)" in out
    assert "validation failed" in out


@pytest.mark.parametrize("shift", [1e-14, np.nan])
def test_validate_fails_on_a_wrong_born_vector(capsys, monkeypatch, shift):
    # the tomography check feeds one Born vector to both of its sides, so only
    # the Born check sees a wrong (or nan) one
    born = reconstruct.born_probabilities
    monkeypatch.setattr(
        reconstruct, "born_probabilities", lambda rho, kets: born(rho, kets) + shift
    )
    rc = main(["validate"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[FAIL] Born probabilities match Tr(P rho) (max dev" in out
    if shift == 1e-14:
        assert "[ok] standard-family QST closed form matches least squares" in out


def _all_nan(out):
    return np.full_like(out, np.nan)


@pytest.mark.parametrize(
    "module, name, check, corrupt",
    [
        (correlations, "analytic_correlation", "trace correlations match closed forms", _all_nan),
        # the Kraus check's oracle: the coupling unitary, exponentiated
        (qmath, "matrix_exponential", "Kraus operators match matrix-exponential columns", _all_nan),
        (correlations, "outcome_classes", "outcome classes carry the tables' moments", _all_nan),
        (
            reconstruct,
            "qst_least_squares",
            "standard-family QST closed form matches least squares",
            lambda result: replace(result, raw=_all_nan(result.raw)),
        ),
    ],
    ids=["trace-correlations", "coupling-unitary", "outcome-classes", "qst-least-squares"],
)
def test_validate_fails_on_a_nan_in_a_check(capsys, monkeypatch, module, name, check, corrupt):
    # each check folds its deviations with np.maximum, so one nan fails it
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: corrupt(real(*args)))
    rc = main(["validate"])
    out = capsys.readouterr().out
    assert rc == 1
    assert f"[FAIL] {check} (max dev nan)" in out
    assert "validation failed" in out


def _one_line_error(capsys, rc):
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1, err
    assert "Traceback" not in err
    return err


def test_run_rejects_non_integer_env_seed(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(CONFIG)
    monkeypatch.setenv("DMRECON_SEED", "abc")
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert "DMRECON_SEED" in _one_line_error(capsys, rc)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("make_config", ["missing", "directory", "binary"])
def test_run_reports_unreadable_config(tmp_path, capsys, monkeypatch, make_config):
    monkeypatch.delenv("DMRECON_SEED", raising=False)
    cfg = tmp_path / "cfg.txt"
    if make_config == "directory":
        cfg.mkdir()
    elif make_config == "binary":
        cfg.write_bytes(b"\xff\xfe\x00")
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert str(cfg) in _one_line_error(capsys, rc)


def test_run_reports_uncreatable_out_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("DMRECON_SEED", raising=False)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(CONFIG)
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc = main(["run", "--config", str(cfg), "--out", str(blocker / "o")])
    assert "cannot create output directory" in _one_line_error(capsys, rc)


def test_run_reports_unwritable_results(tmp_path, capsys, monkeypatch):
    # the run completes, then results.csv cannot be written: one line, no traceback
    monkeypatch.delenv("DMRECON_SEED", raising=False)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(CONFIG)
    out_dir = tmp_path / "o"
    (out_dir / "results.csv").mkdir(parents=True)
    rc = main(["run", "--config", str(cfg), "--out", str(out_dir)])
    err = _one_line_error(capsys, rc)
    assert err.startswith(f"dmrecon run: cannot write {out_dir / 'results.csv'}: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--state", "bogus", "--theta", "1"], "unrecognized state spec"),
        (["--state", "mixed", "--theta", "3"], "theta=3.0 outside (0, pi/2]"),
        (["--state", "mixed", "--theta", "0"], "singular"),
        (["--state", "mixed", "--theta", "1", "--d", "40"], "outside supported range"),
        (["--state", "mixed", "--theta", "1", "--d", "0"], "outside supported range"),
        (["--state", "pure:H", "--theta", "1", "--d", "3"], "requires d=2"),
        (["--state", "pure:a5", "--theta", "1", "--d", "3"], "out of range 1..3"),
        (["--state", "mixed", "--theta", "1e-300"], "theta=1e-300 too small"),
        (["--state", "mixed", "--theta", "-0.1"], "theta=-0.1 outside (0, pi/2]"),
    ],
)
def test_exact_reports_bad_input(capsys, argv, message):
    rc = main(["exact", "--method", "I", *argv])
    assert message in _one_line_error(capsys, rc)


@pytest.mark.parametrize(
    "argv",
    [
        ["--state", "mixed", "--theta", "1.5707963267948966"],
        ["--state", "pure:a1", "--d", "1", "--theta", "1.5707963267948966"],
    ],
)
def test_exact_reports_degenerate_estimate(capsys, argv):
    # valid input where W has no signal (zero trace at full strength): one
    # stderr line and exit status 1, not a traceback
    rc = main(["exact", "--method", "W", *argv])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1, captured.err
    assert captured.err.startswith("dmrecon exact: ")
    assert "near-zero trace" in captured.err


@pytest.mark.parametrize(
    "lines, message",
    [
        (["kind = single", "d = 40"], "outside supported range 1..16"),
        (["kind = single", "state = pure:H", "d = 3"], "requires d=2"),
        (["kind = purity_sweep", "state = mixed"], "pure input"),
        (["kind = purity_sweep", "state = pure:a4", "d = 3"], "out of range 1..3"),
        (["kind = single", "state = random:seed=-3"], "nonnegative seed"),
        (["kind = single", "seeds = -1 0"], "seeds must be nonnegative"),
        (["kind = single", "seeds = 0 1 0"], "seeds must not repeat"),
        (["kind = single", "theta = 0.5 0.5"], "theta must not repeat"),
        (["kind = single", "methods = W W"], "methods must not repeat"),
        (["kind = purity_sweep", "purity_grid ="], "purity_grid needs at least one point"),
        (["kind = purity_sweep", "purity_grid = 0 0.5 0"], "purity_grid must not repeat"),
        (["kind = single", "theta ="], "theta needs at least one value"),
        (["kind = single", "bias_epsilon = nan"], "|epsilon| <= 0.1"),
        (["kind = single", "seeds = 9223372036854775808 3"], "outside 0..2**63-1"),
        (["kind = single", "seeds = 18446744073709551616 3"], "outside 0..2**63-1"),
        (["kind = strength_sweep", "purity_grid = 0.1 0.2"],
         "purity_grid applies only to purity sweeps"),
    ],
)
def test_run_rejects_scenario_that_cannot_run(tmp_path, capsys, monkeypatch, lines, message):
    # caught when the config is parsed: nothing runs and nothing is written
    monkeypatch.delenv("DMRECON_SEED", raising=False)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("[scenario late]\n" + "\n".join(lines) + "\nn_events = 100\n")
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1, err
    assert "section [scenario late]" in err and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "results.csv").exists()


def test_run_rejects_n_events_beyond_the_sampler(tmp_path, capsys, monkeypatch):
    # the multinomial draw takes a C long: 2**63 would fail mid-run, so the
    # config is rejected when parsed; 2**63 - 1 still parses
    monkeypatch.delenv("DMRECON_SEED", raising=False)
    text = "[scenario big]\nkind = single\nn_seeds = 1\nn_events = {}\n"
    io.parse_config(text.format(2**63 - 1))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text.format(2**63))
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = _one_line_error(capsys, rc)
    assert "section [scenario big]" in err and "n_events=9223372036854775808" in err
    assert not (tmp_path / "o" / "results.csv").exists()


def test_run_writes_the_largest_seed(tmp_path, monkeypatch):
    # 2**63 - 1 is the top of the int64 seed column and still runs
    monkeypatch.delenv("DMRECON_SEED", raising=False)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("[scenario top]\nkind = single\ntheta = 0.5\nmethods = I\nn_events = 100\n"
                   f"seeds = {2**63 - 1}\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    lines = (tmp_path / "o" / "results.csv").read_text().splitlines()
    seed_col = io.CSV_COLUMNS.index("seed")
    assert [line.split(",")[seed_col] for line in lines[1:]] == ["-1", str(2**63 - 1)]


def test_run_reads_a_config_saved_with_a_bom(tmp_path, monkeypatch):
    # editors that save UTF-8 with a byte-order mark must not break the first line
    monkeypatch.delenv("DMRECON_SEED", raising=False)
    outputs = []
    for name, encoding in (("plain", "utf-8"), ("bom", "utf-8-sig")):
        cfg = tmp_path / f"{name}.txt"
        cfg.write_text(CONFIG.lstrip(), encoding=encoding)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        outputs.append((tmp_path / name / "results.csv").read_bytes())
    assert (tmp_path / "bom.txt").read_bytes().startswith(b"\xef\xbb\xbf")
    assert outputs[0] == outputs[1]
