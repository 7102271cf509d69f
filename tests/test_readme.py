"""The README's examples run as written."""

import re
from pathlib import Path

from dmrecon import io

README = Path(__file__).resolve().parents[1] / "README.md"


def code_blocks(lang):
    """The bodies of the README's fenced blocks in `lang`, in order."""
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_python_quick_start_runs(capsys):
    (code,) = code_blocks("python")
    exec(compile(code, str(README), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "(3, 3, 8)"
    assert float(out[1]) < 1e-12
    assert out[3].startswith("(2, 3, 3) [")


def test_output_csv_lists_the_columns_in_order():
    # the column block under "Output CSV" is the writer's header
    section = README.read_text(encoding="utf-8").split("\n## Output CSV\n")[1]
    block = re.search(r"^```\n(.*?)^```", section, re.M | re.S).group(1)
    assert re.split(r",\s*", block.strip()) == list(io.CSV_COLUMNS)


def test_config_example_parses():
    (text,) = code_blocks("ini")
    doc = io.parse_config(text)
    assert doc.root_seed == 7
    assert [s.scenario_id for s in doc.scenarios] == ["strength-demo", "purity-demo"]
    strength, purity = doc.scenarios
    assert strength.theta_list == (0.05, 0.1, 0.5, 1.5707963267948966)
    assert strength.seeds == tuple(range(50))
    assert purity.purity_grid == (0.0, 0.25, 0.5, 0.75, 1.0)
