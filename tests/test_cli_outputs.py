"""The compare mode of tools/cli_outputs.py."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "cli_outputs.py")
_spec = importlib.util.spec_from_file_location("cli_outputs", _PATH)
cli_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_outputs)


def _tree(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return str(root)


BASE = {
    "000_golden.stdout": "exit 0\nerror 3.395480024e-06 at rkmk4\n",
    "001_run.csv": "t,err\n0.05,0.008512972584\n",
    "inputs/run.json": '{"x": [1.0, -2.5]}\n',
}


def test_numbers_that_moved_are_bounded(tmp_path, capsys):
    moved = dict(BASE, **{"001_run.csv": "t,err\n0.05,0.008512972583\n"})
    code = cli_outputs.main(["--compare", _tree(tmp_path / "a", BASE), _tree(tmp_path / "b", moved)])
    out = capsys.readouterr().out
    assert code == 0
    assert "001_run.csv: exit -, structure same, max change abs 1.00e-12, rel 1.17e-10" in out
    assert "1 of 3 files differ, 0 in exit code, structure or presence" in out


@pytest.mark.parametrize("name, text", [
    ("000_golden.stdout", "exit 3\nerror 3.395480024e-06 at rkmk4\n"),  # exit code
    ("000_golden.stdout", "exit 0\nerror 3.395480024e-06 at rkmk5\n"),  # text
    ("001_run.csv", "t,err\n0.05,nan\n"),  # a number became text
    ("inputs/extra.json", "{}\n"),  # on one side only
])
def test_exit_code_structure_or_presence_fails(tmp_path, capsys, name, text):
    changed = dict(BASE, **{name: text})
    code = cli_outputs.main(["--compare", _tree(tmp_path / "a", BASE), _tree(tmp_path / "b", changed)])
    assert code == 1
    assert "1 in exit code, structure or presence" in capsys.readouterr().out
