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



def _compare(tmp_path, capsys, before, after, *bounds):
    # --compare of BASE with the files of before against BASE with after's.
    code = cli_outputs.main(["--compare", _tree(tmp_path / "a", dict(BASE, **before)),
                             _tree(tmp_path / "b", dict(BASE, **after)), *bounds])
    return code, capsys.readouterr().out


def _csv(*rows):
    return {"001_run.csv": "".join(f"{row}\n" for row in ("t,err",) + rows)}


@pytest.mark.parametrize("before, after, units", [
    ("0.008512972584", "0.008512972583", 1),
    ("0.008512972584", "0.008512972586", 2),
    ("9.999999999e-06", "1.000000000e-05", 1),  # the finer of the two last digits
    ("-1.5", "-1.25", 25),
    ("12", "15", 3),
    ("4.968137889e-16", "6.197785392e-16", 0),  # under the 1e-12 floor: not counted
])
def test_csv_numbers_move_in_units_of_their_last_printed_digit(tmp_path, capsys, before, after,
                                                               units):
    code, out = _compare(tmp_path, capsys, _csv(f"0.05,{before}"), _csv(f"0.05,{after}"))
    assert code == 0
    assert f", units {units}\n" in out
    assert f"units {units} (001_run.csv)" in out.splitlines()[-1]


def test_a_csv_or_stdout_number_over_its_unit_bound_fails(tmp_path, capsys):
    one, two = _csv("0.05,0.008512972584"), _csv("0.05,0.008512972586")
    assert _compare(tmp_path / "1", capsys, one, two, "--units", "2")[0] == 0
    code, out = _compare(tmp_path / "2", capsys, one, two, "--units", "1")
    assert code == 1
    assert ("001_run.csv: exit -, structure same, max change abs 2.00e-12, rel 2.35e-10, "
            "units 2 OVER BOUND") in out
    assert "1 of 3 files differ, 0 in exit code, structure or presence, 1 over their bound" in out
    stdout = {"000_golden.stdout": "exit 0\nerror 3.395480026e-06 at rkmk4\n"}
    assert _compare(tmp_path / "3", capsys, {}, stdout, "--units", "1")[0] == 1
    # A number under the 1e-12 floor on both sides moves by less than twice
    # the floor, uncounted; one that reaches it on either side is counted.
    tiny, other = _csv("0.05,0.008512972584", "2e-13,0"), _csv("0.05,0.008512972584", "1e-13,0")
    assert _compare(tmp_path / "4", capsys, tiny, other, "--units", "0")[0] == 0
    small, edge = _csv("0.05,0.008512972584", "9e-13,0"), _csv("0.05,0.008512972584", "1e-12,0")
    assert _compare(tmp_path / "5", capsys, small, edge, "--units", "0")[0] == 1


@pytest.mark.parametrize("after, bound, code", [
    ("1.0000000000005", "1e-12", 0),
    ("1.000000000002", "1e-12", 1),
    ("1.000000000002", "1e-11", 0),
])
def test_json_numbers_are_bounded_by_their_absolute_change(tmp_path, capsys, after, bound, code):
    changed = {"inputs/run.json": f'{{"x": [{after}, -2.5]}}\n'}
    got, out = _compare(tmp_path, capsys, {"inputs/run.json": '{"x": [1.0, -2.5]}\n'}, changed,
                        "--abs", bound, "--units", "0")
    assert got == code
    assert "units" not in out  # a JSON number's change is not counted in units
    assert ("OVER BOUND" in out) == bool(code)
