"""tools/src_lines.py: non-blank lines and code lines per attkit module."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "src_lines.py")
_spec = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)


def _src(root, modules):
    package = root / "attkit"
    package.mkdir(parents=True)
    for name, text in modules.items():
        (package / f"{name}.py").write_text(text)
    return str(root)


def test_one_tree_counts_non_blank_lines(tmp_path, capsys):
    src = _src(tmp_path, {"so3": "a = 1\n\n   \nb = 2\n", "cli": "x = 0\n"})
    assert src_lines.main([src]) == 0
    assert capsys.readouterr().out.split("\n") == [
        f"{'cli':16} {1:6} {1:6}", f"{'so3':16} {2:6} {2:6}", f"{'total':16} {3:6} {3:6}", ""]


def test_docstrings_and_comments_are_not_code_lines(tmp_path, capsys):
    text = (
        '"""Module docstring,\n'
        '\n'
        'on two non-blank lines."""\n'
        '# A comment line.\n'
        'import math  # code with a comment\n'
        '\n'
        '\n'
        'def f(x):\n'
        '    """One-line docstring."""\n'
        '    # Another comment.\n'
        '    s = """a string,\n'
        '    not a docstring"""\n'
        '    return s\n'
        '\n'
        '\n'
        'class A:\n'
        '    """Class docstring."""\n'
        '\n'
        '    y = 1\n'
    )
    assert src_lines.module_counts(text) == (13, 7)
    src = _src(tmp_path, {"so3": text})
    assert src_lines.main([src]) == 0
    assert capsys.readouterr().out.split("\n") == [
        f"{'so3':16} {13:6} {7:6}", f"{'total':16} {13:6} {7:6}", ""]


def test_two_trees_give_the_change_per_module(tmp_path, capsys):
    old = _src(tmp_path / "old", {"so3": "a = 1\nb = 2\n", "gone": "x = 0\n"})
    new = _src(tmp_path / "new", {"so3": "a = 1\n# c\n", "added": "y = 1\nz = 2\n"})
    assert src_lines.main([old, new]) == 0
    assert capsys.readouterr().out.split("\n") == [
        f"{'added':16} {0:6} {2:6} {2:+6} {0:6} {2:6} {2:+6}",
        f"{'gone':16} {1:6} {0:6} {-1:+6} {1:6} {0:6} {-1:+6}",
        f"{'so3':16} {2:6} {2:6} {0:+6} {2:6} {1:6} {-1:+6}",
        f"{'total':16} {3:6} {4:6} {1:+6} {3:6} {3:6} {0:+6}",
        "",
    ]


def test_wrong_arguments_print_usage_and_exit_2(tmp_path, capsys):
    assert src_lines.main([]) == 2
    assert "src_lines.py OLD_SRC SRC" in capsys.readouterr().err
