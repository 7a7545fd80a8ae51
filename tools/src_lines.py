"""Count the non-blank lines of each attkit module.

    python tools/src_lines.py SRC
    python tools/src_lines.py OLD_SRC SRC

SRC is the ``src/`` directory of an attkit checkout. With one tree it
prints, for each module of ``SRC/attkit``, its count of non-blank lines,
then the total. With two trees it prints each module's old count, new
count and change, a module present in only one tree counting 0 in the
other, then the totals.
"""

from __future__ import annotations

import sys
from pathlib import Path


def counts(src) -> dict[str, int]:
    """Non-blank lines of each module of src/attkit, by module name."""
    package = Path(src) / "attkit"
    if not package.is_dir():
        raise SystemExit(f"error: no attkit package under {src}")
    return {
        path.stem: sum(1 for line in path.read_text().splitlines() if line.strip())
        for path in sorted(package.glob("*.py"))
    }


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if len(argv) == 1:
        new = counts(argv[0])
        for name, n in new.items():
            print(f"{name:16} {n:6}")
        print(f"{'total':16} {sum(new.values()):6}")
        return 0
    old, new = counts(argv[0]), counts(argv[1])
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name, 0), new.get(name, 0)
        print(f"{name:16} {a:6} {b:6} {b - a:+6}")
    a, b = sum(old.values()), sum(new.values())
    print(f"{'total':16} {a:6} {b:6} {b - a:+6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
