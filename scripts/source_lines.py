#!/usr/bin/env python3
"""Print the number of source lines of the package.

A source line is a line of a .py file under src/lapasym that is neither
blank nor a comment (its first non-blank character is not ``#``);
docstrings count.  ROADMAP.md and CHANGES.md track this number.

    python scripts/source_lines.py
"""
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "lapasym"


def source_lines(root: pathlib.Path = PACKAGE) -> int:
    count = 0
    for path in sorted(root.rglob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            text = line.strip()
            count += bool(text) and not text.startswith("#")
    return count


if __name__ == "__main__":
    print(source_lines())
