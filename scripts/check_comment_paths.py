#!/usr/bin/env python3
"""Check that repository paths cited in C++ comments exist.

Usage: check_comment_paths.py DIR [DIR...]

Scans the `//` and `/* ... */` comments of every .h/.cpp file under the
given directories for file paths with an extension (`tests/test_obs.cpp`,
`core/likelihood.h`, `DESIGN.md`). A path that starts with a top-level
directory of the repository must exist relative to the repository root;
one that starts with a directory of src/ (`core/`, `net/`, ...) must exist
under src/; a bare `NAME.md` must exist at the root. Exits 1 with one line
per dead path, 0 when clean.

Stdlib only, like check_markdown_links.py.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

LINE_COMMENT = re.compile(r"//(.*)$", re.MULTILINE)
BLOCK_COMMENT = re.compile(r"/\*.*?\*/", re.DOTALL)
PATH = re.compile(
    r"(?<![\w./-])((?:[\w.-]+/)*[\w.-]+\.(?:h|cpp|py|sh|md|json|jsonl|txt|yml))\b")


def resolve(path: str) -> bool:
    """True when `path` names an existing file, or is not a repo path."""
    head = path.split("/", 1)[0]
    if "/" not in path:
        return not path.endswith(".md") or (ROOT / path).exists()
    if (ROOT / head).is_dir() and not (SRC / head).is_dir():
        return (ROOT / path).exists()
    if (SRC / head).is_dir():
        return (SRC / path).exists() or (ROOT / path).exists()
    return True  # not rooted in this repository (e.g. a system header)


def comments(text: str) -> list[tuple[int, str]]:
    """(line number, comment text) for every comment in `text`."""
    out = []
    for m in BLOCK_COMMENT.finditer(text):
        out.append((text.count("\n", 0, m.start()) + 1, m.group(0)))
    for m in LINE_COMMENT.finditer(text):
        out.append((text.count("\n", 0, m.start()) + 1, m.group(1)))
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    problems = []
    files = 0
    for name in argv[1:]:
        for path in sorted(Path(name).rglob("*")):
            if path.suffix not in (".h", ".cpp"):
                continue
            files += 1
            text = path.read_text(encoding="utf-8")
            for line, comment in comments(text):
                for m in PATH.finditer(comment):
                    if not resolve(m.group(1)):
                        problems.append(f"{path}:{line}: dead path {m.group(1)}")
    for p in problems:
        print(p)
    if not problems:
        print(f"ok: {files} file(s), every cited path exists")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
