"""Run tier-1 in this process under a ``sys.settrace`` line tracer limited to
``src/ghzforge``, then name every executable line of the package that no test
reached, and exit 1 if there is any.

    PYTHONPATH=src python tests/line_coverage.py [extra pytest arguments]

An executable line is the first line of a statement that compiles to code:
a docstring or a bare ``...`` has none.  A line counts as reached when the
tracer sees it run.  Only the lines in ``ALLOWED`` may stay unreached; a
listed line that is reached or gone is reported too, so the list stays exact.
Standard library and pytest only; the traced run takes about 2.5 times as
long as the untraced one.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ghzforge"

# (file, stripped source line) of the lines that no test can reach
ALLOWED = {
    # the abstract step: every step kind in the table overrides apply
    ("elements.py", "raise NotImplementedError"),
    # cli.py's own __main__ guard; ``python -m ghzforge`` runs __main__.py
    ("cli.py", "raise SystemExit(main())"),
}


def _code_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def executable_lines(path: Path) -> set[int]:
    """First lines of the statements of ``path`` that have code."""
    source = path.read_text(encoding="utf-8")
    starts = {node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.stmt)}
    return starts & _code_lines(compile(source, str(path), "exec"))


def main(argv: list[str]) -> int:
    if "ghzforge" in sys.modules:
        sys.exit("error: ghzforge is already imported, so its import would go untraced")
    prefix = str(PACKAGE) + "/"
    reached: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return local(frame, event, arg)
        return None

    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
    if status != 0:
        print(f"line coverage: pytest exited {int(status)}", file=sys.stderr)
        return int(status)

    unreached, allowed_seen = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path)):
            if (str(path), line) in reached:
                continue
            key = (path.name, text[line - 1].strip())
            if key in ALLOWED:
                allowed_seen.add(key)
            else:
                unreached.append(f"{path.relative_to(ROOT)}:{line}: {key[1]}")
    stale = sorted(ALLOWED - allowed_seen)
    for entry in unreached:
        print(f"unreached: {entry}", file=sys.stderr)
    for name, line in stale:
        print(f"allowed line reached or gone: {name}: {line}", file=sys.stderr)
    if unreached or stale:
        return 1
    print(f"line coverage: every executable line of {PACKAGE.relative_to(ROOT)} is reached")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
