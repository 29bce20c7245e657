"""Every narrative demo runs to completion against the installed package,
and README's quick start prints what its comments say."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
_PRINT_WITH_VALUE = re.compile(r"^print\(.*\)\s+# (.*)$")


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def _quick_start_lines() -> list[str]:
    """README's "Library quick start" block, cut as the CI step's awk script
    cuts it: the lines between the first two fences after the heading."""
    block = inside = False
    lines = []
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line == "## Library quick start":
            block = True
        elif block and line.startswith("```"):
            if inside:
                break
            inside = True
        elif inside:
            lines.append(line)
    return lines


def test_quick_start_prints_what_its_comments_say(capsys):
    # each print line's comment opens with the text it prints, followed by a
    # space or nothing: its first token, or for a list the whole list
    lines = _quick_start_lines()
    exec(compile("\n".join(lines), "README quick start", "exec"), {"__name__": "__main__"})
    printed = capsys.readouterr().out.splitlines()
    comments = [m.group(1) for m in map(_PRINT_WITH_VALUE.match, lines) if m]
    assert len(comments) == sum(line.startswith("print(") for line in lines) == len(printed)
    for out, comment in zip(printed, comments):
        assert comment == out or comment.startswith(out + " "), (out, comment)
