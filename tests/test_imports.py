"""No module or demo imports a name it never uses.

``src/ghzforge/__init__.py`` is skipped: its imports are the public
namespace.  A name counts as used when it appears anywhere in the file as a
bare name (``ast.Name``), which covers calls, attribute bases and
annotations."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p for p in (ROOT / "src" / "ghzforge").glob("*.py") if p.name != "__init__.py"
) + sorted((ROOT / "demos").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_files_found():
    assert len(FILES) >= 12


@pytest.mark.parametrize("path", FILES, ids=[f"{p.parent.name}/{p.name}" for p in FILES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, unused",
    [
        ("import os\n", ["os (line 1)"]),
        ("import os.path\nos.sep\n", []),
        ("from a import b as c\nb\n", ["c (line 1)"]),
        ("from __future__ import annotations\nx: int = 1\n", []),
        ("from typing import Sequence\ndef f(x: Sequence) -> None: ...\n", []),
        ("from . import states\nstates.H\n", []),
    ],
)
def test_unused_imports_finds_exactly_the_unused(source, unused):
    assert unused_imports(source) == unused
