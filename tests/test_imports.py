"""No module or demo imports a name it never uses, and no module defines a
function or class that nothing uses.

``src/ghzforge/__init__.py`` is skipped by the import check: its imports are
the public namespace.  A name counts as used when it appears anywhere in the
file as a bare name (``ast.Name``), which covers calls, attribute bases and
annotations."""

import ast
from pathlib import Path

import pytest

import ghzforge

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


# Defined for a reader the code cannot see: ``cli.main`` looks up
# ``cmd_<command>`` by name, and the tests build on the paper's input anchor.
UNREFERENCED_BY_DESIGN = {("golden", "qutrit_chain_input")}


def referenced_names(source: str) -> set[str]:
    """Every name the file reads, as a bare name, an attribute or an import."""
    out: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def unreferenced_definitions(root: Path) -> list[str]:
    """Module-level functions and classes of ``src/ghzforge`` that no file
    under ``src/``, ``demos/`` or ``bench/`` reads and ``ghzforge.__all__``
    does not name."""
    used: set[str] = set(ghzforge.__all__)
    for folder in ("src", "demos", "bench"):
        for path in (root / folder).rglob("*.py"):
            used |= referenced_names(path.read_text(encoding="utf-8"))
    out = []
    for path in sorted((root / "src" / "ghzforge").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in used:
                continue
            if (path.stem, node.name) in UNREFERENCED_BY_DESIGN:
                continue
            if path.stem == "cli" and node.name.startswith("cmd_"):
                continue
            out.append(f"{path.stem}.{node.name}")
    return out


def test_every_definition_is_used():
    assert unreferenced_definitions(ROOT) == []


def test_unreferenced_definitions_finds_a_new_one(tmp_path):
    for folder in ("src", "demos", "bench"):
        (tmp_path / folder).mkdir()
    (tmp_path / "src" / "ghzforge").mkdir()
    (tmp_path / "src" / "ghzforge" / "states.py").write_text(
        "def used(): ...\ndef unused(): ...\nclass Vacuum: ...\n"
        "def normalize(): ...\ndef qutrit_chain_input(): ...\n"
    )
    (tmp_path / "src" / "ghzforge" / "golden.py").write_text(
        "def qutrit_chain_input(): ...\n"
    )
    (tmp_path / "src" / "ghzforge" / "cli.py").write_text("def cmd_run(): ...\n")
    (tmp_path / "demos" / "a.py").write_text("from ghzforge.states import used\n")
    (tmp_path / "bench" / "b.py").write_text("states.Vacuum\n")
    # normalize is in ghzforge.__all__; only golden's qutrit_chain_input is exempt
    assert unreferenced_definitions(tmp_path) == [
        "states.unused", "states.qutrit_chain_input",
    ]
