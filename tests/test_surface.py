"""The library surface is closed: every public name of starklat has a caller outside the tests.

A public top-level function, class or constant of `src/starklat` must appear
as a NAME token outside its own definition in `src/starklat/*.py` or
`perfbench/*.py`; a public non-dunder method of one of its classes must be
read as an attribute (`x.name`) there, outside its own definition. A name only
the tests reach belongs in `tests/oracles.py`.
"""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "starklat"
CALLER_GLOBS = ("src/starklat/*.py", "perfbench/*.py")


def _public(name: str) -> bool:
    return not name.startswith("_")


def public_definitions() -> list:
    """(file, qualified name, name, first line, last line) of each public definition."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
                out.append((path, node.name, node.name, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        qual = f"{node.name}.{item.name}"
                        out.append((path, qual, item.name, item.lineno, item.end_lineno))
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target] if isinstance(node, ast.AnnAssign) else []
            )
            for t in targets:
                if isinstance(t, ast.Name) and _public(t.id):
                    out.append((path, t.id, t.id, node.lineno, node.end_lineno))
    return out


def name_tokens() -> dict:
    """NAME token -> [(file, line)] over every caller file."""
    out = {}
    for pattern in CALLER_GLOBS:
        for path in sorted(ROOT.glob(pattern)):
            with tokenize.open(path) as fh:
                for tok in tokenize.generate_tokens(fh.readline):
                    if tok.type == tokenize.NAME:
                        out.setdefault(tok.string, []).append((path, tok.start[0]))
    return out


def attribute_reads() -> dict:
    """Attribute name -> [(file, line)] of each `x.name` over every caller file."""
    out = {}
    for pattern in CALLER_GLOBS:
        for path in sorted(ROOT.glob(pattern)):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute):
                    out.setdefault(node.attr, []).append((path, node.lineno))
    return out


def uncalled() -> list:
    tokens, attributes = name_tokens(), attribute_reads()
    return sorted(
        f"{path.stem}.{qual}"
        for path, qual, name, first, last in public_definitions()
        # a method (qualified name Class.method) counts only when read as an attribute
        if not any(
            p != path or not first <= line <= last
            for p, line in (attributes if "." in qual else tokens).get(name, ())
        )
    )


def test_every_public_name_has_a_caller_outside_the_tests():
    assert public_definitions()  # the scan sees the package
    assert uncalled() == []


def test_cli_import_leaves_sparse_linalg_unloaded():
    # no module of the package needs scipy's sparse solvers
    code = "import sys, starklat.cli; print('scipy.sparse.linalg' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
