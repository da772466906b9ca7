"""The library surface is closed: every public name of starklat has a caller outside the tests.

Every task also runs on numpy's BLAS alone: no module imports `scipy.linalg`,
whose import maps scipy's own OpenBLAS next to numpy's. And no module imports
`scipy.sparse` (H is a numpy CSR and the S_N sectors are orbit gathers), so
no task loads it: neither importing the CLI nor any task's config and run.

A public top-level function, class or constant of `src/starklat` must appear
as a NAME token outside its own definition in `src/starklat/*.py` or
`perfbench/*.py`; a public non-dunder method of one of its classes must be
read as an attribute (`x.name`) there, outside its own definition. A name only
the tests reach belongs in `tests/oracles.py`.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys
import tokenize

import pytest

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


def _run_fresh(code: str, *args: str) -> str:
    """stdout of `code` in a fresh interpreter with src/ on the path."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    )
    return out.stdout


def test_cli_import_and_plot_data_leave_scipy_sparse_unloaded(tmp_path):
    code = "import sys, starklat.cli; print('scipy.sparse' in sys.modules)"
    assert _run_fresh(code).strip() == "False"
    (tmp_path / "tail_summary.csv").write_text("r,sup_tail\n2,0.001\n")
    code = (
        "import sys; from starklat import cli; "
        "print(cli.main(['plot-data', '--out', sys.argv[1]]), 'scipy.sparse' in sys.modules)"
    )
    assert _run_fresh(code, str(tmp_path)).split() == ["0", "False"]
    assert (tmp_path / "tail_summary_plot.csv").exists()


def imported_names() -> list:
    """(file, line, dotted names) of every import statement in src/starklat."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                names = [base] + [f"{base}.{a.name}" for a in node.names]
            else:
                continue
            out.append((path.name, node.lineno, names))
    return out


def test_no_module_imports_scipy_linalg():
    for name, line, names in imported_names():
        assert not any(n.startswith("scipy.linalg") for n in names), (name, line)


def test_no_module_imports_scipy_sparse():
    assert imported_names()  # the scan sees the imports
    for name, line, names in imported_names():
        assert not any(n.startswith("scipy.sparse") for n in names), (name, line)


TINY = {"g": 1.0, "h": 0.5, "potential": {"kind": "nearest_neighbor", "strength": 1.0}}
TASK_CONFIGS = {
    "selftest": {"model": dict(TINY, N=1), "window": {"L": 8, "interior_margin": 3}},
    "spectrum": {"model": dict(TINY, N=2), "window": {"L": 4, "interior_margin": 1}},
    "localization": {"model": dict(TINY, N=2), "window": {"L": 6, "interior_margin": 2}},
    "cluster-spectrum": {"model": dict(TINY, N=2), "window": {"L": 4, "interior_margin": 1}},
    "evolve": {
        "model": dict(TINY, N=2), "window": {"L": 6, "interior_margin": 2},
        "dynamics": {"t_max": 1.0, "samples": 10, "radii": [1, 2], "initial_sites": [0, 1]},
    },
    "resolvent-check": {
        "model": dict(TINY, N=2), "window": {"L": 4, "interior_margin": 1},
        "resolvent": {"z_grid": [[0.5, 8.0]]},
    },
}

# load one task's config, then run it; report its exit code, whether scipy.linalg
# was imported, whether scipy.sparse was after load_config and after the run,
# and the OpenBLAS builds mapped into the process (none listed off Linux)
RUN_TASK = """
import json, os, sys
from starklat import cli
cli.load_config(sys.argv[2])
loaded = "scipy.sparse" in sys.modules
code = cli.main([sys.argv[1], "--config", sys.argv[2]])
maps = "/proc/self/maps"
libs = set()
if os.path.exists(maps):
    with open(maps) as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
print(json.dumps([code, "scipy.linalg" in sys.modules, loaded, "scipy.sparse" in sys.modules,
                  sorted(libs)]))
"""


@pytest.mark.parametrize("task", sorted(TASK_CONFIGS))
def test_task_runs_without_scipy_linalg(tmp_path, task):
    config = tmp_path / "config.json"
    cfg = dict(TASK_CONFIGS[task], task=task, output_dir=str(tmp_path / "out"))
    config.write_text(json.dumps(cfg))
    out = json.loads(_run_fresh(RUN_TASK, task, str(config)).splitlines()[-1])
    code, linalg, loaded, sparse, libs = out
    assert code in (0, 2)  # the run completed, whatever its checks said
    assert not linalg
    # no task loads scipy.sparse, in its set-up or its run
    assert not loaded and not sparse
    assert len(libs) <= 1, libs
