"""The library surface is closed: every public name of starklat has a caller outside the tests.

numpy is the whole runtime: no module imports scipy (H is a numpy CSR, the
S_N sectors are orbit gathers, and the solves are numpy's), so no task loads
it, nor `numpy.random`: neither importing the CLI nor any task's config and
run. Every task runs on numpy's BLAS alone, and with scipy unimportable.

A public top-level function, class or constant of `src/starklat` must appear
as a NAME token outside its own definition in `src/starklat/*.py` or
`perfbench/*.py`; a public non-dunder method of one of its classes must be
read as an attribute (`x.name`) there, outside its own definition. A name only
the tests reach belongs in `tests/oracles.py`. Each starklat name a benchmark
script imports or reads off a starklat module resolves.
"""

from __future__ import annotations

import ast
import importlib
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


def _module(name: str):
    """The module `name`, imported, or None when no module has that name."""
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _in_starklat(module: str) -> bool:
    return module.split(".")[0] == "starklat"


def perfbench_reads() -> list:
    """(file, line, module, name) of each starklat name a perfbench script imports or reads.

    A read is `from starklat.X import name`, or `m.name` on a name `m` bound to a
    starklat module by an import.
    """
    out = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # local name -> the starklat module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if _in_starklat(a.name):
                        modules[a.asname or "starklat"] = a.name if a.asname else "starklat"
            elif isinstance(node, ast.ImportFrom) and _in_starklat(node.module or ""):
                for a in node.names:
                    out.append((path.name, node.lineno, node.module, a.name))
                    if _module(f"{node.module}.{a.name}") is not None:
                        modules[a.asname or a.name] = f"{node.module}.{a.name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules:
                    out.append((path.name, node.lineno, modules[node.value.id], node.attr))
    return out


def _resolves(module: str, name: str) -> bool:
    return hasattr(importlib.import_module(module), name) or _module(f"{module}.{name}") is not None


def test_perfbench_reads_only_names_src_defines():
    reads = perfbench_reads()
    # the scan sees the benchmark's reads
    assert ("starklat.model", "PairPotential") in {(m, n) for _, _, m, n in reads}
    assert [r for r in reads if not _resolves(r[2], r[3])] == []


def _run_fresh(code: str, *args: str) -> str:
    """stdout of `code` in a fresh interpreter with src/ on the path."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    )
    return out.stdout


# defines unwanted(): the loaded modules a run of starklat must not load, scipy's and numpy.random
UNWANTED = (
    "import sys\n"
    "unwanted = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
    "or m == 'numpy.random')\n"
)


def test_cli_import_and_plot_data_leave_scipy_sparse_unloaded(tmp_path):
    assert _run_fresh(UNWANTED + "import starklat.cli; print(unwanted())").strip() == "[]"
    (tmp_path / "tail_summary.csv").write_text("r,sup_tail\n2,0.001\n")
    code = UNWANTED + (
        "from starklat import cli; print(cli.main(['plot-data', '--out', sys.argv[1]]), unwanted())"
    )
    assert _run_fresh(code, str(tmp_path)).split() == ["0", "[]"]
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


def _assert_no_import_under(package: str) -> None:
    """No import statement in src/starklat names `package` or one of its submodules."""
    found = imported_names()
    assert found  # the scan sees the imports
    for name, line, names in found:
        assert not any(n == package or n.startswith(package + ".") for n in names), (name, line)


def test_no_module_imports_scipy():
    _assert_no_import_under("scipy")


def test_no_module_imports_scipy_linalg():
    _assert_no_import_under("scipy.linalg")


def test_no_module_imports_scipy_sparse():
    _assert_no_import_under("scipy.sparse")


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

# load one task's config, then run it; report its exit code, the unwanted modules
# loaded after load_config and after the run, and the OpenBLAS builds mapped into
# the process (none listed off Linux)
RUN_TASK = UNWANTED + """
import json, os
from starklat import cli
cli.load_config(sys.argv[2])
loaded = unwanted()
code = cli.main([sys.argv[1], "--config", sys.argv[2]])
maps = "/proc/self/maps"
libs = set()
if os.path.exists(maps):
    with open(maps) as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
print(json.dumps([code, loaded, unwanted(), sorted(libs)]))
"""


def _task_config(tmp_path, task: str) -> pathlib.Path:
    config = tmp_path / f"{task}.json"
    cfg = dict(TASK_CONFIGS[task], task=task, output_dir=str(tmp_path / task))
    config.write_text(json.dumps(cfg))
    return config


@pytest.mark.parametrize("task", sorted(TASK_CONFIGS))
def test_task_runs_without_scipy_linalg(tmp_path, task):
    out = json.loads(_run_fresh(RUN_TASK, task, str(_task_config(tmp_path, task))).splitlines()[-1])
    code, loaded, after, libs = out
    assert code in (0, 2)  # the run completed, whatever its checks said
    # no task loads scipy or numpy.random, in its set-up or its run
    assert loaded == [] and after == []
    assert len(libs) <= 1, libs


# run one task in-process; report its exit code and which task modules it loaded
TASK_MODULES = ("starklat.dynamics", "starklat.localization", "starklat.resolvent")
RUN_LOADS = f"""
import json, sys
from starklat import cli
code = cli.main([sys.argv[1], "--config", sys.argv[2]])
print(json.dumps([code, sorted(m for m in sys.modules if m in {TASK_MODULES!r})]))
"""


@pytest.mark.parametrize("task,modules", [
    ("localization", ["starklat.localization"]),
    ("resolvent-check", ["starklat.resolvent"]),
    ("evolve", ["starklat.dynamics"]),
])
def test_task_loads_only_its_own_modules(tmp_path, task, modules):
    # `load_config` imports each task module for the tasks that use it: localization
    # loads neither the resolvent algebra nor dynamics, resolvent-check neither
    # localization nor dynamics, and evolve only dynamics
    out = _run_fresh(RUN_LOADS, task, str(_task_config(tmp_path, task)))
    code, loaded = json.loads(out.splitlines()[-1])
    assert code in (0, 2) and loaded == modules


# run one task with its task function wrapped to read numpy's huge-page advice;
# report its exit code and the advice before, during and after the run
RUN_ADVICE = """
import json, sys
from starklat import cli
def advised():
    was = cli._set_madvise_hugepage(True)
    cli._set_madvise_hugepage(was)
    return was
task, basis, section = cli.TASKS[sys.argv[1]]
seen = []
cli.TASKS[sys.argv[1]] = (lambda *a: (seen.append(advised()), task(*a))[1], basis, section)
before = advised()
code = cli.main([sys.argv[1], "--config", sys.argv[2]])
print(json.dumps([code, before, seen, advised()]))
"""


def test_task_runs_without_huge_page_advice(tmp_path):
    # a 2 MB huge page under a partly used array moved the peak memory between
    # runs of the same inputs, so the task runs without numpy's advice for them,
    # and the process's setting is restored after it
    out = _run_fresh(RUN_ADVICE, "localization", str(_task_config(tmp_path, "localization")))
    code, before, seen, after = json.loads(out.splitlines()[-1])
    assert code in (0, 2) and seen == [False] and after == before


def test_every_task_runs_with_scipy_unimportable(tmp_path):
    # sys.modules["scipy"] = None makes every import of scipy raise ImportError
    code = (
        "import sys; sys.modules['scipy'] = None; from starklat import cli; "
        "runs = zip(sys.argv[1::2], sys.argv[2::2]); "
        "print([cli.main([task, '--config', path]) for task, path in runs])"
    )
    args = [a for task in sorted(TASK_CONFIGS) for a in (task, str(_task_config(tmp_path, task)))]
    codes = json.loads(_run_fresh(code, *args).splitlines()[-1])
    assert len(codes) == len(TASK_CONFIGS) and set(codes) <= {0, 2}, codes
