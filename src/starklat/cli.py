"""Command-line entry point: config loading, task orchestration, persistence."""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import resource
import sys
import time
from dataclasses import dataclass

import numpy as np

try:  # numpy's switch for its huge-page advice on arrays of 4 MB or more
    from numpy._core.multiarray import _set_madvise_hugepage
except ImportError:  # numpy < 2
    from numpy.core.multiarray import _set_madvise_hugepage

from . import __version__, lattice, specfun
from .lattice import ModelParams, PairPotential, Window

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ASSERT = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
KERNEL_BOUND_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)  # the g/h of selftest's kernel bounds

_SCHEMA = {
    "": {"model", "window", "task", "output_dir", "basis",
         "probes", "dynamics", "resolvent"},
    "model": {"g", "h", "N", "potential", "statistics"},
    "potential": {"kind", "strength", "decay", "table"},
    "window": {"L", "interior_margin"},
    "probes": {"theta_list", "shell_stat", "fit_range", "rate_halfwidth"},
    "dynamics": {"t_max", "samples", "radii", "initial_sites", "symmetrized"},
    "resolvent": {"z_grid"},
}


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    """A config parsed into the typed inputs of every task; raw is the file, for the manifest."""

    params: ModelParams
    window: Window
    task: str
    output_dir: str
    basis: str
    probe: localization.DecayProbe | None  # for the task that reads probes
    propagator: dynamics.PropagatorConfig | None  # for the task that reads dynamics
    radii: list
    initial_sites: tuple
    symmetrized: bool
    z_grid: list
    raw: dict
    export_matrices: bool = False


def _check_keys(section: str, data: dict) -> None:
    unknown = set(data) - _SCHEMA[section]
    if unknown:
        where = section or "top level"
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def _finite(x) -> bool:
    try:
        return not isinstance(x, bool) and math.isfinite(x)
    except (TypeError, OverflowError):  # not a number, or an int beyond float range
        return False


def _float(x) -> float:
    """A float field: a finite number, not a bool or a string."""
    if not _finite(x):
        raise ValueError(f"expected a finite number, not {x!r}")
    return float(x)


def _int(x) -> int:
    """An integer field: a number equal to an integer, not a bool or a string."""
    if not (_finite(x) and x == int(x)):
        raise ValueError(f"expected an integer, not {x!r}")
    return int(x)


def _z_grid(grid) -> list:
    """resolvent.z_grid as complex points: a nonempty list of finite [re, im] pairs."""
    if not (
        isinstance(grid, list)
        and grid
        and all(isinstance(z, list) and len(z) == 2 and all(map(_finite, z)) for z in grid)
    ):
        raise ConfigError(
            f"resolvent.z_grid must be a nonempty list of finite [re, im] pairs, not {grid!r}"
        )
    return [complex(*z) for z in grid]


def load_config(path: str) -> RunConfig:
    global dynamics, localization, model, resolvent, spectra  # imported by the tasks that use them
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys("", raw)
    for sec in ("model", "window", "probes", "dynamics", "resolvent"):
        if sec in raw:
            if not isinstance(raw[sec], dict):
                raise ConfigError(f"{sec} must be an object")
            _check_keys(sec, raw[sec])
    m, w, task = raw.get("model"), raw.get("window"), raw.get("task")
    if m is None or w is None or task is None:
        raise ConfigError("config needs model, window, and task")
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}")
    _, task_basis, section = TASKS[task]
    # each task's modules, imported here so that their import is paid in set-up
    if task != "evolve":
        from . import model, spectra
    if task in ("localization", "selftest"):
        from . import localization
    if task in ("resolvent-check", "selftest"):
        from . import resolvent
    if task in ("evolve", "selftest"):
        from . import dynamics
    for sec in ("probes", "dynamics", "resolvent"):
        if sec in raw and sec != section:
            raise ConfigError(f"section {sec!r} is not read by task {task!r}")
    basis = raw.get("basis", task_basis or "stark")
    if basis not in ("position", "stark"):
        raise ConfigError(f"unknown basis {basis!r}")
    if task_basis not in (None, basis):
        raise ConfigError(f"task {task!r} runs in the {task_basis} basis only, not {basis!r}")
    pot_raw = m.get("potential", {})
    if not isinstance(pot_raw, dict):
        raise ConfigError("model.potential must be an object")
    _check_keys("potential", pot_raw)
    probes, dyn, probe, propagator = raw.get("probes", {}), raw.get("dynamics", {}), None, None
    try:
        kind = pot_raw.get("kind", "nearest_neighbor")
        unread = set(pot_raw) - {"kind"} - lattice.POTENTIAL_FIELDS.get(kind, set(pot_raw))
        if unread:
            raise ConfigError(f"potential kind {kind!r} does not read {sorted(unread)}")
        table = pot_raw.get("table")
        if table is not None:
            if not isinstance(table, dict):
                raise ConfigError(f"potential.table must be an object, not {table!r}")
            lags = {int(k): _float(v) for k, v in table.items()}
            if len(lags) != len(table):
                raise ConfigError(f"potential.table names a lag twice: {sorted(table)}")
            table = lags
        pot = PairPotential(
            kind, _float(pot_raw.get("strength", 1.0)), _float(pot_raw.get("decay", 1.0)), table
        )
        params = ModelParams(
            _float(m["g"]), _float(m["h"]), _int(m["N"]), pot,
            m.get("statistics", "distinguishable"),
        )
        window = Window(_int(w["L"]), _int(w["interior_margin"]))
        cast = {
            "theta_list": lambda v: tuple(map(_float, v)),
            "shell_stat": str,
            "fit_range": lambda v: tuple(map(_int, v)),
            "rate_halfwidth": _int,
        }
        if section == "probes":
            probe = localization.DecayProbe(**{k: cast[k](v) for k, v in probes.items()})
        if section == "dynamics":
            propagator = dynamics.PropagatorConfig(
                _float(dyn.get("t_max", 50.0)), _int(dyn.get("samples", 200))
            )
        radii = [_int(r) for r in dyn.get("radii", [2, 4, 6])]
        sites = tuple(map(_int, dyn.get("initial_sites", (0,) * params.N)))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"invalid {task} config: {exc}") from exc
    if task in ("cluster-spectrum", "resolvent-check") and params.N < 2:
        raise ConfigError(f"task {task!r} needs N >= 2, not N = {params.N}")
    # N_MAX limits the chain enumeration, SPLIT_N_MAX the S_N split's orbit bases, which
    # the memory budget does not count; evolve splits nothing and goes by its budget alone
    n_max = {"resolvent-check": lattice.N_MAX, "evolve": None}.get(task, lattice.SPLIT_N_MAX)
    if n_max is not None and params.N > n_max:
        raise ConfigError(f"task {task!r} needs N <= {n_max}, not N = {params.N}")
    if len(sites) != params.N or not all(abs(x) < window.L for x in sites):
        raise ConfigError(
            f"dynamics.initial_sites must be {params.N} integer sites with |x| < L = "
            f"{window.L}, not {list(sites)}"
        )
    symmetrized = dyn.get("symmetrized", False)
    if not isinstance(symmetrized, bool):
        raise ConfigError(f"dynamics.symmetrized must be true or false, not {symmetrized!r}")
    if symmetrized and params.N != 2:
        raise ConfigError(f"dynamics.symmetrized needs N = 2, not N = {params.N}")
    # a radius at or past the face has no tail to measure, nor has the guard
    # radius L - interior_margin at margin 0, where truncation_safe always passes
    if section == "dynamics" and (
        len(set(radii)) != len(radii) or not all(0 <= r < window.L for r in radii)
    ):
        raise ConfigError(
            f"dynamics.radii must be distinct integers r with 0 <= r < L = {window.L}, "
            f"not {radii}"
        )
    if section == "dynamics" and window.interior_margin < 1:
        raise ConfigError(f"evolve needs window.interior_margin >= 1, not {window.interior_margin}")
    output_dir = raw.get("output_dir", ".")
    if not isinstance(output_dir, str):
        raise ConfigError(f"output_dir must be a string, not {output_dir!r}")
    return RunConfig(
        params, window, task, output_dir, basis, probe, propagator, radii, sites, symmetrized,
        _z_grid(raw.get("resolvent", {}).get("z_grid", [[0.0, 8.0]])), raw,
    )


def write_csv(path: str, header: list, rows) -> None:
    """One line per row: floats as %.17g, every other value as str().

    The %-format of a row is built once per tuple of value types.
    """
    formats: dict = {}
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            row = tuple(row)
            types = tuple(map(type, row))
            fmt = formats.get(types)
            if fmt is None:
                fmt = ",".join("%.17g" if issubclass(t, float) else "%s" for t in types) + "\n"
                formats[types] = fmt
            fh.write(fmt % row)


@contextlib.contextmanager
def _stage(timings: dict, open_stages: list, name: str):
    """Add the wall time of the block to timings[name]; name is a perfbench span name."""
    open_stages.append(name)
    t0 = time.monotonic()
    try:
        yield
    finally:
        timings[name] = timings.get(name, 0.0) + time.monotonic() - t0
    open_stages.pop()  # skipped by an exception, so the innermost failed stage stays last


def _versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "starklat": __version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
    }


def _config_hash(raw: dict) -> str:
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _eigh_diagnostics(sol: spectra.SectorEigh) -> dict:
    """A solve's manifest entry: its sector split and its residual and orthogonality bounds."""
    return dict(
        sol.sectors,
        residual_max=float(sol.residuals.max()),
        orthogonality_defect=sol.orthogonality_defect,
    )


def _solve(cfg: RunConfig, out: str, checks: dict, diagnostics: dict, stage) -> tuple:
    """Build, export if asked, and diagonalize H; return its sector factors and interior mask."""
    # the split and the solves are checked against the memory budget before the build
    diagnostics["memory_estimate_mb"] = spectra.solve_budget(cfg.window, cfg.params.N) / 2**20
    with stage("model.build_hamiltonian"):
        h = model.build_hamiltonian(cfg.params, cfg.window, cfg.basis)
    if cfg.export_matrices:
        h.export_coo_csv(os.path.join(out, "hamiltonian_coo.csv"))
    with stage("spectra.eigh"):
        split = spectra.split_operator(h)
        del h  # the split was its last reader: no H through the solves
        res = spectra.sector_eigh(split)
        del split
    diagnostics["eigh"] = _eigh_diagnostics(res)
    checks["diagonalization_residual"] = diagnostics["eigh"]["residual_max"] <= 1e-8
    with stage("spectra.interior_mask"):
        return res, spectra.interior_mask(res, cfg.params, cfg.window, cfg.basis)


def _task_spectrum(cfg: RunConfig, out: str, checks: dict, diagnostics: dict, stage) -> None:
    res, mask = _solve(cfg, out, checks, diagnostics, stage)
    write_csv(
        os.path.join(out, "eigenvalues.csv"),
        ["index", "eigenvalue", "interior"],
        [(i, float(res.eigenvalues[i]), int(mask[i])) for i in range(res.eigenvalues.size)],
    )
    checks["interior_nonempty"] = bool(mask.any())


def _task_cluster_spectrum(
    cfg: RunConfig, out: str, checks: dict, diagnostics: dict, stage
) -> None:
    with stage("spectra.cluster_spectrum"):
        sig = spectra.cluster_spectrum(cfg.params, cfg.window)
    write_csv(
        os.path.join(out, "cluster_spectrum.csv"),
        ["value", "partition"],
        [(float(v), "+".join(map(str, g))) for v, g in zip(sig.points, sig.generators)],
    )
    checks["cluster_points_found"] = sig.points.size > 0


def _task_localization(cfg: RunConfig, out: str, checks: dict, diagnostics: dict, stage) -> None:
    params, window, probe = cfg.params, cfg.window, cfg.probe
    res, mask = _solve(cfg, out, checks, diagnostics, stage)
    sig = None
    if params.N >= 2:
        with stage("spectra.cluster_spectrum"):
            sig = spectra.cluster_spectrum(params, window)
    lams = res.eigenvalues[mask]
    states = spectra.lift_states(res, np.flatnonzero(mask))  # only the interior states
    prof = localization.com_profile(states, lams, params, window, params.N)
    coms = localization.com_decay_check(prof, max(probe.theta_list))
    isolated = np.array(
        [sig is None or spectra.dist_to_cluster(lam, sig) >= 0.05 for lam in lams], dtype=bool
    )
    centers = np.array(
        [localization.localization_center(lam, params) for lam in lams[isolated]], dtype=int
    )
    with stage("localization.superexp_shell_fit"):
        shells = localization.superexp_shell_fit(
            states[:, isolated], window, params.N, probe, centers
        )
    state, sector = np.nonzero(prof.norms.T > localization.AMPLITUDE_FLOOR)
    profile_rows = zip(
        lams[state].tolist(),
        prof.com_center[state].tolist(),
        prof.sectors[sector].tolist(),
        prof.norms[sector, state].tolist(),
    )
    report = [
        {
            "eigenvalue": float(lam),
            "com_center": float(center),
            "com_slope": com.tail_slope,
            "com_C": com.c_fit,
            "isolated": bool(iso),
        }
        for lam, center, com, iso in zip(lams, prof.com_center, coms, isolated)
    ]
    shell_rows = []
    for i, rep in zip(np.flatnonzero(isolated), shells):
        lam = report[i]["eigenvalue"]
        for r, s in zip(rep.radii, rep.amplitudes):
            if s > localization.AMPLITUDE_FLOOR:
                rate = rep.rates[r] if rep.rates.size > r else float("nan")
                shell_rows.append((lam, int(r), float(s), float(rate)))
        report[i].update(shell_passed=rep.passed, final_rate=rep.final_rate)
    write_csv(
        os.path.join(out, "com_profile.csv"),
        ["eigenvalue", "com_center", "a", "norm"],
        profile_rows,
    )
    write_csv(
        os.path.join(out, "shell_decay.csv"),
        ["eigenvalue", "r", "amplitude", "rate"],
        shell_rows,
    )
    with open(os.path.join(out, "decay_report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    # only the isolated states carry the verdict
    iso_coms = [com for com, iso in zip(coms, isolated) if iso]
    finite_rates = [rep.final_rate for rep in shells if not np.isnan(rep.final_rate)]
    diagnostics.update(
        interior_states=len(report),
        isolated_states=len(shells),
        shell_fits_failed=sum(not rep.passed for rep in shells),
        com_checks_failed=sum(not com.passed for com in iso_coms),
        final_rate_min=min(finite_rates, default=None),
    )
    checks["decay_checks"] = (
        all(rep.passed and com.passed for rep, com in zip(shells, iso_coms)) and len(report) > 0
    )


def _task_evolve(cfg: RunConfig, out: str, checks: dict, diagnostics: dict, stage) -> None:
    # refused above the memory budget before any grid-sized array is made
    m = min(dynamics.SAMPLES_PER_EXPANSION, cfg.propagator.samples)
    diagnostics["propagator_bytes"] = dynamics.propagator_bytes(cfg.window, cfg.params.N, m)
    diagnostics["memory_estimate_mb"] = diagnostics["propagator_bytes"] / 2**20
    with stage("dynamics.model_stencil"):
        stencil = dynamics.model_stencil(cfg.params, cfg.window)
    if cfg.symmetrized:
        psi0 = dynamics.symmetrized_pair(cfg.window, *cfg.initial_sites)
    else:
        psi0 = dynamics.product_state(cfg.window, cfg.initial_sites)
    with stage("dynamics.tail_trace"):
        trace = dynamics.tail_trace(stencil, psi0, cfg.propagator, cfg.radii)
    sample, site = np.nonzero(trace.densities > 1e-16)
    rows = zip(
        trace.times[sample].tolist(),
        (site - cfg.window.L).tolist(),
        trace.densities[sample, site].tolist(),
    )
    write_csv(os.path.join(out, "density_trace.csv"), ["t", "x", "rho"], rows)
    write_csv(
        os.path.join(out, "tail_summary.csv"),
        ["r", "sup_tail"],
        [(int(r), float(s)) for r, s in zip(trace.radii, trace.sup_tails)],
    )
    checks["norm_drift"] = trace.norm_drift_max <= 1e-10
    checks["truncation_safe"] = trace.truncation_safe
    diagnostics.update(
        chebyshev_terms=trace.chebyshev_terms,
        samples_per_expansion=trace.samples_per_expansion,
        matvecs=trace.matvecs,
        spectral_bounds=trace.spectral_bounds,
        dt=trace.dt,
        norm_drift_max=trace.norm_drift_max,
        guard_radius=trace.guard_radius,
        guard_tail=trace.guard_tail,
    )


def _task_resolvent(cfg: RunConfig, out: str, checks: dict, diagnostics: dict, stage) -> None:
    ws = resolvent.ResolventWorkspace(cfg.params, cfg.window, cfg.basis)
    diagnostics["memory_estimate_mb"] = ws.estimate / 2**20
    even = resolvent.even_potential(cfg.params.potential)
    orbits = resolvent.chain_orbits(cfg.params.N, even)
    diagnostics["expansion"] = {
        "chains": sum(len(images) for _, images in orbits),
        "representatives": len(orbits),
        "even_potential": even,
    }
    with stage("resolvent.block"):
        blocks = {k: ws.block(k) for k in range(1, cfg.params.N + 1)}
    entries, stream_diagnostics = [], []
    ok, fe = True, None
    for k, z in enumerate(cfg.z_grid):
        # the expansion and residual stages are entered once per column chunk; each z
        # writes over the sector blocks of the one before
        fe = resolvent.stream_functional_equation(z, ws, stage, out=fe)
        if k == len(cfg.z_grid) - 1:
            ws.drop_buffers()  # their memory is free for the SVD and the norms
        if k == 0:
            with stage("resolvent.compactness_proxy"):
                rep = resolvent.compactness_proxy(fe.i)
        with stage("resolvent.operator_norm"):
            norms_i, norms_d = resolvent.sector_norms(fe.i), resolvent.sector_norms(fe.d)
        entries.append(
            {
                "z": [z.real, z.imag],
                "residual": fe.residual,
                "norm_I": max(norms_i),
                "norm_D": max(norms_d),
                "dist_to_spectrum": fe.dist_to_spectrum,
                "resolvent_residual_bound": fe.resolvent_residual_bound,
            }
        )
        stream_diagnostics.append(
            {
                "chunk_columns": fe.chunk_columns,
                "chunks": fe.chunks,
                "residual_sector": fe.residual_sector,
                "residual_dropped": fe.residual_dropped,
                "cross_norm_D": fe.d.cross_norm,
                "cross_norm_I": fe.i.cross_norm,
                "sector_norms_D": norms_d,
                "sector_norms_I": norms_i,
                "norm_method": resolvent.NORM_METHOD,
            }
        )
        if k == 0:  # the largest singular value of the sector SVD: ||I||_2 to the cross norm
            stream_diagnostics[0]["norm_I_svd"] = float(rep.singular_values[0])
        ok &= fe.residual <= 1e-6
    diagnostics["functional_equation"] = stream_diagnostics
    with open(os.path.join(out, "functional_eq.json"), "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1, sort_keys=True)
        fh.write("\n")
    diagnostics["block_eigh"] = {  # a diagonal H^(k), k < N, is not solved and has no sectors
        str(k): _eigh_diagnostics(f) for k, f in blocks.items() if f.sectors
    }
    diagnostics["compactness_svd"] = rep.sectors
    write_csv(
        os.path.join(out, "iz_singular_values.csv"),
        ["index", "singular_value"],
        [(i, float(s)) for i, s in enumerate(rep.singular_values)],
    )
    checks["functional_equation"] = ok
    checks["compactness_proxy"] = rep.passed


def _task_selftest(cfg: RunConfig, out: str, checks: dict, diagnostics: dict, stage) -> None:
    checks["bessel_trivial"] = specfun.bessel_j(0, 0.0) == 1.0
    checks["bessel_reflection"] = (
        specfun.bessel_j(-3, 2.5) == -specfun.bessel_j(3, 2.5)
    )
    # the explicit bounds on J_n(g/h) the proof starts from, over a grid of g/h
    reports = []
    for x in KERNEL_BOUND_GRID:
        tail = 2 * int(abs(x)) + 60
        upper, summed = specfun.check_upper_bound(40, x), specfun.check_summability(x, tail)
        reports.append((x, upper, summed, specfun.pair_decay_sum(0, 8, x, tail)))
    diagnostics["kernel_bounds"] = [
        {
            "x": x,
            "factorial_max_ratio": upper.max_ratio,
            "summability_sum": summed.fitted["sum"],
            "summability_bound": summed.fitted["bound"],
            "pair_decay_value": pair.fitted["value"],
            "pair_decay_C_fit": pair.fitted["C_fit"],
        }
        for x, upper, summed, pair in reports
    ]
    checks["bessel_bound"] = all(upper.passed for _, upper, _, _ in reports)
    checks["bessel_summability"] = all(summed.passed for _, _, summed, _ in reports)
    p1 = ModelParams(1.0, 0.5, 1)
    w1 = Window(12, 4)
    res = spectra.sector_eigh(spectra.split_operator(model.build_hamiltonian(p1, w1, cfg.basis)))
    interior = res.eigenvalues[spectra.interior_mask(res, p1, w1, cfg.basis)]
    checks["ladder"] = bool(
        np.abs(interior - np.round(interior)).max() <= 1e-8
    )
    checks["bell_3"] = len(spectra.enumerate_set_partitions(3)) == 5
    chains = resolvent.enumerate_chains(3)
    checks["chains_n3"] = len(chains) == 8 and sum(c.k_s == 1 for c in chains) == 4
    w2 = Window(5, 2)
    psi = dynamics.product_state(w2, (1, -2))
    rho = dynamics.density(np.stack([psi, np.zeros_like(psi)]), w2, 2)
    checks["density_delta"] = rho.sum() == 2.0


# task -> (task function, the one basis it runs in or None, the optional section it reads)
TASKS = {
    "spectrum": (_task_spectrum, None, None),
    "cluster-spectrum": (_task_cluster_spectrum, "stark", None),
    "localization": (_task_localization, "stark", "probes"),
    "evolve": (_task_evolve, "position", "dynamics"),
    "resolvent-check": (_task_resolvent, None, "resolvent"),
    "selftest": (_task_selftest, "position", None),
}


@contextlib.contextmanager
def _without_huge_page_advice():
    """Run a task without numpy's huge-page advice, and restore the advice afterwards.

    numpy asks the kernel to back each array of 4 MB or more with 2 MB
    transparent huge pages, and a huge page is resident whole once any byte
    of it is touched. Whether a partly used block gets one turns on where it
    lands against the 2 MB boundaries and on the huge pages the kernel has
    free, so the peak moved by whole huge pages between runs of the same
    inputs: at N = 2, L = 20 it read 72.6 or 74.4 MB, and 72.5-72.9 MB
    without the advice.
    """
    advised = _set_madvise_hugepage(False)
    try:
        yield
    finally:
        _set_madvise_hugepage(advised)


def run(config_path: str, out_override=None, export_matrices=False, expect_task=None) -> int:
    try:
        cfg = load_config(config_path)
        if expect_task is not None and cfg.task != expect_task:
            raise ConfigError(
                f"config task {cfg.task!r} does not match subcommand {expect_task!r}"
            )
        if export_matrices and cfg.task != "spectrum":
            raise ConfigError(f"--export-matrices applies to spectrum only, not {cfg.task!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    cfg.export_matrices = export_matrices
    out = out_override or cfg.output_dir
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output dir: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    checks: dict = {}
    timings: dict = {}
    diagnostics: dict = {}
    open_stages = [cfg.task]  # the task is the outermost stage
    stage = functools.partial(_stage, timings, open_stages)
    manifest = {
        "config": cfg.raw,
        "config_sha256": _config_hash(cfg.raw),
        "versions": _versions(),
        "complete": False,
        "diagnostics": diagnostics,
    }
    t0 = time.monotonic()
    try:
        with _without_huge_page_advice():
            TASKS[cfg.task][0](cfg, out, checks, diagnostics, stage)
        manifest["complete"] = True
    except Exception as exc:  # noqa: BLE001 - report and mark incomplete
        # a capacity limit is a config error: the run was asked for too much
        config_fault = isinstance(exc, lattice.CapacityError)
        print(f"{'config error' if config_fault else 'run failed'}: {exc}", file=sys.stderr)
        if not config_fault:
            checks["run_completed"] = False
        elif exc.estimate is not None:  # the refused estimate, in place of any checked before
            diagnostics["memory_estimate_mb"] = exc.estimate / 2**20
        manifest.update(failed_stage=open_stages[-1], exception=type(exc).__name__)
        timings[cfg.task] = time.monotonic() - t0
        _write_manifest(out, manifest, checks, timings)
        return EXIT_CONFIG if config_fault else EXIT_ASSERT
    timings[cfg.task] = time.monotonic() - t0
    _write_manifest(out, manifest, checks, timings)
    if not all(checks.values()):
        failed = sorted(k for k, v in checks.items() if not v)
        print(f"checks failed: {failed}", file=sys.stderr)
        return EXIT_ASSERT
    for name, verdict in sorted(checks.items()):
        print(f"{name}: {'pass' if verdict else 'FAIL'}")
    return EXIT_OK


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _peak_rss_mb() -> float:
    """The run's peak resident memory: VmHWM of /proc/self/status, of this address space only.

    ru_maxrss is kept across exec on Linux, so a run started by a larger
    process would report that process's peak; it stands in where the file
    is absent.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(kb) / 1024


def _write_manifest(out: str, manifest: dict, checks: dict, timings: dict) -> None:
    files = {
        name: _sha256(os.path.join(out, name))
        for name in sorted(os.listdir(out))
        if name not in ("manifest.json", "manifest.json.tmp")
        and os.path.isfile(os.path.join(out, name))
    }
    manifest = dict(
        manifest, checks={k: bool(v) for k, v in checks.items()}, timings=timings, files=files,
        peak_rss_mb=_peak_rss_mb(),
        memory_budget_mb=lattice.MEMORY_BUDGET / 2**20,  # the task's estimate: diagnostics
    )
    tmp = os.path.join(out, "manifest.json.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, os.path.join(out, "manifest.json"))


def _read_csv(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return [dict(zip(header, row)) for row in rows]


def plot_data(run_dir: str) -> int:
    """Reshape run outputs into tidy log-scale tables for plotting."""
    tables = (  # input CSV, output CSV, header, row function (None drops the row)
        ("shell_decay.csv", "shell_decay_plot.csv", ["r", "log10_amplitude", "rate"],
         lambda r: (int(r["r"]), float(np.log10(float(r["amplitude"]))), float(r["rate"]))
         if float(r["amplitude"]) > 0 else None),
        ("com_profile.csv", "com_profile_plot.csv", ["a_minus_center", "log10_norm"],
         lambda r: (float(int(r["a"]) - float(r["com_center"])),
                    float(np.log10(float(r["norm"]))))),
        ("tail_summary.csv", "tail_summary_plot.csv", ["r", "log10_sup_tail"],
         lambda r: (int(r["r"]), float(np.log10(max(float(r["sup_tail"]), 1e-300))))),
    )
    wrote = 0
    for source, target, header, row in tables:
        path = os.path.join(run_dir, source)
        if os.path.exists(path):
            rows = [out for out in map(row, _read_csv(path)) if out is not None]
            write_csv(os.path.join(run_dir, target), header, rows)
            wrote += 1
    if wrote == 0:
        print(f"no plottable outputs under {run_dir}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="starklat",
        description="Truncated N-particle tilted-lattice numerics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*TASKS, "plot-data"):
        sp = sub.add_parser(name)
        if name == "plot-data":
            sp.add_argument("--out", required=True, help="completed run directory")
        else:
            sp.add_argument("--config", required=True)
            sp.add_argument("--out", default=None)
            sp.add_argument("--export-matrices", action="store_true")
    args = parser.parse_args(argv)
    if args.command == "plot-data":
        return plot_data(args.out)
    return run(
        args.config, args.out, getattr(args, "export_matrices", False), args.command
    )


if __name__ == "__main__":
    sys.exit(main())
