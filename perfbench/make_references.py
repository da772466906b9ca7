"""Regenerate perfbench/references.json from the starklat sources in ./src.

    PYTHONPATH=src python3 perfbench/make_references.py [WORKLOAD ...]

Run from the repository root. Computes, for every input a seed can pick, the
values the output checks in `workloads.py` compare against, and merges them
into references.json. fe-n3 takes about ten minutes on two cores.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

from starklat import dynamics, localization, model, resolvent, spectra
from starklat.model import ModelParams, PairPotential, Window

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
REF_PATH = os.path.join(HERE, "references.json")
# face masses below ROBUST are interior under any roundoff; above CANDIDATE never
ROBUST, CANDIDATE = 1e-12, 1e-8


def _params(cfg: dict) -> tuple:
    m, w = cfg["model"], cfg["window"]
    pot = PairPotential(m["potential"]["kind"], m["potential"]["strength"])
    return ModelParams(m["g"], m["h"], m["N"], pot), Window(w["L"], w["interior_margin"])


def localization_reference() -> dict:
    """Candidate interior clusters with allowed counts and the rates of their members.

    Eigenvalues closer than EIG_TOL form one cluster. In a multiplet the
    eigensolver returns an arbitrary rotation, so its interior count may be
    anything from 0 to its size unless every member is robustly interior.
    """
    params, window = _params(wl.make_config("loc-n2", 0))
    n = params.N
    res = spectra.eigh(model.build_hamiltonian(params, window, "stark"))
    xi = model.stark_basis_matrix(params, window)
    other = spectra.transform_columns(res.eigenvectors, xi, n)
    mass = np.maximum(
        spectra.boundary_shell_mass(res.eigenvectors, window, n),
        spectra.boundary_shell_mass(other, window, n),
    )
    sig = spectra.cluster_spectrum(params, window)
    probe = localization.DecayProbe()
    vals = res.eigenvalues
    splits = np.nonzero(np.diff(vals) > wl.EIG_TOL)[0] + 1
    clusters = []
    for idx in np.split(np.arange(vals.size), splits):
        m = mass[idx]
        if idx.size == 1:
            n_min, n_max = int(m[0] <= ROBUST), int(m[0] <= CANDIDATE)
        elif m.sum() <= ROBUST:
            n_min = n_max = idx.size
        else:
            n_min, n_max = 0, idx.size
        if n_max == 0:
            continue
        rates = []
        for i in idx:
            lam = float(vals[i])
            if mass[i] <= CANDIDATE and spectra.dist_to_cluster(lam, sig) >= 0.05:
                center = localization.localization_center(lam, params)
                rep = localization.superexp_shell_fit(
                    res.eigenvectors[:, i], window, n, probe, center
                )
                rates.append(rep.final_rate)
        clusters.append([float(vals[idx[0]]), float(vals[idx[-1]]), n_min, n_max, rates])
    return {"clusters": clusters}


def evolve_reference() -> dict:
    """sup_tail per radius for each set of initial sites (order does not matter)."""
    cfg = wl.make_config("evolve-n3", 0)
    params, window = _params(cfg)
    d = cfg["dynamics"]
    op = model.build_hamiltonian(params, window, "position")
    pcfg = dynamics.PropagatorConfig(d["t_max"], d["samples"])
    out = {}
    for a in wl.EVOLVE_SITES:
        for b in wl.EVOLVE_SITES:
            for c in wl.EVOLVE_SITES:
                if not a < b < c:
                    continue
                psi0 = dynamics.product_state(window, (a, b, c))
                trace = dynamics.tail_trace(op, psi0, pcfg, d["radii"])
                if not (trace.truncation_safe and trace.norm_drift_max <= 1e-10):
                    raise RuntimeError(f"evolve checks fail at sites {(a, b, c)}")
                out[f"{a},{b},{c}"] = [float(s) for s in trace.sup_tails]
                print("evolve", a, b, c, flush=True)
    return out


def resolvent_reference(name: str, grid: list) -> dict:
    """Power-iteration estimate and exact 2-norm of I(z) and D(z) at each grid z."""
    params, window = _params(wl.make_config(name, 0))
    ws = resolvent.ResolventWorkspace(params, window)
    out = {}
    for re_z, im_z in grid:
        z = complex(re_z, im_z)
        residual = resolvent.functional_equation_residual(z, params, window, ws)
        i_mat, d_mat = resolvent.build_I(z, ws), resolvent.build_D(z, ws)
        # any grid z may come first, and the first z feeds compactness_proxy
        if residual > wl.FE_RESIDUAL_MAX or not resolvent.compactness_proxy(i_mat).passed:
            raise RuntimeError(f"{name}: resolvent checks fail at z={z}")
        out[wl.z_key((re_z, im_z))] = {
            "norm_I": [resolvent.operator_norm(i_mat), float(np.linalg.norm(i_mat, 2))],
            "norm_D": [resolvent.operator_norm(d_mat), float(np.linalg.norm(d_mat, 2))],
        }
        print(name, z, flush=True)
    return out


def main(names) -> int:
    makers = {
        "loc-n2": localization_reference,
        "evolve-n3": evolve_reference,
        "fe-n3": lambda: resolvent_reference("fe-n3", wl.FE_N3_GRID),
        "fe-n2-zsweep": lambda: resolvent_reference("fe-n2-zsweep", wl.FE_N2_GRID),
    }
    refs = {}
    if os.path.exists(REF_PATH):
        with open(REF_PATH, encoding="utf-8") as fh:
            refs = json.load(fh)
    for name in names or wl.WORKLOADS:
        refs[name] = makers[name]()
        with open(REF_PATH, "w", encoding="utf-8") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
