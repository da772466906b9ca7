"""Reference implementations that only the tests use: slow, direct and independent.

Each restates a quantity the package computes another way (the S_N
projectors, single stark-basis pair elements, the interaction envelope, the
decay check after the Bessel transform, the Gram defect of an eigenbasis),
so that the fast paths in `starklat` have something to be compared against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from starklat import localization as loc
from starklat import model, specfun, spectra
from starklat.model import ModelParams, OperatorMatrix, Window


def symmetrizer(n_particles: int, window: Window, eta: int) -> OperatorMatrix:
    """Orthogonal projector onto the bosonic (+1) or fermionic (-1) subspace."""
    if eta not in (1, -1):
        raise ValueError("eta must be +1 or -1")
    if n_particles > model.N_MAX:
        raise ValueError(f"N must be <= {model.N_MAX}")
    d = window.n_sites
    dim = d**n_particles
    coords = model.flat_to_tuples(window, n_particles)
    total = sp.csr_matrix((dim, dim))
    nfact = math.factorial(n_particles)
    for perm in itertools.permutations(range(n_particles)):
        sign = 1.0 if eta == 1 else (-1.0) ** model._permutation_parity(perm)
        permuted = coords[:, list(perm)]
        target = model.tuple_to_flat(window, permuted)
        mat = sp.coo_matrix(
            (np.full(dim, sign / nfact), (target, np.arange(dim))), shape=(dim, dim)
        )
        total = total + mat.tocsr()
    return OperatorMatrix("position", window, n_particles, total)


def pair_element_stark(
    n1: int, n2: int, m1: int, m2: int, params: ModelParams, window: Window
) -> float:
    """Single stark-basis matrix element of the two-body interaction."""
    L = window.L
    for v in (n1, n2, m1, m2):
        if abs(v) > L:
            raise ValueError("index outside the window")
    x = params.x
    # truncate each j-sum where the Bessel pair product drops below tolerance
    reach = int(math.ceil(2.0 * abs(x))) + 25
    lo1, hi1 = min(n1, m1) - reach, max(n1, m1) + reach
    lo2, hi2 = min(n2, m2) - reach, max(n2, m2) + reach
    u = specfun.bessel_row(n1, lo1, hi1, x) * specfun.bessel_row(m1, lo1, hi1, x)
    w = specfun.bessel_row(n2, lo2, hi2, x) * specfun.bessel_row(m2, lo2, hi2, x)
    j1 = np.arange(lo1, hi1 + 1)
    j2 = np.arange(lo2, hi2 + 1)
    vm = params.potential.values(j1[:, None] - j2[None, :])
    return float(u @ vm @ w)


def interaction_envelope_f(n: int, params: ModelParams, tail: int) -> float:
    """f(n) = sum_{j1,j2} |v(j1-j2)| |J_{m1-j1} J_{m2-j2}| at m1 - m2 = n."""

    def at(m1: int, m2: int) -> float:
        lo = min(m1, m2) - tail
        hi = max(m1, m2) + tail
        a = np.abs(specfun.bessel_row(m1, lo, hi, params.x))
        b = np.abs(specfun.bessel_row(m2, lo, hi, params.x))
        j = np.arange(lo, hi + 1)
        vm = np.abs(params.potential.values(j[:, None] - j[None, :]))
        return float(a @ vm @ b)

    first = at(0, -n)
    second = at(5, 5 - n)
    if abs(first - second) > 1e-12 * max(1.0, abs(first)):
        raise AssertionError("envelope is not translation invariant")
    return first


@dataclass
class PositionDecayReport:
    shell: loc.ShellFitReport
    com_check: loc.ComDecayReport
    rate_mismatch: float


def position_decay_check(
    psi_stark: np.ndarray,
    lam: float,
    params: ModelParams,
    window: Window,
    n_particles: int,
    probe: loc.DecayProbe,
) -> PositionDecayReport:
    """Repeat the shell fit after the Bessel transform and test the COM-sum decay."""
    xi = model.stark_basis_matrix(params, window)
    psi_pos = spectra.transform_columns(psi_stark, xi, n_particles)
    center = loc.localization_center(lam, params)
    shell = loc.superexp_shell_fit(psi_pos, window, n_particles, probe, center)
    stark_shell = loc.superexp_shell_fit(psi_stark, window, n_particles, probe, center)
    if np.isfinite(shell.final_rate) and np.isfinite(stark_shell.final_rate):
        denom = max(abs(stark_shell.final_rate), 1e-12)
        mismatch = abs(shell.final_rate - stark_shell.final_rate) / denom
    else:
        mismatch = 0.0
    prof = loc.com_profile(psi_pos, lam, params, window, n_particles)
    com_rep = loc.com_decay_check(prof, min(probe.theta_list))
    return PositionDecayReport(shell, com_rep, float(mismatch))


def gram_defect(result: spectra.SectorEigh) -> float:
    """max |V^T V - 1| over the entries, for the eigenvectors V of a spectral result."""
    g = result.eigenvectors.T @ result.eigenvectors
    return float(np.abs(g - np.eye(g.shape[0])).max())
