"""Chebyshev time evolution, one-site density, and tail non-escape traces."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import specfun
from .model import OperatorMatrix, Window
from .spectra import boundary_shell_mass

NORM_TOL = 1e-10
DENSITY_TOL = 1e-8
TRUNCATION_FLAG = 1e-4
SPECTRAL_MARGIN = 0.05


@dataclass
class PropagatorConfig:
    t_max: float
    samples: int
    tolerance: float = 1e-12
    spectral_bounds: Optional[tuple] = None

    def __post_init__(self):
        if self.t_max < 0 or self.samples < 1:
            raise ValueError("need t_max >= 0 and samples >= 1")
        if self.tolerance > 1e-10:
            raise ValueError("tolerance must be <= 1e-10")


@dataclass
class DensityTrace:
    times: np.ndarray
    densities: np.ndarray  # (n_times, n_sites)
    radii: np.ndarray
    tails: np.ndarray  # (n_times, n_radii)
    sup_tails: np.ndarray  # (n_radii,)
    truncation_safe: bool
    norm_drift_max: float
    chebyshev_terms: int  # expansion terms per step; one matvec each after the first
    spectral_bounds: tuple
    dt: float
    guard_radius: int  # L - interior_margin
    guard_tail: float  # sup over t of the tail beyond guard_radius; gates truncation_safe


def gershgorin_bounds(op: OperatorMatrix, margin: float = SPECTRAL_MARGIN) -> tuple:
    """Spectral enclosure from row discs, widened by a relative margin."""
    mat = op.matrix
    d = mat.diagonal()
    radius = np.abs(mat).sum(axis=1).A1 - np.abs(d)
    lo, hi = float((d - radius).min()), float((d + radius).max())
    pad = margin * max(hi - lo, 1.0)
    return lo - pad, hi + pad


def chebyshev_coefficients(tau: float, tolerance: float) -> np.ndarray:
    """c_k = (2 - delta_k0) (-i)^k J_k(tau), truncated below tolerance."""
    k_max = int(abs(tau) + 40 + 10.0 * abs(tau) ** (1.0 / 3.0))
    # bessel_row(0, -k_max, 0, tau) lists J_{k_max}..J_0
    row = specfun.bessel_row(0, -k_max, 0, tau)[::-1]
    keep = k_max
    while keep > 1 and abs(row[keep]) < tolerance and abs(row[keep - 1]) < tolerance:
        keep -= 1
    k = np.arange(keep + 1)
    coef = (2.0 - (k == 0)) * (-1j) ** k * row[: keep + 1]
    return coef


class ChebyshevStep:
    """The one-step propagator e^{-i dt H}, set up once and applied at every step.

    Set-up checks that H is symmetric and fixes the spectral bounds, the
    coefficients for half*dt, the phase e^{-i center dt} and the rescaled
    hs = (H - center)/half. hs is stored as complex CSR, so the matvecs on the
    complex state do not upcast its real data on every call.
    """

    def __init__(self, op: OperatorMatrix, dt: float, config: PropagatorConfig):
        if op.symmetry_defect() > 1e-12:
            raise ValueError("propagator needs a symmetric Hamiltonian")
        self.bounds = config.spectral_bounds or gershgorin_bounds(op)
        lo, hi = self.bounds
        center, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        self.coef = chebyshev_coefficients(half * dt, config.tolerance)
        self.phase = np.exp(-1j * center * dt)
        shifted = op.matrix - center * sp.identity(op.dim, format="csr")
        self.hs = (shifted / half).astype(complex)

    def __call__(self, psi: np.ndarray) -> np.ndarray:
        """e^{-i dt H} psi for a normalized psi; raises if the norm drifts."""
        hs, coef = self.hs, self.coef
        tk_prev = psi
        tk = hs @ tk_prev
        acc = coef[0] * tk_prev + coef[1] * tk
        for c in coef[2:]:
            nxt = hs @ tk
            nxt *= 2.0
            nxt -= tk_prev
            acc += c * nxt
            tk_prev, tk = tk, nxt
        acc *= self.phase
        drift = abs(np.linalg.norm(acc) - 1.0)
        if drift > NORM_TOL:
            lo, hi = self.bounds
            raise RuntimeError(
                f"norm drift {drift:.2e}; spectral bounds ({lo:g}, {hi:g}) likely violated"
            )
        return acc


def _check_normalized(psi: np.ndarray) -> None:
    if abs(np.linalg.norm(psi) - 1.0) > 1e-8:
        raise ValueError("initial state must be normalized")


def evolve(
    op: OperatorMatrix, psi0: np.ndarray, t: float, config: PropagatorConfig
) -> np.ndarray:
    """psi_t = e^{-itH} psi0 by a Chebyshev expansion on the rescaled spectrum."""
    step = ChebyshevStep(op, t, config)
    _check_normalized(psi0)
    if t == 0.0:
        return psi0.astype(complex)
    return step(psi0)


def density(psi: np.ndarray, window: Window, n_particles: int) -> np.ndarray:
    """One-site particle density rho(x); sums to N."""
    d = window.n_sites
    if psi.shape != (d**n_particles,):
        raise ValueError("state dimension does not match the window")
    prob = (np.abs(psi) ** 2).reshape((d,) * n_particles)
    rho = np.zeros(d)
    for axis in range(n_particles):
        other = tuple(a for a in range(n_particles) if a != axis)
        rho += prob.sum(axis=other)
    total = rho.sum()
    if abs(total - n_particles) > DENSITY_TOL:
        raise RuntimeError(f"density normalization off by {total - n_particles:.2e}")
    return rho


def tail_mass(rho: np.ndarray, window: Window, r: int) -> float:
    x = np.arange(-window.L, window.L + 1)
    return float(rho[np.abs(x) > r].sum())


def tail_trace(
    op: OperatorMatrix,
    psi0: np.ndarray,
    config: PropagatorConfig,
    radii: list,
) -> DensityTrace:
    """Evolve on a uniform grid and track the density mass beyond each radius."""
    w, n = op.window, op.n_particles
    if float(boundary_shell_mass(psi0, w, n)[0]) > 1e-10:
        raise ValueError("initial state must be supported in the interior")
    _check_normalized(psi0)
    radii = np.asarray(sorted(radii), dtype=int)
    times = np.linspace(0.0, config.t_max, config.samples + 1)
    dt = times[1] - times[0]
    step = ChebyshevStep(op, dt, config)
    psi = psi0.astype(complex)
    dens = np.empty((times.size, w.n_sites))
    tails = np.empty((times.size, radii.size))
    drift = 0.0
    for k in range(times.size):
        if k > 0:
            psi = step(psi)
        drift = max(drift, abs(np.linalg.norm(psi) - 1.0))
        rho = density(psi, w, n)
        dens[k] = rho
        tails[k] = [tail_mass(rho, w, r) for r in radii]
    sup_tails = tails.max(axis=0)
    guard = w.L - w.interior_margin
    guard_sup = max(tail_mass(dens[k], w, guard) for k in range(times.size))
    return DensityTrace(
        times, dens, radii, tails, sup_tails, guard_sup <= TRUNCATION_FLAG, float(drift),
        int(step.coef.size), tuple(step.bounds), float(dt), guard, guard_sup,
    )


def product_state(window: Window, sites: tuple) -> np.ndarray:
    """Localized product initial state e_{x_1} x ... x e_{x_N}."""
    d = window.n_sites
    psi = np.ones(1)
    for x in sites:
        if abs(x) > window.L:
            raise ValueError("site outside the window")
        e = np.zeros(d)
        e[x + window.L] = 1.0
        psi = np.kron(psi, e)
    return psi


def symmetrized_pair(window: Window, x1: int, x2: int) -> np.ndarray:
    """Bosonic two-particle state on sites (x1, x2)."""
    psi = product_state(window, (x1, x2)) + product_state(window, (x2, x1))
    return psi / np.linalg.norm(psi)
