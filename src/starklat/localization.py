"""Eigenvector decay diagnostics: COM sector profiles and their decay, shell fits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import ModelParams, Window, boundary_shell_mass, flat_to_tuples

AMPLITUDE_FLOOR = 1e-14
RATE_NOISE_BAND = 0.1
BOUNDARY_TOL = 1e-8


@dataclass
class ComProfile:
    """Per-sector norms ||P_a psi|| over the ladders a = sum_i m_i.

    For a block of states, norms has one column per state and lam and
    com_center one entry per state.
    """

    sectors: np.ndarray
    norms: np.ndarray
    lam: float
    com_center: float


@dataclass(frozen=True)
class DecayProbe:
    theta_list: tuple = (0.5, 1.0)
    shell_stat: str = "max"
    fit_range: tuple = (6, 18)
    rate_halfwidth: int = 4

    def __post_init__(self):
        if not self.theta_list or any(t <= 0 for t in self.theta_list):
            raise ValueError("theta_list must be nonempty and positive")
        if self.shell_stat not in ("max", "l2"):
            raise ValueError(f"unknown shell statistic {self.shell_stat!r}")
        if len(self.fit_range) != 2 or not 0 <= self.fit_range[0] <= self.fit_range[1]:
            raise ValueError("bad fit_range")
        if self.rate_halfwidth < 1:
            raise ValueError("rate_halfwidth must be >= 1")


@dataclass
class ComDecayReport:
    c_fit: float
    tail_slope: float
    n_points: int
    passed: bool


@dataclass
class ShellFitReport:
    radii: np.ndarray
    amplitudes: np.ndarray
    rates: np.ndarray
    fitted_radii: np.ndarray
    monotone: bool
    final_rate: float
    passed: bool
    note: str = ""


def _binned_sums(bins: np.ndarray, values: np.ndarray, n_bins: int) -> np.ndarray:
    """(n_bins, k) sums of the (dim, k) values over the bins of each row.

    bins is (dim,) or one column per value column. One bincount over the
    flattened rows adds each column's terms in row order, as a bincount of
    that column alone does, so the sums are the same to the bit.
    """
    k = values.shape[1]
    idx = bins.reshape(bins.shape[0], -1) * k + np.arange(k)
    return np.bincount(idx.ravel(), values.ravel(), n_bins * k).reshape(n_bins, k)


def _line_slopes(x: np.ndarray, y: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Least-squares slope of y against x over the live points, along the last axis.

    Centred sums; NaN where fewer than 3 points are live. y must be finite
    (any value) where it is not live.
    """
    n = live.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        dx = x - (live * x).sum(axis=-1, keepdims=True) / n[..., None]
        dy = y - (live * y).sum(axis=-1, keepdims=True) / n[..., None]
        slope = (live * dx * dy).sum(axis=-1) / (live * dx * dx).sum(axis=-1)
    return np.where(n >= 3, slope, np.nan)


def com_profile(
    psi: np.ndarray, lam, params: ModelParams, window: Window, n_particles: int
) -> ComProfile:
    """Group squared stark-basis amplitudes by the conserved ladder index.

    psi is one state and lam its eigenvalue, or psi is a (dim, k) block of
    states and lam holds one eigenvalue per column.
    """
    dim = window.n_sites**n_particles
    if psi.ndim not in (1, 2) or psi.shape[0] != dim:
        raise ValueError("state dimension does not match the window")
    coords = flat_to_tuples(window, n_particles)
    a = coords.sum(axis=1)
    lo = int(a.min())
    n_sectors = int(a.max()) - lo + 1
    norms = np.sqrt(_binned_sums(a - lo, np.abs(psi.reshape(dim, -1)) ** 2, n_sectors))
    sectors = np.arange(lo, lo + n_sectors)
    center = np.asarray(lam, dtype=float) / (-2.0 * params.h)
    if psi.ndim == 1:
        return ComProfile(sectors, norms[:, 0], float(lam), float(center))
    return ComProfile(sectors, norms, np.asarray(lam, dtype=float), center)


def com_decay_check(profile: ComProfile, theta: float):
    """Fit the envelope norm(a) <= C e^{-theta |a - com_center|} and its tail slope.

    Returns one report, or a list with one report per column of a block profile.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    norms = profile.norms.reshape(profile.sectors.size, -1)
    dist = np.abs(profile.sectors[:, None] - np.reshape(profile.com_center, -1))
    live = norms > AMPLITUDE_FLOOR
    n_live = live.sum(axis=0)
    # a point-mass profile (no live point) meets the bound with C = max norm for any theta
    with np.errstate(over="ignore"):  # far dead points may overflow; they are masked
        envelope = np.where(live, norms * np.exp(theta * dist), -np.inf).max(axis=0)
    c_fit = np.where(n_live > 0, envelope, norms.max(axis=0))
    log_norms = np.log(np.where(live, norms, 1.0))
    slope = np.where(n_live >= 3, _line_slopes(dist.T, log_norms.T, live.T), -np.inf)
    passed = (n_live < 3) | (np.isfinite(c_fit) & (slope <= -theta + 0.05))
    reports = [
        ComDecayReport(float(c), float(t), int(m), bool(p))
        for c, t, m, p in zip(c_fit, slope, n_live, passed)
    ]
    return reports[0] if profile.norms.ndim == 1 else reports


def shell_amplitudes(
    psi: np.ndarray,
    window: Window,
    n_particles: int,
    stat: str = "max",
    center=0,
) -> tuple:
    """s(r) over the diamond shells sum_i |m_i - center| = r.

    psi is one state, or a (dim, k) block with a center for all columns or
    one per column; s then has a column per state, over the shells of the
    farthest center (a column's shells past its own last one are 0).
    """
    coords = flat_to_tuples(window, n_particles)
    a = np.abs(psi.reshape(coords.shape[0], -1))
    centers = np.broadcast_to(np.asarray(center), a.shape[1:])
    distinct, which = np.unique(centers, return_inverse=True)
    r = np.abs(coords[:, :, None] - distinct).sum(axis=1)  # shell index per distinct center
    n_shells = n_particles * (window.L + int(np.abs(distinct).max(initial=0))) + 1
    if stat == "max":
        s = np.zeros((n_shells, a.shape[1]))
        for c in range(distinct.size):
            cols = np.flatnonzero(which == c)
            order = np.argsort(r[:, c], kind="stable")
            shell = r[order, c]
            starts = np.flatnonzero(np.diff(shell, prepend=-1))
            s[shell[starts, None], cols] = np.maximum.reduceat(
                a[order[:, None], cols], starts, axis=0
            )
    else:
        s = np.sqrt(_binned_sums(r[:, which], a**2, n_shells))
    return np.arange(n_shells), s[:, 0] if psi.ndim == 1 else s


def local_log_slopes(s: np.ndarray, halfwidth: int) -> np.ndarray:
    """-d log s / dr by least squares over a centered window of shells, per column.

    The raw one-step difference carries a period-2 oscillation: a ladder
    eigenvector concentrates on one sector a = sum m_i, whose shells all share
    the parity of a, so adjacent shells alternate between the dominant and the
    suppressed sector family. A fit across both parities reads through it.
    Shells at or below AMPLITUDE_FLOOR, and windows past either end, hold no
    point; a window needs 3 points.
    """
    ls = np.where(s > AMPLITUDE_FLOOR, np.log(np.maximum(s, 1e-300)), np.nan)
    pad = np.full((halfwidth,) + s.shape[1:], np.nan)
    windows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([pad, ls, pad]), 2 * halfwidth + 1, axis=0
    )
    live = np.isfinite(windows)
    x = np.arange(-halfwidth, halfwidth + 1, dtype=float)
    return -_line_slopes(x, np.where(live, windows, 0.0), live)


def _shell_verdict(
    radii: np.ndarray, s: np.ndarray, rates: np.ndarray, probe: DecayProbe
) -> ShellFitReport:
    live = s > AMPLITUDE_FLOOR
    if live.sum() <= 1:
        # point mass: decay is instantaneous, every rate is cleared vacuously
        return ShellFitReport(
            radii, s, np.array([]), np.array([]), True, np.inf, True, "point support"
        )
    lo, hi = probe.fit_range
    usable = np.isfinite(rates) & (radii >= lo) & (radii <= hi)
    fitted = radii[usable]
    note = ""
    if fitted.size < 2:
        return ShellFitReport(radii, s, rates, fitted, False, np.nan, False, "fit range degenerate")
    if fitted[-1] < hi:
        note = f"amplitudes underflowed past r={fitted[-1]}"
    fr = rates[usable]
    monotone = bool(np.all(np.diff(fr) >= -RATE_NOISE_BAND))
    final = float(fr[-1])
    cleared = {t: final > t for t in probe.theta_list}
    return ShellFitReport(
        radii, s, rates, fitted, monotone, final, monotone and all(cleared.values()), note
    )


def superexp_shell_fit(
    psi: np.ndarray,
    window: Window,
    n_particles: int,
    probe: DecayProbe,
    center=0,
):
    """Local decay rates over shells; passes if they keep growing past every theta.

    Shells are anchored at `center` (the per-coordinate localization center);
    the decay statement is covariant under lattice translations, so anchoring
    at the origin would mix growth toward the peak into the fit for
    eigenvectors living far down the ladder. psi is one state, or a (dim, k)
    block with a center for all columns or one per column; a block gives a
    list with one report per column.
    """
    block = psi.reshape(psi.shape[0], -1)
    bmass = boundary_shell_mass(block, window, n_particles)
    if bmass.size and bmass.max() > BOUNDARY_TOL:
        j = int(np.argmax(bmass))
        raise ValueError(f"state {j} has boundary mass {bmass[j]:.2e}; not interior")
    centers = np.broadcast_to(np.asarray(center), block.shape[1:])
    radii, s = shell_amplitudes(block, window, n_particles, probe.shell_stat, centers)
    rates = local_log_slopes(s, probe.rate_halfwidth)
    # a column's shells sum_i |m_i - c| end at n_particles (L + |c|)
    sizes = n_particles * (window.L + np.abs(centers)) + 1
    reports = [
        _shell_verdict(radii[:m], s[:m, j], rates[:m, j], probe) for j, m in enumerate(sizes)
    ]
    return reports[0] if psi.ndim == 1 else reports


def localization_center(lam: float, params: ModelParams) -> int:
    """Per-coordinate shell anchor: the COM ladder index split evenly."""
    return int(round(lam / (-2.0 * params.h) / params.N))
