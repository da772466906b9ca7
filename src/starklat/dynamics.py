"""Chebyshev time evolution, one-site density, and tail non-escape traces."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import specfun
from .lattice import (
    CapacityError,
    ModelParams,
    Window,
    _frobenius,
    boundary_shell_mass,
    pairs,
    potential_matrix,
    site_range,
    within_budget,
)

NORM_TOL = 1e-10
DENSITY_TOL = 1e-8
TRUNCATION_FLAG = 1e-4
SAMPLES_PER_EXPANSION = 8  # trace samples fed by one Chebyshev recurrence
TERM_BUFFER = 16  # terms folded in per product; >= 3 for the ring of U_k, U_{k-1}, U_{k-2}
CHEB_TOL = 1e-12  # Chebyshev coefficients below this are truncated


@dataclass
class PropagatorConfig:
    t_max: float
    samples: int

    def __post_init__(self):
        if self.t_max < 0 or self.samples < 1:
            raise ValueError("need t_max >= 0 and samples >= 1")


@dataclass
class DensityTrace:
    times: np.ndarray
    densities: np.ndarray  # (n_times, n_sites)
    radii: np.ndarray
    tails: np.ndarray  # (n_times, n_radii)
    sup_tails: np.ndarray  # (n_radii,)
    truncation_safe: bool
    norm_drift_max: float
    chebyshev_terms: int  # terms of a full block's expansion; one matvec each after the first
    samples_per_expansion: int  # m, the samples one recurrence feeds; the last block may be fewer
    matvecs: int  # applications of the rescaled H to a state over the whole trace
    spectral_bounds: tuple
    dt: float
    guard_radius: int  # L - interior_margin
    guard_tail: float  # sup over t of the tail beyond guard_radius; gates truncation_safe


def chebyshev_coefficients(tau: float) -> np.ndarray:
    """a_k = (2 - delta_k0) J_k(tau), truncated below CHEB_TOL.

    e^{-i tau x} = sum_k a_k (-i)^k T_k(x) on [-1, 1]; the phase (-i)^k rides on
    the propagator's vectors, so the coefficients stay real.
    """
    k_max = int(abs(tau) + 40 + 10.0 * abs(tau) ** (1.0 / 3.0))
    # bessel_row(0, -k_max, 0, tau) lists J_{k_max}..J_0
    row = specfun.bessel_row(0, -k_max, 0, tau)[::-1]
    keep = k_max
    while keep > 1 and abs(row[keep]) < CHEB_TOL and abs(row[keep - 1]) < CHEB_TOL:
        keep -= 1
    k = np.arange(keep + 1)
    return (2.0 - (k == 0)) * row[: keep + 1]


class Stencil(NamedTuple):
    """H^(N) in the position basis: a diagonal plus one constant hop between grid neighbours."""

    window: Window
    diagonal: np.ndarray  # shape (d,)*N, one axis per leg
    hop: float  # the entry between neighbours on any one leg; -g
    bounds: tuple  # the Gershgorin enclosure (lo, hi) of the spectrum (`_disc_bounds`)


def _disc_bounds(diagonal: np.ndarray, hop: float) -> tuple:
    """[min(d - r), max(d + r)] over the Gershgorin discs: r = |hop| times the in-window neighbours."""
    n, d = diagonal.ndim, diagonal.shape[0]
    inner = np.full(d, 2.0)  # neighbours along one leg: one at either edge (d >= 3)
    inner[[0, -1]] = 1.0
    radius = np.zeros(diagonal.shape)
    for k in range(n):
        radius += inner.reshape((d,) + (1,) * (n - 1 - k))
    radius *= abs(hop)
    return float((diagonal - radius).min()), float((diagonal + radius).max())


def model_stencil(params: ModelParams, window: Window) -> Stencil:
    """H^(N)'s stencil straight from the model, by broadcasting on the (d,)*N grid.

    The diagonal is -2h x_k summed over the legs in leg order, plus v(x_i - x_j)
    summed in `pairs(N)` order, the two sums then added: `build_hamiltonian`'s
    order, so it equals the diagonal of the CSR H bit for bit. The hop is -g.
    """
    n, d = params.N, window.n_sites

    def on_legs(values: np.ndarray, legs: tuple) -> np.ndarray:
        return values.reshape([d if a in legs else 1 for a in range(n)])

    one_site = -2.0 * params.h * site_range(window)
    pair = potential_matrix(params, window.L)  # v(x_i - x_j) over (x_i, x_j), i < j
    diagonal, interaction = np.zeros((d,) * n), np.zeros((d,) * n)
    for k in range(n):
        diagonal += on_legs(one_site, (k,))
    for legs in pairs(n):
        interaction += on_legs(pair, legs)
    diagonal += interaction
    return Stencil(window, diagonal, -params.g, _disc_bounds(diagonal, -params.g))


def position_stencil(op) -> Stencil:
    """The stencil of a position-basis `OperatorMatrix` H, read from its CSR and checked exactly.

    In the position basis H^(N) is diagonal apart from one constant hop between
    grid neighbours on each leg, at flat offsets +-d^k, k < N. Raises ValueError
    for a complex or non-symmetric H, one in another basis, a hop that varies,
    an entry at any other offset, or one that wraps across a leg edge.
    """
    h = op.matrix
    if np.iscomplexobj(h.data) or op.symmetry_defect() > 1e-12:
        raise ValueError("propagator needs a real symmetric Hamiltonian")
    if op.basis_tag != "position":
        raise ValueError("propagator runs in the position basis only")
    d, n = op.window.n_sites, op.n_particles
    rows = h._rows()
    offsets = h.indices - rows
    low = np.minimum(rows, h.indices)  # H[i, i + offset] or H[i - offset, i]: the lower index i

    def band(offset: int) -> np.ndarray:
        vals = np.zeros(op.dim - abs(offset))
        on = offsets == offset
        vals[low[on]] = h.data[on]
        return vals

    strides = [d**k for k in range(n)]
    hop = float(band(1)[0])
    for offset in set(offsets.tolist()) | {s * k for k in strides for s in (-1, 1)}:
        if offset == 0:
            continue
        vals = band(offset)
        want = np.zeros(vals.size)
        if abs(offset) in strides:
            lower = np.arange(vals.size)
            want[lower // abs(offset) % d < d - 1] = hop
        if not np.array_equal(vals, want):
            raise ValueError(
                f"propagator needs one constant nearest-neighbour hop; offset {offset} differs"
            )
    diagonal = h.diagonal().reshape((d,) * n)
    return Stencil(op.window, diagonal, hop, _disc_bounds(diagonal, hop))


def propagator_bytes(window: Window, n_particles: int, m: int) -> int:
    """The bytes a propagator of m offsets holds at N = n_particles, estimated before any is made.

    It holds TERM_BUFFER + m + 3 arrays of 2P doubles, P = d (d+1)^(N-1) the
    padded grid: the ring of terms, the accumulators, the two signed
    diagonals and the hop scratch, which the fold shares. The stencil's
    diagonal, its set-up and a sample's density take about 3 d^N doubles
    more. Raises CapacityError above the memory budget (`lattice.within_budget`).
    """
    d = window.n_sites
    padded = d * (d + 1) ** (n_particles - 1)
    need = 8 * (2 * padded * (TERM_BUFFER + m + 3) + 3 * d**n_particles)
    return within_budget(need, f"the propagator at N = {n_particles}, L = {window.L}")


class ChebyshevPropagator:
    """e^{-i t_j H} psi for the offsets t_j = j*dt, j = 1..m, from one recurrence.

    With hs = (H - center)/half, e^{-i t H} psi = e^{-i center t} sum_k a_k(t) U_k,
    where a_k(t) = (2 - delta_k0) J_k(half*t) is real (`chebyshev_coefficients`)
    and U_k = (-i)^k T_k(hs) psi obeys U_1 = -i hs U_0 and
    U_{k+1} = -2i hs U_k + U_{k-1} (Tal-Ezer & Kosloff 1984). The U_k do not
    depend on t; so one recurrence, run to the longest offset's truncation,
    feeds all m accumulators. Set-up refuses buffers above the memory budget
    (`propagator_bytes`) and fixes the table a_k(t_j) (zero past each
    offset's truncation at CHEB_TOL), the phases e^{-i center t_j} and the
    rescaled hs, from the stencil's spectral bounds.

    hs is applied matrix-free, as a nearest-neighbour stencil: its diagonal
    and one hop constant (`Stencil`). States live on a padded grid of
    shape (d,) + (d+1,)*(N-1): every leg but the slowest carries one zero ghost
    layer, so the hop along leg k is two contiguous slice-adds at the flat
    stride (d+1)^k, and a hop off a leg's edge lands on a ghost, zeroed after
    each term. A state is held as its real and imaginary planes, shape (2, P):
    hs is real, so -i hs maps the planes (x, y) to (hs y, -hs x), and each term
    reads the previous planes swapped, through the view prev[::-1]. Every
    TERM_BUFFER terms, real products (a x u)(u x 2P) fold them into the
    accumulators of the a offsets whose expansion reaches them: a suffix, since
    the offsets are sorted by t_j. The first fold writes the accumulators; the
    later ones go a block of 2P/m columns at a time through the hop scratch,
    which is free between terms. The phase is applied once per offset after
    the last fold, through the same scratch. The ring of terms, the
    accumulators and the scratch are allocated once per propagator.
    """

    def __init__(self, stencil: Stencil, dt: float, m: int, config: PropagatorConfig):
        diag, hop = stencil.diagonal, stencil.hop
        d, n = stencil.window.n_sites, diag.ndim
        propagator_bytes(stencil.window, n, m)
        self.bounds = stencil.bounds
        lo, hi = self.bounds
        center, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        offsets = dt * np.arange(1, m + 1)
        if half * offsets[-1] > specfun.X_MAX:  # the largest Bessel argument of the expansion
            raise CapacityError(
                f"t_max = {config.t_max:g} over samples = {config.samples} gives a Chebyshev "
                f"argument {half * offsets[-1]:.3g} above the Bessel cap {specfun.X_MAX:g}; "
                "raise samples or lower t_max"
            )
        coefs = [chebyshev_coefficients(half * t) for t in offsets]
        self.terms = np.array([c.size for c in coefs])  # expansion terms per offset
        self.table = np.zeros((m, self.terms.max()))  # row j: a_k(t_j)
        for j, c in enumerate(coefs):
            self.table[j, : c.size] = c
        # e^{i phi} (x + iy) = cos phi (x, y) + sin phi (-y, x), phi = -center t_j
        self.cos = np.cos(center * offsets)[:, None, None]
        self.turn = -np.sin(center * offsets)[:, None, None] * np.array([[-1.0], [1.0]])
        self.grid = (d,) + (d + 1,) * (n - 1)
        self.interior = (Ellipsis,) + (slice(0, d),) * (n - 1)
        # index d on each padded grid axis a = 1..N-1: that axis's ghost layer
        self.ghosts = [(Ellipsis, d) + (slice(None),) * (n - 1 - a) for a in range(1, n)]
        padded = np.zeros(self.grid)
        padded[self.interior] = diag / half - center / half
        size = padded.size
        # -i hs on the swapped planes (y, x): one row per plane, a multiply that
        # broadcasts the diagonal ran 2x slower
        self.diag1 = np.stack([padded.ravel(), -padded.ravel()])
        self.diag2 = 2.0 * self.diag1
        self.hop = hop / half
        self.hop1 = np.array([[self.hop], [-self.hop]])
        self.hop2 = 2.0 * self.hop1
        self.strides = [(d + 1) ** k for k in range(n)] if hop else []
        self.ring = np.zeros((TERM_BUFFER, 2, size))  # U_k in slot k % TERM_BUFFER
        self.acc = np.empty((m, 2, size))
        self.hopped = np.empty((2, size))
        self.matvecs = 0  # applications of hs to a state, summed over calls
        self.norm_drift_max = 0.0  # over every state returned

    def step(self, prev: np.ndarray, out: np.ndarray, prev2, hopped: np.ndarray) -> None:
        """out = -2i hs prev + prev2, or -i hs prev if prev2 is None, on padded planes (2, P).

        The ghosts of prev must be zero; those of out are zeroed. hopped is scratch.
        """
        swapped = prev[::-1]
        if prev2 is None:
            np.multiply(swapped, self.diag1, out=out)
            hop = self.hop1
        else:
            np.multiply(swapped, self.diag2, out=out)
            out += prev2
            hop = self.hop2
        if self.strides:
            np.multiply(swapped, hop, out=hopped)
        for s in self.strides:
            out[:, s:] += hopped[:, :-s]
            out[:, :-s] += hopped[:, s:]
        grid = out.reshape((2,) + self.grid)
        for ghost in self.ghosts:
            grid[ghost] = 0.0

    def __call__(self, planes: np.ndarray, count: int) -> np.ndarray:
        """The planes of the states at offsets 1..count from planes (2, dim) or (2,) + (d,)*N.

        Returns the padded planes, a view of shape (count, 2) + grid into the
        accumulators with zero ghosts, overwritten by the next call; planes may
        be its interior (`self.interior`), since it is read at the first term,
        before any fold. Raises if any state's norm drifts.
        """
        size, d = self.hopped.shape[1], self.grid[0]
        terms = self.terms[:count]
        n_terms = int(terms.max())
        ring = self.ring.reshape(TERM_BUFFER, 2 * size)
        acc = self.acc[:count]
        acc_rows = acc.reshape(count, 2 * size)
        scratch = self.hopped.reshape(-1)
        width = 2 * size // self.acc.shape[0]  # a fold block of <= m rows fits the scratch
        for k in range(n_terms):
            slot = self.ring[k % TERM_BUFFER]
            if k == 0:
                slot.reshape((2,) + self.grid)[self.interior] = planes.reshape(
                    (2,) + (d,) * len(self.grid)
                )
            else:
                prev2 = self.ring[(k - 2) % TERM_BUFFER] if k > 1 else None
                self.step(self.ring[(k - 1) % TERM_BUFFER], slot, prev2, self.hopped)
            used = k % TERM_BUFFER + 1
            if used == TERM_BUFFER or k == n_terms - 1:
                k0 = k + 1 - used
                # the offsets before `first` were truncated before U_k0
                first = int(np.argmax(terms > k0))
                table = self.table[first:count, k0 : k + 1]
                if k0 == 0:
                    np.matmul(table, ring[:used], out=acc_rows)
                    continue
                for c0 in range(0, 2 * size, width):
                    c1 = min(c0 + width, 2 * size)
                    fold = scratch[: (count - first) * (c1 - c0)].reshape(count - first, c1 - c0)
                    np.matmul(table, ring[:used, c0:c1], out=fold)
                    acc_rows[first:, c0:c1] += fold
        self.matvecs += n_terms - 1
        for j in range(count):
            np.multiply(acc[j, ::-1], self.turn[j], out=self.hopped)
            acc[j] *= self.cos[j]
            acc[j] += self.hopped
        drifts = np.abs(np.sqrt(np.einsum("ij,ij->i", acc_rows, acc_rows)) - 1.0)
        self.norm_drift_max = max(self.norm_drift_max, float(drifts.max()))
        over = np.flatnonzero(drifts > NORM_TOL)
        if over.size:
            lo, hi = self.bounds
            raise RuntimeError(
                f"norm drift {drifts[over[0]]:.2e} at offset {over[0] + 1}; "
                f"spectral bounds ({lo:g}, {hi:g}) likely violated"
            )
        return acc.reshape((count, 2) + self.grid)


def _planes(psi: np.ndarray) -> np.ndarray:
    return np.array([psi.real, psi.imag], dtype=float)


def _check_normalized(psi: np.ndarray) -> None:
    if abs(_frobenius(psi) - 1.0) > 1e-8:
        raise ValueError("initial state must be normalized")


def density(planes: np.ndarray, window: Window, n_particles: int) -> np.ndarray:
    """One-site particle density rho(x) of a state; sums to N.

    planes are the state's real and imaginary parts (x, y), shape (2, d**N), (2,) + (d,)*N
    or the propagator's padded (2, d) + (d+1,)*(N-1) with zero ghosts, squared as they lie
    in memory and cut after the sums; |psi|^2 is read as x^2 + y^2.
    """
    d = window.n_sites
    padded = planes.shape[1:] == (d,) + (d + 1,) * (n_particles - 1)
    if not padded and planes.size != 2 * d**n_particles:
        raise ValueError("state dimension does not match the window")
    x, y = planes if padded else planes.reshape((2,) + (d,) * n_particles)
    prob = x * x
    prob += y * y
    rho = prob.sum(axis=tuple(range(1, n_particles)))
    rest = prob.sum(axis=0)  # the marginals of legs 1..N-1 are sums of this
    for axis in range(n_particles - 1):
        rho += rest.sum(axis=tuple(a for a in range(n_particles - 1) if a != axis))[:d]
    total = rho.sum()
    if abs(total - n_particles) > DENSITY_TOL:
        raise RuntimeError(f"density normalization off by {total - n_particles:.2e}")
    return rho


def tail_trace(
    source,
    psi0: np.ndarray,
    config: PropagatorConfig,
    radii: list,
) -> DensityTrace:
    """Evolve on a uniform grid and track the density mass beyond each radius.

    source is H's `Stencil`, or a position-basis `OperatorMatrix` read
    through `position_stencil`.
    """
    stencil = source if isinstance(source, Stencil) else position_stencil(source)
    w, n = stencil.window, stencil.diagonal.ndim
    if float(boundary_shell_mass(psi0, w, n)[0]) > 1e-10:
        raise ValueError("initial state must be supported in the interior")
    _check_normalized(psi0)
    radii = np.asarray(sorted(radii), dtype=int)
    times = np.linspace(0.0, config.t_max, config.samples + 1)
    dt = times[1] - times[0]
    m = min(SAMPLES_PER_EXPANSION, config.samples)
    prop = ChebyshevPropagator(stencil, dt, m, config)
    dens = np.empty((times.size, w.n_sites))
    base = _planes(psi0)
    dens[0] = density(base, w, n)
    # blocks of m samples, each propagated from the last state of the block before
    for first in range(1, times.size, m):
        block = prop(base, min(m, times.size - first))
        for j in range(block.shape[0]):
            dens[first + j] = density(block[j], w, n)
        base = block[-1][prop.interior]
    guard = w.L - w.interior_margin
    # one column per radius and a last one for the guard: 1 where |x| > r
    beyond = np.abs(np.arange(-w.L, w.L + 1))[:, None] > np.append(radii, guard)
    tails = dens @ beyond.astype(float)
    guard_sup = float(tails[:, -1].max())
    tails = tails[:, :-1]
    drift = max(abs(_frobenius(psi0) - 1.0), prop.norm_drift_max)
    return DensityTrace(
        times, dens, radii, tails, tails.max(axis=0), guard_sup <= TRUNCATION_FLAG, float(drift),
        int(prop.terms.max()), m, prop.matvecs, tuple(prop.bounds), float(dt), guard, guard_sup,
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
    return psi / _frobenius(psi)
