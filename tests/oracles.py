"""Reference implementations that only the tests use: slow, direct and independent.

H0 and the interaction alone are assembled here as the package assembles H
(`build_h0`, `build_interaction`). Each other function restates a quantity
the package computes another way (the scipy.sparse assembly of H and the CSR
rows Q^T of the S_N sectors with the split built from their products, the
S_N projectors, the sector sizes from the character tables, the sector solve
that copies its blocks, single stark-basis pair elements, the interaction
envelope, the decay check after the Bessel transform, the Gram defect of an
eigenbasis, the complex Chebyshev coefficients, the Gershgorin discs of a CSR
H, the tail mass beyond one radius), so that the fast paths in `starklat`
have something to be compared against. The criterion checks after them
(spectral periodicity, the Fredholm probe, weighted norms, COM profile
summaries, one-shot evolution, cluster Hamiltonians) are reported by no task:
only the acceptance tests run them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from starklat import dynamics as dyn
from starklat import localization as loc
from starklat import lattice, model, resolvent, specfun, spectra
from starklat.model import ModelParams, OperatorMatrix, Window

PERIODICITY_TOL = 1e-6
FREDHOLM_THRESHOLD = 1e-3  # |mu - 1| below which an eigenvalue mu of I(z) flags z


def tuple_to_flat(window: Window, coords: np.ndarray) -> np.ndarray:
    coords = np.asarray(coords)
    d = window.n_sites
    n = coords.shape[-1]
    strides = d ** np.arange(n - 1, -1, -1)
    return (coords + window.L) @ strides


def symmetrizer(n_particles: int, window: Window, eta: int) -> OperatorMatrix:
    """Orthogonal projector onto the bosonic (+1) or fermionic (-1) subspace."""
    if eta not in (1, -1):
        raise ValueError("eta must be +1 or -1")
    if n_particles > lattice.N_MAX:
        raise ValueError(f"N must be <= {lattice.N_MAX}")
    d = window.n_sites
    dim = d**n_particles
    coords = lattice.flat_to_tuples(window, n_particles)
    total = sp.csr_matrix((dim, dim))
    nfact = math.factorial(n_particles)
    for perm in itertools.permutations(range(n_particles)):
        sign = 1.0 if eta == 1 else (-1.0) ** model._permutation_parity(perm)
        permuted = coords[:, list(perm)]
        target = tuple_to_flat(window, permuted)
        mat = sp.coo_matrix(
            (np.full(dim, sign / nfact), (target, np.arange(dim))), shape=(dim, dim)
        )
        total = total + mat.tocsr()
    return OperatorMatrix("position", window, n_particles, from_scipy(total))


def scipy_csr(m) -> sp.csr_matrix:
    """A `model.CSR` (or an OperatorMatrix's) as scipy's CSR, sharing its arrays."""
    m = getattr(m, "matrix", m)
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


def from_scipy(m) -> model.CSR:
    """A scipy sparse matrix as a canonical `model.CSR`."""
    m = sp.csr_matrix(m)
    m.sum_duplicates()
    m.eliminate_zeros()
    return model.CSR(m.data, m.indices, m.indptr, m.shape)


def scipy_embed_on_legs(op, window: Window, n_particles: int, legs: tuple) -> sp.csr_matrix:
    """The scipy lift `model.embed_on_legs` replaced: a COO of every lifted entry, then tocsr."""
    d, k = window.n_sites, len(legs)
    if k == n_particles:
        return sp.csr_matrix(op)
    coo = sp.coo_matrix(op)
    strides = d ** np.arange(n_particles - 1, -1, -1)
    leg_strides = strides[list(legs)]
    rows = leg_strides @ np.unravel_index(coo.row, (d,) * k)
    cols = leg_strides @ np.unravel_index(coo.col, (d,) * k)
    rest = np.zeros(1, dtype=np.int64)
    for leg in range(n_particles):
        if leg not in legs:
            rest = (rest[:, None] + np.arange(d) * strides[leg]).ravel()
    rows = (rows[:, None] + rest).ravel()
    cols = (cols[:, None] + rest).ravel()
    dim = d**n_particles
    return sp.coo_matrix((np.repeat(coo.data, rest.size), (rows, cols)), shape=(dim, dim)).tocsr()


def _assembled(params: ModelParams, window: Window, basis: str, leg_sum) -> OperatorMatrix:
    """One leg sum, (operator, leg list), assembled slab by slab as H is (`model._assemble`)."""
    return OperatorMatrix(basis, window, params.N, model._assemble([leg_sum], window, params.N))


def build_h0(params: ModelParams, window: Window, basis: str) -> OperatorMatrix:
    """The free Hamiltonian: the one-site operator on every leg."""
    return _assembled(params, window, basis, model._one_site_sum(params, window, basis))


def build_interaction(params: ModelParams, window: Window, basis: str) -> OperatorMatrix:
    """The pair interaction summed over every particle pair."""
    return _assembled(params, window, basis, model._pair_sum(params, window, basis, None))


def scipy_hamiltonian(params: ModelParams, window: Window, basis: str) -> sp.csr_matrix:
    """H as scipy.sparse assembled it: H0 plus the interaction (`scipy_sums`)."""
    h0, v = scipy_sums(params, window, basis)
    return h0 + v


def scipy_sums(params: ModelParams, window: Window, basis: str) -> tuple:
    """(H0, the interaction) as scipy.sparse assembled them: each a left-to-right sum of lifts."""
    m = model.site_range(window)
    if basis == "stark":
        one = sp.diags(-2.0 * params.h * m, format="coo")
        pair = scipy_csr(model.two_site_kernel(params, window))
    else:
        off = -params.g * np.ones(window.n_sites - 1)
        one = sp.diags([off, -2.0 * params.h * m, off], [-1, 0, 1], format="coo")
        pair = sp.diags(model.potential_matrix(params, window.L).ravel(), format="coo")
    dim = window.n_sites**params.N
    parts = []
    for op, leg_list in ((one, [(k,) for k in range(params.N)]), (pair, model.pairs(params.N))):
        if not leg_list:
            parts.append(sp.csr_matrix((dim, dim)))
            continue
        total = scipy_embed_on_legs(op, window, params.N, leg_list[0])
        for legs in leg_list[1:]:
            total = total + scipy_embed_on_legs(op, window, params.N, legs)
        parts.append(total)
    return tuple(parts)


def csr_sector_rows(d: int, n: int) -> tuple:
    """The CSR Q_s^T of each sector of `model.symmetry_sectors`, built from the orbit bases."""
    shapes, _, lift = model._orbit_bases(n)
    coords = np.array(np.unravel_index(np.arange(d**n), (d,) * n))
    steps = np.diff(coords, axis=0)
    sorted_tuples = np.flatnonzero((steps >= 0).all(axis=0))
    shape = (steps[:, sorted_tuples] == 0).T @ (1 << np.arange(n - 1))
    strides = d ** np.arange(n - 1, -1, -1)
    orbits = []
    for code, (perms, _) in enumerate(shapes):
        which = np.flatnonzero(shape == code)
        flat = np.einsum("j,mjo->mo", strides, coords[:, sorted_tuples[which]][perms])
        orbits.append((which, flat))
    out = []
    for s in range(len(lift)):
        count = np.zeros(sorted_tuples.size, dtype=np.int64)
        for (which, _), (_, local) in zip(orbits, shapes):
            count[which] = local[s].shape[1]
        first = np.cumsum(count) - count
        rows, cols, vals = [], [], []
        for (which, flat), (_, local) in zip(orbits, shapes):
            for i, c in zip(*np.nonzero(local[s])):
                rows.append(first[which] + c)
                cols.append(flat[i])
                vals.append(np.full(which.size, local[s][i, c]))
        dim = int(count.sum())
        if dim:
            out.append(sp.csr_matrix(
                (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                shape=(dim, d**n),
            ))
    return tuple(out)


def csr_times(q: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """q @ x for a dense x, C-ordered first; a complex x as its real view."""
    x = np.ascontiguousarray(x)
    if np.iscomplexobj(x):
        return (q @ x.view(np.float64)).view(complex)
    return q @ x


def csr_split(a, d: int, n: int):
    """`model.split_by_symmetry` from CSR products: per chunk X^T a, then Q^T, as scipy formed them.

    None where the split refuses (the model then takes the whole space).
    """
    sectors, qts = model.symmetry_sectors(d, n), csr_sector_rows(d, n)
    csr = sp.csr_matrix(a)
    q_all = sp.vstack(qts, format="csr")
    bounds = np.cumsum([0] + [s.dim for s in sectors])
    blocks, diffs, cross = {}, {}, 0.0
    for parts in model._column_parts(sectors, model.CHUNK_COLUMNS):
        xt = sp.vstack([qts[s][j0:j1] for s, j0, j1 in parts], format="csr")
        rows = csr_times(q_all, (xt @ csr).toarray().T)
        cross = model.fill_sector_blocks(rows, parts, blocks, diffs, bounds, cross)
    return model.sector_split(sectors, blocks, diffs, cross, n)


def dense_q(sector: model.Sector) -> np.ndarray:
    """The sector's columns Q as a dense d^N x dim array (the lift of 1 is exact)."""
    out = np.empty((sector.size, sector.dim))
    sector.lift(np.eye(sector.dim), out)
    return out


# character tables of S_2, S_3 and S_4: per conjugacy class its size and its
# number of cycles, then chi_lambda per irrep, in the sector order of
# `model.symmetry_sectors` (trivial, sign, then the rest by dimension chi_lambda(1))
S_N_CHARACTERS = {
    2: ([1, 1], [2, 1], {(2,): [1, 1], (1, 1): [1, -1]}),
    3: ([1, 3, 2], [3, 2, 1], {(3,): [1, 1, 1], (1, 1, 1): [1, -1, 1], (2, 1): [2, 0, -1]}),
    4: (
        [1, 6, 3, 8, 6],  # e, (12), (12)(34), (123), (1234)
        [4, 3, 2, 2, 1],
        {
            (4,): [1, 1, 1, 1, 1],
            (1, 1, 1, 1): [1, -1, 1, 1, -1],
            (2, 2): [2, 0, 2, -1, 0],
            (3, 1): [3, 1, -1, 0, -1],
            (2, 1, 1): [3, -1, -1, 0, 1],
        },
    ),
}


def sector_sizes(d: int, n: int) -> dict:
    """m_lambda = (1/n!) sum_g chi_lambda(g) d^cycles(g) per irrep: its multiplicity in (C^d)^(x)n."""
    sizes, cycles, chars = S_N_CHARACTERS[n]
    return {
        lam: sum(s * c * d**k for s, c, k in zip(sizes, chi, cycles)) // math.factorial(n)
        for lam, chi in chars.items()
    }


def sector_irreps(d: int, n: int) -> list:
    """The irrep of each nonempty sector in split order: dim lambda partner sectors per lambda."""
    chars = S_N_CHARACTERS[n][2]
    return [lam for lam, m in sector_sizes(d, n).items() if m for _ in range(chars[lam][0])]


def sector_dims(d: int, n: int) -> list:
    """The nonempty sector sizes in split order."""
    return [sector_sizes(d, n)[lam] for lam in sector_irreps(d, n)]


def copying_sector_eigh(split) -> spectra.SectorEigh:
    """`spectra.sector_eigh` as it was before it owned its split: each block solved in split
    order, beside its symmetrized copy b + b^T and the skew temporary b - b^T, and every
    block kept. The owning solve must give the same bits."""
    gamma, u = spectra._gamma, model.UNIT_ROUNDOFF
    theta = split.basis_defect
    c = max(s.orbit_terms for s in split.sectors)
    a_frob = split.norm / (1.0 - theta - gamma(2 * c) * c * (1.0 + theta))
    factors, rho, frob, gram, skew = [], [], [], [], []
    for b, serves, spread in zip(split.blocks, split.serves, split.spread):
        drop = 0.5 * model._frobenius(b - b.T)
        if len(serves) > 1:
            drop = math.hypot(math.sqrt(len(serves)) * drop, spread)
        skew.append(drop)
        b = b + b.T
        b *= 0.5
        n, diag = b.shape[0], b.diagonal()
        diagonal = np.count_nonzero(b) == np.count_nonzero(diag)
        if diagonal:
            perm = np.argsort(diag, kind="stable")
            w, y = diag[perm], np.eye(n)[:, perm]
        else:
            w, y = np.linalg.eigh(b)
        g = y.T @ y
        g.flat[:: n + 1] -= 1.0
        gram.extend([model._frobenius(g)] * len(serves))
        nu_b = math.sqrt(1.0 + gram[-1])
        r = b @ y
        r -= y * w
        rho_b = np.sqrt(np.einsum("ij,ij->j", r, r))
        frob.extend([model._frobenius(r)] * len(serves))
        if not diagonal:
            sigma = spectra._abs_row_sum_max(b)
            rounding = (gamma(n) + gamma(max(3, len(serves) + 1))) * sigma + u * np.abs(w)
            rho_b = (1.0 + gamma(n + 3)) * rho_b + rounding * nu_b
        gain = max(split.sectors[s].abs_gain for s in serves)
        rho.extend([rho_b + gamma(2 * c) * gain * a_frob * nu_b] * len(serves))
        factors.append(spectra.SectorFactor(w, y, tuple(split.sectors[s] for s in serves)))
    vals = np.concatenate([fac.values for fac in factors for _ in fac.sectors])
    rho = np.concatenate(rho)
    e = np.concatenate(
        [np.full(fac.values.size, s.lift_error) for fac in factors for s in fac.sectors]
    )
    order = spectra._served_order(factors)
    o = max(gram)
    nu = np.sqrt(1.0 + o)
    dropped = split.cross_norm + np.linalg.norm(skew)
    lam = np.abs(vals)
    kappa = 1.0 / np.sqrt(1.0 - theta)
    norm_s = (nu * lam.max() + max(frob)) / np.sqrt(1.0 - o) if o < 1.0 else np.inf
    norm_a = (norm_s + dropped) / (1.0 - theta)
    lift_err = e * nu * (norm_a + lam) if e.any() else np.zeros_like(lam)
    residuals = kappa * (rho + (dropped + theta * lam) * nu) + lift_err
    residual_norm = kappa * (
        np.linalg.norm(frob) + (dropped + theta * np.linalg.norm(lam)) * nu
    ) + np.linalg.norm(lift_err)
    f = np.linalg.norm(e)
    orthogonality = np.linalg.norm(gram) + nu**2 * (
        theta * np.sqrt(lam.size) + f * (2.0 * np.sqrt(1.0 + theta) + f)
    )
    return spectra.SectorEigh(
        vals[order], None, residuals[order], float(residual_norm), float(orthogonality),
        split.diagnostics(), tuple(factors),
    )


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


def pair_interaction(
    params: ModelParams, window: Window, basis: str, pair_list: list
) -> OperatorMatrix:
    """The pair interaction summed over the given 0-based leg pairs only."""
    op = model.two_site_operator(params, window, basis)
    dim = window.n_sites**params.N
    total = sp.csr_matrix((dim, dim))
    for legs in pair_list:
        total = total + scipy_csr(model.embed_on_legs(op, window, params.N, legs))
    return OperatorMatrix(basis, window, params.N, from_scipy(total))


def build_cluster_hamiltonian(
    params: ModelParams, window: Window, decomposition, basis: str
) -> OperatorMatrix:
    """H_D: interactions restricted to intra-cluster pairs of the partition."""
    blocks = [tuple(sorted(b)) for b in decomposition.blocks]
    flat = sorted(p for b in blocks for p in b)
    if flat != list(range(1, params.N + 1)):
        raise ValueError("decomposition must partition {1..N}")
    intra = []
    for b in blocks:
        for i, j in itertools.combinations(b, 2):
            intra.append((i - 1, j - 1))
    v = pair_interaction(params, window, basis, sorted(intra))
    total = model._sum([build_h0(params, window, basis).matrix, v.matrix])
    return OperatorMatrix(basis, window, params.N, total)


def evolve(
    op: OperatorMatrix, psi0: np.ndarray, t: float, config: dyn.PropagatorConfig
) -> np.ndarray:
    """psi_t = e^{-itH} psi0 by a Chebyshev expansion on the rescaled spectrum."""
    prop = dyn.ChebyshevPropagator(dyn.position_stencil(op), t, 1, config)
    dyn._check_normalized(psi0)
    if t == 0.0:
        return psi0.astype(complex)
    x, y = prop(dyn._planes(psi0), 1)[0][prop.interior]
    return (x + 1j * y).ravel()


def gershgorin_bounds(op: OperatorMatrix) -> tuple:
    """Spectral enclosure [min(d - r), max(d + r)] from the row discs of the CSR H."""
    mat = scipy_csr(op)
    d = mat.diagonal()
    radius = np.abs(mat).sum(axis=1).A1 - np.abs(d)
    return float((d - radius).min()), float((d + radius).max())


def chebyshev_coefficients(tau: float) -> np.ndarray:
    """c_k = (2 - delta_k0) (-i)^k J_k(tau), truncated below CHEB_TOL.

    The coefficients of e^{-i tau x} = sum_k c_k T_k(x) on the T_k themselves;
    the propagator carries the phase (-i)^k on its vectors instead.
    """
    k_max = int(abs(tau) + 40 + 10.0 * abs(tau) ** (1.0 / 3.0))
    # bessel_row(0, -k_max, 0, tau) lists J_{k_max}..J_0
    row = specfun.bessel_row(0, -k_max, 0, tau)[::-1]
    keep = k_max
    while keep > 1 and abs(row[keep]) < dyn.CHEB_TOL and abs(row[keep - 1]) < dyn.CHEB_TOL:
        keep -= 1
    k = np.arange(keep + 1)
    return (2.0 - (k == 0)) * (-1j) ** k * row[: keep + 1]


def tail_mass(rho: np.ndarray, window: Window, r: int) -> float:
    """The density mass beyond radius r: rho summed over |x| > r."""
    x = np.arange(-window.L, window.L + 1)
    return float(rho[np.abs(x) > r].sum())


def parseval_defect(profile: loc.ComProfile):
    defect = np.abs(np.sum(profile.norms**2, axis=0) - 1.0)
    return float(defect) if profile.norms.ndim == 1 else defect


def peak_sector(profile: loc.ComProfile):
    peak = profile.sectors[np.argmax(profile.norms, axis=0)]
    return int(peak) if profile.norms.ndim == 1 else peak


def weighted_norm(
    psi: np.ndarray, window: Window, n_particles: int, i: int, theta: float
) -> float:
    """||W_{i,theta} psi|| with the diagonal weight e^{theta |m_i|} on leg i (1-based)."""
    if not (1 <= i <= n_particles):
        raise ValueError("coordinate index out of range")
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    coords = lattice.flat_to_tuples(window, n_particles)
    w = np.exp(theta * np.abs(coords[:, i - 1]))
    return float(np.linalg.norm(w * psi))


@dataclass
class PeriodicityReport:
    shift: float
    n_compared: int
    max_deviation: float
    worst_value: Optional[float]
    passed: bool


def spectral_periodicity_check(
    result: spectra.SectorEigh, shift: float, params: ModelParams, window: Window, basis: str
) -> PeriodicityReport:
    """Interior spectrum invariance under the lattice energy shift 2hN."""
    mask = spectra.interior_mask(result, params, window, basis)
    ev = np.sort(result.eigenvalues[mask])
    if ev.size < 3:
        return PeriodicityReport(shift, 0, np.inf, None, False)
    lo, hi = ev.min() + abs(shift), ev.max() - abs(shift)
    band = ev[(ev >= lo) & (ev <= hi)]
    # partners one lattice shift away sit a site closer to a face and may
    # drop out of the interior set, so match against the full spectrum
    shifted = np.sort(result.eigenvalues) + shift
    worst_dev, worst_val = 0.0, None
    for e in band:
        dev = float(np.min(np.abs(shifted - e)))
        if dev > worst_dev:
            worst_dev, worst_val = dev, float(e)
    passed = worst_dev <= PERIODICITY_TOL and band.size > 0
    return PeriodicityReport(shift, band.size, worst_dev, worst_val, passed)


@dataclass
class FredholmPoint:
    z: complex
    nearest_to_one: complex
    proximity: float
    flagged: bool
    nearest_h_eigenvalue: Optional[float]


def fredholm_probe(
    z_grid: list,
    params: ModelParams,
    window: Window,
    ws: Optional[resolvent.ResolventWorkspace] = None,
) -> list:
    """Locate z with 1 in the spectrum of I(z); flags should track eigenvalues of H."""
    ws = ws or resolvent.ResolventWorkspace(params, window)
    h_eigs = ws.block(params.N).eigenvalues
    out = []
    for z in z_grid:
        # I(z) is not normal, so no Weyl bound applies to its eigenvalues; the
        # dropped blocks (and a pair's half difference) are at most
        # SECTOR_TOL ||I||_F, a roundoff-size change of I
        i_z = resolvent.build_I(complex(z), ws)
        split = model.split_by_symmetry(i_z, window.n_sites, params.N)
        eigs = np.concatenate(
            [
                np.tile(np.linalg.eigvals(b), len(serves))
                for b, serves in zip(split.blocks, split.serves)
            ]
        )
        j = int(np.argmin(np.abs(eigs - 1.0)))
        prox = float(np.abs(eigs[j] - 1.0))
        flagged = prox < FREDHOLM_THRESHOLD
        nearest_h = None
        if np.imag(z) == 0.0:
            nearest_h = float(h_eigs[np.argmin(np.abs(h_eigs - np.real(z)))])
        out.append(FredholmPoint(complex(z), complex(eigs[j]), prox, flagged, nearest_h))
    return out
