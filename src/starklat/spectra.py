"""Diagonalization, the interior filter, partition combinatorics, cluster spectra."""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .model import (
    CHUNK_COLUMNS,
    UNIT_ROUNDOFF,
    ModelParams,
    OperatorMatrix,
    SectorSplit,
    Window,
    _frobenius,
    apply_on_legs,
    build_hamiltonian,
    enumerate_integer_partitions,
    irrep_dims,
    split_by_symmetry,
    split_bytes,
    stark_basis_matrix,
)
from .lattice import _face_rows, boundary_shell_mass, within_budget  # the second re-exported

INTERIOR_TOL = 1e-10
DEDUP_TOL = 1e-8
# glibc's malloc_trim, or None on another C library
_MALLOC_TRIM = getattr(ctypes.CDLL(None), "malloc_trim", None)


def _release_free_heap() -> None:
    """Return the free pages of the C heap to the system (glibc's malloc_trim).

    glibc keeps freed blocks below its trim threshold resident, and that
    threshold and the blocks' places move with the order of earlier frees,
    so a later block might reuse resident free memory or fault in new pages
    depending on the heap's layout: at N=2, L=20 the peak of the solves was
    78 or 85 MB with the same inputs, by the length of the source path.
    Called before the split and around each dense solve, it makes their peak
    the memory they hold. Elsewhere it does nothing.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


@dataclass(frozen=True)
class ClusterDecomposition:
    """Set partition of {1..N} into nonempty disjoint blocks."""

    blocks: tuple

    def __post_init__(self):
        flat = [p for b in self.blocks for p in b]
        if len(set(flat)) != len(flat) or not all(b for b in self.blocks):
            raise ValueError("blocks must be nonempty and disjoint")

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def n_particles(self) -> int:
        return sum(len(b) for b in self.blocks)

    def canonical(self) -> tuple:
        return tuple(sorted((tuple(sorted(b)) for b in self.blocks), key=lambda b: b[0]))

    def is_coarser_than(self, other: "ClusterDecomposition") -> bool:
        """Strict coarsening: every block of `other` sits inside one of ours."""
        if self.n_blocks >= other.n_blocks:
            return False
        mine = [set(b) for b in self.blocks]
        return all(any(set(b) <= m for m in mine) for b in other.blocks)


@dataclass
class ClusterSpectrum:
    points: np.ndarray
    generators: list


def transform_columns(vectors: np.ndarray, xi: np.ndarray, n_particles: int) -> np.ndarray:
    """Apply a one-particle basis matrix on every tensor leg of each column."""
    out = vectors[:, None] if vectors.ndim == 1 else vectors
    for leg in range(n_particles):
        out = apply_on_legs(xi, out, (leg,), xi.shape[0], n_particles)
    return out[:, 0] if vectors.ndim == 1 else out


def interior_mask(res: SectorEigh, params: ModelParams, window: Window, basis: str) -> np.ndarray:
    """Eigenpairs of `res` negligible at the truncation face in both representations, one bool each.

    `res` is a `sector_eigh` of a params.N-particle H on `window`, in
    `basis`; the mask is in its eigenvalue order. A single-representation
    test admits states that look interior in the stark window but lean on
    the position face (or vice versa); those carry truncation errors far
    above the eigenvalue tolerances, so the face mass is required to be
    small both natively and after the Bessel transform. Each solve's columns
    are lifted by `Sector.lift` and transformed CHUNK_COLUMNS at a time, so
    no more than a dim x CHUNK_COLUMNS block is formed.
    """
    n, dim = params.N, res.eigenvalues.size
    xi = stark_basis_matrix(params, window)
    xi = xi if basis == "stark" else xi.T
    face = _face_rows(window, n)
    interior = np.empty(dim, dtype=bool)  # in the order the factors serve their sectors
    start = 0
    for fac in res.factors:
        for sector in fac.sectors:
            for j in range(0, fac.values.size, CHUNK_COLUMNS):
                y = fac.vectors[:, j : j + CHUNK_COLUMNS]
                v = np.empty((dim, y.shape[1]))
                sector.lift(y, v)
                mass = np.maximum(
                    (np.abs(v[face]) ** 2).sum(axis=0),
                    (np.abs(transform_columns(v, xi, n)[face]) ** 2).sum(axis=0),
                )
                interior[start + j : start + j + y.shape[1]] = mass <= INTERIOR_TOL
            start += fac.values.size
    return interior[_served_order(res.factors)]


class SectorFactor(NamedTuple):
    """One dense solve B = Y diag(values) Y^T, standing for Q_s^T a Q_s of each of its sectors."""

    values: np.ndarray  # ascending
    vectors: np.ndarray  # Y
    sectors: tuple  # the model.Sector of each sector it serves, in split order


class SectorEigh(NamedTuple):  # a frozen dataclass would add ~1 ms to every import
    """Eigenpairs of a symmetric a with bounds on the lifted pairs."""

    eigenvalues: np.ndarray  # ascending, except a diagonal a's diagonal (resolvent.block)
    # dense, in eigenvalue order: `lift_states` of every column (eigh);
    # None: only the factors, or a diagonal a with V = 1
    eigenvectors: Optional[np.ndarray]
    residuals: np.ndarray  # per eigenvalue, >= ||a v - lambda v||
    residual_norm: float  # >= ||a V - V diag(eigenvalues)||_F
    orthogonality_defect: float  # >= ||V^T V - 1||_F
    sectors: dict  # SectorSplit.diagnostics; {} for a diagonal a (resolvent.block)
    # the SectorFactor of each solve: V = [Q_s Y_s] over the sectors each
    # serves, so a = sum_s Q_s Y_s diag(values) Y_s^T Q_s^T
    factors: tuple = ()


def _served_order(factors: tuple) -> np.ndarray:
    """The eigenvalue order of the factors' columns, taken once per sector each solve serves."""
    vals = np.concatenate([fac.values for fac in factors for _ in fac.sectors])
    return np.argsort(vals, kind="stable")


def lift_states(res: SectorEigh, index: np.ndarray) -> np.ndarray:
    """The lifted eigenvectors at the eigenvalue-order positions `index`, as dim x k columns.

    Each selected column of the factors is lifted by its sector's `Sector.lift`.
    """
    index = np.asarray(index)
    served = _served_order(res.factors)[index]
    out = np.empty((res.eigenvalues.size, index.size))
    start = 0
    for fac in res.factors:
        for sector in fac.sectors:
            where = np.flatnonzero((served >= start) & (served < start + fac.values.size))
            if where.size:
                v = np.empty((out.shape[0], where.size))
                sector.lift(fac.vectors[:, served[where] - start], v)
                out[:, where] = v
            start += fac.values.size
    return out


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), the relative error bound of k floating-point operations."""
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


def _abs_row_sum_max(b: np.ndarray) -> float:
    """max_i sum_j |b_ij|, over blocks of CHUNK_COLUMNS rows (no n x n temporary)."""
    rows = range(0, b.shape[0], CHUNK_COLUMNS)
    return max(float(np.abs(b[i : i + CHUNK_COLUMNS]).sum(axis=1).max()) for i in rows)


def _symmetrize(b: np.ndarray) -> float:
    """Overwrite b with its symmetric part, each entry fl(b_ij + b_ji) * 0.5; return ||b - b^T||_F.

    Tile pairs (I, J), I <= J, of CHUNK_COLUMNS rows and columns pass through
    one buffer, so no n x n temporary is formed.
    """
    n, t = b.shape[0], CHUNK_COLUMNS
    buf, squares = np.empty(t * t, b.dtype), 0.0
    for i in range(0, n, t):
        for j in range(i, n, t):
            upper, lower = b[i : i + t, j : j + t], b[j : j + t, i : i + t]
            s = buf[: upper.size].reshape(upper.shape)
            np.subtract(upper, lower.T, out=s)
            v = s.reshape(-1).view(np.float64)
            # a tile off the diagonal stands for its mirror too
            squares += np.einsum("i,i->", v, v) * (1.0 if i == j else 2.0)
            np.add(upper, lower.T, out=s)
            s *= 0.5
            upper[...] = s
            lower[...] = s.T
    return math.sqrt(squares)


def sector_eigh(split: SectorSplit) -> SectorEigh:
    """Eigenpairs of a symmetric a from its S_N sector split (`split_operator`); spends the split.

    Each vector lies in one sector of the split, so it is exactly even or odd
    under the leg-0/1 swap when the split is taken. A block that serves the
    partner sectors of an irrep is solved once for all. The pairs come as the
    per-solve `factors` (`lift_states` lifts them), and nothing of size
    dim x dim is formed: the residual and orthogonality of the lifted pairs
    are bounded from the sector solves alone. A caller that drops a after
    the split has it freed before the solves (unless a is dense and the one
    whole-space block).

    The solve owns the split's blocks: each is symmetrized in place
    (`_symmetrize`), solved largest first, beside the unsolved blocks and the
    factors of the solved ones only, and dropped from `split.blocks` once its
    residual is formed, so the split holds no block afterwards. A dense a
    that the split keeps as its one block is overwritten by its symmetric
    part. The factors, bounds and diagnostics come in split order.

    Let Q = [Q_s] be the stored sector columns, with Q^T Q = 1 + Delta and
    ||Delta|| <= theta (the split's basis defect). Each block B_s = S_s + K_s
    is solved through the symmetric part S_s of its solve's block; K_s (the
    skew part, and for a partner B_T - M of the mean M it is solved for) is dropped with
    the blocks C_ts = Q_t^T a Q_s. For y with S_s y - lambda y = rho,
    Q^T (a - lambda) Q_s y = (rho + K_s y (+) C_.s y) - lambda Delta_.s y, so

        ||a Q_s y - lambda Q_s y|| <= kappa (||rho|| + (||K_s|| + ||C_.s||
                                        + theta |lambda|) ||y||)

    with kappa = 1 / sqrt(1 - theta) >= ||Q^-T||. The lifted column fl(Q_s y)
    is within e_s ||y|| of Q_s y (e_s the sector's lift error), which adds
    (||a|| + |lambda|) e_s ||y||, with ||y|| <= nu = sqrt(1 + max_s
    ||Y_s^T Y_s - 1||_F).

    rho is bounded from the computed residual r of the solved block S^_s,
    with gamma_k = k u / (1 - k u) for k roundings. S^_s differs from S_s
    by F_s, from three roundings:
    - The block is fl(Q^T fl(X^T a)), two products whose entries sum at
      most c terms each, c the largest orbit (row of Q_s^T) of the
      sector: entrywise within gamma_2c |Q_s|^T |a^T| |Q_s|, of 2-norm at
      most gamma_2c g_s ||a||_F, with g_s >= || |Q_s| ||_2^2 (`Sector.abs_gain`)
      and ||a||_F <= ||Q^T a Q||_F / (1 - theta - gamma_2c c (1 + theta))
      from the split's `norm`. A whole-space block is a itself, and its
      split's `norm` is 0, so the term is exactly 0.
    - The mean of k partner blocks, summed as they are filed and divided by
      k, and the symmetric part 0.5 (b + b^T) round at most k + 1 times:
      entrywise within gamma_m |S^_s|, m = max(3, k + 1), of 2-norm at most
      gamma_m sigma_s, sigma_s the largest absolute row sum of S^_s (>= || |S^_s| ||_2).
    The computed r = fl(fl(S^_s y) - fl(y lambda)) is entrywise within
    gamma_n |S^_s| |y| + u |lambda| |y| + u |r| of S^_s y - lambda y, n the
    order of the block (any summation order), and its computed norm within
    a factor 1 + gamma_(n+2). So per eigenpair

        ||rho|| <= (1 + gamma_(n+3)) ||r|| + (gamma_n sigma_s + u |lambda|
                   + gamma_2c g_s ||a||_F + gamma_m sigma_s) ||y||.

    A diagonal S^_s is solved exactly (its sorted diagonal and a permutation),
    so r is exact and only the formation term is added.
    The other norms (sigma_s, ||a||_F, the dropped parts) enter as computed:
    their relative rounding moves the bound in its second order only.
    `residual_norm` is the Frobenius bound from the computed block residuals,
    without these terms: summed over n columns they grow as n^(3/2) u and
    would stand far above the defect they bound. With one sector (n < 2, or
    a not symmetric under the leg permutations) Q = 1 and the bounds are
    those of the symmetric part of a, plus its skew part.
    """
    theta = split.basis_defect
    # c: the most terms of a sum in the block products, at most the largest orbit
    c = max(s.orbit_terms for s in split.sectors)
    a_frob = split.norm / (1.0 - theta - _gamma(2 * c) * c * (1.0 + theta))
    blocks = split.blocks
    # per block, in split order
    factors, rho, frob, gram, skew = ([None] * len(blocks) for _ in range(5))
    for j in sorted(range(len(blocks)), key=lambda j: -blocks[j].shape[0]):
        b, blocks[j] = blocks[j], None
        serves = split.serves[j]
        # eigh reads one triangle: solve the symmetric part and drop the skew part
        drop = 0.5 * _symmetrize(b)
        if len(serves) > 1:
            # B_T = M + Delta_T over the k partners, M = b, sum_T Delta_T = 0, so
            # sum_T ||skew M + Delta_T||^2 = k ||skew M||^2 + sum_T ||Delta_T||^2
            drop = math.hypot(math.sqrt(len(serves)) * drop, split.spread[j])
        b = b if b.flags.c_contiguous else b.T  # symmetric now: its C-ordered view
        n, diag = b.shape[0], b.diagonal()
        # a diagonal block is its own eigendecomposition, and nothing below rounds
        diagonal = np.count_nonzero(b) == np.count_nonzero(diag)
        if diagonal:
            perm = np.argsort(diag, kind="stable")
            w, y = diag[perm], np.eye(n)[:, perm]
        else:
            _release_free_heap()  # the solve's workspace is then all new pages
            w, y = np.linalg.eigh(b)
            _release_free_heap()  # and none of it stays resident for the residual
        g = y.T @ y
        g.flat[:: n + 1] -= 1.0
        gram_b = _frobenius(g)
        del g
        nu_b = math.sqrt(1.0 + gram_b)  # >= ||y|| for every column of this solve
        r = b @ y
        for k in range(0, n, CHUNK_COLUMNS):  # r -= y * w, with no n x n product
            r[:, k : k + CHUNK_COLUMNS] -= y[:, k : k + CHUNK_COLUMNS] * w[k : k + CHUNK_COLUMNS]
        rho_b = np.sqrt(np.einsum("ij,ij->j", r, r))
        frob_b = _frobenius(r)
        del r
        if not diagonal:
            sigma = _abs_row_sum_max(b)
            rounding = (_gamma(n) + _gamma(max(3, len(serves) + 1))) * sigma
            rounding = rounding + UNIT_ROUNDOFF * np.abs(w)
            rho_b = (1.0 + _gamma(n + 3)) * rho_b + rounding * nu_b
        del b, diag  # the residual was the block's last reader
        gain = max(split.sectors[s].abs_gain for s in serves)
        rho_b = rho_b + _gamma(2 * c) * gain * a_frob * nu_b
        factors[j] = SectorFactor(w, y, tuple(split.sectors[s] for s in serves))
        rho[j], frob[j], gram[j], skew[j] = rho_b, frob_b, gram_b, drop
    blocks.clear()
    # one entry per sector served
    rho, frob, gram = (
        [x for x, fac in zip(xs, factors) for _ in fac.sectors] for xs in (rho, frob, gram)
    )
    vals = np.concatenate([fac.values for fac in factors for _ in fac.sectors])
    rho = np.concatenate(rho)
    e = np.concatenate(
        [np.full(fac.values.size, s.lift_error) for fac in factors for s in fac.sectors]
    )
    order = _served_order(factors)
    o = max(gram)
    nu = np.sqrt(1.0 + o)
    dropped = split.cross_norm + np.linalg.norm(skew)
    lam = np.abs(vals)
    kappa = 1.0 / np.sqrt(1.0 - theta)
    # ||S_s|| <= (nu max|lambda| + ||R_s||_F) / sigma_min(Y_s), with sigma_min^2
    # >= 1 - o, and ||a|| <= ||Q^-1||^2 ||Q^T a Q|| <= (max_s ||S_s|| + dropped) / (1 - theta)
    norm_s = (nu * lam.max() + max(frob)) / np.sqrt(1.0 - o) if o < 1.0 else np.inf
    norm_a = (norm_s + dropped) / (1.0 - theta)
    lift_err = e * nu * (norm_a + lam) if e.any() else np.zeros_like(lam)
    residuals = kappa * (rho + (dropped + theta * lam) * nu) + lift_err
    residual_norm = kappa * (
        np.linalg.norm(frob) + (dropped + theta * np.linalg.norm(lam)) * nu
    ) + np.linalg.norm(lift_err)
    # V^T V - 1 = (Y^T Y - 1) + Y^T Delta Y + the cross terms of the lift rounding F,
    # with ||F||_F <= nu ||e||, ||Q Y|| <= sqrt(1 + theta) nu and ||Delta||_F <= theta sqrt(dim)
    f = np.linalg.norm(e)
    orthogonality = np.linalg.norm(gram) + nu**2 * (
        theta * np.sqrt(lam.size) + f * (2.0 * np.sqrt(1.0 + theta) + f)
    )
    return SectorEigh(
        vals[order],
        None,
        residuals[order],
        float(residual_norm),
        float(orthogonality),
        split.diagnostics(),
        tuple(factors),
    )


def solve_budget(window: Window, n: int) -> int:
    """The bytes of the sector split and solves of an n-particle H on window, within the budget.

    `model.split_bytes` of its irrep blocks, checked by `lattice.within_budget`.
    Every solve checks it before its H is built: `cli._solve`, `eigh`,
    `cluster_spectrum` and the resolvent workspace (`resolvent.workspace_bytes`).
    """
    d = window.n_sites
    return within_budget(
        split_bytes(irrep_dims(d, n), d**n), f"the sector split and solves at N = {n}, L = {window.L}"
    )


def split_operator(op: OperatorMatrix) -> SectorSplit:
    """op's S_N sector split, after the symmetry gate of every dense solve.

    The one path from an operator to `sector_eigh`: a caller that can drop
    op does so before the solves (`split = split_operator(h); del h`). The
    caller has checked the split and its solves against the memory budget
    (`solve_budget`) before it built op.
    """
    if op.symmetry_defect() > 1e-12:
        raise ValueError("matrix is not symmetric")
    _release_free_heap()  # none of the build's freed temporaries stays resident
    return split_by_symmetry(op.matrix, op.window.n_sites, op.n_particles)


def eigh(op: OperatorMatrix) -> SectorEigh:
    """Full dense symmetric eigendecomposition, solved in the S_N sectors (`sector_eigh`).

    Its factors, and every column lifted by `lift_states` as the dense
    `eigenvectors`: the small-size oracle. `op` stays referenced through the
    solve, which is checked against the memory budget (`solve_budget`) first.
    """
    solve_budget(op.window, op.n_particles)
    res = sector_eigh(split_operator(op))
    return res._replace(eigenvectors=lift_states(res, np.arange(op.dim)))


def enumerate_set_partitions(n: int) -> list:
    """All set partitions of {1..N}, ordered by block count then lexicographically."""
    if n > 8:
        raise ValueError("N too large for exhaustive set-partition enumeration")

    def rec(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for sub in rec(rest):
            for i in range(len(sub)):
                yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
            yield [[first]] + sub

    parts = [
        ClusterDecomposition(tuple(tuple(sorted(b)) for b in sorted(p, key=min)))
        for p in rec(list(range(1, n + 1)))
    ]
    return sorted(parts, key=lambda d: (d.n_blocks, d.canonical()))


def cluster_spectrum(params: ModelParams, window: Window) -> ClusterSpectrum:
    """Union over integer partitions of Minkowski sums of smaller-N spectra."""
    if params.N < 2:
        raise ValueError("cluster spectrum needs N >= 2")
    partitions = [p for p in enumerate_integer_partitions(params.N) if p != (params.N,)]
    needed = sorted({part for p in partitions for part in p})
    interior_spectra = {}
    for n_sub in needed:
        sub = params.with_n(n_sub)
        solve_budget(window, n_sub)
        # H and its split are temporaries: neither outlives its last reader
        res = sector_eigh(split_operator(build_hamiltonian(sub, window, "stark")))
        interior_spectra[n_sub] = res.eigenvalues[interior_mask(res, sub, window, "stark")]
    points = []
    gens = []
    for p in partitions:
        total = np.zeros(1)
        for part in p:
            total = np.add.outer(total, interior_spectra[part]).ravel()
        points.append(total)
        gens.extend([p] * total.size)
    allpts = np.concatenate(points)
    order = np.argsort(allpts, kind="stable")
    allpts = allpts[order]
    gens = [gens[i] for i in order]
    keep_pts, keep_gens = [], []
    for val, g in zip(allpts, gens):
        if keep_pts and val - keep_pts[-1] <= DEDUP_TOL:
            continue
        keep_pts.append(val)
        keep_gens.append(g)
    return ClusterSpectrum(np.array(keep_pts), keep_gens)


def dist_to_cluster(lam: float, sigma: ClusterSpectrum) -> float:
    if sigma.points.size == 0:
        raise ValueError("empty cluster spectrum")
    return float(np.min(np.abs(sigma.points - lam)))
