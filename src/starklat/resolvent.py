"""Cluster-expansion resolvent algebra: chains, I(z), D(z), functional equation.

Every cluster Hamiltonian H_D is a Kronecker sum of its block Hamiltonians,
and a block of k particles acts on its legs as H^(k), the k-particle
Hamiltonian of the same model. So with one eigendecomposition
H^(k) = U_k diag(eps_k) U_k^T per block size,

    G_D(z) = W diag(1 / (z - sum_b eps_b)) W^T,   W = (x)_b U_b,

applied leg-wise; the couplings V_{D,D'} act on leg pairs through the one
two-site operator. The N-particle block, which only the full partition has,
is applied from its S_N sector factors, G = sum_s Q_s Y_s diag(1 / (z - eps))
Y_s^T Q_s^T, with no dim x dim U formed. D(z) and I(z) come from a single
pass over the chain tree, one chain per orbit of the particle relabellings
that leave H invariant.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .model import (
    CapacityError,
    ModelParams,
    PairPotential,
    Window,
    _frobenius,
    _sparse_times,
    apply_on_legs,
    build_hamiltonian,
    split_by_symmetry,
    two_site_operator,
)
from .spectra import (
    DENSE_CAP,
    ClusterDecomposition,
    SectorEigh,
    dense_symmetric,
    enumerate_set_partitions,
    sector_eigh,
)

RESIDUAL_TOL = 1e-10
COND_CAP = 1e12
POWER_STEPS = 30
COMPACT_REL_TOL = 1e-6  # singular values below this fraction of the largest count as dropped
FREDHOLM_THRESHOLD = 1e-3  # |mu - 1| below which an eigenvalue mu of I(z) flags z


@dataclass(frozen=True)
class DecompositionChain:
    """Strictly coarsening sequence of partitions, starting from all singletons."""

    sequence: tuple

    def __post_init__(self):
        if not self.sequence:
            raise ValueError("empty chain")
        first = self.sequence[0]
        if first.n_blocks != first.n_particles:
            raise ValueError("chains must start at the all-singletons partition")
        for a, b in zip(self.sequence, self.sequence[1:]):
            if not b.is_coarser_than(a):
                raise ValueError("chain steps must strictly coarsen")

    @property
    def k_s(self) -> int:
        return self.sequence[-1].n_blocks

    @property
    def is_single_merge(self) -> bool:
        """Block count drops by exactly one at every step."""
        return all(
            a.n_blocks - b.n_blocks == 1
            for a, b in zip(self.sequence, self.sequence[1:])
        )


def enumerate_chains(n: int, terminal: str = "all") -> list:
    """Every strictly coarsening chain from the singleton partition.

    terminal = "connected_only" keeps chains ending in a single block (these
    index I(z)); "all" returns the rest too (k_s >= 2 chains index D(z)).
    """
    if n > 5:
        raise ValueError("chain enumeration limited to N <= 5")
    if terminal not in ("all", "connected_only"):
        raise ValueError(f"unknown terminal mode {terminal!r}")
    parts = enumerate_set_partitions(n)
    start = ClusterDecomposition(tuple((i,) for i in range(1, n + 1)))

    def extend(chain):
        yield chain
        for p in parts:
            if p.is_coarser_than(chain[-1]):
                yield from extend(chain + (p,))

    chains = [DecompositionChain(c) for c in extend((start,))]
    if terminal == "connected_only":
        chains = [c for c in chains if c.k_s == 1]
    chains.sort(key=lambda c: (len(c.sequence), tuple(d.canonical() for d in c.sequence)))
    return chains


def _new_pairs(d_fine: ClusterDecomposition, d_coarse: ClusterDecomposition) -> list:
    """0-based leg pairs (i < j) joined by the coarsening step."""
    if not d_coarse.is_coarser_than(d_fine):
        raise ValueError("partitions are not strictly comparable")

    def intra(dec):
        out = set()
        for b in dec.blocks:
            bs = sorted(b)
            for i in range(len(bs)):
                for j in range(i + 1, len(bs)):
                    out.add((bs[i] - 1, bs[j] - 1))
        return out

    return sorted(intra(d_coarse) - intra(d_fine))


def _power_norm(a: np.ndarray, v: np.ndarray) -> float:
    v = v / np.linalg.norm(v)
    est = 0.0
    for _ in range(POWER_STEPS):
        v = ((a @ v).conj() @ a).conj()  # A^H (A v) with no conjugate copy of A
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return 0.0
        est, v = np.sqrt(nv), v / nv
    return float(est)


def operator_norm(a: np.ndarray) -> float:
    """2-norm estimate (a lower bound): power iteration on A*A.

    Starts from the all-ones vector; if the iterate collapses because that
    vector is orthogonal to the row space, restarts from a fixed-seed random
    vector, so a nonzero matrix does not come out as 0.
    """
    est = _power_norm(a, np.ones(a.shape[1], dtype=complex))
    if est == 0.0:
        rng = np.random.default_rng(0)
        est = _power_norm(a, rng.standard_normal(a.shape[1]) + 0j)
    return est


@dataclass(frozen=True)
class FactoredResolvent:
    """G_D(z) = W diag(delta) W^T, with W = (x)_b U_b over the blocks of D."""

    blocks: tuple  # (legs, SectorEigh of H^(k)) per block; legs sorted and 0-based
    # 1 / (z - sum_b eps_b), flat over the window grid; for the N-particle
    # block, 1 / (z - eps) over its factors' values in factor order
    delta: np.ndarray
    residual_bound: float  # upper bound on ||(z - H_D) G_D - 1||


@dataclass
class ResolventWorkspace:
    """Cache of the block factors, the pair operator and the factored G_D(z)."""

    params: ModelParams
    window: Window
    basis: str = "stark"
    cache: dict = field(default_factory=dict)

    def __post_init__(self):
        # every G_D, D and I is a dense dim x dim complex matrix
        if self.dim > DENSE_CAP:
            raise CapacityError(
                f"dimension {self.dim} above the dense cap {DENSE_CAP} of the workspace"
            )

    @property
    def dim(self) -> int:
        return self.window.n_sites**self.params.N

    def block(self, k: int) -> SectorEigh:
        """Eigendecomposition of H^(k), shared by every block of k particles.

        `spectra.sector_eigh` of H^(k), unless H^(k) is diagonal: then U = 1
        exactly, with its diagonal in index order, `eigenvectors` None, no
        factors and zero defects. Blocks with k < N are lifted to their
        d^k x d^k U; the k = N block keeps its sector factors.
        """
        key = ("U", k)
        if key not in self.cache:
            op = build_hamiltonian(self.params.with_n(k), self.window, self.basis)
            diag = op.matrix.diagonal()
            if np.count_nonzero(op.matrix.data) == np.count_nonzero(diag):
                self.cache[key] = SectorEigh(diag, None, np.zeros_like(diag), 0.0, 0.0, {})
            else:
                a = dense_symmetric(op)
                del op, diag  # no reference to the sparse H^(k) through the dense solve
                self.cache[key] = sector_eigh(
                    a, self.window.n_sites, k, lift=k < self.params.N
                )
        return self.cache[key]

    def sector_columns(self) -> Optional[tuple]:
        """(Q^T, Q) as CSR over the sectors the N-block's factors serve, in factor order.

        None when the factors serve the one whole-space sector (Q = 1).
        """
        key = ("Q",)
        if key not in self.cache:
            qts = [s.qt for f in self.block(self.params.N).factors for s in f.sectors]
            if qts[0] is None:
                self.cache[key] = None
            else:
                qt = sp.vstack(qts, format="csr")
                self.cache[key] = (qt, qt.T.tocsr())
        return self.cache[key]

    def two_site(self) -> np.ndarray:
        """The d^2 x d^2 pair operator, applied on every leg pair (i < j)."""
        key = ("V2",)
        if key not in self.cache:
            self.cache[key] = two_site_operator(self.params, self.window, self.basis).toarray()
        return self.cache[key]

    def factor(self, dec: ClusterDecomposition, z: complex) -> FactoredResolvent:
        """G_D(z) in factored form, after the near-spectrum and residual gates."""
        key = ("F", dec.canonical(), complex(z))
        if key in self.cache:
            return self.cache[key]
        d, n = self.window.n_sites, self.params.N
        blocks = tuple(
            (tuple(i - 1 for i in legs), self.block(len(legs))) for legs in dec.canonical()
        )
        if blocks[0][1].factors:  # the N-particle block
            energy = np.concatenate([s.values for s in blocks[0][1].factors])
        else:
            energy = np.zeros((d,) * n)
            for legs, f in blocks:
                others = tuple(ax for ax in range(n) if ax not in legs)
                energy = energy + np.expand_dims(f.eigenvalues.reshape((d,) * len(legs)), others)
        # gated before dividing, so a z on the spectrum raises and does not warn
        gap = z - energy
        dist = float(np.abs(gap).min())
        if dist * COND_CAP < 1.0:
            raise np.linalg.LinAlgError(f"z within {dist:.2e} of the truncated spectrum of H_D")
        delta = (1.0 / gap).ravel()
        delta_max = float(np.abs(delta).max())
        # (z - H_D) W diag(delta) W^T - 1 = (W W^T - 1) - R_W diag(delta) W^T with
        # R_W = sum_b R_b (x) U_others and R_b = H_b U_b - U_b eps_b; bound each
        # factor by Frobenius norms, ||U_b||^2 <= 1 + ||U_b^T U_b - 1||
        u_norms = [math.sqrt(1.0 + f.orthogonality_defect) for _, f in blocks]
        w_norm = math.prod(u_norms)
        ortho = math.prod(1.0 + f.orthogonality_defect for _, f in blocks) - 1.0
        r_w = sum(f.residual_norm * w_norm / un for (_, f), un in zip(blocks, u_norms))
        bound = ortho + r_w * delta_max * w_norm
        if bound > RESIDUAL_TOL:
            raise np.linalg.LinAlgError(f"resolvent residual bound {bound:.2e}")
        self.cache[key] = FactoredResolvent(blocks, delta, bound)
        return self.cache[key]

    def apply_resolvent(self, dec: ClusterDecomposition, z: complex, x: np.ndarray) -> np.ndarray:
        """G_D(z) x = W diag(delta) W^T x, one block's legs at a time.

        The N-particle block is applied from its sector factors instead: one
        sparse Q^T product, then per solve Y^T, delta and Y on the rows of
        every sector it serves (stacked, so a remainder pair is one batch),
        then one sparse Q product.
        """
        d, n = self.window.n_sites, self.params.N
        f = self.factor(dec, z)
        factors = f.blocks[0][1].factors
        if factors:
            q = self.sector_columns()
            x = (
                np.array(x, dtype=complex, order="C")
                if q is None
                else _sparse_times(q[0], np.asarray(x, dtype=complex))
            )
            x = _solve_in_sectors(factors, f.delta, x)
            return x if q is None else _sparse_times(q[1], x)
        for legs, b in f.blocks:
            if b.eigenvectors is not None:
                x = apply_on_legs(b.eigenvectors.T, x, legs, d, n)
        x = f.delta[:, None] * x
        for legs, b in f.blocks:
            if b.eigenvectors is not None:
                x = apply_on_legs(b.eigenvectors, x, legs, d, n)
        return x

    def apply_coupling(
        self, d_fine: ClusterDecomposition, d_coarse: ClusterDecomposition, x: np.ndarray
    ) -> np.ndarray:
        """V_{D,D'} x: the two-site operator on each leg pair the step joins."""
        d, n = self.window.n_sites, self.params.N
        v2 = self.two_site()
        first, *rest = _new_pairs(d_fine, d_coarse)
        out = apply_on_legs(v2, x, first, d, n)
        for legs in rest:
            out += apply_on_legs(v2, x, legs, d, n)
        return out


def _solve_in_sectors(factors: tuple, delta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Y diag(delta) Y^T on the rows of every sector each solve serves, in place.

    x is a C-ordered complex block in sector coordinates (the factors'
    sectors stacked in order); delta runs over the factors' values.
    """
    xr, start, first = x.view(np.float64), 0, 0
    # one buffer for every solve's Y^T product: a fresh one per solve
    # page-faulted on each call at dim 625 and made G slower than the lifted U
    buf = np.empty(max(fac.values.size * len(fac.sectors) for fac in factors) * xr.shape[1])
    for fac in factors:
        m, r = fac.values.size, len(fac.sectors)
        rows = xr[start : start + r * m].reshape(r, m, -1)
        t = np.matmul(fac.vectors.T, rows, out=buf[: rows.size].reshape(rows.shape))
        scaled = t.view(complex)
        scaled *= delta[first : first + m, None]
        np.matmul(fac.vectors, t, out=rows)
        start, first = start + r * m, first + m
    return x


def even_potential(potential: PairPotential) -> bool:
    """v(n) = v(-n) exactly: every analytic kind reads |n|, a table must equal its mirror."""
    if potential.kind != "tabulated":
        return True
    return all(v == potential.table.get(-k, 0.0) for k, v in potential.table.items())


@functools.cache
def chain_orbits(n: int, even: bool) -> tuple:
    """The expansion's chains, one (representative, images) pair per orbit, in key order.

    The chains are the single-merge ones with k_s >= 2, keyed by their
    canonical partitions. With an even v every particle relabelling pi maps
    H_D to P H_D P^T and V_{D,D'} to P V_{D,D'} P^T, so chain pi.c contributes
    P X_c P^T when c contributes X_c; with any other v the group is trivial
    and every chain is its own orbit. The representative is the orbit's
    smallest key: if pi.parent < parent then pi.c < c, so the representatives
    are closed under prefixes. `images` holds one tensor axis order per
    distinct image, the identity first, for X of shape (d,) * 2n.
    """

    def key(c):
        return tuple(p.canonical() for p in c.sequence)

    # the resummation telescopes exactly over one-merge-per-step chains;
    # admitting coarser jumps double-counts graphs and breaks G = D + I G
    chains = sorted(
        (c for c in enumerate_chains(n, "all") if c.is_single_merge and c.k_s >= 2), key=key
    )
    perms = list(itertools.permutations(range(n))) if even else [tuple(range(n))]
    orbits = []
    for c in chains:
        images = {}
        for perm in perms:  # particle i + 1 becomes perm[i] + 1, leg i becomes leg perm[i]
            image = tuple(
                ClusterDecomposition(tuple(tuple(perm[i - 1] + 1 for i in b) for b in p.blocks))
                .canonical()
                for p in c.sequence
            )
            inverse = tuple(int(a) for a in np.argsort(perm))
            images.setdefault(image, inverse + tuple(n + a for a in inverse))
        if min(images) == key(c):
            orbits.append((c, tuple(images.values())))
    return tuple(orbits)


def _add_images(acc: np.ndarray, x: np.ndarray, images: tuple, shape: tuple) -> None:
    """acc += P x P^T for each image, a strided add on the (d,) * 2n views."""
    acc_t, x_t = acc.reshape(shape), x.reshape(shape)
    for axes in images:
        acc_t += x_t.transpose(axes)


def expansion(z: complex, ws: ResolventWorkspace) -> tuple:
    """(D(z), I(z)) in one pass over the representatives of the chain tree.

    Each node's prefix P = G_{D_0} V ... G_{D_k} is computed once, as its
    transpose G_{D_k} V ... G_{D_0} (every H_D and V is real symmetric), so
    each step is a left product on the row legs. A node with >= 2 blocks adds
    P to D; one with exactly 2 blocks adds P V_{D_k, full} to I. Each term is
    added once per image of its chain (`chain_orbits`); conjugation by a leg
    permutation commutes with the transpose.
    """
    n = ws.params.N
    if n < 2:
        raise ValueError("the expansion needs N >= 2")
    full = ClusterDecomposition((tuple(range(1, n + 1)),))
    shape = (ws.window.n_sites,) * (2 * n)
    orbits = chain_orbits(n, even_potential(ws.params.potential))
    # the first chain is the root; in lexicographic order every later chain
    # extends a prefix of the one before it, so `path` keeps just the prefixes
    # the next chain extends, and drops the rest before the I term is built
    root = orbits[0][0].sequence[0]
    q = ws.apply_resolvent(root, z, np.eye(ws.dim, dtype=complex))
    path = [(root, q)]
    d_t, i_t = q.copy(), np.zeros(q.shape, dtype=complex)  # no page of i_t touched until added to
    next_lengths = [len(c.sequence) for c, _ in orbits[1:]] + [1]
    for (c, images), next_length in zip(orbits, next_lengths):
        dec = c.sequence[-1]
        if len(c.sequence) > 1:
            del q
            q = ws.apply_resolvent(dec, z, ws.apply_coupling(path[-1][0], dec, path[-1][1]))
            path.append((dec, q))
            _add_images(d_t, q, images, shape)
        del path[next_length - 1 :]
        if dec.n_blocks == 2:
            _add_images(i_t, ws.apply_coupling(dec, full, q), images, shape)
    return d_t.T, i_t.T


def build_I(z: complex, ws: ResolventWorkspace) -> np.ndarray:
    """I(z): sum over connected chains, no trailing resolvent."""
    return expansion(z, ws)[1]


def build_D(z: complex, ws: ResolventWorkspace) -> np.ndarray:
    """D(z): sum over k_s >= 2 chains, each ending in its cluster resolvent."""
    return expansion(z, ws)[0]


@dataclass
class FunctionalEquation:
    """D and I at one z, with the numbers behind the verdict."""

    z: complex
    d: np.ndarray
    i: np.ndarray
    residual: float  # ||G - D - I G||_F, an upper bound on the 2-norm
    dist_to_spectrum: float  # min |z - eps| over the spectrum of the full H
    resolvent_residual_bound: float  # largest per-partition residual bound


def _identity_minus_transpose(i: np.ndarray) -> np.ndarray:
    x = np.negative(i.T)  # the expansion's own accumulator, C-ordered
    x.flat[:: x.shape[0] + 1] += 1.0
    return x


def functional_equation(
    z: complex, ws: ResolventWorkspace, d: np.ndarray, i: np.ndarray
) -> FunctionalEquation:
    """Measure R = G - D - I G for (D, I) = expansion(z, ws) without forming G.

    G is complex symmetric (H is real symmetric), so R^T = G (1 - I^T) - D^T:
    one resolvent applied to the block 1 - I^T, and ||R||_F = ||R^T||_F.
    """
    n = ws.params.N
    full = ClusterDecomposition((tuple(range(1, n + 1)),))
    # no reference is kept here, so apply_resolvent frees the block after its first leg product
    r = ws.apply_resolvent(full, z, _identity_minus_transpose(i))
    r -= d.T
    return FunctionalEquation(
        complex(z),
        d,
        i,
        _frobenius(r),
        float(np.abs(z - ws.block(n).eigenvalues).min()),
        max(ws.factor(p, z).residual_bound for p in enumerate_set_partitions(n)),
    )


def functional_equation_residual(
    z: complex, params: ModelParams, window: Window, ws: Optional[ResolventWorkspace] = None
) -> float:
    """Frobenius norm of G - D - I G at truncation: a bound on its 2-norm."""
    ws = ws or ResolventWorkspace(params, window)
    return functional_equation(z, ws, *expansion(z, ws)).residual


@dataclass
class CompactnessReport:
    singular_values: np.ndarray
    k_drop: Optional[int]
    passed: bool
    sectors: dict = field(default_factory=dict)  # SectorSplit.diagnostics of the SVD


def compactness_proxy(i_matrix: np.ndarray, tensor: tuple = (1, 1)) -> CompactnessReport:
    """Singular value decay of I(z) as the finite-size compactness witness.

    `tensor` = (d, n) says I(z) acts on the d^n tensor index; for n >= 2 the
    SVD runs in the S_N sectors, which moves each singular value by at most
    the reported cross norm, plus half the pair defect when one SVD serves
    both N = 3 remainders (and a relative basis defect of a few 1e-16).
    """
    split = split_by_symmetry(i_matrix, *tensor)
    s = np.concatenate(
        [
            np.tile(np.linalg.svd(b, compute_uv=False), len(serves))
            for b, serves in zip(split.blocks, split.serves)
        ]
    )
    s = np.sort(s)[::-1]
    sectors = split.diagnostics()
    if s.size == 0 or s[0] == 0.0:
        return CompactnessReport(s, 0, True, sectors)
    below = np.nonzero(s <= COMPACT_REL_TOL * s[0])[0]
    k = int(below[0]) if below.size else None
    passed = k is not None and k < s.size / 2
    return CompactnessReport(s, k, passed, sectors)


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
    ws: Optional[ResolventWorkspace] = None,
) -> list:
    """Locate z with 1 in the spectrum of I(z); flags should track eigenvalues of H."""
    ws = ws or ResolventWorkspace(params, window)
    h_eigs = ws.block(params.N).eigenvalues
    out = []
    for z in z_grid:
        # I(z) is not normal, so no Weyl bound applies to its eigenvalues; the
        # dropped blocks (and a pair's half difference) are at most
        # SECTOR_TOL ||I||_F, a roundoff-size change of I
        split = split_by_symmetry(build_I(complex(z), ws), window.n_sites, params.N)
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
