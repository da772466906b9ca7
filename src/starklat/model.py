"""Truncated Hamiltonians: free part, pair interaction, cluster variants, symmetrizer.

All operators act on the tensor-product window [-L, L]^N with lexicographic
flat indexing, one leg per particle; H0 and the interaction are sums of a
one-site and a two-site operator lifted onto legs by `embed_on_legs`. The
stark-basis two-site kernel is assembled by a congruence transform of the
position-basis multiplication operator through the single-particle
eigenbasis matrix of Bessel overlaps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import specfun

N_MAX = 4
NNZ_CAP = 2**24
DROP_TOL = 1e-14
SECTOR_TOL = 1e-13  # largest ||cross block||_F / ||A||_F a swap-sector split may drop
UNIT_ROUNDOFF = 2.0**-53
# ||Q^T Q - 1||_2 of a swap-sector lift: |2 c^2 - 1| for its coefficient c = fl(sqrt(1/2)),
# exact in integer arithmetic (c = m 2^-53)
_COEF_MANTISSA = int(math.sqrt(0.5) * 2**53)
COEF_DEFECT = abs(2 * _COEF_MANTISSA**2 - 2**106) / 2**106

POTENTIAL_KINDS = ("nearest_neighbor", "exponential", "power_law", "tabulated")
STATISTICS = ("distinguishable", "boson", "fermion")
BASES = ("position", "stark")


@dataclass(frozen=True)
class PairPotential:
    """Bounded, decaying pair potential v(n)."""

    kind: str = "nearest_neighbor"
    strength: float = 1.0
    decay: float = 1.0
    table: Optional[dict] = None

    def __post_init__(self):
        if self.kind not in POTENTIAL_KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "power_law" and self.decay < 1.0:
            raise ValueError("power-law exponent must be >= 1")
        if self.kind == "tabulated":
            if not self.table:
                raise ValueError("tabulated potential needs a table")
            if any(not math.isfinite(v) for v in self.table.values()):
                raise ValueError("tabulated potential must be bounded")

    def value(self, n: int) -> float:
        return float(self.values(np.asarray([n]))[0])

    def values(self, n: np.ndarray) -> np.ndarray:
        n = np.asarray(n)
        a = np.abs(n)
        if self.kind == "nearest_neighbor":
            return np.where(a == 1, self.strength, 0.0)
        if self.kind == "exponential":
            return self.strength * np.exp(-self.decay * a)
        if self.kind == "power_law":
            return self.strength / (1.0 + a) ** self.decay
        out = np.zeros(n.shape, dtype=float)
        for k, v in self.table.items():
            out[n == int(k)] = v
        return out

    @property
    def is_symmetric(self) -> bool:
        if self.kind != "tabulated":
            return True
        return all(self.table.get(-k, 0.0) == v for k, v in self.table.items())

    @property
    def sup_norm(self) -> float:
        if self.kind == "tabulated":
            return max(abs(v) for v in self.table.values())
        return abs(self.strength)


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of H^(N)."""

    g: float
    h: float
    N: int
    potential: PairPotential = field(default_factory=PairPotential)
    statistics: str = "distinguishable"

    def __post_init__(self):
        if abs(self.h) < specfun.H_MIN:
            raise ValueError(f"|h| must be >= {specfun.H_MIN:g} (Stark condition)")
        if not (1 <= self.N <= N_MAX):
            raise ValueError(f"N must be in [1, {N_MAX}]")
        if self.statistics not in STATISTICS:
            raise ValueError(f"unknown statistics {self.statistics!r}")
        if self.statistics != "distinguishable" and not self.potential.is_symmetric:
            raise ValueError("(anti)symmetric statistics require v(n) = v(-n)")

    @property
    def x(self) -> float:
        return self.g / self.h

    def with_n(self, n: int) -> "ModelParams":
        return ModelParams(self.g, self.h, n, self.potential, self.statistics)


@dataclass(frozen=True)
class Window:
    """Single-particle truncation window [-L, L] plus the interior margin."""

    L: int
    interior_margin: int

    def __post_init__(self):
        if self.L < 1:
            raise ValueError("window too small")
        if not (0 <= self.interior_margin <= self.L):
            raise ValueError("interior_margin must be in [0, L]")

    @property
    def n_sites(self) -> int:
        return 2 * self.L + 1


def dimension(window: Window, n_particles: int) -> int:
    return window.n_sites**n_particles


def site_range(window: Window) -> np.ndarray:
    return np.arange(-window.L, window.L + 1)


def flat_to_tuples(window: Window, n_particles: int) -> np.ndarray:
    """(dim, N) array of index tuples in lexicographic flat order."""
    d = window.n_sites
    dim = d**n_particles
    idx = np.arange(dim)
    out = np.empty((dim, n_particles), dtype=np.int64)
    for k in range(n_particles - 1, -1, -1):
        out[:, k] = idx % d - window.L
        idx //= d
    return out


def tuple_to_flat(window: Window, coords: np.ndarray) -> np.ndarray:
    coords = np.asarray(coords)
    d = window.n_sites
    n = coords.shape[-1]
    strides = d ** np.arange(n - 1, -1, -1)
    return (coords + window.L) @ strides


@dataclass
class OperatorMatrix:
    """Truncated symmetric operator with its basis tag and index map."""

    basis_tag: str
    window: Window
    n_particles: int
    matrix: sp.spmatrix

    def __post_init__(self):
        if self.basis_tag not in BASES:
            raise ValueError(f"unknown basis {self.basis_tag!r}")
        self.matrix = sp.csr_matrix(self.matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()

    def symmetry_defect(self) -> float:
        """max |H - H^T| over the entries.

        When H and the canonical CSR of H^T store the same pattern, their data
        line up entry by entry, so no sparse H - H^T is formed.
        """
        h = self.matrix
        t = h.T.tocsr()
        t.sort_indices()
        if np.array_equal(h.indptr, t.indptr) and np.array_equal(h.indices, t.indices):
            if h.nnz == 0:
                return 0.0
            d = t.data
            d -= h.data
            return float(np.abs(d, out=d).max())
        # the patterns differ: H is not symmetric, so the rare full difference is paid
        delta = h - t
        return 0.0 if delta.nnz == 0 else float(np.abs(delta.data).max())

    def export_coo_csv(self, path) -> None:
        coo = self.matrix.tocoo()
        with open(path, "w", newline="\n") as fh:
            fh.write("row,col,value\n")
            for r, c, v in zip(coo.row, coo.col, coo.data):
                fh.write(f"{r},{c},{v:.17g}\n")

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if (self.basis_tag, self.window, self.n_particles) != (
            other.basis_tag,
            other.window,
            other.n_particles,
        ):
            raise ValueError("operator metadata mismatch")
        return OperatorMatrix(
            self.basis_tag, self.window, self.n_particles, self.matrix + other.matrix
        )


class CapacityError(ValueError):
    """A problem size above a fixed capacity limit: a configuration error, not a failed check."""


def _check_caps(window: Window, n_particles: int) -> None:
    dim = dimension(window, n_particles)
    if dim * (2 * n_particles + 1) > NNZ_CAP:
        raise CapacityError(
            f"dimension {dim} exceeds the configured nonzero cap; shrink L or N"
        )


def stark_basis_matrix(params: ModelParams, window: Window, pad: int = 0) -> np.ndarray:
    """Xi[j, m] = J_{m-j}(g/h); rows j in [-L-pad, L+pad], columns m in [-L, L]."""
    x = params.x
    lp = window.L + pad
    rows = []
    for j in range(-lp, lp + 1):
        rows.append(specfun.bessel_row(-j, -window.L, window.L, x)[::-1])
    # bessel_row(m=-j, ...) gives J_{-j-k}; reversing maps to J_{m-j} over m
    out = np.array(rows)
    return out


def _kernel_pad(params: ModelParams) -> int:
    return int(math.ceil(2.0 * abs(params.x))) + 20


def potential_matrix(params: ModelParams, half_width: int) -> np.ndarray:
    """v(j1 - j2) on [-half_width, half_width]^2."""
    j = np.arange(-half_width, half_width + 1)
    return params.potential.values(j[:, None] - j[None, :])


def two_site_kernel(params: ModelParams, window: Window) -> np.ndarray:
    """Dense stark-basis kernel V2[(n1,n2),(m1,m2)] via the Bessel transform."""
    pad = _kernel_pad(params)
    xi = stark_basis_matrix(params, window, pad=pad)  # (dp, d)
    vmat = potential_matrix(params, window.L + pad)  # (dp, dp)
    d = window.n_sites
    # A[(n,m), j] = Xi[j,n] * Xi[j,m]
    a = np.einsum("jn,jm->nmj", xi, xi).reshape(d * d, -1)
    b = a @ vmat @ a.T  # indexed (n1,m1),(n2,m2)
    k = b.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    k = 0.5 * (k + k.T)
    k[np.abs(k) < DROP_TOL] = 0.0
    return k


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


def one_site_operator(params: ModelParams, window: Window, basis: str) -> sp.coo_matrix:
    """One-particle H0 on [-L, L]: g*Delta - 2h*X (position, Dirichlet cut) or diag(-2h m)."""
    m = site_range(window)
    if basis == "stark":
        return sp.diags(-2.0 * params.h * m, format="coo")
    off = -params.g * np.ones(window.n_sites - 1)
    return sp.diags([off, -2.0 * params.h * m, off], [-1, 0, 1], format="coo")


def two_site_operator(params: ModelParams, window: Window, basis: str) -> sp.coo_matrix:
    """Two-particle interaction on [-L, L]^2: diag v(j1 - j2) (position) or the stark kernel.

    Returned as COO, the form `embed_on_legs` reads; a CSR copy of the dense
    stark kernel raised the peak RSS of an N=2, L=20 localization run by 5 MB.
    """
    if basis == "stark":
        return sp.coo_matrix(two_site_kernel(params, window))
    return sp.diags(potential_matrix(params, window.L).ravel(), format="coo")


def embed_on_legs(op, window: Window, n_particles: int, legs: tuple) -> sp.csr_matrix:
    """Lift a d^k x d^k operator onto the sorted 0-based legs, identity elsewhere.

    The operator's rows and columns index its k legs lexicographically, like
    the full tensor-product index.
    """
    d, k = window.n_sites, len(legs)
    if list(legs) != sorted(set(legs)) or not 0 <= legs[0] <= legs[-1] < n_particles:
        raise ValueError(f"invalid legs {legs!r} for {n_particles} particles")
    if op.shape != (d**k, d**k):
        raise ValueError(f"operator shape {op.shape} does not match {k} legs")
    coo = sp.coo_matrix(op)
    strides = d ** np.arange(n_particles - 1, -1, -1)
    leg_strides = strides[list(legs)]
    rows = leg_strides @ np.unravel_index(coo.row, (d,) * k)
    cols = leg_strides @ np.unravel_index(coo.col, (d,) * k)
    # offsets of every site tuple on the other legs, where the lift is the identity
    rest = np.zeros(1, dtype=np.int64)
    for leg in range(n_particles):
        if leg not in legs:
            rest = (rest[:, None] + np.arange(d) * strides[leg]).ravel()
    rows = (rows[:, None] + rest).ravel()
    cols = (cols[:, None] + rest).ravel()
    dim = d**n_particles
    return sp.coo_matrix((np.repeat(coo.data, rest.size), (rows, cols)), shape=(dim, dim)).tocsr()


def apply_on_legs(op: np.ndarray, x: np.ndarray, legs: tuple, d: int, n: int) -> np.ndarray:
    """Apply the real operator `op` to the row legs `legs` (sorted, 0-based) of x.

    x has d**n rows, one leg per particle in lexicographic order, and any
    number of columns; a complex x is handled as its real view, so each step
    is one real BLAS product.
    """
    if np.iscomplexobj(x):
        x = np.ascontiguousarray(x).view(np.float64)
        return apply_on_legs(op, x, legs, d, n).view(complex)
    k, a = len(legs), legs[0]
    if legs == tuple(range(a, a + k)):
        y = np.matmul(op, x.reshape(d**a, d**k, -1))
    else:
        t = x.reshape((d,) * n + (-1,))
        perm = list(legs) + [ax for ax in range(n + 1) if ax not in legs]
        y = op @ t.transpose(perm).reshape(d**k, -1)
        y = y.reshape([t.shape[ax] for ax in perm]).transpose(np.argsort(perm))
    return np.ascontiguousarray(y).reshape(x.shape)


@dataclass(frozen=True)
class Sector:
    """Orthonormal columns q_a = coef_a (e_rep_a + sign e_partner_a) of a leg-swap sector.

    `partner` is None for the whole space (Q = 1). A representative on the
    swap diagonal (m0 = m1) is its own partner, with coef 1/2, so its column
    is the unit vector e_rep.
    """

    rep: np.ndarray
    partner: Optional[np.ndarray]
    coef: np.ndarray
    sign: float

    @property
    def dim(self) -> int:
        return self.rep.size

    def lift(self, y: np.ndarray, out: np.ndarray, cols: np.ndarray) -> None:
        """Write Q y into the columns `cols` of out, which are zero before."""
        if self.partner is None:
            out[:, cols] = y
            return
        y = self.coef[:, None] * y
        out[self.rep[:, None], cols] = y
        if self.sign > 0:
            out[self.partner[:, None], cols] += y
        else:
            out[self.partner[:, None], cols] -= y


@dataclass(frozen=True)
class SectorSplit:
    """Sectors a dense solve runs in, Q^T a Q in each, and the norm of what is dropped."""

    sectors: tuple
    blocks: tuple
    cross_norm: float  # Frobenius norm of the dropped off-diagonal blocks

    def diagnostics(self) -> dict:
        return {"sector_dims": [s.dim for s in self.sectors], "cross_norm": self.cross_norm}


def swap_sectors(d: int, n: int) -> tuple:
    """Even and odd sectors of swapping legs 0 and 1 on the d^n tensor index (n >= 2).

    Representatives are the flat indices with m0 <= m1 (even) and m0 < m1
    (odd), in increasing order; each partner is the index with m0, m1 swapped.
    """
    idx = np.arange(d**n).reshape(d, d, -1)
    i, j = np.triu_indices(d)
    rep, partner = idx[i, j].ravel(), idx[j, i].ravel()
    coef = np.repeat(np.where(i == j, 0.5, math.sqrt(0.5)), idx.shape[2])
    off = rep != partner
    return (
        Sector(rep, partner, coef, 1.0),
        Sector(rep[off], partner[off], coef[off], -1.0),
    )


def _frobenius(x: np.ndarray) -> float:
    # an einsum over the real view; a BLAS dot (np.vdot, np.linalg.norm) of a
    # sector block ran 25x slower with two OpenBLAS threads than with one
    v = x.ravel().view(np.float64)
    return math.sqrt(np.einsum("i,i->", v, v))


def split_by_swap(a: np.ndarray, d: int, n: int) -> SectorSplit:
    """Split a into its two leg-0/1 swap sectors when it commutes with the swap.

    The off-diagonal blocks Q_+^T a Q_- and Q_-^T a Q_+ are what the split
    drops; by Weyl's inequality every eigenvalue (a symmetric) and singular
    value moves by at most their Frobenius norm. If that norm is above
    SECTOR_TOL times ||a||_F (a non-symmetric v, say) the whole space is the
    one sector, as it is for n < 2.
    """
    if n >= 2:
        even, odd = swap_sectors(d, n)
        # four sector-sized gathers over the even representatives r and their
        # partners p; the odd representatives are the even ones off the diagonal
        r, p, c = even.rep, even.partner, even.coef
        off = np.nonzero(r != p)[0]
        rr, pp = a[r[:, None], r], a[p[:, None], p]
        s1, d1 = rr + pp, rr - pp
        del rr, pp
        rp, pr = a[r[:, None], p], a[p[:, None], r]
        s2, d2 = rp + pr, pr - rp
        del rp, pr
        blocks = (c[:, None] * (s1 + s2) * c, 0.5 * (s1 - s2)[off[:, None], off])
        cross = math.sqrt(0.5) * math.hypot(
            _frobenius(c[:, None] * (d1 + d2)[:, off]), _frobenius((d1 - d2)[off] * c)
        )
        # Q is orthogonal, so ||a||_F^2 is the sum of the squared block norms
        if cross <= SECTOR_TOL * math.hypot(cross, *map(_frobenius, blocks)):
            return SectorSplit((even, odd), blocks, cross)
    whole = Sector(np.arange(a.shape[0]), None, np.ones(a.shape[0]), 1.0)
    return SectorSplit((whole,), (a,), 0.0)


def _leg_sum(op, window: Window, n_particles: int, leg_list: list) -> sp.csr_matrix:
    dim = dimension(window, n_particles)
    total = sp.csr_matrix((dim, dim))
    for legs in leg_list:
        total = total + embed_on_legs(op, window, n_particles, legs)
    return total


def pairs(n_particles: int) -> list:
    return list(itertools.combinations(range(n_particles), 2))


def build_h0(params: ModelParams, window: Window, basis: str) -> OperatorMatrix:
    """Free Hamiltonian: the one-site operator on every leg."""
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}")
    _check_caps(window, params.N)
    op = one_site_operator(params, window, basis)
    legs = [(k,) for k in range(params.N)]
    return OperatorMatrix(basis, window, params.N, _leg_sum(op, window, params.N, legs))


def build_interaction(
    params: ModelParams,
    window: Window,
    basis: str,
    pair_list: Optional[list] = None,
) -> OperatorMatrix:
    """Pair interaction summed over the given (default: all) particle pairs."""
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}")
    _check_caps(window, params.N)
    if pair_list is None:
        pair_list = pairs(params.N)
    # with no pair to place (N = 1, or an empty list) the operator is not needed
    op = two_site_operator(params, window, basis) if pair_list else None
    return OperatorMatrix(basis, window, params.N, _leg_sum(op, window, params.N, pair_list))


def build_hamiltonian(params: ModelParams, window: Window, basis: str) -> OperatorMatrix:
    return build_h0(params, window, basis) + build_interaction(params, window, basis)


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
    return build_h0(params, window, basis) + build_interaction(
        params, window, basis, pair_list=sorted(intra)
    )


def _permutation_parity(perm: tuple) -> int:
    seen = [False] * len(perm)
    parity = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        parity += length - 1
    return parity % 2


def symmetrizer(n_particles: int, window: Window, eta: int) -> OperatorMatrix:
    """Orthogonal projector onto the bosonic (+1) or fermionic (-1) subspace."""
    if eta not in (1, -1):
        raise ValueError("eta must be +1 or -1")
    if n_particles > N_MAX:
        raise ValueError(f"N must be <= {N_MAX}")
    d = window.n_sites
    dim = d**n_particles
    coords = flat_to_tuples(window, n_particles)
    total = sp.csr_matrix((dim, dim))
    nfact = math.factorial(n_particles)
    for perm in itertools.permutations(range(n_particles)):
        sign = 1.0 if eta == 1 else (-1.0) ** _permutation_parity(perm)
        permuted = coords[:, list(perm)]
        target = tuple_to_flat(window, permuted)
        mat = sp.coo_matrix(
            (np.full(dim, sign / nfact), (target, np.arange(dim))), shape=(dim, dim)
        )
        total = total + mat.tocsr()
    return OperatorMatrix("position", window, n_particles, total)


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
