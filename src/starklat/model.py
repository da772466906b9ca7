"""Truncated Hamiltonians: free part, pair interaction, cluster variants, symmetrizer.

All operators act on the tensor-product window [-L, L]^N with lexicographic
flat indexing; the stark-basis interaction kernel is assembled by a congruence
transform of the position-basis multiplication operator through the
single-particle eigenbasis matrix of Bessel overlaps.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import specfun

N_MAX = 4
NNZ_CAP = 2**24
DROP_TOL = 1e-14

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

    @classmethod
    def recommended(cls, params: ModelParams, extra: int = 0) -> "Window":
        r = int(math.ceil(abs(params.x)))
        return cls(2 * r + 10 + extra, r + 5)

    def check_against(self, params: ModelParams) -> None:
        r = int(math.ceil(abs(params.x)))
        if self.L < 2 * r + 10 or self.interior_margin < r + 5:
            warnings.warn(
                f"window L={self.L}, margin={self.interior_margin} below the "
                f"recommended size for |g/h|={abs(params.x):g}; interior "
                "filtering must compensate",
                stacklevel=2,
            )

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
        delta = self.matrix - self.matrix.T
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


def _check_caps(window: Window, n_particles: int) -> None:
    dim = dimension(window, n_particles)
    if dim * (2 * n_particles + 1) > NNZ_CAP:
        raise ValueError(
            f"dimension {dim} exceeds the configured nonzero cap; shrink L or N"
        )


def single_particle_h0(params: ModelParams, window: Window) -> sp.csr_matrix:
    """g*Delta - 2h*X on [-L, L] with a Dirichlet cut at the edge."""
    j = site_range(window)
    diag = -2.0 * params.h * j
    off = -params.g * np.ones(window.n_sites - 1)
    return sp.diags([off, diag, off], [-1, 0, 1], format="csr")


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


def _rest_offsets(window: Window, n_particles: int, legs: tuple) -> np.ndarray:
    d = window.n_sites
    strides = d ** np.arange(n_particles - 1, -1, -1)
    rest = np.zeros(1, dtype=np.int64)
    for k in range(n_particles):
        if k in legs:
            continue
        rest = (rest[:, None] + (np.arange(d) * strides[k])[None, :]).ravel()
    return rest


def embed_pair_operator(
    kernel: np.ndarray, window: Window, n_particles: int, i: int, j: int
) -> sp.csr_matrix:
    """Lift a two-site kernel onto legs (i, j) with identity elsewhere.

    Legs are 0-based particle indices, i < j.
    """
    if not (0 <= i < j < n_particles):
        raise ValueError("invalid pair legs")
    d = window.n_sites
    dim = d**n_particles
    ksp = sp.coo_matrix(kernel)
    strides = d ** np.arange(n_particles - 1, -1, -1)
    ni, nj = np.divmod(ksp.row, d)
    mi, mj = np.divmod(ksp.col, d)
    base_r = ni * strides[i] + nj * strides[j]
    base_c = mi * strides[i] + mj * strides[j]
    rest = _rest_offsets(window, n_particles, (i, j))
    rows = (base_r[:, None] + rest[None, :]).ravel()
    cols = (base_c[:, None] + rest[None, :]).ravel()
    data = np.repeat(ksp.data, rest.size)
    return sp.coo_matrix((data, (rows, cols)), shape=(dim, dim)).tocsr()


def pairs(n_particles: int) -> list:
    return list(itertools.combinations(range(n_particles), 2))


def build_h0(params: ModelParams, window: Window, basis: str) -> OperatorMatrix:
    """Free Hamiltonian: hopping + linear field (position) or COM diagonal (stark)."""
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}")
    _check_caps(window, params.N)
    d = window.n_sites
    if basis == "position":
        t = single_particle_h0(params, window)
        eye = sp.identity(d, format="csr")
        total = sp.csr_matrix((d**params.N, d**params.N))
        for k in range(params.N):
            ops = [eye] * params.N
            ops[k] = t
            term = ops[0]
            for o in ops[1:]:
                term = sp.kron(term, o, format="csr")
            total = total + term
        return OperatorMatrix("position", window, params.N, total)
    coords = flat_to_tuples(window, params.N)
    diag = -2.0 * params.h * coords.sum(axis=1)
    return OperatorMatrix("stark", window, params.N, sp.diags(diag, format="csr"))


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
    dim = dimension(window, params.N)
    if params.N == 1 or not pair_list:
        mat = sp.csr_matrix((dim, dim))
        return OperatorMatrix(basis, window, params.N, mat)
    if basis == "position":
        coords = flat_to_tuples(window, params.N)
        diag = np.zeros(dim)
        for i, j in pair_list:
            diag += params.potential.values(coords[:, i] - coords[:, j])
        return OperatorMatrix("position", window, params.N, sp.diags(diag, format="csr"))
    kernel = two_site_kernel(params, window)
    total = sp.csr_matrix((dim, dim))
    for i, j in pair_list:
        total = total + embed_pair_operator(kernel, window, params.N, i, j)
    return OperatorMatrix("stark", window, params.N, total)


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
