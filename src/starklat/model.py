"""Truncated Hamiltonians: free part, pair interaction, cluster variants, S_N sectors.

All operators act on the tensor-product window [-L, L]^N with lexicographic
flat indexing, one leg per particle; H0 and the interaction are sums of a
one-site and a two-site operator lifted onto legs by `embed_on_legs`. The
stark-basis two-site kernel is the Bessel transform of the position-basis
pair potential; it is translation invariant, so its CSR entries are read
from one table over the index offsets (`two_site_kernel`). The S_N sector
split (`split_by_symmetry`) forms the dense sector blocks of an operator,
converted to CSR once, a chunk of sector columns at a time, one running block
per irrep.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import specfun
from .lattice import (  # the core this module builds on, re-exported
    N_MAX,
    CapacityError,
    ModelParams,
    PairPotential,
    Window,
    _frobenius,
    dimension,
    flat_to_tuples,
    pairs,
    potential_matrix,
    site_range,
)

NNZ_CAP = 2**24
DROP_TOL = 1e-14
SECTOR_TOL = 1e-13  # largest ||cross block||_F / ||A||_F a symmetry-sector split may drop
# columns per chunk wherever a sector basis is streamed: the split's products,
# the interior mask's lifts and the resolvent check's column blocks
CHUNK_COLUMNS = 64
UNIT_ROUNDOFF = 2.0**-53
BASES = ("position", "stark")


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


def stark_basis_matrix(params: ModelParams, window: Window, pad: int = 0) -> np.ndarray:
    """Xi[j, m] = J_{m-j}(g/h); rows j in [-L-pad, L+pad], columns m in [-L, L].

    Xi is Toeplitz, so every entry is read from one row J_K..J_{-K}, K = 2L + pad.
    """
    L = window.L
    row = specfun.bessel_row(0, -(2 * L + pad), 2 * L + pad, params.x)
    # row[i] = J_{K-i}, and J_{m-j} sits at i = (j + L + pad) - (m + L) + 2L
    return row[np.subtract.outer(np.arange(2 * (L + pad) + 1), np.arange(2 * L + 1)) + 2 * L]


def _kernel_pad(params: ModelParams) -> int:
    return int(math.ceil(2.0 * abs(params.x))) + 20


def two_site_kernel(params: ModelParams, window: Window) -> sp.csr_matrix:
    """Stark-basis kernel V2[(n1,n2),(m1,m2)] as CSR, from one translation-invariant table.

    V2 = sum_{j1,j2} J_{n1-j1} J_{m1-j1} v(j1 - j2) J_{n2-j2} J_{m2-j2}. With
    j1 = n1 + p and j2 = n2 + q it depends only on the offsets a = m1 - n1,
    b = m2 - n2 and c = n1 - n2: V2 = T(a, b, c) = (A V_c A^T)[a, b], with
    A[a, p] = J_{-p}(x) J_{a-p}(x) for |p| <= `_kernel_pad` and V_c[p, q] =
    v(c + p - q). Each table entry is symmetrized with its transpose partner,
    0.5 (T(a, b, c) + T(-a, -b, c + a - b)), so the kernel is exactly
    symmetric, and entries below DROP_TOL are dropped. Row (n1, n2) is the
    d x d window T(-L - n1 .. L - n1, -L - n2 .. L - n2, n1 - n2) of the table,
    read one n1 (d rows) at a time, so no d^2 x d^2 array is formed. The
    product gathers (2w + 1)(2 pad + 1)^2 potential values, w = 2L, with their
    int64 indices: above NNZ_CAP of them a CapacityError is raised first.
    """
    L, pad, d = window.L, _kernel_pad(params), window.n_sites
    w = 2 * L  # every offset lies in [-w, w]; table index = offset + w
    gathered = (2 * w + 1) * (2 * pad + 1) ** 2
    if gathered > NNZ_CAP:
        raise CapacityError(
            f"the stark pair kernel at |g/h| = {abs(params.x):g}, L = {L} gathers {gathered} "
            f"potential values, above the cap {NNZ_CAP}; shrink |g/h| or L"
        )
    row = specfun.bessel_row(0, -(w + pad), w + pad, params.x)  # row[i] = J_{w+pad-i}
    p = np.arange(-pad, pad + 1)
    off = np.arange(-w, w + 1)
    a_mat = row[w + pad + p] * row[(w + pad - off)[:, None] + p]
    v = params.potential.values(np.arange(-w - 2 * pad, w + 2 * pad + 1))
    t = a_mat @ v[(off + w + 2 * pad)[:, None, None] + p[:, None] - p] @ a_mat.T  # t[c, a, b]
    # the partner (-a, -b, c + a - b) of every entry; offsets outside the table
    # are never read, as no window pair has them
    c, a, b = np.ogrid[: 2 * w + 1, : 2 * w + 1, : 2 * w + 1]
    table = 0.5 * (t + t[np.clip(c + a - b, 0, 2 * w), 2 * w - a, 2 * w - b])
    table[np.abs(table) < DROP_TOL] = 0.0
    sites = np.arange(d)  # n + L
    b_index = sites - sites[:, None, None] + w  # [n2, 0, m2]: m2 - n2
    indptr, indices, data = [np.zeros(1, dtype=np.int32)], [], []
    for n1 in sites:
        # rows (n1, n2) for every n2: table[n1 - n2, m1 - n1, m2 - n2] over (m1, m2)
        rows = table[(n1 - sites + w)[:, None, None], (sites - n1 + w)[:, None], b_index]
        rows = rows.reshape(d, d * d)
        nz = np.flatnonzero(rows)
        counts = np.count_nonzero(rows, axis=1)
        indptr.append(indptr[-1][-1] + np.cumsum(counts, dtype=np.int32))
        indices.append((nz % (d * d)).astype(np.int32))
        data.append(rows.ravel()[nz])
    data, indices, indptr = (np.concatenate(x) for x in (data, indices, indptr))
    return sp.csr_matrix((data, indices, indptr), shape=(d * d, d * d))


def one_site_operator(params: ModelParams, window: Window, basis: str) -> sp.coo_matrix:
    """One-particle H0 on [-L, L]: g*Delta - 2h*X (position, Dirichlet cut) or diag(-2h m)."""
    m = site_range(window)
    if basis == "stark":
        return sp.diags(-2.0 * params.h * m, format="coo")
    off = -params.g * np.ones(window.n_sites - 1)
    return sp.diags([off, -2.0 * params.h * m, off], [-1, 0, 1], format="coo")


def two_site_operator(params: ModelParams, window: Window, basis: str) -> sp.spmatrix:
    """Two-particle interaction on [-L, L]^2: diag v(j1 - j2) (position) or the stark kernel."""
    if basis == "stark":
        return two_site_kernel(params, window)
    return sp.diags(potential_matrix(params, window.L).ravel(), format="coo")


def embed_on_legs(op, window: Window, n_particles: int, legs: tuple) -> sp.csr_matrix:
    """Lift a d^k x d^k operator onto the sorted 0-based legs, identity elsewhere.

    The operator's rows and columns index its k legs lexicographically, like
    the full tensor-product index, so on all n legs it is its own lift: its
    CSR, which may share its arrays with op.
    """
    d, k = window.n_sites, len(legs)
    if list(legs) != sorted(set(legs)) or not 0 <= legs[0] <= legs[-1] < n_particles:
        raise ValueError(f"invalid legs {legs!r} for {n_particles} particles")
    if op.shape != (d**k, d**k):
        raise ValueError(f"operator shape {op.shape} does not match {k} legs")
    if k == n_particles:
        return sp.csr_matrix(op)
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
    """Sparse orthonormal columns Q of one symmetry sector, stored as the rows of Q^T (CSR).

    A row of Q has at most `terms` nonzeros, and a lifted fl(Q y) is within
    lift_error ||y|| of Q y. `irrep` is the partition lambda of N whose
    irrep the sector's columns carry (`symmetry_sectors`), or () for the
    whole space, Q = 1 (`SectorSplit.whole`). `abs_gain` bounds
    || |Q| ||_2^2, |Q| the entrywise absolute value.
    """

    qt: sp.csr_matrix
    terms: int = 1
    lift_error: float = 0.0
    irrep: tuple = ()
    abs_gain: float = 1.0

    @property
    def dim(self) -> int:
        return self.qt.shape[0]

    def lift(self, y: np.ndarray, out: np.ndarray) -> None:
        """Write Q y into out; rows of several terms are summed in np.longdouble, rounded once."""
        if self.terms > 1:
            out[...] = self.qt.T.astype(np.longdouble) @ y.astype(np.longdouble)
        else:
            out[...] = self.qt.T @ y


@dataclass(frozen=True)
class SectorSplit:
    """Sectors a dense solve runs in, the blocks it solves, and what the split drops.

    Block j stands for Q_s^T a Q_s of each sector s in serves[j]: one sector,
    or the dim-lambda partner sectors of one irrep lambda, whose blocks B_T
    agree to within the pair defect and are filed as their mean M, one
    block per irrep (`fill_sector_blocks`); spread[j] is
    sqrt(sum_T ||B_T - M||_F^2) over the sectors it serves (0 for one).
    """

    sectors: tuple
    blocks: tuple
    serves: tuple  # per block, the indices of the sectors it is solved for
    cross_norm: float  # Frobenius norm of the dropped off-diagonal blocks
    basis_defect: float = 0.0  # >= ||Q^T Q - 1||_2 over the stored columns of all sectors
    pair_defect: Optional[float] = None  # max ||B_T - B_T0||_F over partners; None: no partners
    norm: float = 0.0  # ||Q^T a Q||_F over all blocks, dropped ones too; 0 for the whole space
    spread: tuple = (0.0,)

    @classmethod
    def whole(cls, a) -> "SectorSplit":
        """a unsplit: the whole space is the one sector (Q = 1), and a (dense) its one block."""
        block = a.toarray() if sp.issparse(a) else a
        whole = Sector(sp.identity(a.shape[0], format="csr"))
        return cls((whole,), (block,), ((0,),), 0.0)

    def diagnostics(self) -> dict:
        out = {"sector_dims": [s.dim for s in self.sectors], "cross_norm": self.cross_norm}
        if self.pair_defect is not None:
            out["pair_defect"] = self.pair_defect
        return out


def enumerate_integer_partitions(n: int) -> list:
    """All integer partitions of N as descending tuples."""
    if n > 12:
        raise ValueError("N too large")

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    return list(rec(n, n))


def _orthogonal_in_span(vectors: list) -> list:
    """Pairwise orthogonal primitive integer vectors spanning span(vectors): exact Gram-Schmidt."""
    basis = []
    for v in vectors:
        for b in basis:
            vb, bb = sum(x * y for x, y in zip(v, b)), sum(y * y for y in b)
            v = [bb * x - vb * y for x, y in zip(v, b)]
        g = math.gcd(*v)
        if g:
            basis.append([x // g for x in v])
    return basis


def _unit_columns(vectors: list, size: int) -> np.ndarray:
    """The size x k float columns v / ||v||, each entry sign(x) fl(sqrt(fl(x^2 / ||v||^2)))."""
    cols = np.zeros((size, len(vectors)))
    for c, v in enumerate(vectors):
        s = sum(x * x for x in v)
        # x * x / s divides Python ints: the quotient is rounded once
        cols[:, c] = [math.copysign(math.sqrt(x * x / s), x) for x in v]
    return cols


def _tableaux(shape: tuple) -> tuple:
    """The standard tableaux of `shape` (the (row, column) of each entry 0..n-1), and their moves.

    The first is the row reading one; every other is s_i T of an earlier T
    (s_i swapping entries i and i + 1, in different rows and columns of T),
    found breadth first, with the move (index of T, i).
    """
    tableaux, moves = [tuple((r, c) for r, m in enumerate(shape) for c in range(m))], [None]
    for p, t in enumerate(tableaux):
        for i in range(len(t) - 1):
            u = t[:i] + (t[i + 1], t[i]) + t[i + 2 :]
            if t[i][0] != t[i + 1][0] and t[i][1] != t[i + 1][1] and u not in tableaux:
                tableaux.append(u)
                moves.append((p, i))
    return tableaux, moves


@functools.cache
def _orbit_bases(n: int) -> tuple:
    """Local sector bases of the leg-permutation orbits of n >= 2 legs, one per orbit shape.

    An orbit is the set of distinct leg arrangements of one sorted index
    tuple, a permutation module of S_n. Its shape says which neighbours of
    the sorted tuple are equal (bit k: entries k and k + 1), and every orbit
    of a shape has the same local basis. Per shape: the sorted position on
    each leg of its arrangements in lexicographic order, and their columns
    L_s in every sector, Young's orthogonal (Gelfand-Tsetlin) basis. Per
    irrep lambda (trivial, sign, then the rest by dimension) and copy of it
    in the orbit, v_T0 spans the joint eigenspace of the Jucys-Murphy
    elements X_k = sum_{j<k} (j k) for the row reading tableau T0; on the
    eigenspace of X_1..X_(k-1) the eigenvalues of X_k are the contents of
    the boxes addable to the shape of entries < k (Okounkov-Vershik), so the
    product over k of the factors X_k - c, c every such content but c_k,
    each signed by c_k - c, is a positive multiple of the projector; its
    images of the unit vectors are made orthogonal by exact Gram-Schmidt.
    Every other tableau s_i T (`_tableaux`) gets the seminormal move
    s_i v_T - v_T / r, r = c_T(i + 1) - c_T(i) the axial distance, times
    |r|. One sector per tableau, one column per copy: the copies share one
    orthogonal form, so by Schur's lemma the partner blocks Q_T^T a Q_T of
    lambda agree for every a that commutes with the leg permutations.

    Also returned, for the stored (rounded) columns: theta, the largest
    absolute row sum of L^T L - 1 over the shapes' square bases L, computed
    exactly and rounded up. It bounds ||Q^T Q - 1||_2 on the whole index: the
    matrix is symmetric and block-diagonal over orbits. And per sector
    (m, e, lambda, g): the most nonzeros m in a row of any L_s, and
    e >= ||fl(Q_s y) - Q_s y|| / ||y|| for `Sector.lift`. With m = 1 each
    entry is one rounded product, within u of the exact one. With m > 1
    every entry, a sum of m_p <= m products on the rows of shape p, is
    accumulated in np.longdouble (unit roundoff u_l) and rounded once, so it
    is within u |sum_k x_k| + (1 + u) gamma_(m_p)(u_l) sum_k |x_k|; e adds
    the largest (1 + u) gamma_(m_p)(u_l) sqrt(k (1 + theta)) over the shapes
    to u sqrt(1 + theta), L_s having k columns on shape p
    (sqrt(k (1 + theta)) >= || |L_s| ||_2). g, the largest k (1 + theta),
    bounds || |Q_s| ||_2^2: |Q_s| is block-diagonal over the orbits.
    """
    from fractions import Fraction  # first use only: the import is not paid at start-up

    rest = [p for p in enumerate_integer_partitions(n) if p not in ((n,), (1,) * n)]
    rest.sort(key=lambda p: len(_tableaux(p)[0]))
    irreps = [(p, *_tableaux(p)) for p in [(n,), (1,) * n] + rest]
    labels = [p for p, tableaux, _ in irreps for _ in tableaux]
    shapes, theta, terms = [], Fraction(0), [[] for _ in labels]
    for code in range(2 ** (n - 1)):
        values = [0]
        for k in range(n - 1):
            values.append(values[-1] + (0 if code >> k & 1 else 1))
        arrangements = {}
        for perm in itertools.permutations(range(n)):
            arrangements.setdefault(tuple(values[i] for i in perm), perm)
        keys = sorted(arrangements)
        size = len(keys)
        at = {key: i for i, key in enumerate(keys)}
        swaps = {}  # (j, k): the index of each arrangement with legs j and k exchanged
        for j, k in itertools.combinations(range(n), 2):
            legs = list(range(n))
            legs[j], legs[k] = k, j
            swaps[j, k] = [at[tuple(key[leg] for leg in legs)] for key in keys]
        local = []
        for _, tableaux, moves in irreps:
            first, proj = tableaux[0], np.eye(size, dtype=np.int64)  # entries within n! (n <= 5)
            for k in range(1, n):
                rows = [sum(r == row for r, _ in first[:k]) for row in range(k + 1)]
                addable = {rows[r] - r for r in range(k + 1) if r == 0 or rows[r - 1] > rows[r]}
                c_k = first[k][1] - first[k][0]
                for c in addable - {c_k}:
                    proj = (sum(proj[swaps[j, k]] for j in range(k)) - c * proj) * np.sign(c_k - c)
            vectors = [_orthogonal_in_span(proj.T.tolist())]
            for p, i in moves[1:]:
                t, swap = tableaux[p], swaps[i, i + 1]
                r = (t[i + 1][1] - t[i + 1][0]) - (t[i][1] - t[i][0])
                sign = 1 if r > 0 else -1  # each w is |r| (s_i v - v / r)
                moved = [[sign * (r * v[j] - x) for j, x in zip(swap, v)] for v in vectors[p]]
                vectors.append(_orthogonal_in_span(moved))  # orthogonal: only their gcds go
            local += [_unit_columns(v, size) for v in vectors]
        # exact Gram matrix of the rounded floats, on a common power-of-two scale
        ratios = [x.as_integer_ratio() for x in np.hstack(local).ravel().tolist()]
        scale = max(den for _, den in ratios).bit_length() - 1
        q = np.array([num << (scale - den.bit_length() + 1) for num, den in ratios], dtype=object)
        q = q.reshape(size, size)
        gram = q.T.dot(q) - np.eye(size, dtype=int).astype(object) * (1 << 2 * scale)
        theta = max(theta, Fraction(int(np.abs(gram).sum(axis=1).max()), 1 << 2 * scale))
        for t, b in zip(terms, local):
            if b.size:
                t.append((int((b != 0).sum(axis=1).max()), b.shape[1]))
        shapes.append((np.array([arrangements[key] for key in keys]), tuple(local)))
    exact, theta = theta, float(theta)
    if Fraction(theta) < exact:
        theta = math.nextafter(theta, math.inf)
    u, u_l = UNIT_ROUNDOFF, float(np.finfo(np.longdouble).eps) / 2
    lift = []
    for t, label in zip(terms, labels):
        most = max((m for m, _ in t), default=1)
        e = u * math.sqrt(1.0 + theta)
        if most > 1:  # every row of the sector is accumulated in np.longdouble
            gamma = [(m * u_l / (1.0 - m * u_l), k) for m, k in t]
            e += max(g * (1.0 + u) * math.sqrt(k * (1.0 + theta)) for g, k in gamma)
        lift.append((most, e, label, max((k for _, k in t), default=1) * (1.0 + theta)))
    return tuple(shapes), theta, tuple(lift)


def symmetry_sectors(d: int, n: int) -> tuple:
    """The nonempty S_N sectors of the d^n tensor index (n >= 2): one per irrep and tableau.

    Bosons (one column per sorted index tuple, C(d + n - 1, n)), fermions
    (one per strictly sorted tuple, signed by the sorting permutation,
    C(d, n)), then the dim-lambda partner sectors of every other irrep
    lambda (`_orbit_bases`). Each column lives on one orbit, with at most n!
    entries; columns run over the orbits in the order of their sorted tuples,
    then over the copies of lambda in the orbit, so column j of every
    partner sector of lambda belongs to the same copy.
    """
    shapes, _, lift = _orbit_bases(n)
    coords = np.array(np.unravel_index(np.arange(d**n), (d,) * n))
    steps = np.diff(coords, axis=0)
    sorted_tuples = np.flatnonzero((steps >= 0).all(axis=0))
    shape = (steps[:, sorted_tuples] == 0).T @ (1 << np.arange(n - 1))
    strides = d ** np.arange(n - 1, -1, -1)
    orbits = []  # per shape: its orbits and the flat index of each arrangement (M x orbits)
    for code, (perms, _) in enumerate(shapes):
        which = np.flatnonzero(shape == code)
        flat = np.einsum("j,mjo->mo", strides, coords[:, sorted_tuples[which]][perms])
        orbits.append((which, flat))
    sectors = []
    for s in range(len(lift)):
        count = np.zeros(sorted_tuples.size, dtype=np.int64)
        for (which, _), (_, local) in zip(orbits, shapes):
            count[which] = local[s].shape[1]
        first = np.cumsum(count) - count  # the orbit's first column in the sector
        rows, cols, vals = [], [], []
        for (which, flat), (_, local) in zip(orbits, shapes):
            for i, c in zip(*np.nonzero(local[s])):
                rows.append(first[which] + c)
                cols.append(flat[i])
                vals.append(np.full(which.size, local[s][i, c]))
        dim = int(count.sum())
        if dim:
            qt = sp.csr_matrix(
                (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                shape=(dim, d**n),
            )
            sectors.append(Sector(qt, *lift[s]))
    return tuple(sectors)


def _sparse_times(qt: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """qt @ x for a dense x, C-ordered first; a complex x as its real view."""
    x = np.ascontiguousarray(x)
    if np.iscomplexobj(x):
        return (qt @ x.view(np.float64)).view(complex)
    return qt @ x


def _column_parts(sectors: tuple, width: int) -> list:
    """The parts of every chunk: closed column sets of at most max(width, k) columns.

    The k partner sectors of an irrep (k = 1 for the bosons, the fermions and
    the whole space) are consecutive, and their columns j span one copy of it
    (`symmetry_sectors`), so matching ranges of width // k columns are closed.
    A chunk's parts run over the partners of one irrep, in their order.
    """
    chunks = []
    for _, group in itertools.groupby(range(len(sectors)), key=lambda s: sectors[s].irrep):
        group = list(group)
        w, dim = max(1, width // len(group)), sectors[group[0]].dim
        chunks += [tuple((s, j, min(j + w, dim)) for s in group) for j in range(0, dim, w)]
    return chunks


def fill_sector_blocks(
    rows: np.ndarray, parts: tuple, blocks: dict, diffs: dict, bounds: np.ndarray, cross: float
) -> float:
    """File a chunk's rows Q^T (A^T X) into its irrep's running block; the cross norm after them.

    X = [Q_s[:, j0:j1] for (s, j0, j1) in parts], one chunk of `_column_parts`,
    and `bounds` are the first rows of the sectors in Q^T. Row block s of
    part (s, j0, j1) is columns j0:j1 of B_s^T, B_s = Q_s^T A Q_s. Keyed by
    the k partners s (`serves`), their sum in order over k goes into columns
    j0:j1 of blocks[serves], the transposed mean M^T (made at the irrep's
    first chunk), and diffs[serves][t, u] gains ||B_t - B_u||_F^2 on them, so
    no B_s is held. Every other row block is part of a dropped cross block
    Q_t^T A Q_s, and their Frobenius norms are added to `cross` in quadrature.
    """
    own, col = [], 0
    for s, j0, j1 in parts:
        part, (a, b) = rows[:, col : col + j1 - j0], bounds[s : s + 2]
        own.append(part[a:b])
        cross = math.hypot(cross, _frobenius(part[:a]), _frobenius(part[b:]))
        col += j1 - j0
    serves = tuple(s for s, _, _ in parts)
    if serves not in blocks:  # the irrep's first chunk
        blocks[serves] = np.empty((b - a, b - a), rows.dtype)
        diffs[serves] = np.zeros((len(own), len(own)))
    mean = blocks[serves][:, j0:j1]
    mean[...] = own[0]
    for x in own[1:]:
        mean += x
    if len(own) > 1:
        mean /= len(own)
        for (t, x), (u, y) in itertools.combinations(enumerate(own), 2):
            diffs[serves][t, u] += _frobenius(y - x) ** 2
    return cross


def split_by_symmetry(a, d: int, n: int) -> SectorSplit:
    """Split a into its S_N sectors (`symmetry_sectors`) if it commutes with leg permutations.

    a is the CSR H of a solve, or any matrix scipy converts to CSR (an
    oracle's dense H, or I(z)), converted once. Per chunk X of
    `_column_parts`, the rows Q^T (a^T X) come from the sparse product X^T a,
    then times Q, and are filed by `fill_sector_blocks`: one running block
    per irrep, the mean of its partner blocks, which agree for every a that
    commutes with the leg permutations (`symmetry_sectors`). The
    off-diagonal blocks Q_t^T a Q_s are what the split drops, and the
    Frobenius norm of all of them is measured directly. By Weyl's inequality
    every eigenvalue (a symmetric) and singular value moves by at most that
    norm, up to the basis defect of the rounded columns. If it or a pair
    defect is above SECTOR_TOL ||Q^T a Q||_F (`sector_split`; a non-symmetric
    v, say) the whole space is the one sector, as it is for n < 2, and a
    itself (dense) its one block. Beyond the blocks, memory is a few
    dim x CHUNK_COLUMNS arrays.
    """
    if n >= 2:
        sectors = symmetry_sectors(d, n)
        csr = a.tocsr() if sp.issparse(a) else sp.csr_matrix(a)  # read by rows in every chunk
        q_all = sp.vstack([s.qt for s in sectors], format="csr")
        bounds = np.cumsum([0] + [s.dim for s in sectors])
        blocks, diffs, cross = {}, {}, 0.0
        for parts in _column_parts(sectors, CHUNK_COLUMNS):
            xt = sp.vstack([sectors[s].qt[j0:j1] for s, j0, j1 in parts], format="csr")
            rows = _sparse_times(q_all, (xt @ csr).toarray().T)  # Q^T (a^T X)
            cross = fill_sector_blocks(rows, parts, blocks, diffs, bounds, cross)
        split = sector_split(sectors, blocks, diffs, cross, n)
        if split is not None:
            return split
        # refused: nothing filed is held while a is made dense
        del sectors, csr, q_all, blocks, diffs, xt, rows
    return SectorSplit.whole(a)


def sector_split(
    sectors: tuple, blocks: dict, diffs: dict, cross: float, n: int
) -> Optional[SectorSplit]:
    """The split into the blocks `fill_sector_blocks` filed, or None if it drops too much.

    With no partner block B_T held, the sums diffs[serves] give the spread
    sum_T ||B_T - M||_F^2 = (1/k) sum_{t<u} ||B_t - B_u||_F^2 of the k
    partners about their mean M, the pair defects ||B_T - B_T0||_F, and
    ||Q^T a Q||_F, as sum_T ||B_T||_F^2 = k ||M||_F^2 + the spread. None
    when the cross norm or a pair defect is above SECTOR_TOL ||Q^T a Q||_F:
    either way a does not commute with the leg permutations.
    """
    spread = [math.sqrt(x.sum() / len(x)) for x in diffs.values()]
    terms = zip(blocks.values(), diffs.values(), spread)
    norm = math.hypot(cross, *(math.hypot(len(x) ** 0.5 * _frobenius(b), s) for b, x, s in terms))
    defects = [math.sqrt(v) for x in diffs.values() for v in x[0, 1:]]
    if max([cross, *defects]) > SECTOR_TOL * norm:
        return None
    theta = 0.0 if sectors[0].irrep == () else _orbit_bases(n)[1]
    kept, pair = tuple(b.T for b in blocks.values()), max(defects, default=None)
    return SectorSplit(sectors, kept, tuple(blocks), cross, theta, pair, norm, tuple(spread))


def _leg_sum(op, window: Window, n_particles: int, leg_list: list) -> sp.csr_matrix:
    # each lift of op onto k legs stores nnz(op) d^(N-k) entries; their sum
    # bounds what the CSR of the total stores, checked before anything is lifted
    stored = sum(op.nnz * window.n_sites ** (n_particles - len(legs)) for legs in leg_list)
    if stored > NNZ_CAP:
        raise CapacityError(
            f"{stored} stored entries exceed the nonzero cap {NNZ_CAP}; shrink L or N"
        )
    if not leg_list:
        return sp.csr_matrix((dimension(window, n_particles),) * 2)
    # a lift may share its arrays with op: the sum is never formed in place
    total = embed_on_legs(op, window, n_particles, leg_list[0])
    for legs in leg_list[1:]:
        total = total + embed_on_legs(op, window, n_particles, legs)
    return total


def build_h0(params: ModelParams, window: Window, basis: str) -> OperatorMatrix:
    """Free Hamiltonian: the one-site operator on every leg."""
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}")
    op = one_site_operator(params, window, basis)
    legs = [(k,) for k in range(params.N)]
    return OperatorMatrix(basis, window, params.N, _leg_sum(op, window, params.N, legs))


def build_interaction(
    params: ModelParams, window: Window, basis: str, pair_operator=None
) -> OperatorMatrix:
    """Pair interaction summed over every particle pair.

    `pair_operator` is `two_site_operator(params, window, basis)` when the
    caller has already built it; it is built here otherwise.
    """
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}")
    pair_list = pairs(params.N)
    # with no pair to place (N = 1) the operator is not needed
    op = pair_operator
    if op is None and pair_list:
        op = two_site_operator(params, window, basis)
    return OperatorMatrix(basis, window, params.N, _leg_sum(op, window, params.N, pair_list))


def build_hamiltonian(
    params: ModelParams, window: Window, basis: str, pair_operator=None
) -> OperatorMatrix:
    """H = H0 + the interaction on every pair; `pair_operator` as in `build_interaction`."""
    return build_h0(params, window, basis) + build_interaction(
        params, window, basis, pair_operator=pair_operator
    )


def _permutation_parity(perm: tuple) -> int:
    """0 for an even permutation, 1 for an odd one: the parity of its inversions."""
    return sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
