"""Truncated Hamiltonians: free part, pair interaction, cluster variants, S_N sectors.

All operators act on the tensor-product window [-L, L]^N with lexicographic
flat indexing, one leg per particle; H0 and the interaction are sums of a
one-site and a two-site operator lifted onto legs by `embed_on_legs`, each a
numpy `CSR`. H is assembled one slab of rows at a time (`_assemble`), each
slab's lifts merged and written into H's arrays, made once at the bound of
the entries the lifts store. The stark-basis two-site kernel is the Bessel transform of the
position-basis pair potential; it is translation invariant, so its CSR
entries are read from one table over the index offsets (`two_site_kernel`).
The S_N sectors are orbit gathers (`Sector`), and the sector split
(`split_by_symmetry`) forms the dense sector blocks of an operator, a chunk of
sector columns at a time, one running block per irrep.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import specfun
from .lattice import (  # ModelParams, PairPotential and Window are also read through model
    ModelParams,
    PairPotential,
    Window,
    _frobenius,
    pairs,
    potential_matrix,
    site_range,
    within_budget,
)

# bytes the assembly holds per entry the leg lifts of one slab store, beside H's arrays:
# the lifts' values and columns, `_sum`'s int64 keys and order, the sorted copies and the
# merged slab (tracemalloc: 45-48 at N = 2, 52-57 at N = 3 and 4, stark basis)
ENTRY_BYTES = 64
DROP_TOL = 1e-14
SECTOR_TOL = 1e-13  # largest ||cross block||_F / ||A||_F a symmetry-sector split may drop
# columns per chunk wherever a sector basis is streamed: the split's products,
# the interior mask's lifts and the resolvent check's column blocks
CHUNK_COLUMNS = 64
UNIT_ROUNDOFF = 2.0**-53
BASES = ("position", "stark")


class CSR:
    """A sparse matrix as compressed rows: numpy arrays only.

    Canonical, as every constructor here leaves it: the columns of each row
    ascending, none twice, and no stored zero. indices and indptr share one
    integer type, int32 while it holds every index and count.
    """

    __slots__ = ("data", "indices", "indptr", "shape")

    def __init__(self, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, shape: tuple):
        kind = np.int32 if max(int(indptr[-1]), *shape) < 2**31 else np.int64
        self.data, self.shape = data, tuple(shape)
        self.indices, self.indptr = indices.astype(kind, copy=False), indptr.astype(kind, copy=False)

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "CSR":
        """The nonzero entries of a dense a, row by row."""
        rows, cols = np.nonzero(a)
        indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(a, axis=1))])
        return cls(a[rows, cols], cols, indptr, a.shape)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def _rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def diagonal(self) -> np.ndarray:
        rows = self._rows()
        on = self.indices == rows
        out = np.zeros(min(self.shape), dtype=self.data.dtype)
        out[rows[on]] = self.data[on]
        return out

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        out[self._rows(), self.indices] = self.data
        return out


def _row_keys(a: CSR) -> np.ndarray:
    """row * n_cols + col of each stored entry: ascending for a canonical a."""
    return np.repeat(np.arange(a.shape[0]) * a.shape[1], np.diff(a.indptr)) + a.indices


def _sum(terms: list) -> CSR:
    """The canonical CSRs summed left to right, all at once: one stable sort merges their
    presorted key runs, twins sum in the order of `terms`, and entries that sum to exactly
    0 are dropped, as each pairwise sum would drop them.

    Only the twins are gathered: a run of consecutive twins adds into the
    entry before it, its j-th twin in round j, and every other entry is
    kept as it is.
    """
    if len(terms) == 1:
        return terms[0]
    n_rows, n_cols = terms[0].shape
    keys = np.concatenate([_row_keys(t) for t in terms])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    data = np.concatenate([t.data for t in terms])[order]
    del order
    twin = np.flatnonzero(keys[1:] == keys[:-1]) + 1  # an entry with the key of the one before
    starts = np.diff(twin, prepend=-1) != 1
    head = (twin[starts] - 1)[np.cumsum(starts) - 1]  # the key's first entry
    for j in range(1, int((twin - head).max(initial=0)) + 1):
        at = twin - head == j
        data[head[at]] += data[twin[at]]
    keep = np.ones(keys.size, bool)
    keep[twin] = False
    keep[head[data[head] == 0]] = False  # the operands store no zero: only a sum can be 0
    keys, data = keys[keep], data[keep]
    indptr = np.searchsorted(keys, np.arange(n_rows + 1) * n_cols)
    cols = keys - np.repeat(np.arange(n_rows) * n_cols, np.diff(indptr))
    return CSR(data, cols, indptr, (n_rows, n_cols))


def _diagonal_csr(values: np.ndarray) -> CSR:
    """diag(values) with its zeros dropped."""
    at = np.flatnonzero(values)
    return CSR(values[at], at, np.concatenate([[0], np.cumsum(values != 0)]), (values.size,) * 2)


@dataclass
class OperatorMatrix:
    """Truncated symmetric operator with its basis tag and index map."""

    basis_tag: str
    window: Window
    n_particles: int
    matrix: CSR  # a dense array is converted

    def __post_init__(self):
        if self.basis_tag not in BASES:
            raise ValueError(f"unknown basis {self.basis_tag!r}")
        if not isinstance(self.matrix, CSR):
            self.matrix = CSR.from_dense(np.asarray(self.matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()

    def symmetry_defect(self) -> float:
        """max |H - H^T| over the entries.

        H^T's entries in canonical order are H's in the stable order of their
        columns: one in-place sort of the int64 keys (column << 32) | position
        (nnz < 2^32, far past the memory budget), whose low bits are then that
        order. When they store H's pattern, their data line up entry by entry,
        so neither H^T nor H - H^T is formed.
        """
        h = self.matrix
        order = h.indices.astype(np.int64)
        order <<= 32
        order |= np.arange(h.nnz)
        order.sort()
        order &= 2**32 - 1
        rows = np.repeat(np.arange(h.shape[0], dtype=h.indices.dtype), np.diff(h.indptr))
        counts = np.bincount(h.indices, minlength=h.shape[1])
        if np.array_equal(counts, np.diff(h.indptr)) and np.array_equal(rows[order], h.indices):
            if h.nnz == 0:
                return 0.0
            del rows
            d = h.data[order]
            d -= h.data
            return float(np.abs(d, out=d).max())
        # the patterns differ: H is not symmetric, so the rare full difference is paid
        t = CSR(-h.data[order], rows[order], np.concatenate([[0], np.cumsum(counts)]), h.shape)
        delta = _sum([h, t])
        return 0.0 if delta.nnz == 0 else float(np.abs(delta.data).max())

    def export_coo_csv(self, path) -> None:
        m = self.matrix
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("row,col,value\n")
            for r, c, v in zip(m._rows(), m.indices, m.data):
                fh.write(f"{r},{c},{v:.17g}\n")


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


def two_site_kernel(params: ModelParams, window: Window) -> CSR:
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
    int64 indices, and the table and its partner gather take a few (2w + 1)^3
    arrays: their bytes are checked against the memory budget first.
    """
    L, pad, d = window.L, _kernel_pad(params), window.n_sites
    w = 2 * L  # every offset lies in [-w, w]; table index = offset + w
    gathered = (2 * w + 1) * (2 * pad + 1) ** 2
    within_budget(
        16 * gathered + 8 * (2 * w + 1) ** 2 * (2 * pad + 1) + 56 * (2 * w + 1) ** 3,
        f"the stark pair kernel at |g/h| = {abs(params.x):g}, L = {L}",
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
    return CSR(data, indices, indptr, (d * d, d * d))


def one_site_operator(params: ModelParams, window: Window, basis: str) -> CSR:
    """One-particle H0 on [-L, L]: g*Delta - 2h*X (position, Dirichlet cut) or diag(-2h m)."""
    diag = -2.0 * params.h * site_range(window)
    if basis == "stark":
        return _diagonal_csr(diag)
    off = -params.g * np.ones(window.n_sites - 1)
    return CSR.from_dense(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))


def two_site_operator(params: ModelParams, window: Window, basis: str) -> CSR:
    """Two-particle interaction on [-L, L]^2: diag v(j1 - j2) (position) or the stark kernel."""
    if basis == "stark":
        return two_site_kernel(params, window)
    return _diagonal_csr(potential_matrix(params, window.L).ravel())


def embed_on_legs(
    op: CSR, window: Window, n_particles: int, legs: tuple, rows: Optional[range] = None
) -> CSR:
    """Lift a d^k x d^k operator onto the sorted 0-based legs, identity elsewhere.

    The operator's rows and columns index its k legs lexicographically, like
    the full tensor-product index, so on all n legs it is its own lift: op
    itself. Otherwise row R of the lift is op's row at R's digits on the
    legs, its columns moved to R's digits elsewhere; as the legs are sorted,
    that move keeps them ascending, so the lift is canonical with no sort.
    With `rows`, a range of consecutive rows, only those rows of the lift
    are made: a len(rows) x d^n CSR.
    """
    d, k = window.n_sites, len(legs)
    if not legs or list(legs) != sorted(set(legs)) or not 0 <= legs[0] <= legs[-1] < n_particles:
        raise ValueError(f"invalid legs {legs!r} for {n_particles} particles")
    if op.shape != (d**k, d**k):
        raise ValueError(f"operator shape {op.shape} does not match {k} legs")
    dim = d**n_particles
    rows = range(dim) if rows is None else rows
    if k == n_particles:
        if len(rows) == dim:
            return op
        a, b = op.indptr[rows.start], op.indptr[rows.stop]
        return CSR(op.data[a:b], op.indices[a:b], op.indptr[rows.start : rows.stop + 1] - a,
                   (len(rows), dim))
    strides = d ** np.arange(n_particles - 1, -1, -1)
    leg_strides = strides[list(legs)]
    flat = np.arange(rows.start, rows.stop)
    digits = flat[:, None] // leg_strides % d
    row = digits @ (d ** np.arange(k - 1, -1, -1))  # op's row of each row of the lift
    counts = np.diff(op.indptr)[row]
    indptr = np.concatenate([[0], np.cumsum(counts)])
    # the stored entries of op's row, row after row: a ragged arange
    at = np.repeat(op.indptr[row] - indptr[:-1], counts) + np.arange(indptr[-1])
    moved = leg_strides @ np.unravel_index(np.arange(d**k), (d,) * k)  # op column -> offset
    cols = np.repeat(flat - digits @ leg_strides, counts) + moved[op.indices[at]]
    return CSR(op.data[at], cols, indptr, (flat.size, dim))


def apply_on_legs(
    op: np.ndarray, x: np.ndarray, legs: tuple, d: int, n: int, out=None, scratch=None
) -> np.ndarray:
    """Apply the real operator `op` to the row legs `legs` (sorted, 0-based) of x.

    x has d**n rows, one leg per particle in lexicographic order, and any
    number of columns; a complex x is handled as its real view, so each step
    is one real BLAS product. The result goes into `out` (C-ordered, of x's
    shape and type), a new array when none is given. On legs that are not
    consecutive x is staged in out, and the product goes through `scratch`;
    with none, through x itself (overwritten) when out is given, else
    through a new array.
    """
    if np.iscomplexobj(x):
        real = [None if a is None else a.view(np.float64) for a in (out, scratch)]
        x = np.ascontiguousarray(x).view(np.float64)
        return apply_on_legs(op, x, legs, d, n, *real).view(complex)
    k, a = len(legs), legs[0]
    fresh = out is None
    out = np.empty(x.shape) if fresh else out
    if legs == tuple(range(a, a + k)):
        batch = (d**a, d**k, -1)
        np.matmul(op, x.reshape(batch), out=out.reshape(batch))
        return out
    t = x.reshape((d,) * n + (-1,))
    perm = list(legs) + [ax for ax in range(n + 1) if ax not in legs]
    shape = [t.shape[ax] for ax in perm]
    staged = out.reshape(shape)
    np.copyto(staged, t.transpose(perm))
    if scratch is None:
        scratch = np.empty(x.shape) if fresh else x
    y = np.matmul(op, staged.reshape(d**k, -1), out=scratch.reshape(d**k, -1))
    np.copyto(out.reshape(t.shape), y.reshape(shape).transpose(np.argsort(perm)))
    return out


@dataclass(frozen=True, eq=False)
class Sector:
    """Orthonormal columns Q of one symmetry sector, as gathers over the leg-permutation orbits.

    Per orbit shape (`symmetry_sectors`): `flat`, the M x o flat indices of
    the M arrangements of each of its o orbits; `local`, the M x k sector
    basis L_s shared by those orbits; `cols`, the o x k sector columns they
    fill. Q^T x is a gather of x by `flat` followed by L_s^T (`rows`), and
    Q y is L_s times y's rows followed by a scatter by `flat` (`lift`); the
    orbits partition the index, so the scatter sums nothing.

    A row of Q has at most `terms` nonzeros, and a lifted fl(Q y) is within
    lift_error ||y|| of Q y. `irrep` is the partition lambda of N whose
    irrep the sector's columns carry (`symmetry_sectors`), or () for the
    whole space, Q = 1 (`whole_space`). `abs_gain` bounds
    || |Q| ||_2^2, |Q| the entrywise absolute value.
    """

    orbits: tuple  # per orbit shape: (flat, local, cols)
    dim: int
    terms: int = 1
    lift_error: float = 0.0
    irrep: tuple = ()
    abs_gain: float = 1.0

    @property
    def size(self) -> int:
        """d^N, the length of a column of Q."""
        return sum(flat.size for flat, _, _ in self.orbits)

    @property
    def orbit_terms(self) -> int:
        """The most nonzeros in a column of Q: the most terms of a sum in Q^T x."""
        return max(int((local != 0).sum(axis=0).max()) for _, local, cols in self.orbits if cols.size)

    def rows(self, x: np.ndarray) -> np.ndarray:
        """Q^T x."""
        return _sector_rows((self,), x)

    def lift(self, y: np.ndarray, out: np.ndarray) -> None:
        """Write Q y into out; rows of several terms are summed in np.longdouble, rounded once."""
        _sector_lift((self,), y, out, np.longdouble if self.terms > 1 else np.float64)


def whole_space(dim: int) -> Sector:
    """The whole index as one sector, Q = 1: one orbit per index."""
    index = np.arange(dim)
    return Sector(((index[None, :], np.ones((1, 1)), index[:, None]),), dim)


def _real_columns(x: np.ndarray) -> np.ndarray:
    """x as C-ordered real columns: a complex x as its real view, 1-D x as one column."""
    x = np.ascontiguousarray(x.reshape(x.shape[0], -1))
    return x.view(np.float64) if np.iscomplexobj(x) else x


@functools.lru_cache(maxsize=8)
def _stacked(sectors: tuple) -> tuple:
    """Per orbit shape of the stacked sectors (all of one n, or the whole space): its M x o
    flat indices, the sectors' M x k local bases L side by side, L^T C-ordered, and the
    k x o rows of the stack that their columns fill; and the stack's size."""
    starts = np.cumsum([0] + [s.dim for s in sectors])
    shapes = []
    for p, (flat, _, _) in enumerate(sectors[0].orbits):
        local = np.hstack([s.orbits[p][1] for s in sectors])
        at = np.hstack([start + s.orbits[p][2] for s, start in zip(sectors, starts)])
        shapes.append((flat, local, local.T.copy(), at.T.copy()))
    return tuple(shapes), int(starts[-1])


def _sector_rows(sectors: tuple, x: np.ndarray, out=None, scratch=()) -> np.ndarray:
    """Q^T x over the stacked sectors: per orbit shape one gather of x, then one BLAS
    product of L^T with it.

    With `out` (C-ordered, x's type, one row per sector column) the rows are
    written there, and with `scratch`, two arrays of at least x's size, the
    gathers and the products go through them.
    """
    xr = _real_columns(x)
    shapes, dim = _stacked(sectors)
    rows = np.empty((dim, xr.shape[1])) if out is None else out.reshape(dim, -1).view(np.float64)
    held = [a.reshape(-1).view(np.float64) for a in scratch] or [None, None]
    for flat, _, local_t, at in shapes:
        if at.size:
            g = _carve(held[0], flat.shape + xr.shape[1:])  # (M, o, columns)
            g = np.take(xr, flat, axis=0, mode="clip", out=g).reshape(flat.shape[0], -1)
            prod = np.matmul(local_t, g, out=_carve(held[1], (local_t.shape[0], g.shape[1])))
            rows[at] = prod.reshape(at.shape + xr.shape[1:])
    if np.iscomplexobj(x):
        rows = rows.view(complex)
    return rows.reshape((dim,) + x.shape[1:])


def _carve(flat, shape: tuple):
    """The first prod(shape) entries of a flat buffer as a C-ordered array of that shape;
    None for no buffer."""
    return None if flat is None else flat[: math.prod(shape)].reshape(shape)


def _sector_lift(sectors: tuple, y: np.ndarray, out: np.ndarray, dtype=np.float64) -> None:
    """Write Q y over the stacked sectors into out: per orbit shape L times y's rows, scattered by `flat`.

    The orbits partition the index, so the scatter sums nothing. In
    np.longdouble the product is numpy's own loop, which sums each row's
    terms in column order from 0 and rounds once on the way out.
    """
    yr = _real_columns(y)
    o = out.reshape(out.shape[0], -1)
    o = o.view(np.float64) if np.iscomplexobj(o) else o
    for flat, local, _, at in _stacked(sectors)[0]:
        if not at.size:
            o[flat] = 0.0
        else:
            part = yr[at].astype(dtype, copy=False)  # (k, o, columns)
            prod = local.astype(dtype, copy=False) @ part.reshape(part.shape[0], -1)
            o[flat] = prod.reshape(flat.shape + yr.shape[1:])


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
    blocks: list  # a solve spends them (`spectra.sector_eigh`)
    serves: tuple  # per block, the indices of the sectors it is solved for
    cross_norm: float  # Frobenius norm of the dropped off-diagonal blocks
    basis_defect: float = 0.0  # >= ||Q^T Q - 1||_2 over the stored columns of all sectors
    pair_defect: Optional[float] = None  # max ||B_T - B_T0||_F over partners; None: no partners
    norm: float = 0.0  # ||Q^T a Q||_F over all blocks, dropped ones too; 0 for the whole space
    spread: tuple = (0.0,)

    @classmethod
    def whole(cls, a) -> "SectorSplit":
        """a unsplit: the whole space is the one sector (Q = 1), and a (dense) its one block.

        A CSR a is made dense only once its solve fits the memory budget (`split_bytes`).
        """
        dim = a.shape[0]
        if isinstance(a, CSR):
            within_budget(split_bytes([dim], dim), f"the whole-space solve at dim {dim}")
            a = a.toarray()
        return cls((whole_space(dim),), [a], ((0,),), 0.0)

    def diagnostics(self) -> dict:
        out = {"sector_dims": [s.dim for s in self.sectors], "cross_norm": self.cross_norm}
        if self.pair_defect is not None:
            out["pair_defect"] = self.pair_defect
        return out


def irrep_dims(d: int, n: int) -> list:
    """The order of each sector block of a d^n operator (`split_by_symmetry`), before any is made.

    One block per irrep lambda of S_n (n >= 2) with at most d rows: the
    lambda-multiplicity of the tensor power, the dimension of the GL(d)
    irrep lambda (Schur-Weyl), prod over the boxes of (d + content) / hook.
    For n < 2 the whole space, d^n.
    """
    if n < 2:
        return [d**n]
    dims = []
    for shape in enumerate_integer_partitions(n):
        if len(shape) <= d:
            cols = [sum(m > j for m in shape) for j in range(shape[0])]
            boxes = [(i, j) for i, m in enumerate(shape) for j in range(m)]
            top = math.prod(d + j - i for i, j in boxes)
            hooks = math.prod(shape[i] - j + cols[j] - i - 1 for i, j in boxes)
            dims.append(top // hooks)
    return dims


def split_bytes(blocks: list, dim: int) -> int:
    """Estimated bytes of the sector split of a real dim x dim operator into `blocks` and its solves.

    The split holds every block (m^2 doubles), its four dim x CHUNK_COLUMNS
    arrays and a chunk's bincounts (eight such arrays are counted); the
    largest solve takes 4 m^2 doubles more
    (numpy's eigh copies its input, and takes 2 m^2 of workspace and m^2 of
    vectors). A solved block is replaced by its factor, of its size.
    """
    return 8 * (sum(m * m for m in blocks) + 4 * max(blocks) ** 2 + 8 * dim * CHUNK_COLUMNS)


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
            # entries within n! for n <= SPLIT_N_MAX, the largest n a task splits at
            first, proj = tableaux[0], np.eye(size, dtype=np.int64)
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
        gathers = tuple(
            (flat, local[s], first[which][:, None] + np.arange(local[s].shape[1]))
            for (which, flat), (_, local) in zip(orbits, shapes)
        )
        if count.sum():
            sectors.append(Sector(gathers, int(count.sum()), *lift[s]))
    return tuple(sectors)


def chunk_terms(sectors: tuple, parts: tuple) -> tuple:
    """The nonzeros (f, r, v) of X = [Q_s[:, j0:j1] for (s, j0, j1) in parts], by column r, then row f.

    Read off the orbit gathers: sector column j0 + r' is copy k of orbit o
    where the shape's `cols` holds it, and its entries are L_s[:, k] at the
    orbit's flat indices.
    """
    f, r, v, start = [], [], [], 0
    for s, j0, j1 in parts:
        for flat, local, cols in sectors[s].orbits:
            orbit, copy = np.nonzero((cols >= j0) & (cols < j1))
            term, at = np.nonzero(local[:, copy])
            f.append(flat[term, orbit[at]])
            r.append(start + cols[orbit, copy][at] - j0)
            v.append(local[term, copy[at]])
        start += j1 - j0
    f, r, v = (np.concatenate(x) for x in (f, r, v))
    order = np.lexsort((f, r))
    return f[order], r[order], v[order]


def _transpose_times(a: CSR, terms: tuple, width: int, out=None) -> np.ndarray:
    """a^T X, C-ordered, for X of `width` columns given by its nonzeros (`chunk_terms`);
    written into `out` when given.

    Bincounts over the rows of a that X reads: every bin (column of a,
    column r of X) sums a[f, :] X[f, r] over the f of X's column. Whole
    columns of X go to one bincount, as many as read about 32 rows' worth of
    a's width, so the gathered terms stay near the size of the dim x width result.
    """
    f, r, v = terms
    n, counts = a.shape[1], np.diff(a.indptr)[f]
    first = np.searchsorted(r, np.arange(width + 1))  # each column's first term
    read = np.concatenate([[0], np.cumsum(counts)])[first]  # entries of a read before it
    out = np.empty((n, width), a.data.dtype) if out is None else out
    t0 = 0
    while t0 < width:
        t1 = int(np.searchsorted(read, read[t0] + 32 * n, side="right")) - 1
        t1 = min(width, max(t0 + 1, t1))
        part, c = slice(first[t0], first[t1]), counts[first[t0] : first[t1]]
        at = np.repeat(a.indptr[f[part]] - np.cumsum(c) + c, c)
        at += np.arange(at.size)  # the stored entries of a's rows f, row after row
        bins = a.indices[at].astype(np.int64)
        bins *= t1 - t0
        bins += np.repeat(r[part] - t0, c)
        products = a.data[at]
        products *= np.repeat(v[part], c)
        size, block = n * (t1 - t0), out[:, t0:t1]
        if np.iscomplexobj(products):
            block.real = np.bincount(bins, products.real, minlength=size).reshape(block.shape)
            block.imag = np.bincount(bins, products.imag, minlength=size).reshape(block.shape)
        else:
            block[...] = np.bincount(bins, products, minlength=size).reshape(block.shape)
        t0 = t1
    return out


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
    first chunk unless blocks holds one to write over), and
    diffs[serves][t, u] gains ||B_t - B_u||_F^2 on them, so
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
    if serves not in diffs:
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

    a is the `CSR` H of a solve, or a dense matrix (an oracle's H, or I(z)),
    converted once. Per chunk X of `_column_parts`, the rows Q^T (a^T X)
    come from a^T X, gathered from the rows of a that X reads (`_transpose_times`),
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
    dim x CHUNK_COLUMNS arrays and the rows of a that one chunk reads.
    """
    if n >= 2:
        sectors = symmetry_sectors(d, n)
        csr = a if isinstance(a, CSR) else CSR.from_dense(np.asarray(a))  # read by rows
        bounds = np.cumsum([0] + [s.dim for s in sectors])
        blocks, diffs, cross = {}, {}, 0.0
        chunks = _column_parts(sectors, CHUNK_COLUMNS)
        chunks = [(parts, sum(j1 - j0 for _, j0, j1 in parts)) for parts in chunks]
        # a^T X, Q^T (a^T X) and the gathers of `_sector_rows`, made once for every chunk
        held = np.empty((4, csr.shape[1] * max(width for _, width in chunks)), csr.data.dtype)
        for parts, width in chunks:
            ax = _carve(held[0], (csr.shape[1], width))
            ax = _transpose_times(csr, chunk_terms(sectors, parts), width, ax)
            rows = _sector_rows(sectors, ax, _carve(held[1], ax.shape), held[2:])  # Q^T (a^T X)
            cross = fill_sector_blocks(rows, parts, blocks, diffs, bounds, cross)
        split = sector_split(sectors, blocks, diffs, cross, n)
        if split is not None:
            return split
        # refused: nothing filed is held while a is made dense
        del sectors, csr, blocks, diffs, ax, rows, held
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
    kept, pair = [b.T for b in blocks.values()], max(defects, default=None)
    return SectorSplit(sectors, kept, tuple(blocks), cross, theta, pair, norm, tuple(spread))


def _slab_entries(op: CSR, d: int, n: int, legs: tuple) -> np.ndarray:
    """The entries the lift of op onto `legs` stores in each of the d slabs of a d^n operator.

    Slab s holds the d^(n-1) rows whose particle 1 sits at site s. A lift
    on leg 0 reads op's rows whose first digit is s, d^(n-k) times over
    the k legs; any other lift repeats all of op d^(n-k-1) times per slab.
    """
    k = len(legs)
    if legs[0] == 0:
        return np.diff(op.indptr[:: d ** (k - 1)]).astype(np.int64) * d ** (n - k)
    return np.full(d, op.nnz * d ** (n - k - 1), dtype=np.int64)


def _slabs(sums: list, d: int, n: int) -> np.ndarray:
    """The entries the leg lifts of `sums`, (op, leg list) pairs, store in each slab."""
    per_slab = np.zeros(d, dtype=np.int64)
    for op, leg_list in sums:
        for legs in leg_list:
            per_slab += _slab_entries(op, d, n, legs)
    return per_slab


def _assembly_bytes(sums: list, window: Window, n: int) -> int:
    """Estimated bytes `_assemble` holds: H's arrays at the stored-entry bound, and one slab.

    Per entry of the largest slab (`_slabs`) its lifts, `_sum`'s keys and
    order and the merged slab take ENTRY_BYTES.
    """
    d = window.n_sites
    slabs = _slabs(sums, d, n)
    stored = int(slabs.sum())
    index = 4 if max(stored, d**n) < 2**31 else 8
    return (8 + index) * stored + index * (d**n + 1) + ENTRY_BYTES * int(slabs.max())


def _assemble(sums: list, window: Window, n: int) -> CSR:
    """The sum of the leg sums of `sums`, (op, leg list) pairs, one slab of d^(n-1) rows at a time.

    Per slab the lifts of each leg sum are summed left to right by `_sum`,
    then the leg sums are (H0 + V). `_sum` merges row by row, so the slabs
    store exactly what the whole lifts' sums would. Each slab is written into
    H's arrays, made once at the stored-entry bound (`_slabs`) and trimmed
    in place to the entries kept.
    """
    d, sums = window.n_sites, [(op, legs) for op, legs in sums if legs]
    dim, rows = d**n, d ** (n - 1)
    stored = int(_slabs(sums, d, n).sum())
    kind = np.int32 if max(stored, dim) < 2**31 else np.int64
    data, indices, indptr = np.empty(stored), np.empty(stored, kind), np.zeros(dim + 1, kind)
    at = 0
    for r0 in range(0, dim, rows) if sums else ():
        span = range(r0, r0 + rows)
        slab = _sum([_sum([embed_on_legs(op, window, n, legs, span) for legs in leg_list])
                     for op, leg_list in sums])
        end = at + slab.nnz
        data[at:end], indices[at:end] = slab.data, slab.indices
        indptr[r0 + 1 : r0 + rows + 1] = slab.indptr[1:]
        indptr[r0 + 1 : r0 + rows + 1] += at
        at = end
    data.resize(at, refcheck=False)  # in place: nothing else refers to them
    indices.resize(at, refcheck=False)
    return CSR(data, indices, indptr, (dim, dim))


def _one_site_sum(params: ModelParams, window: Window, basis: str) -> tuple:
    return one_site_operator(params, window, basis), [(k,) for k in range(params.N)]


def _pair_sum(params: ModelParams, window: Window, basis: str, pair_operator) -> tuple:
    """(the pair operator, the leg pairs): with no pair to place (N = 1) none is built."""
    pair_list = pairs(params.N)
    if pair_operator is None and pair_list:
        pair_operator = two_site_operator(params, window, basis)
    return pair_operator, pair_list


def build_hamiltonian(
    params: ModelParams, window: Window, basis: str, pair_operator=None
) -> OperatorMatrix:
    """H = H0 + the interaction on every pair.

    `pair_operator` is the caller's `two_site_operator(params, window, basis)`,
    or None to build it here. One slab at a time, the H0 lifts and the pair
    lifts are each summed, then H0 + V (`_assemble`). The pair operator is
    made first, and the assembly's bytes (`_assembly_bytes`) are checked
    against the memory budget before anything is lifted.
    """
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}")
    sums = [_one_site_sum(params, window, basis), _pair_sum(params, window, basis, pair_operator)]
    n = params.N
    within_budget(
        _assembly_bytes(sums, window, n),
        f"the assembly of H at N = {n}, L = {window.L} ({basis} basis)",
    )
    return OperatorMatrix(basis, window, n, _assemble(sums, window, n))


def _permutation_parity(perm: tuple) -> int:
    """0 for an even permutation, 1 for an odd one: the parity of its inversions."""
    return sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
