"""Cluster-expansion resolvent algebra: chains, I(z), D(z), functional equation.

Every cluster Hamiltonian H_D is a Kronecker sum of its block Hamiltonians,
and a block of k particles acts on its legs as H^(k), the k-particle
Hamiltonian of the same model. So with one eigendecomposition
H^(k) = U_k diag(eps_k) U_k^T per block size,

    G_D(z) = W diag(1 / (z - sum_b eps_b)) W^T,   W = (x)_b U_b,

applied leg-wise; the couplings V_{D,D'} act on leg pairs through the one
two-site operator. The N-particle block, which only the full partition has,
is applied from its S_N sector factors, G = sum_s Q_s Y_s diag(1 / (z - eps))
Y_s^T Q_s^T, with no dim x dim U formed. D(z)^T X and I(z)^T X come from a
single pass over the chain tree on a column block X, one chain per orbit of
the particle relabellings that leave H invariant. The resolvent check streams
X over closed chunks of the S_N sector columns, so no dim x dim D, I or
residual is formed, and applies G to each column's own sector rows only;
the dense D and I are the X = 1 case. At N = 2 with a diagonal H^(1) (the
stark basis, or g = 0; `stream_path`) the check runs one pass per sector on
its m x m blocks instead, from W = Q^T V Q, with no pair operator applied
and no chunk plan (`stream_functional_equation`).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .lattice import within_budget
from .model import (
    CHUNK_COLUMNS,
    CSR,
    ModelParams,
    PairPotential,
    SectorSplit,
    Window,
    _carve,
    _column_parts,
    _frobenius,
    _permutation_parity,
    _sector_lift,
    _sector_rows,
    _transpose_times,
    apply_on_legs,
    build_hamiltonian,
    chunk_terms,
    fill_sector_blocks,
    irrep_dims,
    one_site_operator,
    sector_split,
    split_bytes,
    two_site_bytes,
    two_site_operator,
)
from .spectra import (
    ClusterDecomposition,
    SectorEigh,
    enumerate_set_partitions,
    lift_states,
    sector_eigh,
    split_operator,
)

RESIDUAL_TOL = 1e-10
COND_CAP = 1e12
POWER_STEPS = 30
COMPACT_REL_TOL = 1e-6  # singular values below this fraction of the largest count as dropped
# the check's dim x CHUNK_COLUMNS complex buffers beside its N - 1 path levels (`_Buffers`):
# D^T X, I^T X and three work arrays
STREAM_ARRAYS = 5
# kept complex at every N: a power iteration on the sector pass's real |Delta_0| W_ss follows
# another Krylov sequence (z = -1+8i, L = 12: 3.3e-4 relative away) and could fall below a
# stored estimate of the iteration on B, which the benchmark's references hold
NORM_METHOD = (
    "max over the S_N sector blocks of max |B_jj| for an exactly diagonal block B, else of a "
    f"{POWER_STEPS}-step power iteration on B^H B, the boson block (or the whole space) "
    "started from Q_b^T 1, every other from e_j, j its column of largest norm"
)
SVD_NORM_METHOD = (
    "max over the S_N sector blocks of the largest singular value of the compactness SVD "
    "(at N = 2 with a diagonal H^(1), of the real |Delta_0| W_ss, with I_s's singular values)"
)


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


def enumerate_chains(n: int) -> list:
    """Every strictly coarsening chain from the singleton partition.

    Chains ending in a single block (k_s = 1) index I(z); the rest (k_s >= 2)
    index D(z).
    """
    if n > 5:
        raise ValueError("chain enumeration limited to N <= 5")
    parts = enumerate_set_partitions(n)
    start = ClusterDecomposition(tuple((i,) for i in range(1, n + 1)))

    def extend(chain):
        yield chain
        for p in parts:
            if p.is_coarser_than(chain[-1]):
                yield from extend(chain + (p,))

    chains = [DecompositionChain(c) for c in extend((start,))]
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


def _largest_column(a: np.ndarray) -> np.ndarray:
    """e_j, j the column of a of largest norm: A^H A e_j != 0 for every nonzero A.

    The norms are taken CHUNK_COLUMNS columns at a time, so no copy of a is
    made, and each column is summed in the order the whole block's norm sums
    it; a last chunk of one column joins the one before, as numpy sums a
    lone column pairwise.
    """
    m = a.shape[1]
    cuts = list(range(CHUNK_COLUMNS, m, CHUNK_COLUMNS))
    if cuts and m - cuts[-1] == 1:
        cuts.pop()
    norms = np.concatenate([np.linalg.norm(part, axis=0) for part in np.split(a, cuts, axis=1)])
    start = np.zeros(m)
    start[np.argmax(norms)] = 1.0
    return start


def operator_norm(a: np.ndarray, start: Optional[np.ndarray] = None) -> float:
    """2-norm estimate (a lower bound): power iteration on A*A.

    Starts from `start` (default the all-ones vector); if the iterate
    collapses because that vector is orthogonal to the row space, restarts
    from e_j, j the column of largest norm (`_largest_column`), from which no
    iterate of a nonzero matrix collapses.
    """
    est = _power_norm(a, np.ones(a.shape[1], dtype=complex) if start is None else start)
    if est == 0.0:
        est = _power_norm(a, _largest_column(a))
    return est


@dataclass(frozen=True)
class FactoredResolvent:
    """G_D(z) = W diag(delta) W^T, with W = (x)_b U_b over the blocks of D."""

    blocks: tuple  # (legs, SectorEigh of H^(k)) per block; legs sorted and 0-based
    # 1 / (z - sum_b eps_b), flat over the window grid; for the N-particle
    # block, 1 / (z - eps) over its factors' values in factor order
    delta: np.ndarray
    residual_bound: float  # upper bound on ||(z - H_D) G_D - 1||


def _is_diagonal(a: CSR) -> bool:
    """Every stored nonzero of a lies on its diagonal."""
    return np.count_nonzero(a.data) == np.count_nonzero(a.diagonal())


def stream_path(params: ModelParams, window: Window, basis: str) -> str:
    """The check's path: "sectors" (`_sector_pass`) at N = 2 with a diagonal H^(1), else
    "chunks" (`column_chunks`)."""
    diagonal = params.N == 2 and _is_diagonal(one_site_operator(params, window, basis))
    return "sectors" if diagonal else "chunks"


def workspace_bytes(params: ModelParams, window: Window, basis: str) -> int:
    """Estimated bytes of a workspace: its build, or one z of the streamed check.

    Both sit beside the lifted U of every H^(k), k < N. The build holds the
    pair operator, a CSR of at most d^4 entries (12 d^4 bytes), beside the
    larger of the kernel's transients while it is made (`model.two_site_bytes`)
    and a solve: H^(k) as a CSR of at most C(N, 2) d^(N + 2) + N d^(N + 1)
    entries (the lifts of the pair and one-site operators) and its sector
    split (`model.split_bytes`). A z of the check holds the
    factors (m^2 doubles per irrep block) and the complex blocks of D and I
    (2 m^2 complex); the SVD of its largest block takes one more complex copy
    of it, or the real |Delta_0| W_ss and its copy. The chunked stream sits
    beside the dense `two_site` (12 d^4 bytes) and adds the chunk plan's
    nonzeros of X and Q^T X (at most N! per column) and its buffers
    (`_Buffers`); the sector pass holds no pair operator, and adds W_ss and
    B_s = Y_s^T W_ss (2 m^2 doubles per sector), its two m x CHUNK_COLUMNS
    complex scratch arrays, and 40 bytes per sector column (`_SectorTerms`
    and one z's delta_0).
    """
    d, n = window.n_sites, params.N
    blocks, dim = irrep_dims(d, n), d**n
    held = sum(m * m for m in blocks)
    pair = 12 * d**4
    if stream_path(params, window, basis) == "sectors":
        work, pair = 16 * held + 32 * max(blocks) * CHUNK_COLUMNS + 40 * dim, 0
    else:
        plan = 32 * math.factorial(n) * dim
        work = plan + 16 * (STREAM_ARRAYS + n - 1) * dim * CHUNK_COLUMNS
    stream = 8 * held + 32 * held + work + 16 * max(blocks) ** 2
    lifted = 8 * sum(d ** (2 * k) for k in range(1, n))
    solve = 12 * (math.comb(n, 2) * d ** (n + 2) + n * d ** (n + 1)) + split_bytes(blocks, dim)
    build = 12 * d**4 + max(two_site_bytes(params, window, basis), solve)
    return lifted + max(build, pair + stream)


@dataclass
class ResolventWorkspace:
    """The block solves, what the check's path reads of the pair operator, and G_D(z) at one z.

    The path is fixed when the workspace is made; the first `block` builds the rest (`_build`).
    """

    params: ModelParams
    window: Window
    basis: str = "stark"
    estimate: int = field(default=0, init=False)  # workspace_bytes, checked against the budget
    path: str = field(default="", init=False)  # `stream_path`
    blocks: dict = field(default_factory=dict, init=False)  # k -> SectorEigh of H^(k)
    terms: Optional[_SectorTerms] = field(default=None, init=False)  # read on "sectors"
    coupling: Optional[np.ndarray] = field(default=None, init=False)  # `two_site`
    z: Optional[complex] = field(default=None, init=False)  # the z of `factors`
    factors: dict = field(default_factory=dict, init=False)  # canonical partition -> `factor`
    plan: Optional[tuple] = field(default=None, init=False)  # (CHUNK_COLUMNS, `column_chunks`)
    buffer: Optional[np.ndarray] = field(default=None, init=False)  # `_owned`

    def __post_init__(self):
        self.estimate = within_budget(
            workspace_bytes(self.params, self.window, self.basis),
            f"the resolvent workspace at N = {self.params.N}, L = {self.window.L}",
        )
        self.path = stream_path(self.params, self.window, self.basis)

    @property
    def dim(self) -> int:
        return self.window.n_sites**self.params.N

    def block(self, k: int) -> SectorEigh:
        """Eigendecomposition of H^(k), shared by every block of k particles (`_build`)."""
        if not self.blocks:
            self._build()
        return self.blocks[k]

    def _build(self) -> None:
        """Solve every H^(k) from one pair operator, then make of it what the path reads.

        Every block is `spectra.sector_eigh` of H^(k)'s split, H^(k) assembled
        from the one pair operator. The k = N block is applied from its
        sector factors; blocks with k < N are applied leg-wise by their
        d^k x d^k U, every column lifted by `spectra.lift_states`, unless
        H^(k) is diagonal: then U = 1 exactly, with its diagonal in index
        order, `eigenvectors` None, no factors and zero defects. Then on
        "chunks" the pair operator is made dense (`coupling`), and on
        "sectors" W's sector blocks are made of it (`_sector_terms`); its CSR
        goes then, before B_s = Y_s^T W_ss is made, with Y_s the vectors of the
        N-block's solve that serves sector s.
        """
        n = self.params.N
        pair = two_site_operator(self.params, self.window, self.basis) if n > 1 else None
        for k in range(1, n + 1):
            h = build_hamiltonian(self.params.with_n(k), self.window, self.basis, pair)
            if k < n and _is_diagonal(h.matrix):
                diag = h.matrix.diagonal()
                self.blocks[k] = SectorEigh(diag, None, np.zeros_like(diag), 0.0, 0.0, {})
                continue
            split = split_operator(h)
            del h  # the split was the last reader of H^(k)
            res = sector_eigh(split)
            del split
            if k < n:
                res = res._replace(eigenvectors=lift_states(res, np.arange(res.eigenvalues.size)))
            self.blocks[k] = res
        if self.path == "sectors":
            terms = self._sector_terms(pair)
            del pair
            solves = [f.vectors for f in self.blocks[n].factors for _ in f.sectors]
            self.terms = terms._replace(products=tuple(y.T @ w for y, w in zip(solves, terms.w)))
        elif pair is not None:
            self.coupling = pair.toarray()

    def _sector_terms(self, pair: CSR) -> _SectorTerms:
        """What the sector pass reads of W = Q^T V Q at N = 2, from the pair operator V; no B yet.

        W is real. Per column chunk X of Q, V X from the rows of V that X
        reads (`model._transpose_times`; V is exactly symmetric), then Q^T of
        it; at N = 2 a chunk is one run of one sector. Of it are kept the
        sector blocks W_ss and the squared norm of each column of W off its
        own sector. Per sector column j: a flat index of its orbit, where the
        root's delta is read, and q_j, the diagonal of Q^T Q.
        """
        sectors = self.sector_columns()
        bounds = np.cumsum([0] + [s.dim for s in sectors])
        w = tuple(np.empty((s.dim, s.dim)) for s in sectors)
        orbit, q, off = np.empty(self.dim, dtype=np.int64), np.empty(self.dim), np.empty(self.dim)
        for parts in _column_parts(sectors, CHUNK_COLUMNS):
            [(s, j0, j1)] = parts
            vx = _transpose_times(pair, chunk_terms(sectors, parts), j1 - j0)
            rows, (a, b) = _sector_rows(sectors, vx), bounds[s : s + 2]
            w[s][:, j0:j1], rest = rows[a:b], np.delete(rows, np.s_[a:b], axis=0)
            off[a + j0 : a + j1] = np.einsum("ij,ij->j", rest, rest)
        for sector, a in zip(sectors, bounds):
            for flat, local, cols in sector.orbits:
                orbit[a + cols] = flat[0][:, None]
                q[a + cols] = np.einsum("ij,ij->j", local, local)
        return _SectorTerms(bounds, orbit, q, off, w, ())

    def sector_columns(self) -> tuple:
        """The sectors of the N-block's factors, in factor order: the stacked columns Q.

        `apply_resolvent` projects the N-particle block onto these columns,
        and the resolvent check streams them. Q is the identity when H^(N)
        was not split (the whole space).
        """
        return tuple(s for f in self.block(self.params.N).factors for s in f.sectors)

    def sector_rows(self, y: np.ndarray, out=None, scratch=()) -> np.ndarray:
        """Q^T y over `sector_columns`, complex and C-ordered: one gather per orbit shape.

        `out` and `scratch` as in `model._sector_rows`.
        """
        return _sector_rows(self.sector_columns(), np.asarray(y, dtype=complex), out, scratch)

    def two_site(self) -> np.ndarray:
        """The d^2 x d^2 pair operator applied on every leg pair (i < j), made dense once.

        On "chunks" the build makes it; on "sectors" only the dense oracle
        (`expansion`) reads it, and it is made here from a new pair operator.
        """
        if self.coupling is None:
            self.coupling = two_site_operator(self.params, self.window, self.basis).toarray()
        return self.coupling

    def svd_blocks(self, z: complex):
        """Blocks with the singular values of I(z)'s sector blocks, for `compactness_proxy`.

        On "sectors", |Delta_0| W_ss per sector for I_s = Delta_0 W_ss: the
        phases of delta_0 are a diagonal unitary, so each has I_s's singular
        values. Each is written over the one before, in one buffer. On
        "chunks", None: the SVD takes I's own blocks.
        """
        if self.path == "chunks":
            return None
        terms, bounds = self.terms, self.terms.bounds
        delta0 = np.abs(self.factor(ClusterDecomposition(((1,), (2,))), z).delta[terms.orbit])
        buf = np.empty(max(w.size for w in terms.w))
        return (np.multiply(w, delta0[a:b], out=_carve(buf, w.shape))
                for w, a, b in zip(terms.w, bounds, bounds[1:]))

    def _owned(self, rows: int, size: int) -> np.ndarray:
        """The workspace's complex buffer, made at least (rows, size); kept until `drop_buffers`."""
        held = self.buffer
        if held is None or held.shape[0] < rows or held.shape[1] < size:
            held = self.buffer = np.empty((rows, size), dtype=complex)
        return held

    def drop_buffers(self) -> None:
        """Free the owned buffer (the chunk plan's or the sector pass's); a z remakes it."""
        self.buffer = None

    def factor(self, dec: ClusterDecomposition, z: complex) -> FactoredResolvent:
        """G_D(z) in factored form, after the near-spectrum and residual gates."""
        key = dec.canonical()
        if complex(z) != self.z:
            # one z's factors at a time: each holds a dim-sized delta, and callers finish a z first
            self.z, self.factors = complex(z), {}
        if key in self.factors:
            return self.factors[key]
        d, n = self.window.n_sites, self.params.N
        blocks = tuple(
            (tuple(i - 1 for i in legs), self.block(len(legs))) for legs in dec.canonical()
        )
        if len(blocks[0][0]) == n:  # the N-particle block
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
        self.factors[key] = FactoredResolvent(blocks, delta, bound)
        return self.factors[key]

    def apply_resolvent(
        self, dec: ClusterDecomposition, z: complex, x: np.ndarray, out=None, spare=None
    ) -> np.ndarray:
        """G_D(z) x = W diag(delta) W^T x, one block's legs at a time.

        The N-particle block is applied from its sector factors instead: the
        rows Q^T x (`sector_rows`), then `resolve_rows`. Any other block
        goes back and forth between `spare` and `out`, complex arrays of x's
        shape (out may be x itself), and overwrites x; without `out` both
        are new and x is left as it is.
        """
        d, n = self.window.n_sites, self.params.N
        f = self.factor(dec, z)
        if len(f.blocks[0][0]) == n:
            return self.resolve_rows(z, self.sector_rows(x))
        if out is None:
            x = np.array(x, dtype=complex)
            out, spare = np.empty_like(x), np.empty_like(x)
        solved = [(legs, b.eigenvectors) for legs, b in f.blocks if b.eigenvectors is not None]
        hops = iter([spare, out] * len(solved))  # an even count of hops ends in out
        for legs, u in solved:
            x = apply_on_legs(u.T, x, legs, d, n, out=next(hops))
        x = np.multiply(f.delta[:, None], x, out=x if solved else out)
        for legs, u in solved:
            x = apply_on_legs(u, x, legs, d, n, out=next(hops))
        return x

    def full_factor(self, z: complex) -> FactoredResolvent:
        """G(z) of the full H: `factor` of the one-block partition, from the N-block's factors."""
        return self.factor(ClusterDecomposition((tuple(range(1, self.params.N + 1)),)), z)

    def resolve_rows(self, z: complex, rows: np.ndarray) -> np.ndarray:
        """G(z) y of the full H from the rows Q^T y of `sector_rows`; overwrites rows.

        Per solve of the N-block's factors, Y^T, delta and Y on the rows of
        every sector it serves (stacked, so the partner sectors of one irrep
        are one batch), then the lift by Q.
        """
        f = self.full_factor(z)
        rows = _solve_in_sectors(f.blocks[0][1].factors, f.delta, rows)
        out = np.empty((self.dim,) + rows.shape[1:], dtype=complex)
        _sector_lift(self.sector_columns(), rows, out)
        return out

    def apply_coupling(
        self,
        d_fine: ClusterDecomposition,
        d_coarse: ClusterDecomposition,
        x: np.ndarray,
        out=None,
        scratch=(None, None),
    ) -> np.ndarray:
        """V_{D,D'} x: the two-site operator on each leg pair the step joins.

        With `out` and `scratch`, two more arrays of x's shape, the sum is
        written into out, each later pair's product through the first
        scratch (the second stages pairs that are not consecutive); x is left
        as it is.
        """
        d, n = self.window.n_sites, self.params.N
        v2 = self.two_site()
        first, *rest = _new_pairs(d_fine, d_coarse)
        out = apply_on_legs(v2, x, first, d, n, out, scratch[0])
        for legs in rest:
            out += apply_on_legs(v2, x, legs, d, n, *scratch)
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
        _scaled_solve(fac.vectors, delta[first : first + m], rows, _carve(buf, rows.shape), rows)
        start, first = start + r * m, first + m
    return x


def _scaled_solve(y: np.ndarray, delta: np.ndarray, rows: np.ndarray, t, out) -> np.ndarray:
    """Y diag(delta) Y^T on `rows`, the real view of complex rows; Y^T rows goes into t.

    t and out are real arrays of rows' shape, or None for new ones; out may be rows.
    """
    t = np.matmul(y.T, rows, out=t)
    scaled = t.view(complex)
    scaled *= delta[:, None]
    return np.matmul(y, t, out=out)


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
        (c for c in enumerate_chains(n) if c.is_single_merge and c.k_s >= 2), key=key
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


class ColumnChunk(NamedTuple):
    """A column block X of the streamed check, closed under the leg permutations.

    X = [Q_s[:, j0:j1] for (s, j0, j1) in parts] over the sectors of
    `ResolventWorkspace.sector_columns`, or X = 1 with no parts, so
    P^T X = X M(pi) for every leg permutation pi the expansion images by.
    `mix` maps each image (its axes tuple in `chain_orbits`) to M(pi): the
    scalar +-1 on a one-dimensional sector (and 1 for the identity); on the
    k partner sectors of an irrep, whose parts are of one width w, the dense
    k x k R(pi) with M = R (x) 1_w on the (k, w) column view; None for X = 1,
    where M = P^T permutes the column legs as P the row legs. X and Q^T X
    are kept as their nonzeros (`_dense`); the stream writes X into the
    buffer it runs through (`_buffers`).
    """

    terms: tuple  # X's nonzeros: (rows, cols, values, shape)
    parts: tuple
    mix: dict
    qx: tuple  # Q^T X's nonzeros over the sector columns, the same way

    @property
    def width(self) -> int:
        return self.terms[3][1]


class _SectorTerms(NamedTuple):
    """The sector pass's reading of W = Q^T V Q (`ResolventWorkspace._sector_terms`)."""

    bounds: np.ndarray  # the first row of each sector in Q^T, then dim
    orbit: np.ndarray  # per sector column, a flat index of its orbit
    q: np.ndarray  # per sector column, (Q^T Q)_jj
    off: np.ndarray  # per column j of W, its squared norm over the rows off j's sector
    w: tuple  # per sector s, W_ss
    products: tuple  # per sector s, B_s = Y_s^T W_ss


class _Buffers(NamedTuple):
    """The dim x width complex arrays one chunk of the check runs through: N + 4 of them.

    In `expansion_columns`: X, written into the first of the N - 1 path
    levels and resolved there; D^T X and I^T X; and the work arrays, through
    which every coupling, resolvent and dense mix goes (the first takes each
    product, the second stages a later leg pair that is not consecutive, the
    third sums the couplings of an I term). After it (`chunk_rows`):
    Q^T (D^T X) in the third work array, Q^T (I^T X) over
    D^T X and u of `sector_residual` over I^T X, each read by then, through
    the first work array and level.
    """

    levels: tuple
    d: np.ndarray
    i: np.ndarray
    work: tuple


def _buffers(ws: "ResolventWorkspace", chunk: ColumnChunk) -> _Buffers:
    """The chunk plan's buffers (`column_chunks`) as dim x width arrays; new ones for X = 1."""
    n, width = ws.params.N, chunk.width
    rows, size = STREAM_ARRAYS + n - 1, ws.dim * width
    held = ws._owned(rows, size) if chunk.parts else np.empty((rows, size), dtype=complex)
    views = [a[:size].reshape(ws.dim, width) for a in held[:rows]]
    return _Buffers(tuple(views[: n - 1]), views[n - 1], views[n], tuple(views[n + 1 :]))


def _chunk_plan(ws: ResolventWorkspace, x: np.ndarray, parts: tuple) -> tuple:
    """(mix, Q^T X) of the closed chunk X (real, dim x b) of `parts`; no parts: X = 1."""
    n, d = ws.params.N, ws.window.n_sites
    sectors = ws.sector_columns()
    irreps = {sectors[s].irrep for s, _, _ in parts}
    orbits = chain_orbits(n, even_potential(ws.params.potential))
    identity, mix = tuple(range(n)), {}
    for axes in {axes for _, images in orbits for axes in images}:
        legs = axes[:n]
        if not parts:
            mix[axes] = None
        elif legs == identity or irreps == {(n,)}:
            mix[axes] = 1.0
        elif irreps == {(1,) * n}:
            mix[axes] = -1.0 if _permutation_parity(legs) else 1.0
        else:
            # P^T X gathers the rows of X, and M = X^T P^T X is R(pi) on every
            # column of the parts: read it off their first columns
            rows = np.arange(ws.dim).reshape((d,) * n).transpose(np.argsort(legs)).ravel()
            first = x[:, :: parts[0][2] - parts[0][1]]
            mix[axes] = first.T @ first[rows]
    return mix, _sector_rows(sectors, x)


def _identity_chunk(ws: ResolventWorkspace) -> ColumnChunk:
    """X = 1 as a chunk: the dense D^T, I^T and residual of the same kernels."""
    index = np.arange(ws.dim, dtype=np.int32)
    mix, qx = _chunk_plan(ws, np.eye(ws.dim), ())
    return ColumnChunk((index, index, np.ones(ws.dim), (ws.dim, ws.dim)), (), mix, _nonzeros(qx))


def _nonzeros(a: np.ndarray) -> tuple:
    """(rows, cols, values, shape) of a's nonzero entries, int32 indices (a dimension within the
    memory budget is far below 2^31)."""
    rows, cols = np.nonzero(a)
    return rows.astype(np.int32), cols.astype(np.int32), a[rows, cols], a.shape


def _dense(nonzeros: tuple, dtype, out=None) -> np.ndarray:
    """X from the (rows, cols, values, shape) of its nonzero entries, as a chunk caches it;
    written into `out` when given."""
    rows, cols, values, shape = nonzeros
    if out is None:
        out = np.zeros(shape, dtype)
    else:
        out.fill(0)
    out[rows, cols] = values
    return out


def _minus_rows(qx: tuple, ri: np.ndarray, out=None) -> np.ndarray:
    """Q^T X - ri from the nonzeros of Q^T X, entry for entry as the dense difference rounds it."""
    rows, cols, values, _ = qx
    u = np.subtract(0.0, ri, out=out)
    u.real[rows, cols] = values - ri.real[rows, cols]
    return u


def column_chunks(ws: ResolventWorkspace):
    """The closed column chunks that cover the sector columns of the workspace, in order.

    Each is at most CHUNK_COLUMNS wide, or one column per partner sector of an
    irrep of larger dimension (`model._column_parts`, as `split_by_symmetry`).
    The workspace keeps, for every z, each chunk's nonzeros of X and Q^T X
    and its mixes (`plan`), and owns the plan's buffers: STREAM_ARRAYS + N - 1
    arrays of dim x the widest chunk, complex (`_buffers`), made once and
    written by every chunk of every z.
    """
    if ws.plan is None or ws.plan[0] != CHUNK_COLUMNS:
        sectors = ws.sector_columns()
        orbits = chain_orbits(ws.params.N, even_potential(ws.params.potential))
        if sectors[0].irrep == () and any(len(images) > 1 for _, images in orbits):
            # an even v with H^(N) left whole: columns of 1 are not closed
            raise np.linalg.LinAlgError("H^(N) does not split into the S_N sectors")
        plans = []
        for parts in _column_parts(sectors, CHUNK_COLUMNS):
            f, r, v = chunk_terms(sectors, parts)
            width = sum(j1 - j0 for _, j0, j1 in parts)
            x = (f.astype(np.int32), r.astype(np.int32), v, (ws.dim, width))
            mix, qx = _chunk_plan(ws, _dense(x, np.float64), parts)
            plans.append(ColumnChunk(x, parts, mix, _nonzeros(qx)))
        ws.plan = (CHUNK_COLUMNS, tuple(plans))
    chunks = ws.plan[1]
    # made once per plan, or again after `drop_buffers`
    ws._owned(STREAM_ARRAYS + ws.params.N - 1, ws.dim * max(c.width for c in chunks))
    yield from chunks


def _add_images(
    acc: np.ndarray, x: np.ndarray, images: tuple, mix: dict, d: int, n: int, scratch=None
) -> None:
    """acc += P x M(pi) for each image: the columns mixed by M, then a strided add of the row legs.

    A dense M's product goes through `scratch` (x's size) when given.
    """
    b = x.shape[1]
    acc_t, x_t = acc.reshape((d,) * n + (b,)), x.reshape((d,) * n + (b,))
    for axes in images:
        m = mix[axes]
        if m is None:  # X = 1: P x P^T
            full = acc.reshape((d,) * (2 * n))
            full += x.reshape((d,) * (2 * n)).transpose(axes)
        elif isinstance(m, float):
            if m > 0.0:
                acc_t += x_t.transpose(axes[:n] + (n,))
            else:
                acc_t -= x_t.transpose(axes[:n] + (n,))
        else:  # (P x) M = P (x M): R(pi)^T on the partner axis of x's real (dim, k, 2w) view
            k = m.shape[0]
            view = (d,) * n + (k, 2 * b // k)
            xr = np.ascontiguousarray(x).view(np.float64).reshape(-1, *view[n:])
            held = None if scratch is None else scratch.view(np.float64).reshape(xr.shape)
            mixed = np.matmul(m.T, xr, out=held)
            acc_r = acc.view(np.float64).reshape(view)
            acc_r += mixed.reshape(view).transpose(axes[:n] + (n, n + 1))


def expansion_columns(z: complex, ws: ResolventWorkspace, chunk: ColumnChunk) -> tuple:
    """(D(z)^T X, I(z)^T X) for the chunk's columns X, in one pass over the chain tree.

    Each node's prefix P = G_{D_0} V ... G_{D_k} is applied as its transpose
    G_{D_k} V ... G_{D_0} (every H_D and V is real symmetric), so each step is
    a left product on the row legs of a dim x b block. A node with >= 2
    blocks adds P^T X to D^T X; one with exactly 2 blocks adds
    (P V_{D_k, full})^T X to I^T X. Each term is added once per image of its
    chain (`chain_orbits`): image pi of a term T contributes P T P^T, and
    P T P^T X = P (T X) M(pi) since the chunk is closed (`ColumnChunk`).
    Every array is one of the chunk plan's buffers (`_buffers`), so the two
    returned are overwritten by the next chunk.
    """
    n = ws.params.N
    if n < 2:
        raise ValueError("the expansion needs N >= 2")
    d = ws.window.n_sites
    full = ClusterDecomposition((tuple(range(1, n + 1)),))
    orbits = chain_orbits(n, even_potential(ws.params.potential))
    buf = _buffers(ws, chunk)
    work = buf.work
    root = orbits[0][0].sequence[0]
    q = _dense(chunk.terms, complex, buf.levels[0])
    ws.apply_resolvent(root, z, q, q, work[0])
    # the first chain is the root; in lexicographic order every later chain
    # extends a prefix of the one before it, so `path` keeps just the prefixes
    # the next chain extends, each in the level buffer of its depth
    path = [(root, q)]
    d_t, i_t = buf.d, buf.i
    np.copyto(d_t, q)
    i_t.fill(0.0)
    next_lengths = [len(c.sequence) for c, _ in orbits[1:]] + [1]
    for (c, images), next_length in zip(orbits, next_lengths):
        dec = c.sequence[-1]
        if len(c.sequence) > 1:
            q = buf.levels[len(c.sequence) - 1]
            ws.apply_coupling(path[-1][0], dec, path[-1][1], q, work[:2])
            ws.apply_resolvent(dec, z, q, q, work[0])
            path.append((dec, q))
            _add_images(d_t, q, images, chunk.mix, d, n, work[0])
        del path[next_length - 1 :]
        if dec.n_blocks == 2:
            coupled = ws.apply_coupling(dec, full, q, work[2], work[:2])
            _add_images(i_t, coupled, images, chunk.mix, d, n, work[0])
    return d_t, i_t


def chunk_rows(z: complex, ws: ResolventWorkspace, chunk: ColumnChunk) -> tuple:
    """(Q^T (D(z)^T X), Q^T (I(z)^T X)) for a chunk X of `column_chunks`: the rows the stream uses.

    `ResolventWorkspace.sector_rows` of `expansion_columns`: the first is
    written into the third work array of the plan's buffers, the second over
    D^T X (`_Buffers`).
    """
    buf = _buffers(ws, chunk)
    dx, ix = expansion_columns(z, ws, chunk)
    work = (buf.work[0], buf.levels[0])
    # each of D^T X and I^T X is read once: D^T X's array takes Q^T (I^T X)
    return ws.sector_rows(dx, buf.work[2], work), ws.sector_rows(ix, dx, work)


def expansion(z: complex, ws: ResolventWorkspace) -> tuple:
    """(D(z), I(z)) as dense matrices: `expansion_columns` of X = 1, transposed."""
    d_t, i_t = expansion_columns(z, ws, _identity_chunk(ws))
    return d_t.T, i_t.T


def build_I(z: complex, ws: ResolventWorkspace) -> np.ndarray:
    """I(z): sum over connected chains, no trailing resolvent."""
    return expansion(z, ws)[1]


def build_D(z: complex, ws: ResolventWorkspace) -> np.ndarray:
    """D(z): sum over k_s >= 2 chains, each ending in its cluster resolvent."""
    return expansion(z, ws)[0]


def residual_columns(
    z: complex, ws: ResolventWorkspace, chunk: ColumnChunk, dx: np.ndarray, ri: np.ndarray
) -> np.ndarray:
    """R^T X = G (X - I^T X) - D^T X for R = G - D - I G, from D^T X and ri = Q^T (I^T X).

    The full-coordinate residual of the dense oracle (`functional_equation`,
    X = 1); the stream forms its residual in sector coordinates instead
    (`sector_residual`). G is complex symmetric (H is real symmetric), so R^T = G (1 - I^T) - D^T:
    one resolvent applied to a block, with neither G nor I G formed. G is
    applied from the N-block's sector factors to the rows Q^T (X - I^T X) =
    Q^T X - ri (`ResolventWorkspace.resolve_rows`), so X is not projected again.
    """
    r = ws.resolve_rows(z, _minus_rows(chunk.qx, ri))
    r -= dx
    return r


def sector_residual(
    z: complex, ws: ResolventWorkspace, chunk: ColumnChunk, rd: np.ndarray, ri: np.ndarray
) -> tuple:
    """Squared Frobenius norms (own, u_off, u) of a chunk's residual in sector coordinates.

    With u = Q^T X - ri, ri = Q^T (I^T X) and rd = Q^T (D^T X), and G = Q M Q^T
    for M = (+)_s Y_s diag(delta) Y_s^T over the N-block's factors,
    Q^T R^T X = (1 + Delta) M u - rd. For each part (s, j0, j1) the own rows
    M_s u_s - rd_s are formed from the solve serving sector s (one solve for
    every partner sector of an irrep); the other rows of u (u_off) are
    only measured, and their M products are bounded in
    `stream_functional_equation`. The chunk needs parts: X = 1 is the dense
    oracle's `residual_columns`. u is written over I^T X of the chunk plan's
    buffers (`_Buffers`), and the products go through the first level and
    work array.
    """
    f = ws.full_factor(z)
    solves, first = [], 0
    for fac in f.blocks[0][1].factors:
        solves += [(fac, first)] * len(fac.sectors)
        first += fac.values.size
    bounds = np.cumsum([0] + [s.dim for s in ws.sector_columns()])
    buffers = _buffers(ws, chunk)
    held = tuple(a.reshape(-1).view(np.float64) for a in (buffers.levels[0], buffers.work[0]))
    u = _minus_rows(chunk.qx, ri, buffers.i)
    own = off = inside = 0.0
    col = 0
    for s, j0, j1 in chunk.parts:
        (fac, first), (a, b), cols = solves[s], bounds[s : s + 2], slice(col, col + j1 - j0)
        part = u[:, cols]
        off += _frobenius(part[:a]) ** 2 + _frobenius(part[b:]) ** 2
        shape = (b - a, 2 * (j1 - j0))  # the real view of own_u, a C-ordered copy
        own_u = _carve(held[0], shape).view(complex)
        np.copyto(own_u, part[a:b])
        inside += _frobenius(own_u) ** 2
        t, out = _carve(held[1], shape), _carve(held[0], shape)
        delta = f.delta[first : first + fac.values.size]
        r = _scaled_solve(fac.vectors, delta, own_u.view(np.float64), t, out).view(complex)
        r -= rd[a:b, cols]
        own += _frobenius(r) ** 2
        col += j1 - j0
    return own, off, inside + off


def _gates(z: complex, ws: ResolventWorkspace) -> tuple:
    """min |z - eps| over the spectrum of H, and the largest per-partition residual bound."""
    dist = float(np.abs(z - ws.block(ws.params.N).eigenvalues).min())
    return dist, max(ws.factor(p, z).residual_bound for p in enumerate_set_partitions(ws.params.N))


@dataclass
class FunctionalEquation:
    """D and I at one z, with the numbers behind the verdict."""

    z: complex
    d: np.ndarray
    i: np.ndarray
    residual: float  # ||G - D - I G||_F, an upper bound on the 2-norm
    dist_to_spectrum: float  # min |z - eps| over the spectrum of the full H
    resolvent_residual_bound: float  # largest per-partition residual bound


def functional_equation(
    z: complex, ws: ResolventWorkspace, d: np.ndarray, i: np.ndarray
) -> FunctionalEquation:
    """Measure R = G - D - I G for (D, I) = expansion(z, ws): `residual_columns` of X = 1."""
    r = residual_columns(z, ws, _identity_chunk(ws), d.T, ws.sector_rows(i.T))
    return FunctionalEquation(complex(z), d, i, _frobenius(r), *_gates(z, ws))


def functional_equation_residual(
    z: complex, params: ModelParams, window: Window, ws: Optional[ResolventWorkspace] = None
) -> float:
    """Frobenius norm of G - D - I G at truncation: a bound on its 2-norm."""
    ws = ws or ResolventWorkspace(params, window)
    return functional_equation(z, ws, *expansion(z, ws)).residual


@dataclass
class StreamedFunctionalEquation:
    """The functional equation at one z from column chunks: D and I as their sector splits.

    `residual` = `residual_sector` + `residual_dropped` bounds ||G - D - I G||_F
    (`stream_functional_equation`): the first is the part on each column's
    own sector rows (formed, or bounded on the sector pass), the second
    bounds the rows that are not formed (the gamma, D cross and theta terms).
    """

    z: complex
    d: SectorSplit  # the blocks Q_s^T D Q_s, as split_by_symmetry(D) gives them
    i: SectorSplit
    residual_sector: float  # (1 - theta)^-1 sqrt(sum ||own||^2)
    residual_dropped: float
    dist_to_spectrum: float
    resolvent_residual_bound: float
    chunks: int  # column blocks run
    chunk_columns: int  # CHUNK_COLUMNS of the run
    path: str  # "sectors" (`_sector_pass`) or "chunks" (`column_chunks`)

    @property
    def residual(self) -> float:
        """An upper bound on ||G - D - I G||_F."""
        return self.residual_sector + self.residual_dropped


def stream_functional_equation(
    z: complex, ws: ResolventWorkspace, stage=contextlib.nullcontext, out=None
) -> StreamedFunctionalEquation:
    """R = G - D - I G, and the sector blocks of D and I, with no dim x dim array formed.

    Per chunk X of `column_chunks`, the rows r_D = Q^T (D^T X) and
    Q^T (I^T X) (`chunk_rows`). They are filed by `model.fill_sector_blocks`,
    as `split_by_symmetry` files its own: the partners' own rows are columns
    of one running block per irrep, the transposed mean of their blocks
    Q_s^T D Q_s (Q_s^T I Q_s), the other rows cross blocks. `model.sector_split` splits them, or
    refuses when the cross norm or the partners' pair defect is too large.
    On the workspace's "sectors" path (`stream_path`: N = 2 with a diagonal
    H^(1)), where it holds the sector blocks of W = Q^T V Q, `_sector_pass`
    takes the place of the chunks, one pass per sector on its blocks.

    The residual is formed in sector coordinates (`sector_residual`). With
    Q^T Q = 1 + Delta, ||Delta||_2 <= theta (the basis defect), and
    G = Q M Q^T, M = (+)_s Y_s diag(delta) Y_s^T, every chunk has
    Q^T R^T X = M u - r_D + Delta M u for u = Q^T X - Q^T (I^T X). Its rows
    on each column's own sector ("own") are formed, or on the sector pass
    bounded in each solve's eigenbasis: own = Y E + (Y Y^T - 1) C with
    C = diag(q delta_0), so ||own||_F <= sqrt(1 + o) ||E||_F + o ||C||_2, o the
    N-block's orthogonality defect (`_sector_pass`). On the other rows
    ||M u_off - r_D,off|| <= gamma ||u_off|| + ||r_D,off||, with
    gamma = max|delta| (1 + the N-block's orthogonality defect) >= ||M||_2.
    The chunks cover Q, ||R^T y|| <= ||Q^T R^T y|| / sqrt(1 - theta) and
    ||R||_F <= ||R^T Q||_F / sqrt(1 - theta), so by the triangle inequality
    per chunk and Minkowski's over the chunks

        ||R||_F <= (1 - theta)^-1 [ sqrt(sum ||own||^2) + gamma sqrt(sum ||u_off||^2)
                                    + sqrt(sum ||r_D,off||^2) + theta gamma sqrt(sum ||u||^2) ],

    where sqrt(sum ||r_D,off||^2) is the cross norm of D. `residual_sector`
    is the first term over 1 - theta, `residual_dropped` the rest. G is
    applied on each column's own sector only, and no row is lifted back by Q.
    `stage(name)` is entered around each chunk's rows (the expansion) and residual.
    With `out`, the result of an earlier z on the same workspace, its sector
    blocks of D and I are written over instead of made anew.
    """
    sectors = ws.sector_columns()
    # (blocks, diffs) of `fill_sector_blocks`; the blocks of `out` are written over
    filed = {name: ({}, {}) for name in "di"}
    if out is not None:
        for name, split in (("d", out.d), ("i", out.i)):
            filed[name][0].update((serves, b.T) for b, serves in zip(split.blocks, split.serves))
    if ws.path == "sectors":
        squares, cross, chunks = _sector_pass(z, ws, filed, stage)
    else:
        bounds = np.cumsum([0] + [s.dim for s in sectors])
        cross = dict.fromkeys("di", 0.0)
        squares, chunks = np.zeros(3), 0  # sum ||own||^2, ||u_off||^2, ||u||^2
        for chunk in column_chunks(ws):
            with stage("resolvent.expansion"):
                rows = dict(zip("di", chunk_rows(z, ws, chunk)))
            with stage("resolvent.functional_equation"):
                squares += sector_residual(z, ws, chunk, rows["d"], rows["i"])
                for name in "di":
                    cross[name] = fill_sector_blocks(
                        rows[name], chunk.parts, *filed[name], bounds, cross[name]
                    )
            chunks += 1
    splits = {}
    for name in "di":
        splits[name] = sector_split(sectors, *filed[name], cross[name], ws.params.N)
        if splits[name] is None:
            raise np.linalg.LinAlgError(
                f"{name.upper()}(z) does not commute with the leg permutations: "
                f"cross norm {cross[name]:.2e}, or its partner blocks differ"
            )
    theta = splits["i"].basis_defect
    ortho = ws.block(ws.params.N).orthogonality_defect
    gamma = float(np.abs(ws.full_factor(z).delta).max()) * (1.0 + ortho)
    own, u_off, u = map(float, np.sqrt(squares))
    sector = own / (1.0 - theta)
    dropped = (gamma * u_off + cross["d"] + theta * gamma * u) / (1.0 - theta)
    return StreamedFunctionalEquation(
        complex(z), splits["d"], splits["i"], sector, dropped, *_gates(z, ws), chunks,
        CHUNK_COLUMNS, ws.path,
    )


def _sector_pass(z: complex, ws: ResolventWorkspace, filed: dict, stage) -> tuple:
    """The stream at N = 2 with a diagonal H^(1), one pass per sector: (squares, cross, chunks).

    The chain tree is its root, whose G_0 = diag(delta) takes one value on
    each orbit of the leg swap (fl(eps_a + eps_b) = fl(eps_b + eps_a)), and
    every sector column lies on one orbit: with Delta_0 the root's delta on
    each column's orbit, D^T Q = Q Delta_0 and I^T Q = V Q Delta_0. So
    Q^T D^T Q = (Q^T Q) Delta_0, whose sector block s is diag(q_s delta_0)
    exactly (a sector's columns lie on distinct orbits), and its cross
    blocks are 0 exactly (a boson and a fermion column on one orbit give
    c^2 - c^2); Q^T I^T Q = W Delta_0, filed as `fill_sector_blocks` files
    its rows, so I_s = Delta_0 W_ss. The residual's u = Q^T Q - W Delta_0
    is -W Delta_0 off each column's sector, so ||u_off||^2 = ||cross of I||^2
    = sum_j |delta_0,j|^2 c_j^2 with c_j the norm of W's column j off its
    sector. Its own rows are own = Y (delta o T) - C, T = Y^T diag(q) - B Delta_0,
    C = diag(q delta_0), B = Y^T W_ss (`ResolventWorkspace._sector_terms`); with
    E = delta o T - Y^T C, own = Y E + (Y Y^T - 1) C. The square Y has
    ||Y||_2^2 <= 1 + o and ||Y Y^T - 1||_F = ||Y^T Y - 1||_F <= o (the N-block's
    orthogonality defect), so ||own||_F <= sqrt(1 + o) ||E||_F + o max_j |q_j delta_0,j|
    stands for ||own||_F, with no product by Y. E is formed CHUNK_COLUMNS
    columns at a time through the workspace's two m x CHUNK_COLUMNS scratch
    arrays. The root's gate runs first; `stage` wraps forming D and I, then
    the residual; the blocks of `filed` (the stream's) are written over.
    """
    terms = ws.terms
    w, bounds = terms.w, terms.bounds
    with stage("resolvent.expansion"):
        delta0 = ws.factor(ClusterDecomposition(((1,), (2,))), z).delta[terms.orbit]
        for s, (a, b) in enumerate(zip(bounds, bounds[1:])):
            for blocks, diffs in filed.values():
                if (s,) not in blocks:  # no earlier z's block to write over
                    blocks[(s,)] = np.empty((b - a, b - a), complex)
                diffs[(s,)] = np.zeros((1, 1))
            d_s, i_s = filed["d"][0][(s,)], filed["i"][0][(s,)]
            d_s.fill(0.0)
            np.fill_diagonal(d_s, terms.q[a:b] * delta0[a:b])
            np.multiply(w[s], delta0[a:b], out=i_s)
        cross_i = math.sqrt(float(np.dot(np.abs(delta0) ** 2, terms.off)))
    with stage("resolvent.functional_equation"):
        f = ws.full_factor(z)
        o = f.blocks[0][1].orthogonality_defect
        held = ws._owned(2, int(np.diff(bounds).max()) * CHUNK_COLUMNS)
        own = inside = 0.0
        chunks, first, s = 0, 0, 0
        for fac in f.blocks[0][1].factors:
            y, m = fac.vectors, fac.values.size
            delta = f.delta[first : first + m, None]
            for _ in fac.sectors:
                a = bounds[s]
                q, d0 = terms.q[a : a + m], delta0[a : a + m]
                c, i_s, b_s = q * d0, filed["i"][0][(s,)], terms.products[s]
                # u on the own rows is diag(q) - i_s
                inside += _frobenius(i_s) ** 2 - 2.0 * np.dot(q, np.diagonal(i_s).real) + q @ q
                e_sq = 0.0
                for j0 in range(0, m, CHUNK_COLUMNS):
                    j1 = min(j0 + CHUNK_COLUMNS, m)
                    e, t = (_carve(x, (m, j1 - j0)) for x in held)
                    np.multiply(y[j0:j1].T, q[j0:j1], out=e)  # T = Y^T diag(q) - B Delta_0
                    e -= np.multiply(b_s[:, j0:j1], d0[j0:j1], out=t)
                    e *= delta
                    e -= np.multiply(y[j0:j1].T, c[j0:j1], out=t)  # E = delta o T - Y^T C
                    e_sq += _frobenius(e) ** 2
                    chunks += 1
                own += (math.sqrt((1.0 + o) * e_sq) + o * np.abs(c).max(initial=0.0)) ** 2
                s += 1
            first += m
    squares = np.array([own, cross_i**2, inside + cross_i**2])
    return squares, {"d": 0.0, "i": cross_i}, chunks


def sector_norms(split: SectorSplit) -> list:
    """The 2-norm of each sector's block, one entry per sector (a shared block repeats).

    An exactly diagonal block (D at N = 2 with a diagonal H^(1),
    `_sector_pass`) gets its exact 2-norm, max |b_jj|. Any other gets
    `operator_norm`: the first block (bosons, or the whole space) starts
    from Q_b^T 1, where operator_norm of the full matrix starts (1 lies in
    the boson sector); every other block starts from e_j, j its column of
    largest norm (`_largest_column`). The max over the sectors lies between
    that boson-only estimate and the 2-norm (to within the basis defect).
    """
    out = [0.0] * len(split.sectors)
    for j, (b, serves) in enumerate(zip(split.blocks, split.serves)):
        diag = np.diagonal(b)
        # the first row rules out a dense block before the whole block is counted
        if np.count_nonzero(b[:1]) <= 1 and np.count_nonzero(b) == np.count_nonzero(diag):
            est = float(np.abs(diag).max(initial=0.0))
        elif j == 0:
            boson = split.sectors[serves[0]]
            est = operator_norm(b, boson.rows(np.ones(boson.size)))
        else:
            est = operator_norm(b, _largest_column(b))
        for s in serves:
            out[s] = est
    return out


@dataclass
class CompactnessReport:
    singular_values: np.ndarray
    k_drop: Optional[int]
    passed: bool
    sectors: dict = field(default_factory=dict)  # SectorSplit.diagnostics of the SVD
    sector_norms: list = field(default_factory=list)  # largest singular value per sector


def compactness_proxy(i_matrix, blocks=None) -> CompactnessReport:
    """Singular value decay of I(z) as the finite-size compactness witness.

    `i_matrix` is I(z) as its SectorSplit (`stream_functional_equation`, or
    `model.split_by_symmetry` of a dense I(z)), whose SVD runs per sector
    block, one SVD for all the partner sectors of an irrep. That moves each
    singular value by at most the reported cross norm, plus ||B_T - M||_F
    for a partner block B_T served by the mean M (at most the block's
    `SectorSplit.spread`), and a relative basis defect of a few 1e-16. A
    dense I(z) is taken unsplit. `sector_norms` is the largest singular value
    of each sector's block, its 2-norm, in `sector_norms`' order. `blocks`,
    when given, yields for each block of the split, in order, one with its
    singular values (`ResolventWorkspace.svd_blocks`), each SVD'd as it comes.
    """
    split = i_matrix if isinstance(i_matrix, SectorSplit) else SectorSplit.whole(i_matrix)
    per_block = [np.linalg.svd(b, compute_uv=False) for b in (blocks or split.blocks)]
    norms = [0.0] * len(split.sectors)
    for sv, serves in zip(per_block, split.serves):
        for t in serves:
            norms[t] = float(sv[0]) if sv.size else 0.0
    s = np.concatenate([np.tile(sv, len(serves)) for sv, serves in zip(per_block, split.serves)])
    s = np.sort(s)[::-1]
    sectors = split.diagnostics()
    if s.size == 0 or s[0] == 0.0:
        return CompactnessReport(s, 0, True, sectors, norms)
    below = np.nonzero(s <= COMPACT_REL_TOL * s[0])[0]
    k = int(below[0]) if below.size else None
    passed = k is not None and k < s.size / 2
    return CompactnessReport(s, k, passed, sectors, norms)
