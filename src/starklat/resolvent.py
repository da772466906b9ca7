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
the dense D and I are the X = 1 case.
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
    _column_parts,
    _frobenius,
    _heap_room,
    _permutation_parity,
    _sector_lift,
    _sector_rows,
    apply_on_legs,
    build_hamiltonian,
    chunk_terms,
    fill_sector_blocks,
    irrep_dims,
    sector_split,
    split_bytes,
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
# dim x CHUNK_COLUMNS complex arrays a z of the check is estimated to add beside its blocks
# (`workspace_bytes`): one z's peak RSS above a bare run's, less the blocks and the pair
# operator, came to 11.7-29.0 of them at N = 2 (L = 12-30), N = 3 (L = 5-10), N = 4 (L = 3, 4)
STREAM_ARRAYS = 32
NORM_METHOD = (
    f"max over the S_N sector blocks of a {POWER_STEPS}-step power iteration on B^H B, "
    "the boson block (or the whole space) started from Q_b^T 1, every other from e_j, "
    "j its column of largest norm"
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
    """e_j, j the column of a of largest norm: A^H A e_j != 0 for every nonzero A."""
    start = np.zeros(a.shape[1])
    start[np.argmax(np.linalg.norm(a, axis=0))] = 1.0
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


def workspace_bytes(params: ModelParams, window: Window) -> int:
    """Estimated bytes of a workspace: its H^(N) solve, or one z of the streamed check.

    Both sit beside the dense d^2 x d^2 pair operator (`two_site`), as large
    as a dense H at N = 2. The solve is the sector split of H^(N)
    (`model.split_bytes`). A z of the check holds, beside the factors (m^2
    doubles per irrep block), the complex running blocks of D and I (2 m^2
    complex) and a chunk's temporaries, STREAM_ARRAYS dim x CHUNK_COLUMNS
    complex arrays.
    """
    d, n = window.n_sites, params.N
    blocks = irrep_dims(d, n)
    held = sum(m * m for m in blocks)
    stream = 8 * held + 32 * held + 16 * STREAM_ARRAYS * d**n * CHUNK_COLUMNS
    return 8 * d**4 + max(split_bytes(blocks, d**n), stream)


@dataclass
class ResolventWorkspace:
    """Cache of the block factors, the pair operator and the factored G_D(z)."""

    params: ModelParams
    window: Window
    basis: str = "stark"
    cache: dict = field(default_factory=dict, init=False)
    estimate: int = field(default=0, init=False)  # workspace_bytes, checked against the budget

    def __post_init__(self):
        self.estimate = within_budget(
            workspace_bytes(self.params, self.window),
            f"the resolvent workspace at N = {self.params.N}, L = {self.window.L}",
        )
        _heap_room(self.dim)

    @property
    def dim(self) -> int:
        return self.window.n_sites**self.params.N

    def block(self, k: int) -> SectorEigh:
        """Eigendecomposition of H^(k), shared by every block of k particles.

        Every block is `spectra.sector_eigh` of H^(k)'s split. The k = N
        block is applied from its sector factors; blocks with k < N are
        applied leg-wise by their d^k x d^k U, every column lifted by
        `spectra.lift_states`, unless H^(k) is diagonal: then U = 1 exactly,
        with its diagonal in index order, `eigenvectors` None, no factors and
        zero defects.
        """
        key = ("U", k)
        if key not in self.cache:
            pair = CSR.from_dense(self.two_site()) if k > 1 else None
            h = build_hamiltonian(self.params.with_n(k), self.window, self.basis, pair)
            del pair
            diag = h.matrix.diagonal()
            if k < self.params.N and np.count_nonzero(h.matrix.data) == np.count_nonzero(diag):
                res = SectorEigh(diag, None, np.zeros_like(diag), 0.0, 0.0, {})
            else:
                split = split_operator(h)
                del h, diag  # the split was the last reader of H^(k)
                res = sector_eigh(split)
                del split
                if k < self.params.N:
                    res = res._replace(eigenvectors=lift_states(res, np.arange(res.eigenvalues.size)))
            self.cache[key] = res
        return self.cache[key]

    def sector_columns(self) -> tuple:
        """The sectors of the N-block's factors, in factor order: the stacked columns Q.

        `apply_resolvent` projects the N-particle block onto these columns,
        and the resolvent check streams them. Q is the identity when H^(N)
        was not split (the whole space).
        """
        return tuple(s for f in self.block(self.params.N).factors for s in f.sectors)

    def sector_rows(self, y: np.ndarray) -> np.ndarray:
        """Q^T y over `sector_columns`, complex and C-ordered: one gather per orbit shape."""
        return _sector_rows(self.sector_columns(), np.asarray(y, dtype=complex))

    def two_site(self) -> np.ndarray:
        """The d^2 x d^2 pair operator, applied on every leg pair (i < j).

        Built once per workspace; every H^(k), k >= 2, is assembled from its CSR.
        """
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
        self.cache[key] = FactoredResolvent(blocks, delta, bound)
        return self.cache[key]

    def apply_resolvent(self, dec: ClusterDecomposition, z: complex, x: np.ndarray) -> np.ndarray:
        """G_D(z) x = W diag(delta) W^T x, one block's legs at a time.

        The N-particle block is applied from its sector factors instead: the
        rows Q^T x (`sector_rows`), then `resolve_rows`.
        """
        d, n = self.window.n_sites, self.params.N
        f = self.factor(dec, z)
        if len(f.blocks[0][0]) == n:
            return self.resolve_rows(z, self.sector_rows(x))
        for legs, b in f.blocks:
            if b.eigenvectors is not None:
                x = apply_on_legs(b.eigenvectors.T, x, legs, d, n)
        x = f.delta[:, None] * x
        for legs, b in f.blocks:
            if b.eigenvectors is not None:
                x = apply_on_legs(b.eigenvectors, x, legs, d, n)
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
    where M = P^T permutes the column legs as P the row legs.
    """

    x: np.ndarray  # dim x b, complex, C-ordered
    parts: tuple
    mix: dict
    qx: np.ndarray  # Q^T X over the sector columns, dense


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
    return ColumnChunk(np.eye(ws.dim, dtype=complex), (), *_chunk_plan(ws, np.eye(ws.dim), ()))


def _dense(nonzeros: tuple, dtype) -> np.ndarray:
    """X from the (rows, cols, values, shape) of its nonzero entries, as a chunk caches it."""
    rows, cols, values, shape = nonzeros
    out = np.zeros(shape, dtype)
    out[rows, cols] = values
    return out


def column_chunks(ws: ResolventWorkspace):
    """The closed column chunks that cover the sector columns of the workspace, in order.

    Each is at most CHUNK_COLUMNS wide, or one column per partner sector of an
    irrep of larger dimension (`model._column_parts`, as `split_by_symmetry`).
    A generator: each chunk's X and Q^T X are made when the caller asks for
    them, from the nonzeros and mixes the workspace caches for every z: X's
    nonzeros with int32 rows and columns (a dimension within the memory
    budget is far below 2^31), and Q^T X as a `CSR`.
    """
    key = ("chunks", CHUNK_COLUMNS)
    if key not in ws.cache:
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
            plans.append((parts, x, mix, CSR.from_dense(qx)))
        ws.cache[key] = tuple(plans)
    for parts, x, mix, qx in ws.cache[key]:
        yield ColumnChunk(_dense(x, complex), parts, mix, qx.toarray())


def _add_images(acc: np.ndarray, x: np.ndarray, images: tuple, mix: dict, d: int, n: int) -> None:
    """acc += P x M(pi) for each image: the columns mixed by M, then a strided add of the row legs."""
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
            mixed = np.matmul(m.T, np.ascontiguousarray(x).view(np.float64).reshape(-1, *view[n:]))
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
    """
    n = ws.params.N
    if n < 2:
        raise ValueError("the expansion needs N >= 2")
    d = ws.window.n_sites
    full = ClusterDecomposition((tuple(range(1, n + 1)),))
    orbits = chain_orbits(n, even_potential(ws.params.potential))
    # the first chain is the root; in lexicographic order every later chain
    # extends a prefix of the one before it, so `path` keeps just the prefixes
    # the next chain extends, and drops the rest before the I term is built
    root = orbits[0][0].sequence[0]
    q = ws.apply_resolvent(root, z, chunk.x)
    path = [(root, q)]
    d_t, i_t = q.copy(), np.zeros(q.shape, dtype=complex)  # no page of i_t touched until added to
    next_lengths = [len(c.sequence) for c, _ in orbits[1:]] + [1]
    for (c, images), next_length in zip(orbits, next_lengths):
        dec = c.sequence[-1]
        if len(c.sequence) > 1:
            del q
            q = ws.apply_resolvent(dec, z, ws.apply_coupling(path[-1][0], dec, path[-1][1]))
            path.append((dec, q))
            _add_images(d_t, q, images, chunk.mix, d, n)
        del path[next_length - 1 :]
        if dec.n_blocks == 2:
            _add_images(i_t, ws.apply_coupling(dec, full, q), images, chunk.mix, d, n)
    return d_t, i_t


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
    (`sector_residual`).

    G is complex symmetric (H is real symmetric), so R^T = G (1 - I^T) - D^T:
    one resolvent applied to a block, with neither G nor I G formed. G is
    applied from the N-block's sector factors to the rows Q^T (X - I^T X) =
    Q^T X - ri (`ResolventWorkspace.resolve_rows`), so X is not projected again.
    """
    r = ws.resolve_rows(z, chunk.qx - ri)
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
    oracle's `residual_columns`.
    """
    f = ws.full_factor(z)
    solves, first = [], 0
    for fac in f.blocks[0][1].factors:
        solves += [(fac, first)] * len(fac.sectors)
        first += fac.values.size
    bounds = np.cumsum([0] + [s.dim for s in ws.sector_columns()])
    u = chunk.qx - ri
    own = off = inside = 0.0
    col = 0
    for s, j0, j1 in chunk.parts:
        (fac, first), (a, b), cols = solves[s], bounds[s : s + 2], slice(col, col + j1 - j0)
        part = u[:, cols]
        off += _frobenius(part[:a]) ** 2 + _frobenius(part[b:]) ** 2
        own_u = np.ascontiguousarray(part[a:b])
        inside += _frobenius(own_u) ** 2
        t = fac.vectors.T @ own_u.view(np.float64)
        scaled = t.view(complex)
        scaled *= f.delta[first : first + fac.values.size, None]
        r = (fac.vectors @ t).view(complex)
        r -= rd[a:b, cols]
        own += _frobenius(r) ** 2
        col += j1 - j0
    return own, off, inside + off


def _gates(z: complex, ws: ResolventWorkspace) -> tuple:
    """min |z - eps| over the spectrum of H, and the largest per-partition residual bound."""
    n = ws.params.N
    return (
        float(np.abs(z - ws.block(n).eigenvalues).min()),
        max(ws.factor(p, z).residual_bound for p in enumerate_set_partitions(n)),
    )


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
    (`stream_functional_equation`): the first is the part formed on each
    column's own sector rows, the second bounds the rows that are not formed
    (the gamma, D cross and theta terms).
    """

    z: complex
    d: SectorSplit  # the blocks Q_s^T D Q_s, as split_by_symmetry(D) gives them
    i: SectorSplit
    residual_sector: float  # (1 - theta)^-1 sqrt(sum ||own||^2)
    residual_dropped: float
    dist_to_spectrum: float
    resolvent_residual_bound: float
    chunks: int
    chunk_columns: int  # CHUNK_COLUMNS of the run

    @property
    def residual(self) -> float:
        """An upper bound on ||G - D - I G||_F."""
        return self.residual_sector + self.residual_dropped


def stream_functional_equation(
    z: complex, ws: ResolventWorkspace, stage=contextlib.nullcontext
) -> StreamedFunctionalEquation:
    """R = G - D - I G, and the sector blocks of D and I, with no dim x dim array formed.

    Per chunk X of `column_chunks`: (D^T X, I^T X) from `expansion_columns`,
    then the rows r_D = Q^T (D^T X) and Q^T (I^T X) (`ResolventWorkspace.sector_rows`).
    The rows are filed by `model.fill_sector_blocks`, as `split_by_symmetry`
    files its own: the partners' own rows are columns of one running block
    per irrep, the transposed mean of their blocks Q_s^T D Q_s (Q_s^T I Q_s),
    the other rows cross blocks. `model.sector_split` splits them, or
    refuses when the cross norm or the partners' pair defect is too large.

    The residual is formed in sector coordinates (`sector_residual`). With
    Q^T Q = 1 + Delta, ||Delta||_2 <= theta (the basis defect), and
    G = Q M Q^T, M = (+)_s Y_s diag(delta) Y_s^T, every chunk has
    Q^T R^T X = M u - r_D + Delta M u for u = Q^T X - Q^T (I^T X). Its rows
    on each column's own sector ("own") are formed; on the other rows
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
    `stage(name)` is entered around each chunk's expansion and residual.
    """
    sectors = ws.sector_columns()
    bounds = np.cumsum([0] + [s.dim for s in sectors])
    filed = {name: ({}, {}) for name in "di"}  # (blocks, diffs) of `fill_sector_blocks`
    cross = dict.fromkeys("di", 0.0)
    squares, chunks = np.zeros(3), 0  # sum ||own||^2, ||u_off||^2, ||u||^2
    for chunk in column_chunks(ws):
        with stage("resolvent.expansion"):
            dx, ix = expansion_columns(z, ws, chunk)
        with stage("resolvent.functional_equation"):
            rows = {"d": ws.sector_rows(dx), "i": ws.sector_rows(ix)}
            squares += sector_residual(z, ws, chunk, rows["d"], rows["i"])
            for name in "di":
                cross[name] = fill_sector_blocks(
                    rows[name], chunk.parts, *filed[name], bounds, cross[name]
                )
        del chunk, dx, ix, rows
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
        CHUNK_COLUMNS,
    )


def sector_norms(split: SectorSplit) -> list:
    """`operator_norm` of each sector's block, one entry per sector (a shared block repeats).

    The first block (bosons, or the whole space) starts from Q_b^T 1, where
    operator_norm of the full matrix starts (1 lies in the boson sector);
    every other block starts from e_j, j its column of largest norm
    (`_largest_column`). The max over the sectors lies between that
    boson-only estimate and the 2-norm (to within the basis defect).
    """
    out = [0.0] * len(split.sectors)
    for j, (b, serves) in enumerate(zip(split.blocks, split.serves)):
        if j == 0:
            boson = split.sectors[serves[0]]
            start = boson.rows(np.ones(boson.size))
        else:
            start = _largest_column(b)
        est = operator_norm(b, start)
        for s in serves:
            out[s] = est
    return out


@dataclass
class CompactnessReport:
    singular_values: np.ndarray
    k_drop: Optional[int]
    passed: bool
    sectors: dict = field(default_factory=dict)  # SectorSplit.diagnostics of the SVD


def compactness_proxy(i_matrix) -> CompactnessReport:
    """Singular value decay of I(z) as the finite-size compactness witness.

    `i_matrix` is I(z) as its SectorSplit (`stream_functional_equation`, or
    `model.split_by_symmetry` of a dense I(z)), whose SVD runs per sector
    block, one SVD for all the partner sectors of an irrep. That moves each
    singular value by at most the reported cross norm, plus ||B_T - M||_F
    for a partner block B_T served by the mean M (at most the block's
    `SectorSplit.spread`), and a relative basis defect of a few 1e-16. A
    dense I(z) is taken unsplit.
    """
    split = i_matrix if isinstance(i_matrix, SectorSplit) else SectorSplit.whole(i_matrix)
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
