import functools
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from starklat import lattice, model, spectra
from starklat.model import ModelParams, PairPotential, Window
from starklat.spectra import ClusterDecomposition

import oracles


@pytest.fixture
def params2():
    return ModelParams(g=1.0, h=0.5, N=2, potential=PairPotential("nearest_neighbor", 1.0))


def test_decomposition_validation():
    with pytest.raises(ValueError):
        ClusterDecomposition(((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        ClusterDecomposition(((1,), ()))
    d = ClusterDecomposition(((3, 1), (2,)))
    assert d.canonical() == ((1, 3), (2,))
    assert d.n_blocks == 2 and d.n_particles == 3


def test_coarsening_relation():
    fine = ClusterDecomposition(((1,), (2,), (3,)))
    mid = ClusterDecomposition(((1, 2), (3,)))
    full = ClusterDecomposition(((1, 2, 3),))
    other = ClusterDecomposition(((1, 3), (2,)))
    assert mid.is_coarser_than(fine)
    assert full.is_coarser_than(mid)
    assert full.is_coarser_than(fine)
    assert not mid.is_coarser_than(mid)
    assert not mid.is_coarser_than(other)
    assert not fine.is_coarser_than(mid)


def test_set_partition_counts():
    # Bell numbers 1, 2, 5, 15
    for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15)]:
        parts = spectra.enumerate_set_partitions(n)
        assert len(parts) == bell
        assert len({p.canonical() for p in parts}) == bell
    three = spectra.enumerate_set_partitions(3)
    assert three[0].canonical() == ((1, 2, 3),)
    assert [p.n_blocks for p in three] == sorted(p.n_blocks for p in three)


def test_integer_partition_counts():
    for n, count in [(1, 1), (2, 2), (3, 3), (4, 5), (5, 7)]:
        parts = spectra.enumerate_integer_partitions(n)
        assert len(parts) == count
        assert all(sum(p) == n for p in parts)
        assert all(tuple(sorted(p, reverse=True)) == p for p in parts)


def test_eigh_single_particle_ladder():
    p = ModelParams(g=1.0, h=0.5, N=1)
    w = Window(L=20, interior_margin=7)
    res = spectra.eigh(model.build_hamiltonian(p, w, "position"))
    assert res.residuals.max() <= 1e-10
    assert oracles.gram_defect(res) <= 1e-12
    mask = spectra.interior_mask(res, p, w, "position")
    interior = np.sort(res.eigenvalues[mask])
    target = -2.0 * p.h * np.round(interior / (-2.0 * p.h))
    assert np.abs(interior - target).max() <= 1e-8


def test_eigh_rejects_asymmetric():
    w = Window(L=2, interior_margin=1)
    bad = model.OperatorMatrix("position", w, 1, np.triu(np.ones((5, 5))))
    with pytest.raises(ValueError):
        spectra.eigh(bad)


def test_padded_transform_gram():
    # with enough row padding the Bessel columns are orthonormal
    p = ModelParams(g=1.0, h=0.5, N=1)
    w = Window(L=6, interior_margin=2)
    xi = model.stark_basis_matrix(p, w, pad=30)
    gram = xi.T @ xi
    assert np.abs(gram - np.eye(w.n_sites)).max() <= 1e-12


def test_transform_columns_shapes(params2):
    w = Window(L=6, interior_margin=2)
    xi = model.stark_basis_matrix(params2, w)
    rng = np.random.default_rng(3)
    v = rng.standard_normal((w.n_sites**2, 4))
    one = spectra.transform_columns(v[:, 0], xi, 2)
    assert one.shape == (w.n_sites**2,)
    assert np.allclose(one, spectra.transform_columns(v, xi, 2)[:, 0])


@pytest.mark.parametrize("n", [2, 3])
def test_transform_matches_kron(n):
    p = ModelParams(g=1.0, h=0.5, N=n)
    w = Window(L=3, interior_margin=1)
    xi = model.stark_basis_matrix(p, w)
    rng = np.random.default_rng(5)
    v = rng.standard_normal((w.n_sites**n, 2))
    want = functools.reduce(np.kron, [xi] * n) @ v
    got = spectra.transform_columns(v, xi, n)
    assert np.abs(got - want).max() <= 1e-13


def test_boundary_shell_mass():
    w = Window(L=2, interior_margin=1)
    dim = w.n_sites**2
    v = np.zeros(dim)
    v[oracles.tuple_to_flat(w, np.array([0, 0]))] = 1.0
    assert spectra.boundary_shell_mass(v, w, 2)[0] == 0.0
    v2 = np.zeros(dim)
    v2[oracles.tuple_to_flat(w, np.array([2, 0]))] = 1.0
    assert spectra.boundary_shell_mass(v2, w, 2)[0] == 1.0


def test_interior_mask_g0():
    p = ModelParams(g=0.0, h=0.5, N=1)
    w = Window(L=4, interior_margin=1)
    res = spectra.eigh(model.build_hamiltonian(p, w, "position"))
    mask = spectra.interior_mask(res, p, w, "position")
    # at g = 0 the eigenvectors are lattice deltas; only the face sites fail
    assert mask.sum() == w.n_sites - 2


def test_basis_equivalence_interior(params2):
    w = Window(L=14, interior_margin=5)
    res_p = spectra.eigh(model.build_hamiltonian(params2, w, "position"))
    res_s = spectra.eigh(model.build_hamiltonian(params2, w, "stark"))
    mask_p = spectra.interior_mask(res_p, params2, w, "position")
    mask_s = spectra.interior_mask(res_s, params2, w, "stark")
    ev_p = np.sort(res_p.eigenvalues[mask_p])
    ev_s = np.sort(res_s.eigenvalues[mask_s])
    assert ev_p.size >= 10
    dev = max(float(np.min(np.abs(res_s.eigenvalues - e))) for e in ev_p)
    assert dev <= 1e-8
    dev2 = max(float(np.min(np.abs(res_p.eigenvalues - e))) for e in ev_s)
    assert dev2 <= 1e-8


def test_cluster_spectrum_g0_integer_lattice():
    p = ModelParams(g=0.0, h=0.5, N=2, potential=PairPotential("nearest_neighbor", 1.0))
    w = Window(L=3, interior_margin=1)
    sig = spectra.cluster_spectrum(p, w)
    # free pair spectrum: sums -2h(m1+m2) over interior sites, h = 0.5
    want = np.arange(-4.0, 4.0 + 1e-9, 1.0)
    assert np.allclose(np.sort(sig.points), want)
    assert all(g == (1, 1) for g in sig.generators)


def test_cluster_spectrum_n3_includes_pair_energies():
    p = ModelParams(g=0.5, h=0.5, N=3, potential=PairPotential("nearest_neighbor", 1.0))
    w = Window(L=12, interior_margin=4)
    sig = spectra.cluster_spectrum(p, w)
    assert sig.points.size > 0
    kinds = set(sig.generators)
    assert kinds <= {(1, 1, 1), (2, 1)}
    assert (2, 1) in kinds
    assert np.all(np.diff(sig.points) > spectra.DEDUP_TOL)


def test_dist_to_cluster():
    sig = spectra.ClusterSpectrum(np.array([-1.0, 0.0, 2.0]), [(1, 1)] * 3)
    assert spectra.dist_to_cluster(0.4, sig) == pytest.approx(0.4)
    assert spectra.dist_to_cluster(1.6, sig) == pytest.approx(0.4)
    with pytest.raises(ValueError):
        spectra.dist_to_cluster(0.0, spectra.ClusterSpectrum(np.array([]), []))


def test_periodicity_interacting(params2):
    w = Window(L=14, interior_margin=5)
    res = spectra.eigh(model.build_hamiltonian(params2, w, "stark"))
    shift = 2.0 * params2.h * params2.N
    for s in (shift, -shift):
        rep = oracles.spectral_periodicity_check(res, s, params2, w, "stark")
        assert rep.passed, rep
        assert rep.max_deviation <= 1e-6


def test_periodicity_free_exact():
    p = ModelParams(g=0.0, h=0.5, N=2)
    w = Window(L=6, interior_margin=2)
    res = spectra.eigh(model.build_hamiltonian(p, w, "stark"))
    rep = oracles.spectral_periodicity_check(res, 2.0, p, w, "stark")
    assert rep.passed and rep.max_deviation <= 1e-12


SECTOR_SIZES = [(2, 6), (3, 3), (4, 2)]
SYMMETRIC_POTENTIALS = [
    PairPotential("nearest_neighbor", 1.0),
    PairPotential("exponential", 0.8, 0.7),
    PairPotential("power_law", 1.0, 2.0),
]
ASYMMETRIC = PairPotential("tabulated", table={-1: 0.2, 1: 0.7, 2: 0.1})


sector_dims = oracles.sector_dims  # from the character tables of S_2, S_3 and S_4


def swap_permutation(w, n):
    """Flat index of each tensor index with legs 0 and 1 exchanged."""
    coords = lattice.flat_to_tuples(w, n)
    return oracles.tuple_to_flat(w, coords[:, [1, 0] + list(range(2, n))])


@pytest.mark.parametrize("basis", model.BASES)
@pytest.mark.parametrize("n,L", SECTOR_SIZES)
@pytest.mark.parametrize("pot", SYMMETRIC_POTENTIALS, ids=lambda p: p.kind)
def test_sector_eigh_matches_full(basis, n, L, pot):
    p = ModelParams(g=1.0, h=0.5, N=n, potential=pot)
    w = Window(L=L, interior_margin=1)
    op = model.build_hamiltonian(p, w, basis)
    dense = op.toarray()
    want = np.linalg.eigvalsh(dense)
    res = spectra.eigh(op)
    dims = sector_dims(w.n_sites, n)
    assert res.sectors["sector_dims"] == dims
    cross = res.sectors["cross_norm"]
    assert 0.0 <= cross <= model.SECTOR_TOL * np.linalg.norm(dense)
    assert np.all(np.diff(res.eigenvalues) >= 0.0)
    tol = 1e-12 * max(1.0, np.abs(want).max()) + cross
    assert np.abs(res.eigenvalues - want).max() <= tol
    assert oracles.gram_defect(res) <= 1e-12
    assert res.residuals.max() <= 1e-8  # the `spectrum` task's diagonalization gate
    # every lifted eigenvector is even or odd under the leg-0/1 swap, exactly
    v = res.eigenvectors
    swapped = v[swap_permutation(w, n)]
    even = np.all(swapped == v, axis=0)
    odd = np.all(swapped == -v, axis=0)
    assert np.all(even | odd)
    # the even ones span the leg-0/1-even space
    assert even.sum() == w.n_sites ** (n - 1) * (w.n_sites + 1) // 2


def test_sector_dims_formula():
    # the fe-n3 window (L = 5) and the L = 3 counts of the three irreps at N = 3
    assert sector_dims(11, 3) == [286, 165, 440, 440]
    assert sector_dims(7, 3) == [84, 35, 112, 112]
    assert sector_dims(13, 2) == [91, 78]
    # N = 4: the trivial and sign irreps, then (2, 2), (3, 1) and (2, 1, 1), once per tableau
    assert sector_dims(5, 4) == [70, 5] + [50] * 2 + [105] * 3 + [45] * 3
    assert sector_dims(7, 4) == [210, 35, 196, 196, 378, 378, 378, 210, 210, 210]


def exact_ints(x):
    """Integer array equal to x times one common power of two (exactly)."""
    ratios = [v.as_integer_ratio() for v in x.ravel().tolist()]
    scale = max(den for _, den in ratios).bit_length() - 1
    ints = [num << (scale - den.bit_length() + 1) for num, den in ratios]
    return np.array(ints, dtype=object).reshape(x.shape), scale


@pytest.mark.parametrize("n,L", [(2, 2), (3, 1), (3, 2), (4, 1)])
def test_symmetry_sector_columns(n, L):
    w = Window(L=L, interior_margin=0)
    d = w.n_sites
    sectors = model.symmetry_sectors(d, n)
    assert [s.dim for s in sectors] == sector_dims(d, n)
    assert [s.irrep for s in sectors] == oracles.sector_irreps(d, n)
    q = [oracles.dense_q(s) for s in sectors]
    plus = oracles.symmetrizer(n, w, 1).toarray()
    minus = oracles.symmetrizer(n, w, -1).toarray()
    swap = swap_permutation(w, n)
    tol = 1e-15
    even = 0
    # criterion 04's projectors fix the bosons and the fermions and annihilate the rest
    for s, cols in zip(sectors, q):
        k = s.irrep
        want_plus = cols if k == (n,) else 0.0
        want_minus = cols if k == (1,) * n else 0.0
        assert np.abs(plus @ cols - want_plus).max() <= tol, k
        assert np.abs(minus @ cols - want_minus).max() <= tol, k
        # every column is an exact +-1 eigenvector of the leg-0/1 swap, one sign per sector
        parity = 1.0 if np.array_equal(cols[swap], cols) else -1.0
        assert np.array_equal(cols[swap], parity * cols), k
        even += s.dim if parity > 0 else 0
        # each column lives on one orbit of at most n! arrangements
        assert (cols != 0).sum(axis=0).max() <= math.factorial(n)
    # the even columns span the leg-0/1-even space
    assert even == d ** (n - 1) * (d + 1) // 2
    whole = np.hstack(q)
    assert whole.shape == (d**n, d**n)
    assert (whole != 0).sum(axis=1).max() <= math.factorial(n)  # 6 a row at N = 3
    # the basis defect bounds ||Q^T Q - 1||_2, computed exactly over the whole index
    h = model.build_hamiltonian(ModelParams(g=1.0, h=0.5, N=n), w, "position").toarray()
    split = model.split_by_symmetry(h, d, n)
    assert split.diagnostics()["sector_dims"] == sector_dims(d, n)
    ints, scale = exact_ints(whole)
    gram = ints.T.dot(ints) - np.eye(d**n, dtype=int).astype(object) * (1 << 2 * scale)
    worst = Fraction(int(np.abs(gram).sum(axis=1).max()), 1 << 2 * scale)
    assert 0 < worst <= Fraction(split.basis_defect)
    if d >= n:  # every orbit shape occurs, the one that sets the defect too
        assert Fraction(split.basis_defect) <= worst * (1 + 2.0**-50)
    # every lifted column is within its sector's lift error of the exact Q y
    rng = np.random.default_rng(n * 10 + L)
    for s in sectors:
        y = rng.standard_normal((s.dim, 3))
        out = np.zeros((d**n, 3))
        s.lift(y, out)
        qs, qscale = exact_ints(oracles.dense_q(s))
        ys, yscale = exact_ints(y)
        exact = qs.dot(ys)
        for j in range(3):
            err = sum(
                (Fraction(v) - Fraction(int(e), 1 << (qscale + yscale))) ** 2
                for v, e in zip(out[:, j].tolist(), exact[:, j])
            )
            assert err <= Fraction(s.lift_error * np.linalg.norm(y[:, j])) ** 2


@pytest.mark.parametrize("basis", model.BASES)
@pytest.mark.parametrize("n,L", SECTOR_SIZES[:2])
@pytest.mark.parametrize("pot", SYMMETRIC_POTENTIALS, ids=lambda p: p.kind)
def test_sector_bounds_cover_full_matrix_defects(basis, n, L, pot):
    p = ModelParams(g=1.0, h=0.5, N=n, potential=pot)
    w = Window(L=L, interior_margin=1)
    dense = model.build_hamiltonian(p, w, basis).toarray()
    sol = spectra.sector_eigh(model.split_by_symmetry(dense, w.n_sites, n))
    assert sol.sectors["sector_dims"] == sector_dims(w.n_sites, n)
    v = spectra.lift_states(sol, np.arange(sol.eigenvalues.size))
    # in extended precision: a float dense @ V - V * lambda overstates large-|lambda| columns
    vecs = v.astype(np.longdouble)
    resid = dense.astype(np.longdouble) @ vecs - vecs * sol.eigenvalues.astype(np.longdouble)
    gram = v.T @ v - np.eye(sol.eigenvalues.size)
    assert sol.residuals.max() >= np.linalg.norm(resid, axis=0).max()
    assert sol.residual_norm >= np.linalg.norm(resid)
    assert sol.orthogonality_defect >= np.linalg.norm(gram)
    # bounds, not estimates that can drift far above the measured defects
    assert sol.residual_norm <= 2.0 * np.linalg.norm(resid)
    assert sol.orthogonality_defect <= 2.0 * np.linalg.norm(gram)


def test_perturbed_eigenvector_trips_residual_gate(monkeypatch):
    p = ModelParams(g=1.0, h=0.5, N=2, potential=SYMMETRIC_POTENTIALS[0])
    w = Window(L=6, interior_margin=1)
    op = model.build_hamiltonian(p, w, "stark")
    assert spectra.eigh(op).residuals.max() <= 1e-8
    solve = np.linalg.eigh
    rng = np.random.default_rng(0)

    def perturbed(b):
        vals, vecs = solve(b)
        kick = rng.standard_normal(vecs.shape[0])
        vecs[:, 0] += 1e-7 * kick / np.linalg.norm(kick)
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    res = spectra.eigh(op)
    dense = op.toarray()
    measured = np.linalg.norm(dense @ res.eigenvectors - res.eigenvectors * res.eigenvalues, axis=0)
    assert measured.max() > 1e-8  # the kick is a real defect of the lifted vectors
    assert res.residuals.max() >= measured.max() > 1e-8
    assert res.orthogonality_defect > 1e-8


@pytest.mark.parametrize(
    "n,pot", [(1, SYMMETRIC_POTENTIALS[0]), (2, ASYMMETRIC), (3, ASYMMETRIC)]
)
def test_sector_eigh_one_sector(n, pot):
    # N = 1 has no leg pair; a non-symmetric v breaks the swap symmetry
    p = ModelParams(g=1.0, h=0.5, N=n, potential=pot)
    w = Window(L=3, interior_margin=1)
    for basis in model.BASES:
        op = model.build_hamiltonian(p, w, basis)
        res = spectra.eigh(op)
        assert res.sectors == {"sector_dims": [op.dim], "cross_norm": 0.0}
        want = np.linalg.eigvalsh(op.toarray())
        assert np.abs(res.eigenvalues - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
        assert res.residuals.max() <= 1e-8


def served_values(sol):
    """The factors' values, once per sector each solve serves."""
    return np.concatenate([f.values for f in sol.factors for _ in f.sectors])


def swap_images(w, n, i):
    """Flat index of each tensor index with legs i and i + 1 exchanged."""
    legs = list(range(n))
    legs[i], legs[i + 1] = i + 1, i
    return oracles.tuple_to_flat(w, lattice.flat_to_tuples(w, n)[:, legs])


@pytest.mark.parametrize("basis", model.BASES)
@pytest.mark.parametrize(
    "n,L", [(3, 2), (3, 3), (3, 4), (4, 1), (4, 2)], ids=["2", "3", "4", "n4-1", "n4-2"]
)
def test_paired_remainder_solve_matches_full(basis, n, L):
    # the partner sectors of an irrep carry copies of it in one orthogonal form:
    # one solve serves them all
    p = ModelParams(g=1.0, h=0.5, N=n, potential=SYMMETRIC_POTENTIALS[0])
    w = Window(L=L, interior_margin=1)
    op = model.build_hamiltonian(p, w, basis)
    dense = op.toarray()
    d = w.n_sites
    sectors = model.symmetry_sectors(d, n)
    irreps = oracles.sector_irreps(d, n)
    assert [s.irrep for s in sectors] == irreps
    # R(s_i)[T, T'] = Q_T[:, j]^T P_i Q_T'[:, j], read off the columns j of each
    # copy, is the same matrix for every copy j
    for lam in dict.fromkeys(irreps):
        q = np.stack([oracles.dense_q(s) for s in sectors if s.irrep == lam], axis=1)
        for i in range(n - 1):
            r = np.einsum("xtj,xuj->jtu", q, q[swap_images(w, n, i)])
            assert np.abs(r - r[0]).max() <= 1e-14, (lam, i)
    sol = spectra.sector_eigh(model.split_by_symmetry(dense, d, n))
    assert sol.eigenvectors is None
    assert [len(f.sectors) for f in sol.factors] == [irreps.count(lam) for lam in dict.fromkeys(irreps)]
    assert sol.sectors["sector_dims"] == sector_dims(d, n)
    assert 0.0 < sol.sectors["pair_defect"] <= model.SECTOR_TOL * np.linalg.norm(dense)
    want = np.linalg.eigvalsh(dense)
    assert np.abs(sol.eigenvalues - want).max() <= 1e-12 * np.linalg.norm(dense, 2)
    # the eigenvalues are the factors' values, each value of an irrep dim-lambda times exactly
    assert np.array_equal(np.sort(served_values(sol)), sol.eigenvalues)
    # the lifted solve is the same solve
    lifted = spectra.eigh(op)
    for name in ("eigenvalues", "residuals"):
        assert getattr(lifted, name).tobytes() == getattr(sol, name).tobytes(), name
    assert lifted.residual_norm == sol.residual_norm
    assert lifted.orthogonality_defect == sol.orthogonality_defect
    for got, want in zip(lifted.factors, sol.factors, strict=True):
        assert got.vectors.tobytes() == want.vectors.tobytes()
    # each served sector's lifted columns Q_s Y are eigenvectors within the bounds
    v = np.hstack([oracles.dense_q(s) @ f.vectors for f in sol.factors for s in f.sectors])
    resid = np.linalg.norm(dense @ v - v * served_values(sol), axis=0)
    assert np.linalg.norm(resid) <= sol.residual_norm
    assert resid.max() <= sol.residuals.max()


def test_unequal_partner_blocks_refuse_the_split():
    # a = sum_s Q_s B_s Q_s^T with unrelated random blocks: no cross block, but
    # the partner blocks of each irrep differ, so a does not commute with the
    # leg permutations and the whole space is solved, as for a large cross norm
    for d, n in ((5, 3), (4, 4)):
        rng = np.random.default_rng(7)
        a = np.zeros((d**n, d**n))
        sectors = model.symmetry_sectors(d, n)
        for s in sectors:
            b = rng.standard_normal((s.dim, s.dim))
            q = oracles.dense_q(s)
            a += q @ (b + b.T) @ q.T
        split = model.split_by_symmetry(a, d, n)
        assert len(split.sectors) == 1 and split.sectors[0].irrep == () and split.serves == ((0,),)
        assert split.pair_defect is None and split.blocks[0] is a
        sol = spectra.sector_eigh(model.split_by_symmetry(a, d, n))
        assert sol.sectors == {"sector_dims": [d**n], "cross_norm": 0.0}
        want = np.linalg.eigvalsh(a)
        assert np.abs(sol.eigenvalues - want).max() <= 1e-12 * np.linalg.norm(a, 2)
        v = spectra.lift_states(sol, np.arange(a.shape[0]))
        assert np.linalg.norm(a @ v - v * sol.eigenvalues) <= sol.residual_norm <= 1e-10


def test_sector_split_refuses_cross_coupling_above_constant():
    p = ModelParams(g=1.0, h=0.5, N=2, potential=SYMMETRIC_POTENTIALS[0])
    w = Window(L=4, interior_margin=1)
    a = model.build_hamiltonian(p, w, "stark").toarray()
    d, norm = w.n_sites, np.linalg.norm(a)
    # couple (0, 1) to (0, 2) but not their swap images (1, 0), (2, 0)
    i, j = 1, 2
    for scale, splits in ((1e3, False), (1e-3, True)):
        b = a.copy()
        b[i, j] += scale * model.SECTOR_TOL * norm
        b[j, i] = b[i, j]
        split = model.split_by_symmetry(b, d, 2)
        assert len(split.sectors) == (2 if splits else 1)
        if splits:
            # the dropped coupling is measured: eps (e_i e_j^T + e_j e_i^T) has
            # Frobenius norm sqrt(2) eps, half of it in the cross blocks
            eps = scale * model.SECTOR_TOL * norm
            assert split.cross_norm == pytest.approx(eps, rel=1e-3)
            sol = spectra.sector_eigh(model.split_by_symmetry(b, d, 2))
            want = np.linalg.eigvalsh(b)
            assert np.abs(sol.eigenvalues - want).max() <= 1e-12 * max(
                1.0, np.abs(want).max()
            ) + sol.sectors["cross_norm"]
        else:
            assert split.cross_norm == 0.0 and split.blocks[0] is b


def test_capacity_errors():
    # dim 33^3: the irrep blocks 6545, 5456 and 11968 and the largest solve's eigh
    # would hold about 6 GiB, refused before the symmetry check or any block
    p = ModelParams(g=1.0, h=0.5, N=3)
    big = oracles.build_h0(p, Window(L=16, interior_margin=3), "position")
    with pytest.raises(lattice.CapacityError, match=r"about 6\.\d\d GiB, above the memory budget"):
        spectra.eigh(big)


def test_irrep_dims_match_the_character_tables():
    # the block orders the budget reads, by the hook-content formula, against the
    # multiplicities from the S_N characters (one block per irrep), and past the
    # tables (n = 5) against the sectors the split builds
    for d, n in ((1, 2), (2, 3), (5, 3), (4, 4), (29, 3), (13, 4)):
        want = sorted(m for m in oracles.sector_sizes(d, n).values() if m)
        assert sorted(model.irrep_dims(d, n)) == want
        assert model.irrep_dims(d, 1) == [d]
    built = {s.irrep: s.dim for s in model.symmetry_sectors(3, 5)}
    assert sorted(model.irrep_dims(3, 5)) == sorted(built.values())


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_symmetrize_in_place(n):
    # every entry fl(b_ij + b_ji) * 0.5, as b + b^T halved gives it, on a C- or
    # F-ordered block of any order, with the skew norm of the whole block
    rng = np.random.default_rng(n)
    for b in (rng.standard_normal((n, n)), rng.standard_normal((n, n)).T):
        want, skew = (b + b.T) * 0.5, model._frobenius(b - b.T)
        got = spectra._symmetrize(b)
        assert np.array_equal(b, want) and np.array_equal(b, b.T)
        assert got == pytest.approx(skew, rel=1e-13)


@pytest.mark.parametrize("basis", model.BASES)
@pytest.mark.parametrize("n,L", [(2, 6), (2, 8), (2, 10), (2, 12), (3, 3), (3, 4), (3, 5)])
def test_owning_solve_matches_the_copying_oracle(basis, n, L):
    # the solve that symmetrizes its split's blocks in place, largest first, and drops
    # each once solved gives the eigenvalues, interior set and lifted states of the
    # solve that copied them, bit for bit, and spends its split
    p = ModelParams(g=1.0, h=0.5, N=n, potential=PairPotential("nearest_neighbor", 1.0))
    w = Window(L=L, interior_margin=1)
    op = model.build_hamiltonian(p, w, basis)
    want = oracles.copying_sector_eigh(spectra.split_operator(op))
    split = spectra.split_operator(op)
    got = spectra.sector_eigh(split)
    assert split.blocks == []
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
    mask = spectra.interior_mask(got, p, w, basis)
    assert np.array_equal(mask, spectra.interior_mask(want, p, w, basis))
    every = np.arange(got.eigenvalues.size)
    assert np.array_equal(spectra.lift_states(got, every), spectra.lift_states(want, every))
    assert got.sectors == want.sectors
    # the bounds read the skew norm summed by tiles: equal to the last digits
    assert np.allclose(got.residuals, want.residuals, rtol=1e-12, atol=0.0)
    assert got.orthogonality_defect == want.orthogonality_defect


def test_owning_solve_holds_a_block_less():
    # at N = 2, L = 12 (blocks 325 and 300): the copying solve held b + b^T, b - b^T
    # and y * w beside every block; the owning one holds at least one n_max^2 block less
    import tracemalloc

    p = ModelParams(g=1.0, h=0.5, N=2, potential=PairPotential("nearest_neighbor", 1.0))
    op = model.build_hamiltonian(p, Window(L=12, interior_margin=1), "stark")
    peaks = {}
    for name, solve in (("copying", oracles.copying_sector_eigh), ("owning", spectra.sector_eigh)):
        split = spectra.split_operator(op)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            solve(split)
            peaks[name] = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        del split
    n_max = max(model.irrep_dims(25, 2))
    assert n_max == 325
    assert peaks["owning"] <= peaks["copying"] - 8 * n_max**2, peaks


def lifted_by_dense_q(res):
    """Every eigenvector in eigenvalue order, as dense Q_s Y_s products (no `Sector.lift`)."""
    v = np.hstack([oracles.dense_q(s) @ f.vectors for f in res.factors for s in f.sectors])
    return v[:, np.argsort(served_values(res), kind="stable")]


@pytest.mark.parametrize("basis", model.BASES)
@pytest.mark.parametrize("n,L", [(2, 6), (2, 12), (3, 3), (3, 4), (3, 5)])
def test_factor_path_matches_lifted_oracle(basis, n, L):
    # the CLI's solve (sparse split, factors, chunked mask, interior-only lift)
    # against oracles that share none of its code: the split of the dense H,
    # eigvalsh of it, and dense residuals and face masses of the lifted columns
    p = ModelParams(g=1.0, h=0.5, N=n, potential=PairPotential("nearest_neighbor", 1.0))
    w = Window(L=L, interior_margin=1)
    op = model.build_hamiltonian(p, w, basis)
    h = op.toarray()
    sparse = spectra.split_operator(op)
    dense = model.split_by_symmetry(h, w.n_sites, n)
    assert sparse.serves == dense.serves and sparse.pair_defect == dense.pair_defect
    for got, want in zip(sparse.blocks, dense.blocks):
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
    assert abs(sparse.cross_norm - dense.cross_norm) <= 1e-15 * dense.cross_norm
    res = spectra.sector_eigh(sparse)
    assert res.eigenvectors is None and res.factors
    want = np.linalg.eigvalsh(h)
    tol = 1e-12 * max(1.0, np.abs(want).max()) + res.sectors["cross_norm"]
    assert np.abs(res.eigenvalues - want).max() <= tol
    mask = spectra.interior_mask(res, p, w, basis)
    assert mask.dtype == bool and mask.shape == res.eigenvalues.shape
    assert mask.any() == (L == 12)  # of these windows only N = 2, L = 12 has interior states
    # the face masses of all eigenvectors at once, natively and transformed
    v = lifted_by_dense_q(res)
    xi = model.stark_basis_matrix(p, w)
    other = spectra.transform_columns(v, xi if basis == "stark" else xi.T, n)
    native, transformed = (spectra.boundary_shell_mass(x, w, n) for x in (v, other))
    assert np.array_equal(mask, np.maximum(native, transformed) <= spectra.INTERIOR_TOL)
    # the interior columns, and a spread of others, are lifted within their bounds
    index = np.union1d(np.flatnonzero(mask), np.arange(0, op.dim, 7))
    lifted = spectra.lift_states(res, index)
    assert np.abs(lifted - v[:, index]).max() <= 1e-15
    resid = np.linalg.norm(h @ lifted - lifted * res.eigenvalues[index], axis=0)
    assert np.all(resid <= res.residuals[index])


@pytest.mark.parametrize("basis", model.BASES)
@pytest.mark.parametrize("n,L,field", [(2, 6, 4.0), (3, 3, 32.0)])
@pytest.mark.parametrize("width", [1, 7])
def test_chunk_width_does_not_change_the_solve(basis, n, L, field, width, monkeypatch):
    # the split's products and the mask's lifts, one column or seven at a time;
    # each field is strong enough for its window to hold interior states
    p = ModelParams(g=1.0, h=field, N=n, potential=PairPotential("nearest_neighbor", 1.0))
    w = Window(L=L, interior_margin=1)

    def solve():
        op = model.build_hamiltonian(p, w, basis)
        res = spectra.sector_eigh(model.split_by_symmetry(op.matrix, w.n_sites, n))
        return res.eigenvalues, spectra.interior_mask(res, p, w, basis)

    vals, mask = solve()
    assert mask.any()
    monkeypatch.setattr(model, "CHUNK_COLUMNS", width)
    monkeypatch.setattr(spectra, "CHUNK_COLUMNS", width)
    got_vals, got_mask = solve()
    assert got_vals.tobytes() == vals.tobytes()
    assert np.array_equal(got_mask, mask)


def test_no_dim_square_array_in_the_sector_solves(tmp_path, monkeypatch):
    # the CLI's solve and ResolventWorkspace.block gate the sparse H, split it a
    # chunk of sector columns at a time and solve the sector blocks: from the
    # built H to the last solve, traced memory never grows by a dim x dim array
    import json
    import tracemalloc

    from starklat import cli, resolvent

    n, w = 3, Window(L=4, interior_margin=1)
    dim = w.n_sites**n
    p = ModelParams(g=1.0, h=0.5, N=n, potential=PairPotential("nearest_neighbor", 1.0))
    base, grown = [], []
    build, solve = model.build_hamiltonian, spectra.sector_eigh

    def spy_build(*args):
        op = build(*args)
        tracemalloc.reset_peak()
        base.append(tracemalloc.get_traced_memory()[0])
        return op

    def spy_solve(*args, **kwargs):
        out = solve(*args, **kwargs)
        grown.append(tracemalloc.get_traced_memory()[1] - base.pop())
        return out

    monkeypatch.setattr(model, "build_hamiltonian", spy_build)
    monkeypatch.setattr(resolvent, "build_hamiltonian", spy_build)
    monkeypatch.setattr(spectra, "sector_eigh", spy_solve)
    monkeypatch.setattr(resolvent, "sector_eigh", spy_solve)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"model": {"g": 1.0, "h": 0.5, "N": n},
                               "window": {"L": w.L, "interior_margin": 1}, "task": "spectrum",
                               "output_dir": str(tmp_path / "out")}))
    tracemalloc.start()
    try:
        assert cli.main(["spectrum", "--config", str(cfg)]) in (cli.EXIT_OK, cli.EXIT_ASSERT)
        assert resolvent.ResolventWorkspace(p, w).block(n).factors
    finally:
        tracemalloc.stop()
    assert len(grown) == 2 and not base
    assert max(grown) < dim * dim * 8, (grown, dim * dim * 8)
    # the split alone, at N = 3, L = 8: the partners of (2, 1) are folded as they
    # are filed, so it holds one block per irrep, n^2 doubles each, beside a few
    # dim x CHUNK_COLUMNS arrays (the orbit bases are built before the trace)
    w = Window(L=8, interior_margin=1)
    dim = w.n_sites**n
    h = model.build_hamiltonian(p, w, "stark").matrix
    model._orbit_bases(n)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        split = model.split_by_symmetry(h, w.n_sites, n)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert [b.shape[0] for b in split.blocks] == [969, 680, 1632]
    budget = sum(b.size for b in split.blocks) * 8 + 8 * dim * model.CHUNK_COLUMNS * 8
    assert peak <= budget, (peak, budget)


@pytest.mark.parametrize("n,L", [(2, 3), (3, 2), (4, 1)])
def test_sector_gathers_match_the_csr_products(n, L):
    # Q^T x by orbit gathers sums c = `orbit_terms` products a row, so each entry is
    # within gamma_c (|Q|^T |x|) of the exact sum; every lift of one sector (one term
    # a row, or np.longdouble) agrees with the CSR product bit for bit
    d = 2 * L + 1
    sectors, qts = model.symmetry_sectors(d, n), oracles.csr_sector_rows(d, n)
    assert [s.dim for s in sectors] == [q.shape[0] for q in qts]
    assert [s.orbit_terms for s in sectors] == [int(np.diff(q.indptr).max()) for q in qts]
    rng = np.random.default_rng(n)
    x = rng.standard_normal((d**n, 5)) + 1j * rng.standard_normal((d**n, 5))
    xs, xscale = exact_ints(x.real)
    q_all = sp.vstack(qts, format="csr")
    for s, qt in zip(sectors, qts):
        assert s.size == d**n
        got = s.rows(x.real)
        qs, qscale = exact_ints(qt.T.toarray())
        exact, bound = qs.T.dot(xs), np.abs(qs).T.dot(np.abs(xs))
        gamma = Fraction(spectra._gamma(s.orbit_terms))
        for v, e, b in zip(got.ravel().tolist(), exact.ravel(), bound.ravel()):
            assert abs(Fraction(v) - Fraction(int(e), 1 << (qscale + xscale))) <= gamma * Fraction(
                int(b), 1 << (qscale + xscale)
            )
        assert np.array_equal(s.rows(x.real[:, 0]).shape, (s.dim,))
        y = rng.standard_normal((s.dim, 3))
        out = np.empty((d**n, 3))
        s.lift(y, out)
        if s.terms > 1:
            want = qt.T.astype(np.longdouble) @ y.astype(np.longdouble)
        else:
            want = qt.T @ y
        assert np.array_equal(out, want.astype(np.float64))
    want = oracles.csr_times(q_all, x)
    assert np.abs(model._sector_rows(sectors, x) - want).max() <= 1e-14 * np.abs(want).max()
    y = rng.standard_normal((q_all.shape[0], 4)) + 1j * rng.standard_normal((q_all.shape[0], 4))
    out = np.empty((d**n, 4), dtype=complex)
    model._sector_lift(sectors, y, out)
    want = oracles.csr_times(q_all.T.tocsr(), y)
    assert np.abs(out - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("basis", model.BASES)
@pytest.mark.parametrize("n,L", [(2, 4), (3, 2), (4, 1)])
@pytest.mark.parametrize("pot", [*SYMMETRIC_POTENTIALS[:2], ASYMMETRIC], ids=lambda p: p.kind)
def test_split_matches_the_csr_split(basis, n, L, pot):
    # the split's blocks, cross norm, pair defects and spread from the gathered
    # products agree with those of the CSR products X^T a and Q^T (a^T X) to within
    # gamma_2c g_s ||a||_F, the bound `spectra.sector_eigh` puts on either product's
    # rounding: c the largest orbit, g_s >= || |Q_s| ||_2^2 over the sectors a block serves
    w = Window(L=L, interior_margin=1)
    op = model.build_hamiltonian(ModelParams(g=1.0, h=0.5, N=n, potential=pot), w, basis)
    got = model.split_by_symmetry(op.matrix, w.n_sites, n)
    want = oracles.csr_split(oracles.scipy_csr(op), w.n_sites, n)
    if want is None:  # an uneven v: both refuse, and the whole H is the one block
        assert got.sectors[0].irrep == () and np.array_equal(got.blocks[0], op.toarray())
        return
    assert got.serves == want.serves and len(got.blocks) == len(want.blocks)
    gamma = spectra._gamma(2 * max(s.orbit_terms for s in got.sectors))
    a_frob = np.linalg.norm(op.matrix.data)
    for a, b, serves in zip(got.blocks, want.blocks, got.serves):
        gain = max(got.sectors[s].abs_gain for s in serves)
        assert np.linalg.norm(a - b, 2) <= gamma * gain * a_frob
    bound = gamma * max(s.abs_gain for s in got.sectors) * a_frob
    assert abs(got.cross_norm - want.cross_norm) <= bound
    assert abs(got.norm - want.norm) <= bound
    assert (got.pair_defect is None) == (want.pair_defect is None)
    if got.pair_defect is not None:
        assert abs(got.pair_defect - want.pair_defect) <= bound
    assert max(abs(x - y) for x, y in zip(got.spread, want.spread, strict=True)) <= bound
    # a dense complex a takes the same path
    dense = op.toarray() * (1.0 + 0.5j)
    got = model.split_by_symmetry(dense, w.n_sites, n)
    want = oracles.csr_split(dense, w.n_sites, n)
    for a, b in zip(got.blocks, want.blocks, strict=True):
        assert np.abs(a - b).max() <= 1e-15 * np.abs(b).max()
    assert abs(got.cross_norm - want.cross_norm) <= 1e-15 * got.norm
