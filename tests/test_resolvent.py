import itertools
import math

import numpy as np
import pytest

from starklat import model, resolvent as rsv, spectra
from starklat.model import ModelParams, PairPotential, Window
from starklat.spectra import ClusterDecomposition

import oracles


@pytest.fixture(scope="module")
def pair_ws():
    p = ModelParams(g=1.0, h=0.5, N=2, potential=PairPotential("nearest_neighbor", 1.0))
    w = Window(L=10, interior_margin=3)
    return rsv.ResolventWorkspace(p, w)


def chain_of(*blocklists):
    return rsv.DecompositionChain(
        tuple(ClusterDecomposition(tuple(map(tuple, b))) for b in blocklists)
    )


def test_chain_validation():
    with pytest.raises(ValueError):
        chain_of([[1, 2], [3]], [[1, 2, 3]])  # must start at singletons
    with pytest.raises(ValueError):
        chain_of([[1], [2], [3]], [[1], [2], [3]])  # no coarsening
    c = chain_of([[1], [2], [3]], [[1, 2], [3]], [[1, 2, 3]])
    assert c.k_s == 1 and c.is_single_merge
    jump = chain_of([[1], [2], [3]], [[1, 2, 3]])
    assert jump.k_s == 1 and not jump.is_single_merge


def test_chain_counts():
    all2 = rsv.enumerate_chains(2)
    assert len([c for c in all2 if c.k_s == 1]) == 1
    assert len(all2) == 2
    all3 = rsv.enumerate_chains(3)
    con3 = [c for c in all3 if c.k_s == 1]
    assert len(con3) == 4
    assert len(all3) - len(con3) == 4
    # deterministic order
    again = rsv.enumerate_chains(3)
    assert [c.sequence for c in again] == [c.sequence for c in all3]


def test_coupling_n2_full_interaction(pair_ws):
    fine = ClusterDecomposition(((1,), (2,)))
    coarse = ClusterDecomposition(((1, 2),))
    p, w = pair_ws.params, pair_ws.window
    v = oracles.pair_interaction(p, w, "stark", rsv._new_pairs(fine, coarse)).toarray()
    full = oracles.build_interaction(p, w, "stark").toarray()
    assert np.array_equal(v, full)


def test_coupling_n3_steps():
    p = ModelParams(g=1.0, h=0.5, N=3, potential=PairPotential("nearest_neighbor", 1.0))
    w = Window(L=3, interior_margin=1)
    single = ClusterDecomposition(((1,), (2,), (3,)))
    mid = ClusterDecomposition(((1, 2), (3,)))
    full = ClusterDecomposition(((1, 2, 3),))
    v1 = oracles.pair_interaction(p, w, "position", rsv._new_pairs(single, mid)).toarray()
    only12 = oracles.pair_interaction(p, w, "position", [(0, 1)]).toarray()
    assert np.array_equal(v1, only12)
    v2 = oracles.pair_interaction(p, w, "position", rsv._new_pairs(mid, full)).toarray()
    rest = oracles.pair_interaction(p, w, "position", [(0, 2), (1, 2)]).toarray()
    assert np.array_equal(v2, rest)
    with pytest.raises(ValueError):
        oracles.pair_interaction(p, w, "stark", rsv._new_pairs(mid, mid))


def test_coupling_completeness():
    # couplings along any chain + intra terms of the endpoint rebuild V
    p = ModelParams(g=1.0, h=0.5, N=3, potential=PairPotential("nearest_neighbor", 1.0))
    w = Window(L=3, interior_margin=1)
    full_v = oracles.build_interaction(p, w, "position").toarray()
    h0 = oracles.build_h0(p, w, "position").toarray()
    for chain in rsv.enumerate_chains(3):
        acc = np.zeros_like(full_v)
        for a, b in zip(chain.sequence, chain.sequence[1:]):
            acc += oracles.pair_interaction(p, w, "position", rsv._new_pairs(a, b)).toarray()
        end = chain.sequence[-1]
        intra = oracles.build_cluster_hamiltonian(p, w, end, "position").toarray() - h0
        assert np.abs(acc - intra).max() == 0.0
        if chain.k_s == 1:
            assert np.abs(acc - full_v).max() == 0.0


def test_operator_norm_against_svd():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    exact = np.linalg.svd(a, compute_uv=False)[0]
    assert rsv.operator_norm(a) == pytest.approx(exact, rel=1e-3)
    assert rsv.operator_norm(np.zeros((5, 5))) == 0.0


def test_operator_norm_rank_one_orthogonal_to_ones():
    # the all-ones start lies in the kernel, so the first iterate is exactly 0
    u = np.zeros(6)
    u[:2] = (1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0))
    a = 1e-3 * np.outer(u, u)
    assert not np.any(a @ np.ones(6))
    assert rsv.operator_norm(a) == pytest.approx(1e-3, rel=1e-12)


def test_cluster_resolvent_diagonal(pair_ws):
    fine = ClusterDecomposition(((1,), (2,)))
    z = 8j
    g0 = pair_ws.apply_resolvent(fine, z, np.eye(pair_ws.dim, dtype=complex))
    h0 = oracles.build_h0(pair_ws.params, pair_ws.window, "stark").toarray()
    want = np.diag(1.0 / (z - np.diag(h0)))
    assert np.abs(g0 - want).max() <= 1e-14


def test_cluster_resolvent_norm_bound(pair_ws):
    full = ClusterDecomposition(((1, 2),))
    g = pair_ws.apply_resolvent(full, 8j, np.eye(pair_ws.dim, dtype=complex))
    assert rsv.operator_norm(g) <= 1.0 / 8.0 + 1e-6


def test_cluster_resolvent_rejects_near_spectrum(pair_ws):
    full = ClusterDecomposition(((1, 2),))
    p, w = pair_ws.params, pair_ws.window
    evs = np.linalg.eigvalsh(oracles.build_cluster_hamiltonian(p, w, full, "stark").toarray())
    with pytest.raises(np.linalg.LinAlgError):
        rsv.ResolventWorkspace(p, w).apply_resolvent(
            full, complex(evs[0]) + 1e-14, np.eye(pair_ws.dim, dtype=complex)
        )


def test_resolvent_cache_reused(pair_ws):
    ws = rsv.ResolventWorkspace(pair_ws.params, pair_ws.window)
    fine = ClusterDecomposition(((1,), (2,)))
    a = ws.factor(fine, 4j)
    b = ws.factor(fine, 4j)
    assert a is b
    assert ws.block(2) is ws.block(2)
    # a block is the SectorEigh of its solve; the stark H^(1) is diagonal, so
    # U = 1 is kept implicit, with zero defects; the N-particle block keeps its
    # sector factors, one per solve, and is not lifted
    one, two = ws.block(1), ws.block(2)
    assert isinstance(two, spectra.SectorEigh) and two.eigenvectors is None
    assert sum(f.values.size * len(f.sectors) for f in two.factors) == ws.dim
    assert isinstance(one, spectra.SectorEigh) and one.eigenvectors is None and not one.factors
    assert one.residual_norm == one.orthogonality_defect == 0.0
    assert not one.residuals.any() and one.residuals.shape == one.eigenvalues.shape


def test_second_z_keeps_only_its_own_factors(pair_ws):
    # each factored G_D(z) holds a dim-sized delta: a second z drops the first z's
    ws = rsv.ResolventWorkspace(pair_ws.params, pair_ws.window)
    parts = spectra.enumerate_set_partitions(2)
    for z in (4j, 0.5 + 8j):
        held = {p.canonical(): ws.factor(p, z) for p in parts}
        factors = {k: v for k, v in ws.cache.items() if k[0] == "F"}
        assert factors.keys() == {("F", dec, z) for dec in held}
        assert all(factors[("F", dec, z)] is f for dec, f in held.items())


@pytest.mark.parametrize("n,L", [(2, 3), (3, 2)])
def test_pair_kernel_built_once_per_workspace(n, L, monkeypatch):
    # every H^(k), k >= 2, is assembled from the one pair operator the workspace
    # builds, and no sparse copy of it outlives a block build; at N = 2 the
    # workspace keeps W in the place of its dense copy, which `two_site` makes anew
    calls = []
    kernel = model.two_site_kernel
    monkeypatch.setattr(model, "two_site_kernel", lambda *a: calls.append(a) or kernel(*a))
    p = ModelParams(g=1.0, h=0.5, N=n, potential=PairPotential("nearest_neighbor", 1.0))
    ws = rsv.ResolventWorkspace(p, Window(L=L, interior_margin=1))
    st = rsv.stream_functional_equation(0.5 + 1j, ws)
    assert len(calls) == 1 and st.residual <= 1e-12
    assert not any(isinstance(v, model.CSR) for v in ws.cache.values())
    assert np.array_equal(ws.two_site(), kernel(p, ws.window).toarray())
    for k in range(2, n + 1):
        h = model.build_hamiltonian(p.with_n(k), ws.window, "stark").toarray()
        b = ws.block(k)  # H^(N) keeps its factors, a smaller block its lifted U
        u = b.eigenvectors if k < n else spectra.lift_states(b, np.arange(h.shape[0]))
        assert np.abs(u.T @ h @ u - np.diag(b.eigenvalues)).max() <= 1e-12


def test_build_I_n2_closed_form(pair_ws):
    z = 8j
    fine = ClusterDecomposition(((1,), (2,)))
    g0 = pair_ws.apply_resolvent(fine, z, np.eye(pair_ws.dim, dtype=complex))
    v = oracles.build_interaction(pair_ws.params, pair_ws.window, "stark").toarray()
    assert np.abs(rsv.build_I(z, pair_ws) - g0 @ v).max() <= 1e-14


def test_build_D_n2_is_g0(pair_ws):
    z = 8j
    fine = ClusterDecomposition(((1,), (2,)))
    g0 = pair_ws.apply_resolvent(fine, z, np.eye(pair_ws.dim, dtype=complex))
    assert np.abs(rsv.build_D(z, pair_ws) - g0).max() == 0.0


def test_norm_decay_ladder(pair_ws):
    v = oracles.build_interaction(pair_ws.params, pair_ws.window, "stark").toarray()
    vnorm = np.abs(np.linalg.eigvalsh(v)).max()  # exact ||V||_2 of the symmetric V
    prev = np.inf
    for k in (2, 4, 8, 16, 32):
        y = k * vnorm
        val = np.linalg.norm(rsv.build_I(1j * y, pair_ws), 2)
        assert val <= vnorm / y + 1e-10
        assert val <= prev + 1e-12
        prev = val


def test_functional_equation_n2(pair_ws):
    r = rsv.functional_equation_residual(8j, pair_ws.params, pair_ws.window, pair_ws)
    assert r <= 1e-8


def test_functional_equation_real_midgap():
    p = ModelParams(g=1.0, h=0.5, N=2, potential=PairPotential("nearest_neighbor", 0.3))
    w = Window(L=10, interior_margin=3)
    r = rsv.functional_equation_residual(0.5 + 0j, p, w)
    assert r <= 1e-7


def test_functional_equation_n3():
    p = ModelParams(g=1.0, h=0.5, N=3, potential=PairPotential("nearest_neighbor", 1.0))
    w = Window(L=5, interior_margin=2)
    r = rsv.functional_equation_residual(12j, p, w)
    assert r <= 1e-6


@pytest.mark.parametrize("basis", model.BASES)
@pytest.mark.parametrize("n,L", [(2, 6), (3, 3)])
def test_functional_equation_matches_dense_g(basis, n, L):
    # the residual comes from G (1 - I^T) - D^T; the oracle forms G and I G
    p = ModelParams(g=1.0, h=0.5, N=n, potential=PairPotential("nearest_neighbor", 1.0))
    w = Window(L=L, interior_margin=1)
    ws = rsv.ResolventWorkspace(p, w, basis)
    z = 0.5 + 1j
    d, i = rsv.expansion(z, ws)
    full = ClusterDecomposition((tuple(range(1, n + 1)),))
    g = ws.apply_resolvent(full, z, np.eye(ws.dim, dtype=complex))
    # the true (D, I), and an I off by 1e-3 so that the residual is far from roundoff
    for scale in (1.0, 1.001):
        fe = rsv.functional_equation(z, ws, d, scale * i)
        want = np.linalg.norm(g - d - scale * i @ g)
        assert abs(fe.residual - want) <= 1e-12 * max(1.0, want)
        assert fe.i.shape == fe.d.shape == (ws.dim, ws.dim)


def test_compactness_zero_potential():
    p = ModelParams(g=1.0, h=0.5, N=2, potential=PairPotential("tabulated", table={0: 0.0}))
    w = Window(L=6, interior_margin=2)
    ws = rsv.ResolventWorkspace(p, w)
    rep = rsv.compactness_proxy(rsv.build_I(8j, ws))
    assert rep.singular_values.max() <= 1e-14


def test_compactness_desk(pair_ws):
    rep = rsv.compactness_proxy(rsv.build_I(8j, pair_ws))
    assert rep.passed
    assert rep.k_drop is not None and rep.k_drop < rep.singular_values.size / 2
    s = rep.singular_values
    assert np.all(np.diff(s) <= 1e-12)


def test_fredholm_probe(pair_ws):
    p, w = pair_ws.params, pair_ws.window
    res = spectra.eigh(model.build_hamiltonian(p, w, "stark"))
    lam = res.eigenvalues[np.argmin(np.abs(res.eigenvalues - 0.367))]
    far = 16j
    pts = oracles.fredholm_probe([lam + 1e-4, 0.437, far], p, w, ws=pair_ws)
    assert pts[0].flagged
    assert abs(pts[0].z.real - pts[0].nearest_h_eigenvalue) <= 1e-2
    assert not pts[1].flagged
    assert not pts[2].flagged and pts[2].nearest_h_eigenvalue is None


ORACLE_SIZES = [(2, 6), (3, 3), (4, 2)]
ORACLE_POINTS = [
    (PairPotential("nearest_neighbor", 1.0), 8j),
    (PairPotential("nearest_neighbor", 1.0), 0.5 + 1j),
    (PairPotential("nearest_neighbor", 0.3), 0.5 + 0j),  # real, mid-gap
    (PairPotential("tabulated", table={-1: 0.2, 1: 0.7, 2: 0.1}), 0.5 + 1j),  # v(n) != v(-n)
]


@pytest.mark.parametrize("basis", model.BASES)
@pytest.mark.parametrize("n,L", ORACLE_SIZES)
@pytest.mark.parametrize("pot,z", ORACLE_POINTS)
def test_factored_engine_matches_dense_oracle(basis, n, L, pot, z):
    p = ModelParams(g=1.0, h=0.5, N=n, potential=pot)
    w = Window(L=L, interior_margin=1)
    ws = rsv.ResolventWorkspace(p, w, basis)
    # dense oracle: one solve per partition, conditioning from its spectrum
    dense, kappa = {}, 1.0
    for dec in spectra.enumerate_set_partitions(n):
        h = oracles.build_cluster_hamiltonian(p, w, dec, basis).toarray()
        eye = np.eye(h.shape[0])
        dense[dec.canonical()] = np.linalg.solve(z * eye - h, eye.astype(complex))
        evs = np.linalg.eigvalsh(h)
        kappa = max(kappa, (np.abs(evs).max() + abs(z)) / np.abs(z - evs).min())
    tol = 64 * np.finfo(float).eps * kappa
    for dec in spectra.enumerate_set_partitions(n):
        want = dense[dec.canonical()]
        got = ws.apply_resolvent(dec, z, np.eye(ws.dim, dtype=complex))
        assert np.abs(got - want).max() <= tol * np.abs(want).max()

    # D and I against the chain-product sums, applied right to left to a probe block
    probe = np.random.default_rng(5).standard_normal((ws.dim, 8)) + 0j
    couplings = {}

    def chain_on_probe(chain, trailing):
        seq = chain.sequence
        out = dense[seq[-1].canonical()] @ probe if trailing else probe
        for a, b in reversed(list(zip(seq, seq[1:]))):
            key = (a.canonical(), b.canonical())
            if key not in couplings:
                pairs = rsv._new_pairs(a, b)
                couplings[key] = oracles.pair_interaction(p, w, basis, pairs).toarray()
            out = dense[a.canonical()] @ (couplings[key] @ out)
        return out

    # the expansion sums over single-merge chains: k_s >= 2 for D, k_s = 1 for I
    single = [c for c in rsv.enumerate_chains(n) if c.is_single_merge]
    d, i = rsv.expansion(z, ws)
    for got, k_s_one in ((d, False), (i, True)):
        chains = [c for c in single if (c.k_s == 1) == k_s_one]
        terms = [chain_on_probe(c, not k_s_one) for c in chains]
        scale = sum(np.linalg.norm(t) for t in terms)
        assert np.linalg.norm(got @ probe - sum(terms)) <= tol * scale


def _perturbed_workspace(basis, size):
    # block eigenvectors (the N-block's sector factors) off by ~size, far
    # above rounding, so the residual bound is exercised by a real defect
    p = ModelParams(g=1.0, h=0.5, N=3, potential=PairPotential("exponential", 0.8, 0.7))
    w = Window(L=3, interior_margin=1)
    ws = rsv.ResolventWorkspace(p, w, basis)
    rng = np.random.default_rng(3)
    for k in (1, 2, 3):
        f = ws.block(k)
        h = model.build_hamiltonian(p.with_n(k), w, basis).toarray()
        eye = np.eye(f.eigenvalues.size)
        if k == p.N:
            factors = tuple(
                s._replace(vectors=s.vectors + size * rng.standard_normal(s.vectors.shape))
                for s in f.factors
            )
            u = np.hstack([oracles.dense_q(q) @ s.vectors for s in factors for q in s.sectors])
            eps = np.concatenate([s.values for s in factors for _ in s.sectors])
            f = f._replace(factors=factors)
        else:
            u = eye if f.eigenvectors is None else f.eigenvectors
            u = u + size * rng.standard_normal(h.shape)
            eps = f.eigenvalues
            f = f._replace(eigenvectors=u)
        ws.cache[("U", k)] = f._replace(
            residual_norm=np.linalg.norm(h @ u - u * eps),
            orthogonality_defect=np.linalg.norm(u.T @ u - eye),
        )
    return ws


@pytest.mark.parametrize("basis", model.BASES)
def test_residual_bound_covers_inexact_factors(basis, monkeypatch):
    monkeypatch.setattr(rsv, "RESIDUAL_TOL", 1.0)
    ws = _perturbed_workspace(basis, 1e-7)
    z = 0.5 + 0.01j  # near the spectrum, so the max |delta| factor is tested
    eye = np.eye(ws.dim)
    for dec in spectra.enumerate_set_partitions(3):
        h = oracles.build_cluster_hamiltonian(ws.params, ws.window, dec, ws.basis).toarray()
        g = ws.apply_resolvent(dec, z, np.eye(ws.dim, dtype=complex))
        measured = np.linalg.norm((z * eye - h) @ g - eye, 2)
        assert 1e-9 < measured <= ws.factor(dec, z).residual_bound


def test_residual_gate_rejects_inexact_factors():
    ws = _perturbed_workspace("stark", 1e-7)
    full = ClusterDecomposition(((1, 2, 3),))
    with pytest.raises(np.linalg.LinAlgError):
        ws.apply_resolvent(full, 0.5 + 1j, np.eye(ws.dim, dtype=complex))


sector_dims = oracles.sector_dims  # from the character tables of S_2, S_3 and S_4


SECTOR_POTENTIALS = [
    PairPotential("nearest_neighbor", 1.0),
    PairPotential("exponential", 0.8, 0.7),
    PairPotential("power_law", 1.0, 2.0),
]


@pytest.mark.parametrize("basis", model.BASES)
@pytest.mark.parametrize("n,L", ORACLE_SIZES)
@pytest.mark.parametrize("pot", SECTOR_POTENTIALS, ids=lambda p: p.kind)
def test_sector_svd_of_I_matches_full(basis, n, L, pot):
    p = ModelParams(g=1.0, h=0.5, N=n, potential=pot)
    w = Window(L=L, interior_margin=1)
    ws = rsv.ResolventWorkspace(p, w, basis)
    i_mat = rsv.build_I(0.5 + 1j, ws)
    rep = rsv.compactness_proxy(model.split_by_symmetry(i_mat, w.n_sites, n))
    assert rep.sectors["sector_dims"] == sector_dims(w.n_sites, n)
    want = np.linalg.svd(i_mat, compute_uv=False)
    tol = 64 * np.finfo(float).eps * want[0] + rep.sectors["cross_norm"]
    assert np.abs(rep.singular_values - want).max() <= tol
    # the block factors behind I(z) are split too, with exact-size defects
    for k in range(2, n + 1):
        f = ws.block(k)
        assert f.sectors["sector_dims"] == sector_dims(w.n_sites, k)
        assert np.all(np.diff(f.eigenvalues) >= 0.0)
        assert f.orthogonality_defect <= 1e-12 and f.residual_norm <= 1e-10


@pytest.mark.parametrize("basis", model.BASES)
@pytest.mark.parametrize("n,L", ORACLE_SIZES[:2])
def test_block_bounds_cover_full_matrix_defects(basis, n, L):
    p = ModelParams(g=1.0, h=0.5, N=n, potential=SECTOR_POTENTIALS[1])
    w = Window(L=L, interior_margin=1)
    ws = rsv.ResolventWorkspace(p, w, basis)

    def assert_same_factors(got_factors, want_factors):
        assert len(got_factors) == len(want_factors)
        for got, exp in zip(got_factors, want_factors):
            assert got.values.tobytes() == exp.values.tobytes()
            assert got.vectors.tobytes() == exp.vectors.tobytes()
            for a, b in zip(got.sectors, exp.sectors, strict=True):
                assert (a.dim, a.lift_error) == (b.dim, b.lift_error)
                for got_gather, want_gather in zip(a.orbits, b.orbits, strict=True):
                    assert all(map(np.array_equal, got_gather, want_gather))

    for k in range(2, n + 1):
        f = ws.block(k)
        op = model.build_hamiltonian(p.with_n(k), w, basis)
        # a block is the one dense solve, spectra.eigh of H^(k), bit for bit,
        # factors included; the N-block is not lifted
        want = spectra.eigh(op)
        if k == n:
            factors = spectra.sector_eigh(
                model.split_by_symmetry(op.toarray(), w.n_sites, k)
            ).factors
            assert f.eigenvectors is None
            assert_same_factors(f.factors, factors)
            f = f._replace(eigenvectors=want.eigenvectors)
        assert_same_factors(f.factors, want.factors)
        for name, got, exp in zip(f._fields, f._replace(factors=()), want._replace(factors=())):
            same = got.tobytes() == exp.tobytes() if isinstance(got, np.ndarray) else got == exp
            assert same, name
        h = op.toarray()
        v = f.eigenvectors
        assert f.residual_norm >= np.linalg.norm(h @ v - v * f.eigenvalues)
        assert f.orthogonality_defect >= np.linalg.norm(v.T @ v - np.eye(f.eigenvalues.size))


@pytest.mark.parametrize("basis", model.BASES)
@pytest.mark.parametrize("L", [2, 3, 4])
def test_factored_n_block_matches_solve(basis, L):
    # the N-particle G is applied from its sector factors, one solve per irrep
    p = ModelParams(g=1.0, h=0.5, N=3, potential=SECTOR_POTENTIALS[0])
    w = Window(L=L, interior_margin=1)
    ws = rsv.ResolventWorkspace(p, w, basis)
    block = ws.block(3)
    assert block.eigenvectors is None
    assert [len(f.sectors) for f in block.factors] == [1, 1, 2]
    h = model.build_hamiltonian(p, w, basis).toarray()
    full = ClusterDecomposition(((1, 2, 3),))
    rng = np.random.default_rng(L)
    x = rng.standard_normal((ws.dim, 4)) + 1j * rng.standard_normal((ws.dim, 4))
    before = x.copy()
    for z in (0.5 + 1j, -0.5 + 8j, 0.25 + 0.2j):
        want = np.linalg.solve(z * np.eye(ws.dim) - h, x)
        got = ws.apply_resolvent(full, z, x)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        # a real block is applied as a complex one
        real = ws.apply_resolvent(full, z, x.real.copy())
        assert np.linalg.norm(real - np.linalg.solve(z * np.eye(ws.dim) - h, x.real)) <= (
            1e-12 * np.linalg.norm(want)
        )
    assert np.array_equal(x, before)


@pytest.mark.parametrize("basis", model.BASES)
@pytest.mark.parametrize("L", [2, 3, 4])
def test_paired_svd_of_I_matches_full(basis, L):
    p = ModelParams(g=1.0, h=0.5, N=3, potential=SECTOR_POTENTIALS[0])
    w = Window(L=L, interior_margin=1)
    ws = rsv.ResolventWorkspace(p, w, basis)
    i_mat = rsv.build_I(0.5 + 1j, ws)
    rep = rsv.compactness_proxy(model.split_by_symmetry(i_mat, w.n_sites, 3))
    assert rep.sectors["sector_dims"] == sector_dims(w.n_sites, 3)
    assert 0.0 < rep.sectors["pair_defect"] <= model.SECTOR_TOL * np.linalg.norm(i_mat)
    want = np.linalg.svd(i_mat, compute_uv=False)
    assert np.abs(rep.singular_values - want).max() <= 1e-12 * want[0]


def test_sector_svd_one_sector():
    # a non-symmetric tabulated v: I(z) does not commute with the leg swap
    p = ModelParams(g=1.0, h=0.5, N=2, potential=ORACLE_POINTS[3][0])
    w = Window(L=4, interior_margin=1)
    ws = rsv.ResolventWorkspace(p, w)
    i_mat = rsv.build_I(0.5 + 1j, ws)
    want = np.linalg.svd(i_mat, compute_uv=False)
    for arg in (model.split_by_symmetry(i_mat, w.n_sites, 2), i_mat):  # a dense I is unsplit
        rep = rsv.compactness_proxy(arg)
        assert rep.sectors == {"sector_dims": [w.n_sites**2], "cross_norm": 0.0}
        assert np.abs(rep.singular_values - want).max() <= 64 * np.finfo(float).eps * want[0]
    assert ws.block(2).sectors["sector_dims"] == [w.n_sites**2]
    # one particle: H^(1) in the position basis is solved whole
    one = rsv.ResolventWorkspace(p.with_n(1), w, "position").block(1)
    assert one.sectors == {"sector_dims": [w.n_sites], "cross_norm": 0.0}


def _conjugate(x, perm, d, n):
    """P_pi x P_pi^T for the leg permutation pi (leg i of x becomes leg perm[i])."""
    axes = tuple(np.argsort(perm))
    return x.reshape((d,) * 2 * n).transpose(axes + tuple(n + a for a in axes)).reshape(x.shape)


@pytest.mark.parametrize("basis", model.BASES)
def test_even_potential_expansion_commutes_with_leg_permutations(basis):
    # the premise of the orbit sum: with v(r) = v(-r), G_{pi D} = P G_D P^T, and so
    # D and I commute with every leg permutation
    n = 3
    p = ModelParams(g=1.0, h=0.5, N=n, potential=SECTOR_POTENTIALS[1])
    w = Window(L=3, interior_margin=1)
    ws = rsv.ResolventWorkspace(p, w, basis)
    d_sites, z = w.n_sites, 0.5 + 1j
    d, i = rsv.expansion(z, ws)
    eye = np.eye(ws.dim, dtype=complex)
    decs = spectra.enumerate_set_partitions(n)
    g = {dec.canonical(): ws.apply_resolvent(dec, z, eye) for dec in decs}
    tol = 64 * np.finfo(float).eps
    for perm in itertools.permutations(range(n)):
        for x in (d, i):
            assert np.abs(_conjugate(x, perm, d_sites, n) - x).max() <= tol * np.abs(x).max()
        for dec in decs:
            blocks = tuple(tuple(perm[j - 1] + 1 for j in b) for b in dec.blocks)
            want = g[ClusterDecomposition(blocks).canonical()]
            got = _conjugate(g[dec.canonical()], perm, d_sites, n)
            assert np.abs(got - want).max() <= tol * np.abs(want).max()


@pytest.mark.parametrize(
    "n,pot,chains,reps",
    [
        (2, ORACLE_POINTS[0][0], 1, 1),
        (3, ORACLE_POINTS[0][0], 4, 2),
        (4, ORACLE_POINTS[0][0], 25, 4),
        (3, ORACLE_POINTS[3][0], 4, 4),
        (4, ORACLE_POINTS[3][0], 25, 25),
    ],
)
def test_chain_orbit_counts(n, pot, chains, reps):
    orbits = rsv.chain_orbits(n, rsv.even_potential(pot))
    assert len(orbits) == reps
    assert sum(len(images) for _, images in orbits) == chains
    # every representative is the smallest key of its orbit, and its own first image
    identity = tuple(range(2 * n))
    assert all(images[0] == identity for _, images in orbits)
    single = [c for c in rsv.enumerate_chains(n) if c.is_single_merge and c.k_s >= 2]
    assert len(single) == chains


def test_even_potential():
    assert all(rsv.even_potential(pot) for pot in SECTOR_POTENTIALS)
    even = [{0: 0.0}, {-1: 0.5, 1: 0.5}, {1: 0.0}, {-2: 1.0, 0: 3.0, 2: 1.0}]
    odd = [{1: 0.5}, {-1: 0.2, 1: 0.7, 2: 0.1}, {-1: 0.5, 1: -0.5}]
    for table in even + odd:
        assert rsv.even_potential(PairPotential("tabulated", table=table)) == (table in even)


STREAM_CASES = [
    ("stark", 2, 6, PairPotential("nearest_neighbor", 1.0)),
    ("stark", 3, 3, PairPotential("nearest_neighbor", 1.0)),
    ("position", 3, 3, PairPotential("nearest_neighbor", 1.0)),
    ("stark", 4, 2, PairPotential("nearest_neighbor", 1.0)),
    ("stark", 3, 2, ORACLE_POINTS[3][0]),  # v(n) != v(-n): the trivial group, identity columns
    ("position", 2, 6, PairPotential("nearest_neighbor", 1.0)),  # H^(1) not diagonal: no W
]


def _dense_check(ws, z):
    d, i = rsv.expansion(z, ws)
    split = {}
    for name, x in (("d", d), ("i", i)):
        if ws.sector_columns()[0].irrep == ():
            # the trivial group streams the whole space, even where a split of x
            # exists (D = G_0 at N = 2 commutes with the leg swap for every v)
            split[name] = model.SectorSplit.whole(x)
        else:
            split[name] = model.split_by_symmetry(x, ws.window.n_sites, ws.params.N)
    return d, i, split


def _assert_streamed_matches(st, d, i, split, ws, z):
    # every comparison is relative to the size of the dense matrices it is computed from
    scale = np.linalg.norm(d) + np.linalg.norm(i)
    fe = rsv.functional_equation(z, ws, d, i)
    assert abs(st.residual - fe.residual) <= 1e-14 * scale
    assert (st.dist_to_spectrum, st.resolvent_residual_bound) == (
        fe.dist_to_spectrum, fe.resolvent_residual_bound)
    for got, want, x in ((st.d, split["d"], d), (st.i, split["i"], i)):
        assert got.diagnostics().keys() == want.diagnostics().keys()
        assert [s.dim for s in got.sectors] == [s.dim for s in want.sectors]
        assert got.serves == want.serves and got.basis_defect == want.basis_defect
        assert abs(got.cross_norm - want.cross_norm) <= 1e-14 * np.linalg.norm(x)
        if want.pair_defect is not None:
            assert abs(got.pair_defect - want.pair_defect) <= 1e-14 * np.linalg.norm(x)
        for a, b in zip(got.blocks, want.blocks, strict=True):
            assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max()
    got = rsv.compactness_proxy(st.i).singular_values
    want = rsv.compactness_proxy(
        model.split_by_symmetry(i, ws.window.n_sites, ws.params.N)
    ).singular_values
    assert np.abs(got - want).max() <= 1e-14 * want[0]


def test_split_of_fortran_ordered_i_matches_c_ordered():
    # expansion returns I(z) transposed, so Fortran-ordered; its split must not
    # depend on the memory order
    p = ModelParams(g=1.0, h=0.5, N=3, potential=PairPotential("nearest_neighbor", 1.0))
    ws = rsv.ResolventWorkspace(p, Window(L=3, interior_margin=1))
    i = rsv.build_I(0.5 + 1j, ws)
    assert i.flags.f_contiguous and not i.flags.c_contiguous
    f, c = (model.split_by_symmetry(x, ws.window.n_sites, 3) for x in (i, np.ascontiguousarray(i)))
    scale = np.linalg.norm(i)
    assert len(f.sectors) == 4 and f.serves == c.serves
    assert abs(f.cross_norm - c.cross_norm) <= 1e-14 * scale
    assert abs(f.pair_defect - c.pair_defect) <= 1e-14 * scale
    for a, b in zip(f.blocks, c.blocks, strict=True):
        assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max()


@pytest.mark.parametrize("basis,n,L,pot", STREAM_CASES)
def test_streamed_check_matches_dense(basis, n, L, pot):
    # the column-chunk stream against the dense D, I and 1 - I^T of expansion(z, ws)
    p = ModelParams(g=1.0, h=0.5, N=n, potential=pot)
    ws = rsv.ResolventWorkspace(p, Window(L=L, interior_margin=1), basis)
    z = 0.5 + 1j
    d, i, split = _dense_check(ws, z)
    st = rsv.stream_functional_equation(z, ws)
    _assert_streamed_matches(st, d, i, split, ws, z)
    # an I off by 1e-3 through the chunk kernel, so the residual is far from roundoff
    square = 0.0
    for chunk in rsv.column_chunks(ws):
        dx, ix = rsv.expansion_columns(z, ws, chunk)
        ri = ws.sector_rows(1.001 * ix)
        square += np.linalg.norm(rsv.residual_columns(z, ws, chunk, dx, ri)) ** 2
    want = rsv.functional_equation(z, ws, d, 1.001 * i).residual
    got = math.sqrt(square / (1.0 - st.i.basis_defect))
    assert want > 1e-6 and abs(got - want) <= 1e-14 * (np.linalg.norm(d) + np.linalg.norm(i))


def test_streamed_check_with_diagonal_n_block():
    # v = 0 in the Stark basis: H^(2) is diagonal, but the N-block is still
    # solved in the S_N sectors and applied from its factors, like any other
    p = ModelParams(g=1.0, h=0.5, N=2, potential=PairPotential("nearest_neighbor", 0.0))
    ws = rsv.ResolventWorkspace(p, Window(L=3, interior_margin=1))
    z = 0.5 + 1j
    assert ws.block(2).factors != () and ws.sector_columns()[0].irrep != ()
    d, i, split = _dense_check(ws, z)
    st = rsv.stream_functional_equation(z, ws)
    _assert_streamed_matches(st, d, i, split, ws, z)
    # I' = I + 1e-3 (I = 0 here) through the chunk kernel, against a dense G
    square = 0.0
    for chunk in rsv.column_chunks(ws):
        dx, ix = rsv.expansion_columns(z, ws, chunk)
        ix = ix + 1e-3 * rsv._dense(chunk.terms, complex)
        ri = ws.sector_rows(ix)
        square += np.linalg.norm(rsv.residual_columns(z, ws, chunk, dx, ri)) ** 2
    h = model.build_hamiltonian(p, ws.window, "stark").toarray()
    g = np.linalg.inv(z * np.eye(ws.dim) - h)
    want = np.linalg.norm(g - d - (i + 1e-3 * np.eye(ws.dim)) @ g)
    got = math.sqrt(square / (1.0 - st.i.basis_defect))
    assert want > 1e-6 and abs(got - want) <= 1e-12 * np.linalg.norm(g)


@pytest.mark.parametrize("basis,n,L,pot", STREAM_CASES)
def test_streamed_bound_holds_off_sector(basis, n, L, pot):
    # I^T X of the last chunk plus a perturbation that no leg permutation leaves
    # invariant: the rows off each column's sector, which the stream bounds
    # instead of forming, are then far from rounding level
    p = ModelParams(g=1.0, h=0.5, N=n, potential=pot)
    ws = rsv.ResolventWorkspace(p, Window(L=L, interior_margin=1), basis)
    z = 0.5 + 1j
    d, i = rsv.expansion(z, ws)
    st = rsv.stream_functional_equation(z, ws)
    sectors = ws.sector_columns()
    bounds = np.cumsum([0] + [s.dim for s in sectors])
    chunks = list(rsv.column_chunks(ws))
    rng = np.random.default_rng(5)
    shape = (ws.dim, chunks[-1].width)
    perturbation = 1e-3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    theta = st.i.basis_defect
    gamma = np.abs(ws.full_factor(z).delta).max() * (1.0 + ws.block(n).orthogonality_defect)

    def bound(last):
        # each chunk's rows from the stream's own entry point, Q^T of `last` added to
        # the last chunk's Q^T (I^T X)
        squares, cross = np.zeros(3), 0.0
        blocks, diffs = {}, {}
        for chunk in chunks:
            rd, ri = rsv.chunk_rows(z, ws, chunk)
            if chunk is chunks[-1] and last is not None:
                ri = ri + ws.sector_rows(last)
            squares += rsv.sector_residual(z, ws, chunk, rd, ri)
            cross = model.fill_sector_blocks(rd, chunk.parts, blocks, diffs, bounds, cross)
        own, u_off, u = np.sqrt(squares)
        return own / (1.0 - theta), (gamma * u_off + cross + theta * gamma * u) / (1.0 - theta), u

    # unperturbed, the terms are the stream's own
    sector, dropped, _ = bound(None)
    assert (sector, dropped) == (st.residual_sector, st.residual_dropped)
    assert st.residual == sector + dropped
    # E with E^T X = the perturbation on the last chunk's columns X of Q, 0 on the others
    parts = chunks[-1].parts
    cols = np.concatenate([np.arange(bounds[s] + j0, bounds[s] + j1) for s, j0, j1 in parts])
    w = np.zeros((ws.dim, ws.dim), dtype=complex)
    w[:, cols] = perturbation
    q = np.hstack([oracles.dense_q(s) for s in sectors])
    e = np.linalg.solve(q.T, w.T)
    want = rsv.functional_equation(z, ws, d, i + e).residual
    sector, dropped, u = bound(perturbation)
    got = sector + dropped
    scale = np.linalg.norm(d) + np.linalg.norm(i)
    assert want > 1e-6
    if len(sectors) > 1:
        assert dropped > 1e-6
    assert want <= got + 1e-14 * scale
    # ||own|| <= ||Q^T R^T X|| + theta gamma ||u|| and ||Q^T R^T Q||_F <= (1 + theta) ||R||_F
    slack = theta * gamma * u / (1.0 - theta) + 1e-14 * scale
    assert got <= (1.0 + theta) / (1.0 - theta) * want + dropped + slack


@pytest.mark.parametrize("n,L,pot", [(2, 8, STREAM_CASES[1][3]), (3, 3, STREAM_CASES[1][3]),
                                     (3, 3, ORACLE_POINTS[3][0]), (4, 2, STREAM_CASES[1][3])])
def test_second_z_allocates_no_chunk_array(n, L, pot):
    # every chunk of every z runs through the N + 4 buffers the chunk plan owns: past
    # what the second z keeps (its sector blocks), its traced peak holds less than
    # one dim x CHUNK_COLUMNS complex array (the parent's stream held about 7.5)
    import tracemalloc

    p = ModelParams(g=1.0, h=0.5, N=n, potential=pot)
    ws = rsv.ResolventWorkspace(p, Window(L=L, interior_margin=1))
    first = rsv.stream_functional_equation(0.5 + 1j, ws)
    buffers = ws.cache[("buffers",)]
    assert buffers.shape == (rsv.STREAM_ARRAYS + n - 1, ws.dim * model.CHUNK_COLUMNS)
    tracemalloc.start()
    try:
        second = rsv.stream_functional_equation(-0.5 + 2j, ws)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - kept < 16 * ws.dim * model.CHUNK_COLUMNS, (peak - kept) / (16 * ws.dim * 64)
    assert ws.cache[("buffers",)] is buffers and second.chunks == first.chunks
    ws.drop_buffers()  # a later z makes them again
    again = rsv.stream_functional_equation(-0.5 + 2j, ws)
    assert ws.cache[("buffers",)] is not buffers and again.residual == second.residual
    # a z written over the sector blocks of an earlier one stores what a fresh z stores
    over = rsv.stream_functional_equation(-0.5 + 2j, ws, out=first)
    assert over.residual == second.residual
    for got, want, old in ((over.d, second.d, first.d), (over.i, second.i, first.i)):
        for a, b, c in zip(got.blocks, want.blocks, old.blocks, strict=True):
            assert np.array_equal(a, b) and np.shares_memory(a, c)


def test_n2_stark_stream_applies_no_pair_operator(monkeypatch):
    # at N = 2 in the stark basis each chunk's rows come from W = Q^T V Q and the cached
    # Q^T X (`chunk_rows`): over three z on one workspace, each written over the last,
    # the stream applies no operator on legs and runs no chain-tree pass, W stands in
    # the place of the dense pair copy, and every z matches the dense oracle
    calls = []
    for module, name in ((rsv, "apply_on_legs"), (model, "apply_on_legs"),
                         (rsv, "expansion_columns")):
        real = getattr(module, name)
        counted = lambda *a, _f=real, _n=name, **k: calls.append(_n) or _f(*a, **k)  # noqa: E731
        monkeypatch.setattr(module, name, counted)
    p = ModelParams(g=1.0, h=0.5, N=2, potential=PairPotential("nearest_neighbor", 1.0))
    ws = rsv.ResolventWorkspace(p, Window(L=6, interior_margin=1))
    st = None
    for k, z in enumerate((0.5 + 1j, -1.0 + 2j, 0.25 + 8j)):
        del calls[:]
        st = rsv.stream_functional_equation(z, ws, out=st)
        assert calls == []  # none at the first z either: no H^(k) at N = 2 is applied by legs
        if k == 0:
            assert ("W",) in ws.cache and ("V2",) not in ws.cache
            assert ws.cache[("W",)].shape == (ws.dim, ws.dim)
        d, i, split = _dense_check(ws, z)  # makes the dense pair copy anew, for the oracle only
        assert "expansion_columns" in calls
        _assert_streamed_matches(st, d, i, split, ws, z)


def test_largest_column_holds_no_copy_of_its_block():
    # the column norms go CHUNK_COLUMNS columns at a time, each column summed as the
    # whole block's norm sums it (a last lone column joins the chunk before)
    import tracemalloc

    rng = np.random.default_rng(3)
    for m in (1, 65, 129, 200):
        a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        for b in (a, a.T):
            want = np.zeros(m)
            want[np.argmax(np.linalg.norm(b, axis=0))] = 1.0
            assert np.array_equal(rsv._largest_column(b), want)
    a = rng.standard_normal((1000, 1000)) + 1j * rng.standard_normal((1000, 1000))
    tracemalloc.start()
    try:
        start = rsv._largest_column(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < a.nbytes, peak / a.nbytes
    assert start[np.argmax(np.linalg.norm(a, axis=0))] == 1.0 and start.sum() == 1.0


def test_stream_refuses_unsplit_n_block_with_even_v(monkeypatch):
    # the chunks follow the N-block's sectors; with an even v and H^(N) left
    # whole, columns of 1 are not closed under the leg permutations (N = 3
    # images each chain by the relabellings; at N = 2 there is one chain)
    monkeypatch.setattr(model, "SECTOR_TOL", -1.0)
    p = ModelParams(g=1.0, h=0.5, N=3, potential=PairPotential("nearest_neighbor", 1.0))
    ws = rsv.ResolventWorkspace(p, Window(L=1, interior_margin=1))
    assert ws.sector_columns()[0].irrep == ()
    with pytest.raises(np.linalg.LinAlgError, match="S_N sectors"):
        rsv.stream_functional_equation(0.5 + 1j, ws)


@pytest.mark.parametrize("n,L,pot", [(3, 2, STREAM_CASES[1][3]), (4, 1, STREAM_CASES[1][3]),
                                     (2, 3, ORACLE_POINTS[3][0]), (2, 3, STREAM_CASES[0][3])])
@pytest.mark.parametrize("width", [1, 7])
def test_chunk_width_does_not_change_results(n, L, pot, width, monkeypatch):
    # N = 4, L = 1 has no fermion sector (3 sites, 4 particles); N = 2 streams from W
    # (`chunk_rows`), over the whole space for the asymmetric v
    p = ModelParams(g=1.0, h=0.5, N=n, potential=pot)
    ws = rsv.ResolventWorkspace(p, Window(L=L, interior_margin=1))
    z = 0.5 + 1j
    d, i, split = _dense_check(ws, z)
    default = rsv.stream_functional_equation(z, ws)
    monkeypatch.setattr(rsv, "CHUNK_COLUMNS", width)
    st = rsv.stream_functional_equation(z, ws)
    assert st.chunk_columns == width and st.chunks > default.chunks
    for got in (default, st):
        _assert_streamed_matches(got, d, i, split, ws, z)
    chunks = list(rsv.column_chunks(ws))
    assert sum(c.width for c in chunks) == ws.dim
    # every chunk holds columns of one irrep lambda, at most max(width, dim lambda) of them
    sectors = ws.sector_columns()
    for c in chunks:
        (lam,) = {sectors[s].irrep for s, _, _ in c.parts}
        dim = oracles.S_N_CHARACTERS[n][2][lam][0] if lam else 1  # () is the whole space
        assert c.width <= max(width, dim), (lam, c.parts)


def test_sector_norms_see_every_sector():
    # at N = 2, L = 6 the largest singular value of I(z) lies in the fermion sector,
    # which a power iteration from the all-ones (boson) vector never reaches
    p = ModelParams(g=1.0, h=0.5, N=2, potential=PairPotential("nearest_neighbor", 1.0))
    ws = rsv.ResolventWorkspace(p, Window(L=6, interior_margin=1))
    z = 0.5 + 1j
    st = rsv.stream_functional_equation(z, ws)
    d, i = rsv.expansion(z, ws)
    for split, x in ((st.i, i), (st.d, d)):
        norms = rsv.sector_norms(split)
        boson = rsv.operator_norm(x)
        assert len(norms) == 2 and abs(norms[0] - boson) <= 1e-12 * boson
        assert max(norms) <= np.linalg.norm(x, 2) * (1.0 + 1e-12)
    norm_i, boson_i = max(rsv.sector_norms(st.i)), rsv.operator_norm(i)
    assert norm_i > 1.01 * boson_i
    assert abs(norm_i - np.linalg.norm(i, 2)) <= 1e-9 * norm_i
