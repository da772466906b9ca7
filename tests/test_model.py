import itertools

import numpy as np
import pytest

from starklat import lattice, model, specfun
from starklat.model import ModelParams, PairPotential, Window

import oracles


@pytest.fixture
def params2():
    return ModelParams(g=1.0, h=0.5, N=2, potential=PairPotential("nearest_neighbor", 1.0))


@pytest.fixture
def win():
    return Window(L=6, interior_margin=3)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(g=1.0, h=0.0, N=1)
    with pytest.raises(ValueError):
        ModelParams(g=1.0, h=0.5, N=0)
    assert ModelParams(g=1.0, h=0.5, N=9).N == 9  # N_MAX is a limit of the tasks (cli)
    for decay in (0.0, -1.0, float("nan")):  # an exponential v must decay
        with pytest.raises(ValueError, match="decay"):
            PairPotential("exponential", 1.0, decay)
    asym = PairPotential("tabulated", table={1: 1.0, -1: 0.5})
    with pytest.raises(ValueError):
        ModelParams(g=1.0, h=0.5, N=2, potential=asym, statistics="fermion")
    # the library refuses the non-finite values the config loader refuses
    nan, inf = float("nan"), float("inf")
    for g, h in ((nan, 0.5), (inf, 0.5), (1.0, nan), (1.0, inf), (1.0, -inf)):
        with pytest.raises(ValueError, match="finite"):
            ModelParams(g=g, h=h, N=2)
    for kind, strength, decay in (
        ("power_law", 1.0, nan),
        ("power_law", 1.0, inf),
        ("exponential", 1.0, inf),
        ("exponential", nan, 1.0),
        ("nearest_neighbor", inf, 1.0),
        ("nearest_neighbor", -inf, 1.0),
        ("tabulated", nan, 1.0),
    ):
        with pytest.raises(ValueError, match="finite"):
            PairPotential(kind, strength, decay, {1: 1.0} if kind == "tabulated" else None)


def test_potential_presets():
    nn = PairPotential("nearest_neighbor", 2.0)
    assert nn.values([1, -1, 2]).tolist() == [2.0, 2.0, 0.0]
    ex = PairPotential("exponential", 1.0, 0.5)
    assert ex.values(2) == pytest.approx(np.exp(-1.0))
    pl = PairPotential("power_law", 3.0, 2.0)
    assert pl.values(2) == pytest.approx(3.0 / 9.0)
    tab = PairPotential("tabulated", table={0: 1.5, 2: 0.5, -2: 0.5})
    assert tab.values([0, 3]).tolist() == [1.5, 0.0]


def test_h0_position_3x3_example():
    p = ModelParams(g=1.0, h=0.5, N=1)
    w = Window(L=1, interior_margin=0)
    got = model.build_h0(p, w, "position").toarray()
    want = np.array([[1.0, -1.0, 0.0], [-1.0, 0.0, -1.0], [0.0, -1.0, -1.0]])
    assert np.array_equal(got, want)


def test_h0_stark_diagonal(params2, win):
    h0 = oracles.scipy_csr(model.build_h0(params2, win, "stark"))
    f = oracles.tuple_to_flat(win, np.array([2, -1]))
    assert h0[f, f] == pytest.approx(-2 * params2.h * 1)
    off = h0 - np.diag(h0.diagonal())
    assert abs(off).max() == 0.0


def test_g0_degeneration():
    p = ModelParams(g=0.0, h=0.5, N=2, potential=PairPotential("exponential", 0.8, 0.7))
    w = Window(L=5, interior_margin=2)
    for build in (model.build_h0, model.build_interaction, model.build_hamiltonian):
        a = build(p, w, "position").toarray()
        b = build(p, w, "stark").toarray()
        assert np.array_equal(a, b)


def test_pair_element_stark_g0_delta():
    p = ModelParams(g=0.0, h=0.5, N=2, potential=PairPotential("exponential", 1.0, 0.5))
    w = Window(L=5, interior_margin=2)
    assert oracles.pair_element_stark(2, -1, 2, -1, p, w) == pytest.approx(p.potential.values(3))
    assert oracles.pair_element_stark(2, -1, 2, 0, p, w) == pytest.approx(0.0, abs=1e-15)


def test_pair_element_symmetric(params2, win):
    a = oracles.pair_element_stark(1, -2, 0, 3, params2, win)
    b = oracles.pair_element_stark(0, 3, 1, -2, params2, win)
    assert a == pytest.approx(b, abs=1e-14)


KERNEL_POTENTIALS = [
    PairPotential("nearest_neighbor", 1.0),
    PairPotential("exponential", 0.8, 0.7),
    PairPotential("power_law", 1.0, 2.0),
    PairPotential("tabulated", table={-1: 0.2, 1: 0.7, 2: 0.1}),  # not even
]


def test_kernel_matches_per_element(win):
    d = win.n_sites
    pairs = model.flat_to_tuples(win, 2)
    for g, pot in itertools.product([1.0, 0.0, 10.0], KERNEL_POTENTIALS):  # g/h = 2, 0, 20
        params = ModelParams(g=g, h=0.5, N=2, potential=pot)
        kernel = model.two_site_kernel(params, win)
        assert kernel.shape == (d * d, d * d) and kernel.indices.dtype == np.int32
        k = oracles.scipy_csr(kernel)
        assert (k != k.T).nnz == 0  # exactly symmetric
        rng = np.random.default_rng(7)
        for _ in range(15):
            n1, n2, m1, m2 = rng.integers(-win.L, win.L + 1, size=4)
            a = k[(n1 + win.L) * d + (n2 + win.L), (m1 + win.L) * d + (m2 + win.L)]
            b = oracles.pair_element_stark(int(n1), int(n2), int(m1), int(m2), params, win)
            assert a == pytest.approx(b, abs=5e-14), (g, pot.kind)
        # one full row, dropped entries included, and the diagonal
        n1, n2 = 1, -2
        row = k[(n1 + win.L) * d + (n2 + win.L)].toarray().ravel()
        want = [oracles.pair_element_stark(n1, n2, m1, m2, params, win) for m1, m2 in pairs]
        assert np.abs(row - want).max() <= 5e-14, (g, pot.kind)
        diag = [oracles.pair_element_stark(i, j, i, j, params, win) for i, j in pairs]
        assert np.abs(k.diagonal() - diag).max() <= 5e-14, (g, pot.kind)


def test_interaction_position_diagonal(params2):
    w = Window(L=6, interior_margin=2)
    v = oracles.scipy_csr(model.build_interaction(params2, w, "position"))
    f = oracles.tuple_to_flat(w, np.array([3, 4]))
    assert v[f, f] == pytest.approx(1.0)
    f2 = oracles.tuple_to_flat(w, np.array([3, 6]))
    assert v[f2, f2] == 0.0


def test_three_pair_terms():
    p = ModelParams(g=1.0, h=0.5, N=3, potential=PairPotential("nearest_neighbor", 1.0))
    assert len(model.pairs(3)) == 3
    w = Window(L=3, interior_margin=1)
    v_all = model.build_interaction(p, w, "position").toarray()
    v_sum = sum(
        oracles.pair_interaction(p, w, "position", [pr]).toarray()
        for pr in model.pairs(3)
    )
    assert np.array_equal(v_all, v_sum)


def test_hamiltonian_is_sum(params2, win):
    h, h0, v = (
        oracles.scipy_csr(build(params2, win, "stark"))
        for build in (model.build_hamiltonian, model.build_h0, model.build_interaction)
    )
    assert abs((h - (h0 + v))).max() == 0.0


def test_embed_and_apply_on_legs_match_kron():
    w = Window(L=2, interior_margin=1)
    d, n = w.n_sites, 3
    rng = np.random.default_rng(11)
    for legs in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]:
        k = len(legs)
        op = rng.standard_normal((d**k, d**k))
        # kron puts the op's legs first; permute the axes back to particle order
        perm = list(legs) + [a for a in range(n) if a not in legs]
        back = list(np.argsort(perm))
        want = np.kron(op, np.eye(d ** (n - k))).reshape((d,) * (2 * n))
        want = want.transpose(back + [n + a for a in back]).reshape(d**n, d**n)
        got = model.embed_on_legs(model.CSR.from_dense(op), w, n, legs)
        assert np.array_equal(got.toarray(), want)
        x = rng.standard_normal((d**n, 3)) + 1j * rng.standard_normal((d**n, 3))
        product = oracles.scipy_csr(got) @ x
        assert np.abs(model.apply_on_legs(op, x, legs, d, n) - product).max() <= 1e-13
    with pytest.raises(ValueError):
        model.embed_on_legs(model.CSR.from_dense(np.eye(d * d)), w, n, (1, 0))
    with pytest.raises(ValueError):
        model.embed_on_legs(model.CSR.from_dense(np.eye(d)), w, n, (0, 1))


def test_prebuilt_pair_operator_is_left_unchanged(params2, win):
    # at N = 2 the interaction is the kernel's own CSR (a lift on all legs is
    # the operator itself), sharing its arrays with the caller's kernel
    k = model.two_site_kernel(params2, win)
    before = [x.copy() for x in (k.data, k.indices, k.indptr)]
    h = model.build_hamiltonian(params2, win, "stark", pair_operator=k)
    assert h.symmetry_defect() <= 1e-12
    assert all(np.array_equal(a, b) for a, b in zip(before, (k.data, k.indices, k.indptr)))
    want = model.build_hamiltonian(params2, win, "stark").matrix
    assert np.array_equal(h.matrix.toarray(), want.toarray()) and h.matrix.nnz == want.nnz
    lift = model.embed_on_legs(k, win, 2, (0, 1))
    assert lift.data is k.data or np.shares_memory(lift.data, k.data)


def test_symmetry_defect(params2, win):
    for basis in ("position", "stark"):
        h = model.build_hamiltonian(params2, win, basis)
        assert h.symmetry_defect() <= 1e-12


@pytest.mark.parametrize(
    "entries",
    [
        {(0, 1): 2.0, (1, 0): 2.0, (2, 2): -1.0},  # symmetric
        {(0, 1): 2.0, (1, 0): 2.5, (2, 2): -1.0},  # values differ
        {(0, 1): 2.0, (1, 0): 2.5, (0, 2): 0.3, (2, 2): -1.0},  # patterns differ too
        {},
    ],
)
def test_symmetry_defect_matches_full_difference(entries):
    w = Window(L=1, interior_margin=0)
    a = np.zeros((3, 3))
    for (i, j), v in entries.items():
        a[i, j] = v
    op = model.OperatorMatrix("position", w, 1, a)
    m = oracles.scipy_csr(op)
    want = abs(m - m.T).max() if entries else 0.0
    assert op.symmetry_defect() == want
    assert np.array_equal(op.toarray(), a)  # the check leaves H as it was
    big = model.build_hamiltonian(
        ModelParams(g=1.0, h=0.5, N=2, potential=PairPotential("nearest_neighbor", 1.0)),
        Window(L=4, interior_margin=1),
        "stark",
    )
    m = oracles.scipy_csr(big)
    assert big.symmetry_defect() == abs(m - m.T).max()


@pytest.mark.parametrize("pattern", ["symmetric", "values differ", "patterns differ"])
def test_symmetry_defect_packed_sort_matches_dense(pattern):
    # the column order of H^T's entries comes from one sort of (column << 32) | position
    # keys: equal columns keep their positions, so the maximum is exactly the dense one
    rng = np.random.default_rng(len(pattern))
    n = 300
    a = np.where(rng.random((n, n)) < 0.05, rng.standard_normal((n, n)), 0.0)
    a = a + a.T
    if pattern == "values differ":
        on = np.flatnonzero(a)[::7]
        a.flat[on] *= 1.0 + 1e-9 * rng.standard_normal(on.size)
    elif pattern == "patterns differ":
        a[np.triu_indices(n, 1)] *= rng.random(n * (n - 1) // 2) < 0.5
    op = model.OperatorMatrix("position", Window(L=1, interior_margin=0), 1, a)
    want = float(np.abs(a - a.T).max())
    assert op.symmetry_defect() == want
    assert (want == 0.0) == (pattern == "symmetric")


def test_determinism(params2):
    w = Window(L=8, interior_margin=3)
    a = model.build_hamiltonian(params2, w, "stark").toarray()
    b = model.build_hamiltonian(params2, w, "stark").toarray()
    assert np.array_equal(a, b)


def test_cluster_hamiltonian():
    from starklat.spectra import ClusterDecomposition

    p = ModelParams(g=1.0, h=0.5, N=3, potential=PairPotential("nearest_neighbor", 1.0))
    w = Window(L=3, interior_margin=1)
    full = ClusterDecomposition(((1, 2, 3),))
    assert np.array_equal(
        oracles.build_cluster_hamiltonian(p, w, full, "position").toarray(),
        model.build_hamiltonian(p, w, "position").toarray(),
    )
    finest = ClusterDecomposition(((1,), (2,), (3,)))
    assert np.array_equal(
        oracles.build_cluster_hamiltonian(p, w, finest, "position").toarray(),
        model.build_h0(p, w, "position").toarray(),
    )
    mid = ClusterDecomposition(((1, 2), (3,)))
    got = oracles.build_cluster_hamiltonian(p, w, mid, "position").toarray()
    want = (
        oracles.scipy_csr(model.build_h0(p, w, "position"))
        + oracles.scipy_csr(oracles.pair_interaction(p, w, "position", [(0, 1)]))
    ).toarray()
    assert np.array_equal(got, want)
    bad = ClusterDecomposition(((1, 2),))
    with pytest.raises(ValueError):
        oracles.build_cluster_hamiltonian(p, w, bad, "position")


def test_symmetrizer_projector(win):
    for eta in (1, -1):
        p = oracles.symmetrizer(2, win, eta).toarray()
        assert np.abs(p @ p - p).max() <= 1e-12
        assert np.abs(p - p.T).max() <= 1e-12


def test_symmetrizer_fermion_exclusion(win):
    p = oracles.symmetrizer(2, win, -1).toarray()
    f = oracles.tuple_to_flat(win, np.array([2, 2]))
    assert np.abs(p[:, f]).max() == 0.0


def test_symmetrizer_boson_pair(win):
    p = oracles.symmetrizer(2, win, 1).toarray()
    fxy = oracles.tuple_to_flat(win, np.array([1, 3]))
    fyx = oracles.tuple_to_flat(win, np.array([3, 1]))
    col = p[:, fxy]
    assert col[fxy] == pytest.approx(0.5)
    assert col[fyx] == pytest.approx(0.5)
    assert np.abs(col).sum() == pytest.approx(1.0)


def test_symmetrizer_commutes(params2):
    w = Window(L=5, interior_margin=2)
    h = model.build_hamiltonian(params2, w, "position").toarray()
    for eta in (1, -1):
        p = oracles.symmetrizer(2, w, eta).toarray()
        assert np.abs(p @ h - h @ p).max() <= 1e-12


def test_envelope_g0():
    p = ModelParams(g=0.0, h=0.5, N=2, potential=PairPotential("exponential", 1.0, 0.5))
    for n in (0, 2, -3):
        assert oracles.interaction_envelope_f(n, p, tail=40) == pytest.approx(
            abs(p.potential.values(n))
        )


def test_envelope_decays():
    p = ModelParams(g=1.0, h=0.5, N=2, potential=PairPotential("nearest_neighbor", 1.0))
    n_big = 1 + 4 * int(abs(p.x)) + 40
    assert oracles.interaction_envelope_f(n_big, p, tail=80) <= 1e-6
    assert oracles.interaction_envelope_f(-n_big, p, tail=80) <= 1e-6


def test_stark_transform_diagonalizes_h0():
    p = ModelParams(g=1.0, h=0.5, N=1)
    w = Window(L=20, interior_margin=7)
    xi = model.stark_basis_matrix(p, w)
    h0 = model.build_h0(p, w, "position").toarray()
    d = xi.T @ h0 @ xi
    m = np.arange(-w.L, w.L + 1)
    interior = np.abs(m) <= w.L - w.interior_margin
    off = d - np.diag(np.diag(d))
    assert np.abs(off[np.ix_(interior, interior)]).max() <= 1e-8
    assert np.abs(np.diag(d)[interior] - (-2 * p.h * m[interior])).max() <= 1e-8


@pytest.mark.parametrize("pad", [0, 30])
@pytest.mark.parametrize("g", [1.0, -3.7, 1e-100])
def test_stark_basis_matrix_is_entrywise_bessel(pad, g):
    p = ModelParams(g=g, h=0.5, N=1)
    w = Window(L=6, interior_margin=2)
    xi = model.stark_basis_matrix(p, w, pad)
    j = np.arange(-w.L - pad, w.L + pad + 1)
    m = np.arange(-w.L, w.L + 1)
    want = np.array([[specfun.bessel_j(mm - jj, p.x) for mm in m] for jj in j])
    assert xi.shape == want.shape
    assert np.abs(xi - want).max() <= 1e-15


def test_nnz_cap():
    # the budget counts ENTRY_BYTES per entry the leg lifts of both sums store: H0 at
    # dim 81^4; the stark kernel (840,175 entries) lifted onto the 3 pairs of N = 3 at
    # L = 22, 113.4M entries with H0's; and at N = 4, L = 30 both sums, where H0 alone
    # (2.4 GiB) would fit. Each is refused once the pair kernel is made, before any lift
    cases = [(4, 40, "position"), (3, 22, "stark"), (4, 30, "stark")]
    for n, L, basis in cases:
        with pytest.raises(
            model.CapacityError, match=rf"the assembly of H at N = {n}, L = {L} .* GiB, above"
        ) as err:
            model.build_hamiltonian(ModelParams(g=1.0, h=0.5, N=n),
                                    Window(L=L, interior_margin=7), basis)
        assert err.value.estimate > lattice.MEMORY_BUDGET


def test_export_coo_csv(tmp_path, params2, win):
    h = model.build_h0(params2, win, "stark")
    path = tmp_path / "h0.csv"
    h.export_coo_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "row,col,value"
    assert len(lines) == h.matrix.nnz + 1


def test_refused_split_holds_nothing_filed_while_densifying():
    # an uneven v does not commute with the leg swaps: the split files every
    # irrep's block, refuses, and densifies the whole H (86.9 MiB at dim 3375)
    # with none of the filed blocks (14.7 MiB) still held
    import tracemalloc

    n, w = 3, Window(L=7, interior_margin=1)
    uneven = PairPotential("tabulated", table={-1: 0.2, 1: 0.7, 2: 0.1})
    h = model.build_hamiltonian(ModelParams(1.0, 0.5, n, uneven), w, "position").matrix
    model._orbit_bases(n)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        split = model.split_by_symmetry(h, w.n_sites, n)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert split.sectors[0].irrep == () and split.blocks[0].shape == (w.n_sites**n,) * 2
    assert peak <= 92 * 2**20, peak / 2**20


@pytest.mark.parametrize("basis", model.BASES)
@pytest.mark.parametrize("n,L", [(1, 4), (2, 3), (3, 2), (4, 2)])
@pytest.mark.parametrize("pot", KERNEL_POTENTIALS, ids=lambda p: p.kind)
def test_hamiltonian_is_bit_identical_to_the_scipy_assembly(basis, n, L, pot):
    # the numpy lifts and linear-time merges store what scipy's COO lifts and
    # CSR sums stored: the same entries, in the same order, with the same sums
    p = ModelParams(g=1.0, h=0.5, N=n, potential=pot)
    w = Window(L=L, interior_margin=1)
    got = model.build_hamiltonian(p, w, basis).matrix
    want = oracles.scipy_hamiltonian(p, w, basis)
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.shape == want.shape and got.nnz == want.nnz


def test_embed_on_legs_rejects_empty_legs():
    w = Window(L=1, interior_margin=0)
    op = model.CSR.from_dense(np.eye(1))
    with pytest.raises(ValueError, match="invalid legs"):
        model.embed_on_legs(op, w, 2, ())


def test_sum_drops_cancelled_entries():
    # a + b merges two canonical CSRs; entries that cancel exactly are not stored
    a = np.array([[1.0, 2.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 5.0]])
    b = np.array([[-1.0, 0.0, 0.0], [4.0, 0.5, 0.0], [0.0, 0.0, 0.0]])
    w = Window(L=1, interior_margin=0)
    total = model.OperatorMatrix("position", w, 1, a) + model.OperatorMatrix("position", w, 1, b)
    assert total.matrix.nnz == 4
    assert np.array_equal(total.toarray(), a + b)
