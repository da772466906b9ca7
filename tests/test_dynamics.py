import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from starklat import dynamics as dyn
from starklat import lattice, model
from starklat.model import ModelParams, PairPotential, Window

import oracles


@pytest.fixture(scope="module")
def pair_setup():
    p = ModelParams(g=1.0, h=0.5, N=2, potential=PairPotential("nearest_neighbor", 1.0))
    w = Window(L=10, interior_margin=3)
    return p, w, model.build_hamiltonian(p, w, "position")


@pytest.fixture(scope="module")
def triple_setup():
    p = ModelParams(g=1.0, h=0.5, N=3, potential=PairPotential("nearest_neighbor", 1.0))
    w = Window(L=3, interior_margin=1)
    return p, w, model.build_hamiltonian(p, w, "position")


def spectral_propagate(op, psi0, t):
    dense = op.toarray()
    vals, vecs = np.linalg.eigh(dense)
    return vecs @ (np.exp(-1j * vals * t) * (vecs.T @ psi0))


def per_sample_evolve(op, psi0, t, bounds=None):
    """The propagator with its set-up redone on every call, as tail_trace used
    it before the step was built once per trace; the reference for tail_trace.
    bounds default to the Gershgorin discs of the CSR H."""
    lo, hi = bounds or oracles.gershgorin_bounds(op)
    center, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    coef = oracles.chebyshev_coefficients(half * t)
    hs = (oracles.scipy_csr(op) - center * sp.identity(op.dim, format="csr")) / half
    tk_prev = psi0.astype(complex)
    tk = hs @ tk_prev
    acc = coef[0] * tk_prev + coef[1] * tk
    for c in coef[2:]:
        tk_prev, tk = tk, 2.0 * (hs @ tk) - tk_prev
        acc += c * tk
    return np.exp(-1j * center * t) * acc


def block_reference(op, psi0, dt, samples):
    """per_sample_evolve from each block's base state over its offset j*dt; the
    reference for every sample tail_trace takes."""
    m = dyn.SAMPLES_PER_EXPANSION
    states = [psi0.astype(complex)]
    for k in range(1, samples + 1):
        base = (k - 1) // m * m
        states.append(per_sample_evolve(op, states[base], (k - base) * dt))
    return states


def traced_states(monkeypatch, op, psi0, config):
    """tail_trace's state at every sample, read from the planes it takes the density of."""
    states = []
    density = dyn.density

    def recording(planes, window, n_particles):
        d = window.n_sites
        if planes.size != 2 * d**n_particles:  # the propagator's padded planes: cut the ghosts
            planes = planes[(Ellipsis,) + (slice(0, d),) * (n_particles - 1)]
        states.append((planes[0] + 1j * planes[1]).ravel())
        return density(planes, window, n_particles)

    monkeypatch.setattr(dyn, "density", recording)
    trace = dyn.tail_trace(op, psi0, config, [2])
    return trace, states


def test_config_validation():
    with pytest.raises(ValueError):
        dyn.PropagatorConfig(t_max=-1.0, samples=10)
    with pytest.raises(ValueError):
        dyn.PropagatorConfig(t_max=1.0, samples=0)


def test_gershgorin_encloses_spectrum(pair_setup):
    p, w, op = pair_setup
    lo, hi = dyn.model_stencil(p, w).bounds
    vals = np.linalg.eigvalsh(op.toarray())
    assert lo < vals.min() and hi > vals.max()


def test_gershgorin_is_the_disc_enclosure(pair_setup):
    # no margin: the bounds are the extreme disc edges themselves
    p, w, op = pair_setup
    dense = op.toarray()
    d = dense.diagonal()
    r = np.abs(dense).sum(axis=1) - np.abs(d)
    assert oracles.gershgorin_bounds(op) == ((d - r).min(), (d + r).max())
    assert dyn.model_stencil(p, w).bounds == dyn.position_stencil(op).bounds
    assert dyn.position_stencil(op).bounds == ((d - r).min(), (d + r).max())
    diag = np.random.default_rng(5).standard_normal(w.n_sites)
    op1 = model.OperatorMatrix("position", w, 1, np.diag(diag))
    assert oracles.gershgorin_bounds(op1) == (diag.min(), diag.max())
    assert dyn.position_stencil(op1).bounds == (diag.min(), diag.max())


POTENTIALS = [
    PairPotential("nearest_neighbor", 1.0),
    PairPotential("exponential", 0.7, 0.9),
    PairPotential("power_law", 1.3, 2.0),
    PairPotential("tabulated", table={-1: 0.2, 1: 0.7, 2: 0.1}),  # uneven: v(-1) != v(1)
]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("pot", POTENTIALS, ids=lambda pot: pot.kind)
@pytest.mark.parametrize("g", [1.0, 0.3, 0.0])
def test_model_stencil_matches_the_csr_stencil(n, pot, g):
    # summed in build_hamiltonian's order, the diagonal is the CSR diagonal bit for bit
    p = ModelParams(g=g, h=0.5, N=n, potential=pot)
    w = Window(L=2 if n == 4 else 3, interior_margin=1)
    op = model.build_hamiltonian(p, w, "position")
    direct, read = dyn.model_stencil(p, w), dyn.position_stencil(op)
    assert direct.window == read.window == w
    assert direct.diagonal.shape == read.diagonal.shape == (w.n_sites,) * n
    assert np.array_equal(direct.diagonal, read.diagonal)
    assert direct.hop == read.hop == -g
    assert direct.bounds == read.bounds
    # the CSR row sums add |g| next to the diagonal, so they match to rounding
    want = oracles.gershgorin_bounds(op)
    if g == 1.0:
        assert direct.bounds == want
    scale = np.abs(direct.diagonal).max() + 2 * n * abs(g)
    assert np.abs(np.subtract(direct.bounds, want)).max() <= 4 * np.spacing(scale)


def test_model_stencil_trace_matches_the_csr_trace():
    # evolve-n3's benchmark config: one propagator from either stencil, the same trace bits
    p = ModelParams(g=1.0, h=0.5, N=3, potential=PairPotential("nearest_neighbor", 1.0))
    w = Window(L=12, interior_margin=2)
    op = model.build_hamiltonian(p, w, "position")
    psi0 = dyn.product_state(w, (-1, 2, 0))
    cfg = dyn.PropagatorConfig(t_max=50.0, samples=200)
    direct = dyn.tail_trace(dyn.model_stencil(p, w), psi0, cfg, list(range(2, 11)))
    read = dyn.tail_trace(op, psi0, cfg, list(range(2, 11)))
    for field in dataclasses.fields(dyn.DensityTrace):
        assert np.array_equal(getattr(direct, field.name), getattr(read, field.name)), field.name


def test_density_reads_the_planes():
    w = Window(L=3, interior_margin=1)
    psi = [1.0, 1j] @ np.random.default_rng(3).standard_normal((2, w.n_sites**3))
    psi /= np.linalg.norm(psi)
    want = sum(
        (np.abs(psi) ** 2).reshape((w.n_sites,) * 3).sum(axis=tuple(b for b in range(3) if b != a))
        for a in range(3)
    )
    for planes in (dyn._planes(psi), dyn._planes(psi).reshape((2,) + (w.n_sites,) * 3)):
        assert np.abs(dyn.density(planes, w, 3) - want).max() <= 1e-15


def test_propagator_bytes_refuses_above_the_cap():
    # 29 arrays of 2P doubles, about: N=4, L=12 and N=5, L=8 run, N=5, L=12 does not
    assert dyn.propagator_bytes(Window(12, 2), 4, 8) < 0.25e9
    assert dyn.propagator_bytes(Window(8, 2), 5, 8) < 0.9e9
    for w, n in ((Window(12, 2), 5), (Window(30, 7), 4)):
        with pytest.raises(lattice.CapacityError, match="GiB, above the memory budget"):
            dyn.propagator_bytes(w, n, 8)
    # fewer samples per expansion, fewer accumulators
    assert dyn.propagator_bytes(Window(12, 2), 4, 1) < dyn.propagator_bytes(Window(12, 2), 4, 8)


def position_op(n, L=3, g=1.0):
    p = ModelParams(g=g, h=0.5, N=n, potential=PairPotential("nearest_neighbor", 1.0))
    return model.build_hamiltonian(p, Window(L=L, interior_margin=1), "position")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stencil_step_matches_dense_rescaled_h(n):
    op = position_op(n, L=2 if n == 4 else 3)
    prop = dyn.ChebyshevPropagator(dyn.position_stencil(op), 0.1, 1, dyn.PropagatorConfig(1.0, 1))
    lo, hi = prop.bounds
    hs = (op.toarray() - 0.5 * (hi + lo) * np.eye(op.dim)) / (0.5 * (hi - lo))
    d = op.window.n_sites

    def padded(planes):
        grid = np.zeros((2,) + prop.grid)
        grid[prop.interior] = planes.reshape((2,) + (d,) * n)
        return grid.reshape(2, -1)

    def unpadded(planes):
        return planes.reshape((2,) + prop.grid)[prop.interior].reshape(2, -1)

    x, y = np.random.default_rng(n).standard_normal((2, 2, op.dim))
    x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)  # two normalized states
    u0, u1 = x[0] + 1j * x[1], y[0] + 1j * y[1]
    out, hopped = np.empty_like(padded(x)), np.empty_like(padded(x))
    prop.step(padded(x), out, None, hopped)  # k = 1: U_1 = -i hs U_0
    want = -1j * hs @ u0
    assert np.abs(unpadded(out) - [want.real, want.imag]).max() <= 1e-15
    assert np.array_equal(out, padded(unpadded(out)))  # the ghosts are zero
    prop.step(padded(x), out, padded(y), hopped)  # k >= 2: U_k = -2i hs U_{k-1} + U_{k-2}
    want = -2j * hs @ u0 + u1
    assert np.abs(unpadded(out) - [want.real, want.imag]).max() <= 1e-15
    assert np.array_equal(out, padded(unpadded(out)))


def test_real_coefficients_carry_the_chebyshev_phase():
    # a_k(t) (-i)^k is the coefficient of T_k in e^{-i half t hs}, for every
    # offset's row of the propagator's table
    op = position_op(2)
    prop = dyn.ChebyshevPropagator(dyn.position_stencil(op), 0.7, 8, dyn.PropagatorConfig(5.6, 8))
    lo, hi = prop.bounds
    assert prop.table.dtype == float and prop.table.shape == (8, prop.terms.max())
    for j, t in enumerate(0.7 * np.arange(1, 9)):
        want = oracles.chebyshev_coefficients(0.5 * (hi - lo) * t)
        a = prop.table[j, : prop.terms[j]]
        assert a.size == want.size and not prop.table[j, a.size :].any()
        phased = a * (-1j) ** np.arange(a.size)
        assert np.abs(phased - want).max() <= 1e-15 * np.abs(want).max()


def test_folding_active_offsets_matches_folding_every_offset(triple_setup):
    # with every offset marked as reaching the last term, each fold covers all
    # offsets and adds the zeros past their truncation
    p, w, op = triple_setup
    cfg = dyn.PropagatorConfig(4.0, 8)
    active = dyn.ChebyshevPropagator(dyn.position_stencil(op), 0.5, 8, cfg)
    every = dyn.ChebyshevPropagator(dyn.position_stencil(op), 0.5, 8, cfg)
    assert active.terms[0] <= active.terms[-1] - dyn.TERM_BUFFER  # some fold skips offsets
    every.terms = np.full_like(active.terms, active.terms.max())
    planes = dyn._planes(dyn.product_state(w, (0, 1, -1)))
    got, want = active(planes, 8).copy(), every(planes, 8)
    assert np.abs(got - want).max() <= 1e-15
    assert active.matvecs == every.matvecs


def with_pair(op, i, j, value):
    """op with the symmetric pair of entries (i, j), (j, i) set to value."""
    mat = oracles.scipy_csr(op).tolil()
    mat[i, j] = mat[j, i] = value
    return model.OperatorMatrix("position", op.window, op.n_particles, oracles.from_scipy(mat))


def test_propagator_accepts_only_its_stencil():
    op = position_op(2)
    d, cfg = op.window.n_sites, dyn.PropagatorConfig(1.0, 1)
    refused = [
        with_pair(op, d + 1, d + 2, -1.5),  # a hop that is not the constant -g
        with_pair(op, 0, 2, 0.3),  # offset 2, not +-1 or +-d
        with_pair(op, d - 1, d, -1.0),  # offset 1, wrapping from x_2 = L to x_2 = -L
        with_pair(op, d * (d - 1) - 1, d * d - 1, 0.0),  # a missing hop at offset d
    ]
    for bad in refused:
        assert bad.symmetry_defect() == 0.0
        with pytest.raises(ValueError, match="nearest-neighbour hop"):
            dyn.position_stencil(bad)
    free = dyn.ChebyshevPropagator(dyn.position_stencil(position_op(2, g=0.0)), 0.1, 1, cfg)
    assert free.hop == 0.0 and free.strides == []


def test_propagator_rejects_stark_basis():
    p = ModelParams(g=1.0, h=0.5, N=2, potential=PairPotential("nearest_neighbor", 1.0))
    w = Window(L=4, interior_margin=1)
    op = model.build_hamiltonian(p, w, "stark")
    psi0 = dyn.product_state(w, (0, 1))
    with pytest.raises(ValueError, match="position basis"):
        oracles.evolve(op, psi0, 1.0, dyn.PropagatorConfig(1.0, 1))
    with pytest.raises(ValueError, match="position basis"):
        dyn.tail_trace(op, psi0, dyn.PropagatorConfig(1.0, 2), [2])


def test_evolve_t0_identity(pair_setup):
    p, w, op = pair_setup
    psi0 = dyn.product_state(w, (0, 1))
    out = oracles.evolve(op, psi0, 0.0, dyn.PropagatorConfig(1.0, 1))
    assert np.array_equal(out, psi0.astype(complex))


def test_evolve_g0_pure_phase():
    p = ModelParams(g=0.0, h=0.5, N=1)
    w = Window(L=10, interior_margin=3)
    op = model.build_hamiltonian(p, w, "position")
    psi0 = np.full(w.n_sites, 1.0 / np.sqrt(w.n_sites))
    psi_t = oracles.evolve(op, psi0, 7.3, dyn.PropagatorConfig(10.0, 1))
    assert np.abs(np.abs(psi_t) - np.abs(psi0)).max() <= 1e-11


def test_evolve_matches_spectral_oracle():
    p = ModelParams(g=1.0, h=0.5, N=1)
    w = Window(L=40, interior_margin=10)
    op = model.build_hamiltonian(p, w, "position")
    psi0 = dyn.product_state(w, (0,))
    psi_t = oracles.evolve(op, psi0, 10.0, dyn.PropagatorConfig(10.0, 1))
    assert np.linalg.norm(psi_t - spectral_propagate(op, psi0, 10.0)) <= 1e-9


def test_evolve_group_property(pair_setup):
    p, w, op = pair_setup
    cfg = dyn.PropagatorConfig(10.0, 1)
    psi0 = dyn.product_state(w, (0, 1))
    one = oracles.evolve(op, psi0, 5.0, cfg)
    two = oracles.evolve(op, one, 5.0, cfg)
    direct = oracles.evolve(op, psi0, 10.0, cfg)
    assert np.linalg.norm(two - direct) <= 1e-10


def test_evolve_energy_conservation(pair_setup):
    p, w, op = pair_setup
    psi0 = dyn.product_state(w, (0, 1)).astype(complex)
    h = oracles.scipy_csr(op)
    e0 = np.real(np.conj(psi0) @ (h @ psi0))
    psi_t = oracles.evolve(op, psi0, 50.0, dyn.PropagatorConfig(50.0, 1))
    e_t = np.real(np.conj(psi_t) @ (h @ psi_t))
    assert abs(e_t - e0) <= 1e-8


def test_evolve_rejects_unnormalized(pair_setup):
    p, w, op = pair_setup
    with pytest.raises(ValueError):
        oracles.evolve(op, 2.0 * dyn.product_state(w, (0, 1)), 1.0, dyn.PropagatorConfig(1.0, 1))


def test_density_product_state():
    w = Window(L=6, interior_margin=2)
    psi = dyn.product_state(w, (2, 5))
    rho = dyn.density(dyn._planes(psi), w, 2)
    x = np.arange(-6, 7)
    want = (x == 2).astype(float) + (x == 5).astype(float)
    assert np.array_equal(rho, want)


def test_density_symmetrized_pair():
    w = Window(L=6, interior_margin=2)
    psi = dyn.symmetrized_pair(w, 0, 0)
    rho = dyn.density(dyn._planes(psi), w, 2)
    assert rho[6] == pytest.approx(2.0)
    assert rho.sum() == pytest.approx(2.0)


def test_density_rejects_mismatch():
    with pytest.raises(ValueError):
        dyn.density(np.zeros(10), Window(L=6, interior_margin=2), 2)


def test_tail_trace_g0_constant():
    p = ModelParams(g=0.0, h=0.5, N=2)
    w = Window(L=8, interior_margin=2)
    op = model.build_hamiltonian(p, w, "position")
    psi0 = dyn.symmetrized_pair(w, 1, -2)
    tr = dyn.tail_trace(op, psi0, dyn.PropagatorConfig(5.0, 20), [0, 1, 3])
    for col in range(tr.radii.size):
        assert np.abs(tr.tails[:, col] - tr.tails[0, col]).max() <= 1e-11


def test_tail_trace_desk(pair_setup):
    p, w, op = pair_setup
    psi0 = dyn.product_state(w, (0, 1))
    cfg = dyn.PropagatorConfig(t_max=50.0, samples=200)
    tr = dyn.tail_trace(op, psi0, cfg, [2, 4, 6, 7])
    assert tr.norm_drift_max <= 1e-10
    assert np.all(np.abs(tr.densities.sum(axis=1) - 2.0) <= 1e-8)
    assert np.all(np.diff(tr.sup_tails) <= 1e-12)  # weakly decreasing in r


def test_tail_trace_tails_are_tail_masses(pair_setup):
    p, w, op = pair_setup
    psi0 = dyn.product_state(w, (0, 1))
    tr = dyn.tail_trace(op, psi0, dyn.PropagatorConfig(t_max=10.0, samples=40), [2, 4, 6, 7])
    want = [[oracles.tail_mass(rho, w, r) for r in tr.radii] for rho in tr.densities]
    assert np.abs(tr.tails - want).max() <= 1e-14
    guard = max(oracles.tail_mass(rho, w, tr.guard_radius) for rho in tr.densities)
    assert abs(tr.guard_tail - guard) <= 1e-14


def test_tail_trace_rejects_boundary_state(pair_setup):
    p, w, op = pair_setup
    psi0 = dyn.product_state(w, (w.L, 0))
    with pytest.raises(ValueError):
        dyn.tail_trace(op, psi0, dyn.PropagatorConfig(1.0, 2), [2])


def test_grid_refinement_stable(pair_setup):
    # the sampled sup is a surrogate for sup over t; halving the step may only
    # refine it upward by the quadrature error of the tail curve, not jump
    p, w, op = pair_setup
    psi0 = dyn.product_state(w, (0, 1))
    coarse = dyn.tail_trace(op, psi0, dyn.PropagatorConfig(10.0, 40), [4])
    fine = dyn.tail_trace(op, psi0, dyn.PropagatorConfig(10.0, 80), [4])
    assert fine.sup_tails[0] >= coarse.sup_tails[0] - 1e-12
    assert abs(coarse.sup_tails[0] - fine.sup_tails[0]) <= 1e-2 * fine.sup_tails[0]


def test_tail_trace_matches_per_sample_evolve(pair_setup, monkeypatch):
    p, w, op = pair_setup
    psi0 = dyn.product_state(w, (0, 1))
    cfg = dyn.PropagatorConfig(t_max=10.0, samples=40)
    trace, states = traced_states(monkeypatch, op, psi0, cfg)
    assert len(states) == trace.times.size == 41
    dt = trace.times[1] - trace.times[0]
    for state, psi in zip(states, block_reference(op, psi0, dt, 40)):
        assert np.linalg.norm(state - psi) <= 1e-12


M = dyn.SAMPLES_PER_EXPANSION


def check_block_edges(monkeypatch, op, psi0, samples):
    """Both oracles at every sample of a trace with `samples` steps of 0.25."""
    cfg = dyn.PropagatorConfig(t_max=0.25 * samples, samples=samples)
    trace, states = traced_states(monkeypatch, op, psi0, cfg)
    assert len(states) == samples + 1
    assert trace.samples_per_expansion == min(M, samples)
    blocks = -(-samples // M)
    lo, hi = trace.spectral_bounds
    last = samples - (blocks - 1) * M  # offsets in the final block
    last_terms = dyn.chebyshev_coefficients(0.5 * (hi - lo) * last * trace.dt).size
    assert trace.matvecs == (blocks - 1) * (trace.chebyshev_terms - 1) + last_terms - 1
    vals, vecs = np.linalg.eigh(op.toarray())
    spectral = vecs @ (np.exp(-1j * np.outer(vals, trace.times)) * (vecs.T @ psi0)[:, None])
    for k, psi in enumerate(block_reference(op, psi0, trace.dt, samples)):
        assert np.linalg.norm(states[k] - psi) <= 1e-12
        assert np.linalg.norm(states[k] - spectral[:, k]) <= 1e-9


BLOCK_EDGES = [1, M - 1, M + 1, 2 * M + 3]


@pytest.mark.parametrize("samples", BLOCK_EDGES)
def test_tail_trace_block_edges(pair_setup, monkeypatch, samples):
    # one sample, a single short block, one full block plus one sample, and a
    # grid whose last block is short
    p, w, op = pair_setup
    check_block_edges(monkeypatch, op, dyn.product_state(w, (0, 1)), samples)


@pytest.mark.parametrize("samples", BLOCK_EDGES)
def test_tail_trace_block_edges_n3(triple_setup, monkeypatch, samples):
    p, w, op = triple_setup
    check_block_edges(monkeypatch, op, dyn.product_state(w, (0, 1, -1)), samples)


def test_norm_gate_fires_at_last_sample_of_block(pair_setup):
    # bounds that cut off the top of psi0's spectrum: the truncated expansion
    # drifts only at the longest offset of the first block
    p, w, op = pair_setup
    psi0 = dyn.product_state(w, (0, 1))
    stencil = dyn.position_stencil(op)
    dt, bounds = 0.12, (stencil.bounds[0], 6.25)
    stencil = stencil._replace(bounds=bounds)
    ref = dyn.PropagatorConfig(M * dt, M)
    drifts = [abs(np.linalg.norm(per_sample_evolve(op, psi0, j * dt, bounds)) - 1.0)
              for j in range(1, M + 1)]
    assert max(drifts[:-1]) <= dyn.NORM_TOL < drifts[-1]
    short = dyn.tail_trace(stencil, psi0, dyn.PropagatorConfig((M - 1) * dt, M - 1), [2])
    assert short.norm_drift_max <= dyn.NORM_TOL
    with pytest.raises(RuntimeError, match=f"norm drift .* at offset {M};"):
        dyn.tail_trace(stencil, psi0, ref, [2])


@pytest.mark.parametrize(
    "n, L, sites", [(2, 6, (0, 1)), (3, 3, (0, 1, -1)), (4, 2, (0, 1, -1, 0))]
)
def test_tail_trace_matches_spectral_oracle(monkeypatch, n, L, sites):
    p = ModelParams(g=1.0, h=0.5, N=n, potential=PairPotential("nearest_neighbor", 1.0))
    w = Window(L=L, interior_margin=1)
    op = model.build_hamiltonian(p, w, "position")
    psi0 = dyn.product_state(w, sites)
    trace, states = traced_states(monkeypatch, op, psi0, dyn.PropagatorConfig(10.0, 20))
    assert len(states) == 21
    for t, state in zip(trace.times, states):
        assert np.linalg.norm(state - spectral_propagate(op, psi0, t)) <= 1e-9


def test_tail_trace_guards(pair_setup):
    p, w, op = pair_setup
    psi0 = dyn.product_state(w, (0, 1))
    narrow = dyn.position_stencil(op)._replace(bounds=(-0.5, 0.5))
    with pytest.raises(RuntimeError, match="norm drift"):
        dyn.tail_trace(narrow, psi0, dyn.PropagatorConfig(1.0, 2), [2])
    skew = oracles.scipy_csr(op).tolil()
    skew[0, 1] += 0.1  # a varying hop too, but the symmetry check comes first
    bad_op = model.OperatorMatrix("position", w, 2, oracles.from_scipy(skew))
    with pytest.raises(ValueError, match="symmetric"):
        dyn.tail_trace(bad_op, psi0, dyn.PropagatorConfig(1.0, 2), [2])
    with pytest.raises(ValueError, match="normalized"):
        dyn.tail_trace(op, 2.0 * psi0, dyn.PropagatorConfig(1.0, 2), [2])
    # one sample over t_max = 1e9: the expansion's Bessel argument half * t_max is
    # above specfun.X_MAX, refused before any coefficient is computed
    with pytest.raises(lattice.CapacityError, match=r"t_max = 1e\+09 over samples = 1"):
        dyn.tail_trace(op, psi0, dyn.PropagatorConfig(1e9, 1), [2])
