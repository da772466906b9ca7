"""Top-level acceptance gate: one test per release criterion.

Each test prints a single `[criterion NN] ... PASS` line (visible with -s or
-rA); the pytest verdict for the test is the authoritative pass/fail.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from starklat import dynamics as dyn
from starklat import localization as loc
from starklat import model, resolvent as rsv, spectra, specfun
from starklat.model import ModelParams, PairPotential, Window

import oracles

DESK = dict(g=1.0, h=0.5, potential=PairPotential("nearest_neighbor", 1.0))


def _line(num, name):
    print(f"[criterion {num:02d}] {name}: PASS")


@pytest.fixture(scope="module")
def desk14():
    p = ModelParams(N=2, **DESK)
    w = Window(L=14, interior_margin=5)
    res = spectra.eigh(model.build_hamiltonian(p, w, "stark"))
    mask = spectra.interior_mask(res, p, w, "stark")
    sig = spectra.cluster_spectrum(p, w)
    return p, w, res, mask, sig


@pytest.fixture(scope="module")
def pair_ws10():
    p = ModelParams(N=2, **DESK)
    return rsv.ResolventWorkspace(p, Window(L=10, interior_margin=3))


def _oracle_j(n, x):
    with mpmath.workdps(50):
        return float(mpmath.besselj(int(n), mpmath.mpf(x)))


def test_criterion_01_bessel_oracle():
    start = time.monotonic()
    xs = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]
    for x in xs:
        for n in range(-40, 41):
            got = specfun.bessel_j(n, x)
            want = _oracle_j(n, x)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300), (n, x)
        ub = specfun.check_upper_bound(40, x)
        assert ub.max_ratio <= 1.0 + 1e-12
        sm = specfun.check_summability(x, 2 * int(x) + 60)
        assert sm.fitted["sum"] <= 2.0 * math.exp(x / 2.0) - 1.0
    assert time.monotonic() - start < 5.0
    _line(1, "Bessel oracle and explicit bounds")


def test_criterion_02_stark_ladder():
    start = time.monotonic()
    p = ModelParams(N=1, **DESK)
    w = Window(L=40, interior_margin=13)
    res = spectra.eigh(model.build_hamiltonian(p, w, "position"))
    interior = res.eigenvalues[spectra.interior_mask(res, p, w, "position")]
    lattice = -2.0 * p.h * np.round(interior / (-2.0 * p.h))
    assert interior.size > 20
    assert np.abs(interior - lattice).max() <= 1e-8
    xi = model.stark_basis_matrix(p, w, pad=40)
    gram = xi.T @ xi
    m = np.arange(-w.L, w.L + 1)
    sel = np.abs(m) <= 20
    defect = np.abs(gram[np.ix_(sel, sel)] - np.eye(int(sel.sum()))).max()
    assert defect <= 1e-10
    assert time.monotonic() - start < 10.0
    _line(2, "Stark ladder exactness and Gram orthonormality")


def test_criterion_03_basis_equivalence():
    start = time.monotonic()
    p = ModelParams(N=2, **DESK)
    w = Window(L=12, interior_margin=4)
    res_p = spectra.eigh(model.build_hamiltonian(p, w, "position"))
    res_s = spectra.eigh(model.build_hamiltonian(p, w, "stark"))
    ev_p = res_p.eigenvalues[spectra.interior_mask(res_p, p, w, "position")]
    ev_s = res_s.eigenvalues[spectra.interior_mask(res_s, p, w, "stark")]
    assert ev_p.size >= 10 and ev_s.size >= 10
    d1 = max(float(np.min(np.abs(res_s.eigenvalues - e))) for e in ev_p)
    d2 = max(float(np.min(np.abs(res_p.eigenvalues - e))) for e in ev_s)
    assert max(d1, d2) <= 1e-8
    assert time.monotonic() - start < 120.0
    _line(3, "position/stark interior eigenvalue agreement")


def test_criterion_04_symmetry_sector():
    p = ModelParams(N=2, **DESK)
    w = Window(L=12, interior_margin=4)
    h = model.build_hamiltonian(p, w, "position").toarray()
    for eta in (1, -1):
        proj = oracles.symmetrizer(2, w, eta).toarray()
        assert np.abs(proj @ h - h @ proj).max() <= 1e-12
    _line(4, "symmetrizer commutes with the pair Hamiltonian")


def test_criterion_05_shift_covariance():
    p = ModelParams(N=2, **DESK)
    w = Window(L=12, interior_margin=4)
    res = spectra.eigh(model.build_hamiltonian(p, w, "stark"))
    shift = 2.0 * p.h * p.N
    for s in (shift, -shift):
        rep = oracles.spectral_periodicity_check(res, s, p, w, "stark")
        assert rep.passed and rep.max_deviation <= 1e-6
    _line(5, "interior spectrum invariant under the 2hN shift")


def test_criterion_06_functional_equation(pair_ws10):
    start = time.monotonic()
    r2 = rsv.functional_equation_residual(8j, pair_ws10.params, pair_ws10.window, pair_ws10)
    assert r2 <= 1e-8
    p3 = ModelParams(N=3, **DESK)
    r3 = rsv.functional_equation_residual(12j, p3, Window(L=5, interior_margin=2))
    assert r3 <= 1e-6
    p_weak = ModelParams(g=1.0, h=0.5, N=2, potential=PairPotential("nearest_neighbor", 0.3))
    r_real = rsv.functional_equation_residual(
        0.5 + 0j, p_weak, Window(L=10, interior_margin=3)
    )
    assert r_real <= 1e-7
    assert time.monotonic() - start < 180.0
    _line(6, "G = D + I G residuals at imaginary and real z")


def test_criterion_07_norm_decay(pair_ws10):
    v = oracles.build_interaction(pair_ws10.params, pair_ws10.window, "stark").toarray()
    vnorm = np.abs(np.linalg.eigvalsh(v)).max()  # exact ||V||_2 of the symmetric V
    prev = np.inf
    for k in (2, 4, 8, 16, 32):
        y = k * vnorm
        val = np.linalg.norm(rsv.build_I(1j * y, pair_ws10), 2)
        assert val <= vnorm / y + 1e-10
        assert val <= prev + 1e-12
        prev = val
    _line(7, "||I(iy)|| under the exact ||V||/y envelope, non-increasing")


def test_criterion_08_compactness_proxy(pair_ws10):
    rep = rsv.compactness_proxy(rsv.build_I(8j, pair_ws10))
    assert rep.k_drop is not None and rep.k_drop < rep.singular_values.size / 2
    ws_wide = rsv.ResolventWorkspace(pair_ws10.params, Window(L=14, interior_margin=3))
    s_wide = rsv.compactness_proxy(rsv.build_I(8j, ws_wide)).singular_values
    assert np.abs(rep.singular_values[:10] - s_wide[:10]).max() <= 1e-4
    _line(8, "singular values of I(8i) collapse and are window-stable")


def test_criterion_09_fredholm_crosscheck(pair_ws10):
    p, w = pair_ws10.params, pair_ws10.window
    res = spectra.eigh(model.build_hamiltonian(p, w, "stark"))
    isolated = [0.3671309478, -1.6328690521, 2.3671309478]
    lams = [res.eigenvalues[np.argmin(np.abs(res.eigenvalues - t))] for t in isolated]
    grid = [lam + 1e-4 for lam in lams] + [0.437, -1.5 + 0j]
    pts = oracles.fredholm_probe(grid, p, w, ws=pair_ws10)
    flagged = [pt for pt in pts if pt.flagged]
    assert len(flagged) >= 3
    for pt in flagged:
        assert abs(pt.z.real - pt.nearest_h_eigenvalue) <= 1e-2
    _line(9, "flagged real z of the Fredholm scan track eigenvalues")


def test_criterion_10_superexponential_localization(desk14):
    start = time.monotonic()
    p, w, res, mask, sig = desk14
    probe = loc.DecayProbe(theta_list=(1.0,), fit_range=(6, 18))
    checked = 0
    for i in np.where(mask)[0]:
        lam = float(res.eigenvalues[i])
        if spectra.dist_to_cluster(lam, sig) < 0.05:
            continue
        psi = res.eigenvectors[:, i]
        prof = loc.com_profile(psi, lam, p, w, 2)
        assert oracles.parseval_defect(prof) <= 1e-10
        rep = loc.superexp_shell_fit(psi, w, 2, probe, loc.localization_center(lam, p))
        assert rep.monotone, lam
        assert rep.final_rate > 1.0, lam
        checked += 1
    assert checked >= 30
    assert time.monotonic() - start < 300.0
    _line(10, f"shell rates non-decreasing and > 1.0 for {checked} eigenvectors")


def test_criterion_11_com_decay(desk14):
    p, w, res, mask, sig = desk14
    cs = []
    for i in np.where(mask)[0]:
        lam = float(res.eigenvalues[i])
        # the decay statement assumes an isolated eigenvalue; inside the
        # degenerate free multiplets the diagonalizer returns arbitrary
        # mixtures of separated-particle states with free-particle spread
        if spectra.dist_to_cluster(lam, sig) < 0.05:
            continue
        prof = loc.com_profile(res.eigenvectors[:, i], lam, p, w, 2)
        rep = loc.com_decay_check(prof, 1.0)
        assert rep.tail_slope <= -0.95, lam
        assert np.isfinite(rep.c_fit)
        cs.append(rep.c_fit)
    assert len(cs) >= 30
    _line(11, f"COM sector tails at slope <= -0.95; C spread {min(cs):.2g}..{max(cs):.2g}")


def test_criterion_12_weighted_norm_stability(desk14):
    p, w, res, mask, sig = desk14
    w_wide = Window(L=w.L + 4, interior_margin=w.interior_margin)
    res_wide = spectra.eigh(model.build_hamiltonian(p, w_wide, "stark"))
    checked = 0
    for i in np.where(mask)[0]:
        lam = float(res.eigenvalues[i])
        # cross-window pairing needs a simple eigenvalue: inside the cluster
        # multiplets the diagonalizer may rotate the degenerate basis
        if spectra.dist_to_cluster(lam, sig) < 0.05:
            continue
        # the weight e^{theta|m|} magnifies the truncation face by e^{theta L},
        # so stability at 1e-6 needs deeper interiority than the 1e-10 rule
        if float(spectra.boundary_shell_mass(res.eigenvectors[:, i], w, 2)[0]) > 1e-13:
            continue
        j = int(np.argmin(np.abs(res_wide.eigenvalues - lam)))
        assert abs(res_wide.eigenvalues[j] - lam) <= 1e-8
        for leg in (1, 2):
            a = oracles.weighted_norm(res.eigenvectors[:, i], w, 2, leg, 1.0)
            b = oracles.weighted_norm(res_wide.eigenvectors[:, j], w_wide, 2, leg, 1.0)
            assert abs(a - b) / b <= 1e-6, lam
        checked += 1
    assert checked >= 30
    _line(12, f"weighted norms stable under L -> L+4 for {checked} eigenvectors")


def test_criterion_13_dynamics_corollary():
    start = time.monotonic()
    p = ModelParams(N=2, **DESK)
    w = Window(L=12, interior_margin=3)
    op = model.build_hamiltonian(p, w, "position")
    psi0 = dyn.product_state(w, (0, 1))
    cfg = dyn.PropagatorConfig(t_max=50.0, samples=200)
    tr = dyn.tail_trace(op, psi0, cfg, [2, 4, 6, 9])
    assert tr.norm_drift_max <= 1e-10
    assert np.all(np.abs(tr.densities.sum(axis=1) - 2.0) <= 1e-8)
    assert np.all(np.diff(tr.sup_tails) <= 1e-12)
    assert tr.truncation_safe  # tail at r = L - margin below 1e-4
    h = oracles.scipy_csr(op)
    e0 = psi0 @ (h @ psi0)
    psi_t = oracles.evolve(op, psi0.astype(complex), 50.0, cfg)
    assert abs(np.real(np.conj(psi_t) @ (h @ psi_t)) - e0) <= 1e-8
    dense = op.toarray()
    vals, vecs = np.linalg.eigh(dense)
    oracle = vecs @ (np.exp(-1j * vals * 50.0) * (vecs.T @ psi0))
    assert np.linalg.norm(psi_t - oracle) <= 1e-9
    assert time.monotonic() - start < 300.0
    _line(13, "non-escape trace, unitarity, and spectral-oracle agreement")


def test_criterion_14_combinatorics():
    bells = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}
    for n, b in bells.items():
        assert len(spectra.enumerate_set_partitions(n)) == b
    pn = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22, 9: 30, 10: 42}
    for n, c in pn.items():
        assert len(spectra.enumerate_integer_partitions(n)) == c
    allc = rsv.enumerate_chains(3)
    con = [c for c in allc if c.k_s == 1]
    assert len(con) == 4
    assert len(allc) - len(con) == 4
    _line(14, "Bell numbers, partition counts, and chain counts")
