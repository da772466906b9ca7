import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starklat import localization as loc
from starklat import lattice, model, spectra
from starklat.model import ModelParams, PairPotential, Window

import oracles


@pytest.fixture(scope="module")
def desk():
    """N=2 interacting reference diagonalization shared across tests."""
    p = ModelParams(g=1.0, h=0.5, N=2, potential=PairPotential("nearest_neighbor", 1.0))
    w = Window(L=14, interior_margin=5)
    res = spectra.eigh(model.build_hamiltonian(p, w, "stark"))
    mask = spectra.interior_mask(res, p, w, "stark")
    sig = spectra.cluster_spectrum(p, w)
    return p, w, res, mask, sig


def test_probe_validation():
    with pytest.raises(ValueError):
        loc.DecayProbe(theta_list=())
    with pytest.raises(ValueError):
        loc.DecayProbe(theta_list=(0.5, -1.0))
    with pytest.raises(ValueError):
        loc.DecayProbe(shell_stat="sup")
    with pytest.raises(ValueError):
        loc.DecayProbe(fit_range=(10, 4))


def test_com_profile_point_mass():
    p = ModelParams(g=0.0, h=0.5, N=2)
    w = Window(L=4, interior_margin=1)
    psi = np.zeros(w.n_sites**2)
    psi[oracles.tuple_to_flat(w, np.array([2, -1]))] = 1.0
    lam = -2.0 * p.h * (2 - 1)
    prof = loc.com_profile(psi, lam, p, w, 2)
    assert oracles.peak_sector(prof) == 1
    assert prof.norms[prof.sectors == 1][0] == 1.0
    assert oracles.parseval_defect(prof) <= 1e-10
    assert prof.com_center == pytest.approx(1.0)


def test_com_profile_rejects_mismatch():
    p = ModelParams(g=1.0, h=0.5, N=2)
    with pytest.raises(ValueError):
        loc.com_profile(np.zeros(10), 0.0, p, Window(L=4, interior_margin=1), 2)


@given(seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=25, deadline=None)
def test_sector_parseval_property(seed):
    p = ModelParams(g=1.0, h=0.5, N=2)
    w = Window(L=3, interior_margin=1)
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(w.n_sites**2)
    psi /= np.linalg.norm(psi)
    prof = loc.com_profile(psi, 0.0, p, w, 2)
    assert oracles.parseval_defect(prof) <= 1e-10


def test_com_decay_point_mass_any_theta():
    p = ModelParams(g=0.0, h=0.5, N=2)
    w = Window(L=4, interior_margin=1)
    psi = np.zeros(w.n_sites**2)
    psi[oracles.tuple_to_flat(w, np.array([0, 0]))] = 1.0
    prof = loc.com_profile(psi, 0.0, p, w, 2)
    for theta in (0.5, 2.0, 10.0):
        assert loc.com_decay_check(prof, theta).passed


def test_com_decay_desk_slope(desk):
    p, w, res, mask, sig = desk
    slopes, cs = [], []
    for i in np.where(mask)[0]:
        lam = res.eigenvalues[i]
        if spectra.dist_to_cluster(lam, sig) < 0.05:
            continue
        prof = loc.com_profile(res.eigenvectors[:, i], lam, p, w, 2)
        assert oracles.parseval_defect(prof) <= 1e-10
        rep = loc.com_decay_check(prof, 1.0)
        assert rep.passed
        assert rep.tail_slope <= -0.95
        slopes.append(rep.tail_slope)
        cs.append(rep.c_fit)
    assert len(slopes) >= 10
    # fitted prefactors stay finite; spread recorded, not asserted tight
    assert all(np.isfinite(c) for c in cs)


def test_com_peak_near_center(desk):
    p, w, res, mask, sig = desk
    for i in np.where(mask)[0][:20]:
        lam = res.eigenvalues[i]
        prof = loc.com_profile(res.eigenvectors[:, i], lam, p, w, 2)
        assert abs(oracles.peak_sector(prof) - round(prof.com_center)) <= 2


def test_weighted_norm_trivial():
    w = Window(L=4, interior_margin=1)
    psi = np.zeros(w.n_sites**2)
    psi[oracles.tuple_to_flat(w, np.array([3, -2]))] = 1.0
    assert oracles.weighted_norm(psi, w, 2, 1, 0.7) == pytest.approx(np.exp(0.7 * 3))
    assert oracles.weighted_norm(psi, w, 2, 2, 0.7) == pytest.approx(np.exp(0.7 * 2))
    assert oracles.weighted_norm(psi, w, 2, 1, 0.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        oracles.weighted_norm(psi, w, 2, 3, 0.5)
    with pytest.raises(ValueError):
        oracles.weighted_norm(psi, w, 2, 1, -0.1)


@given(seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=25, deadline=None)
def test_weighted_norm_monotone_in_theta(seed):
    w = Window(L=3, interior_margin=1)
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(w.n_sites**2)
    psi /= np.linalg.norm(psi)
    vals = [oracles.weighted_norm(psi, w, 2, 1, t) for t in (0.0, 0.3, 0.8, 1.5)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_weighted_norm_window_stability(desk):
    p, w, res, mask, sig = desk
    w2 = Window(L=18, interior_margin=5)
    res2 = spectra.eigh(model.build_hamiltonian(p, w2, "stark"))
    checked = 0
    for i in np.where(mask)[0]:
        lam = res.eigenvalues[i]
        # stay near the ladder origin so both windows resolve the same state
        if spectra.dist_to_cluster(lam, sig) < 0.05 or abs(lam) > 1.0:
            continue
        j = int(np.argmin(np.abs(res2.eigenvalues - lam)))
        assert abs(res2.eigenvalues[j] - lam) < 1e-6
        for leg in (1, 2):
            v1 = oracles.weighted_norm(res.eigenvectors[:, i], w, 2, leg, 1.0)
            v2 = oracles.weighted_norm(res2.eigenvectors[:, j], w2, 2, leg, 1.0)
            assert abs(v1 - v2) / max(v1, 1.0) <= 1e-6
        checked += 1
    assert checked >= 2


def test_shell_fit_point_support():
    w = Window(L=4, interior_margin=1)
    psi = np.zeros(w.n_sites**2)
    psi[oracles.tuple_to_flat(w, np.array([0, 0]))] = 1.0
    rep = loc.superexp_shell_fit(psi, w, 2, loc.DecayProbe())
    assert rep.passed and rep.note == "point support"


def test_shell_fit_rejects_boundary_state():
    w = Window(L=4, interior_margin=1)
    psi = np.zeros(w.n_sites**2)
    psi[oracles.tuple_to_flat(w, np.array([4, 0]))] = 1.0
    with pytest.raises(ValueError):
        loc.superexp_shell_fit(psi, w, 2, loc.DecayProbe())


def test_shell_fit_single_particle_rate_grows():
    # Bessel tails decay factorially, so the local rate keeps increasing
    p = ModelParams(g=1.0, h=0.5, N=1)
    w = Window(L=24, interior_margin=8)
    res = spectra.eigh(model.build_hamiltonian(p, w, "position"))
    i = int(np.argmin(np.abs(res.eigenvalues - 0.0)))
    probe = loc.DecayProbe(fit_range=(4, 14))
    rep = loc.superexp_shell_fit(res.eigenvectors[:, i], w, 1, probe)
    assert rep.passed
    fr = rep.rates[np.isin(rep.radii, rep.fitted_radii)]
    assert fr[-1] > fr[0] + 0.5


def test_shell_fit_desk_all_isolated(desk):
    p, w, res, mask, sig = desk
    probe = loc.DecayProbe()
    checked = 0
    for i in np.where(mask)[0]:
        lam = res.eigenvalues[i]
        if spectra.dist_to_cluster(lam, sig) < 0.05:
            continue
        c = loc.localization_center(lam, p)
        rep = loc.superexp_shell_fit(res.eigenvectors[:, i], w, 2, probe, c)
        assert rep.monotone, lam
        assert rep.final_rate > 1.0, lam
        assert rep.passed
        checked += 1
    assert checked >= 30


def test_position_decay_desk(desk):
    p, w, res, mask, sig = desk
    probe = loc.DecayProbe()
    done = 0
    for i in np.where(mask)[0]:
        lam = res.eigenvalues[i]
        if spectra.dist_to_cluster(lam, sig) < 0.1:
            continue
        pd = oracles.position_decay_check(res.eigenvectors[:, i], lam, p, w, 2, probe)
        assert pd.shell.passed
        assert pd.com_check.passed
        assert pd.rate_mismatch <= 0.35  # consistency probe, not a theorem rate
        done += 1
        if done >= 6:
            break
    assert done >= 6


def test_position_decay_g0_identity():
    p = ModelParams(g=0.0, h=0.5, N=2)
    w = Window(L=5, interior_margin=2)
    psi = np.zeros(w.n_sites**2)
    psi[oracles.tuple_to_flat(w, np.array([1, -1]))] = 1.0
    pd = oracles.position_decay_check(psi, 0.0, p, w, 2, loc.DecayProbe())
    assert pd.shell.note == "point support" and pd.shell.passed


# The per-state probes as they ran before the column-block form: one state per
# call, np.maximum.at / np.bincount shells and a np.polyfit per rate window.
def _ref_com(psi, lam, p, w, n, theta):
    coords = lattice.flat_to_tuples(w, n)
    a = coords.sum(axis=1)
    lo = int(a.min())
    norms = np.sqrt(np.bincount(a - lo, weights=np.abs(psi) ** 2))
    dist = np.abs(np.arange(lo, lo + norms.size) - lam / (-2.0 * p.h))
    live = norms > loc.AMPLITUDE_FLOOR
    if live.sum() == 0:
        return norms, float(norms.max()), -np.inf, 0, True
    c_fit = float(np.max(norms[live] * np.exp(theta * dist[live])))
    if live.sum() < 3:
        return norms, c_fit, -np.inf, int(live.sum()), True
    slope = float(np.polyfit(dist[live], np.log(norms[live]), 1)[0])
    return norms, c_fit, slope, int(live.sum()), bool(np.isfinite(c_fit) and slope <= -theta + 0.05)


def _ref_shells(psi, w, n, stat, center):
    r = np.abs(lattice.flat_to_tuples(w, n) - center).sum(axis=1)
    n_shells = int(r.max()) + 1
    a = np.abs(psi)
    if stat == "max":
        s = np.zeros(n_shells)
        np.maximum.at(s, r, a)
    else:
        s = np.sqrt(np.bincount(r, weights=a**2, minlength=n_shells))
    return np.arange(n_shells), s


def _ref_slopes(s, halfwidth):
    ls = np.where(s > loc.AMPLITUDE_FLOOR, np.log(np.maximum(s, 1e-300)), np.nan)
    out = np.full(s.size, np.nan)
    for r in range(s.size):
        lo, hi = max(0, r - halfwidth), min(s.size, r + halfwidth + 1)
        seg, xs = ls[lo:hi], np.arange(lo, hi)
        m = np.isfinite(seg)
        if m.sum() >= 3:
            out[r] = -np.polyfit(xs[m], seg[m], 1)[0]
    return out


def _ref_shell_fit(psi, w, n, probe, center):
    radii, s = _ref_shells(psi, w, n, probe.shell_stat, center)
    if (s > loc.AMPLITUDE_FLOOR).sum() <= 1:
        return radii, s, np.array([]), True, np.inf, True, "point support"
    rates = _ref_slopes(s, probe.rate_halfwidth)
    lo, hi = probe.fit_range
    usable = np.isfinite(rates) & (radii >= lo) & (radii <= hi)
    fitted = radii[usable]
    if fitted.size < 2:
        return radii, s, rates, False, np.nan, False, "fit range degenerate"
    fr = rates[usable]
    monotone = bool(np.all(np.diff(fr) >= -loc.RATE_NOISE_BAND))
    final = float(fr[-1])
    note = f"amplitudes underflowed past r={fitted[-1]}" if fitted[-1] < hi else ""
    return radii, s, rates, monotone, final, monotone and final > max(probe.theta_list), note


def _probe_states(n):
    """Eigenvectors of a small stark H^(n), plus synthetic states that exercise the fit's edges."""
    L = {1: 14, 2: 8, 3: 4}[n]
    p = ModelParams(g=1.0, h=0.5, N=n, potential=PairPotential("nearest_neighbor", 1.0))
    w = Window(L=L, interior_margin=1)
    res = spectra.eigh(model.build_hamiltonian(p, w, "stark"))
    keep = spectra.boundary_shell_mass(res.eigenvectors, w, n) <= loc.BOUNDARY_TOL
    vecs, lams = res.eigenvectors[:, keep][:, ::3], res.eigenvalues[keep][::3]
    coords = lattice.flat_to_tuples(w, n)
    r = np.abs(coords).sum(axis=1)
    rng = np.random.default_rng(n)
    synth = []
    # a fast tail with shells zeroed inside the rate windows, one that lives on
    # two shells only (no window reaches 3 points), and a point mass
    for dead in ({3, 4}, {2, 5, 6}, {1, *range(3, 40)}):
        v = rng.standard_normal(r.size) * np.exp(-0.3 * r**1.5)
        v[np.isin(r, list(dead))] = 0.0
        synth.append(v)
    synth.append(np.where(r == 0, 1.0, 0.0))
    synth = np.array(synth).T
    synth[np.abs(coords).max(axis=1) == L] = 0.0  # interior: nothing on the face
    synth /= np.linalg.norm(synth, axis=0)
    return p, w, np.hstack([vecs, synth]), np.concatenate([lams, rng.uniform(-2, 2, 4)])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("stat", ["max", "l2"])
def test_block_probes_match_per_state_loop(n, stat):
    p, w, states, lams = _probe_states(n)
    probe = loc.DecayProbe(shell_stat=stat, fit_range=(2, 3 * w.L // 2), rate_halfwidth=3)
    k = states.shape[1]
    centers = np.array([loc.localization_center(lam, p) for lam in lams])
    centers[::4] = np.arange(k)[::4] % 5 - 2  # a few centers off the ladder anchor
    centers[-4:] = 0  # the synthetic states are built around the origin
    prof = loc.com_profile(states, lams, p, w, n)
    coms = loc.com_decay_check(prof, 0.8)
    shells = loc.superexp_shell_fit(states, w, n, probe, centers)
    assert len(coms) == len(shells) == k
    for j in range(k):
        got = coms[j]
        norms, c_fit, slope, n_pts, passed = _ref_com(states[:, j], lams[j], p, w, n, 0.8)
        assert np.array_equal(prof.norms[:, j], norms)
        assert (got.c_fit, got.n_points, got.passed) == (c_fit, n_pts, passed)
        np.testing.assert_allclose(got.tail_slope, slope, rtol=1e-12, atol=0)
        radii, s, rates, monotone, final, passed, note = _ref_shell_fit(
            states[:, j], w, n, probe, centers[j]
        )
        rep = shells[j]
        assert np.array_equal(rep.radii, radii) and np.array_equal(rep.amplitudes, s)
        assert rep.rates.shape == rates.shape
        np.testing.assert_allclose(rep.rates, rates, rtol=1e-12, atol=0, equal_nan=True)
        assert (rep.monotone, rep.passed, rep.note) == (monotone, passed, note)
        np.testing.assert_allclose(rep.final_rate, final, rtol=1e-12, atol=0, equal_nan=True)
        # the one-state call is the k = 1 case of the same code
        one = loc.superexp_shell_fit(states[:, j], w, n, probe, int(centers[j]))
        assert np.array_equal(one.amplitudes, rep.amplitudes)
        np.testing.assert_allclose(one.rates, rep.rates, rtol=1e-12, atol=0, equal_nan=True)
    notes = {rep.note for rep in shells}
    assert {"point support", "fit range degenerate"} <= notes


def test_local_log_slopes_match_polyfit_windows():
    rng = np.random.default_rng(7)
    s = np.exp(-rng.uniform(0.0, 40.0, (23, 12)))
    s[rng.random(s.shape) < 0.3] = 0.0  # gaps, also at both ends
    s[:, :2] = 0.0
    s[[3, 5], 1] = 1e-3  # two live points: no window fits
    s[0, 2] = s[-1, 2] = 0.5
    for hw in (1, 2, 4):
        got = loc.local_log_slopes(s, hw)
        for j in range(s.shape[1]):
            want = _ref_slopes(s[:, j], hw)
            np.testing.assert_allclose(got[:, j], want, rtol=1e-12, atol=0, equal_nan=True)
            np.testing.assert_allclose(
                loc.local_log_slopes(s[:, j], hw), got[:, j], rtol=1e-12, atol=0, equal_nan=True
            )
        assert np.isnan(got[:, :2]).all()


def test_one_state_probes_keep_scalar_types(desk):
    p, w, res, mask, sig = desk
    i = int(np.flatnonzero(mask)[0])
    lam = float(res.eigenvalues[i])
    prof = loc.com_profile(res.eigenvectors[:, i], lam, p, w, 2)
    assert type(prof.lam) is float and type(prof.com_center) is float
    assert type(oracles.parseval_defect(prof)) is float and type(oracles.peak_sector(prof)) is int
    rep = loc.com_decay_check(prof, 1.0)
    assert (type(rep.c_fit), type(rep.tail_slope), type(rep.n_points), type(rep.passed)) == (
        float, float, int, bool,
    )
    shell = loc.superexp_shell_fit(res.eigenvectors[:, i], w, 2, loc.DecayProbe(), 0)
    assert isinstance(shell, loc.ShellFitReport)
    assert type(shell.final_rate) is float and type(shell.passed) is bool
