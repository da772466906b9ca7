import hashlib
import json
import os
import warnings

import numpy as np
import pytest

from starklat import cli, dynamics, lattice, localization, model, resolvent, specfun, spectra
from starklat.model import ModelParams, PairPotential, Window

import oracles


def write_config(path, **overrides):
    cfg = {
        "model": {"g": 1.0, "h": 0.5, "N": 1},
        "window": {"L": 12, "interior_margin": 4},
        "task": "spectrum",
        "output_dir": str(path.parent / "out"),
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


@pytest.mark.parametrize("key", ["bogus", "seed"])
def test_load_config_rejects_unknown_keys(tmp_path, key):
    p = tmp_path / "c.json"
    write_config(p, **{key: 1})
    with pytest.raises(cli.ConfigError):
        cli.load_config(str(p))


def _potential(**pot):
    return {"model": {"g": 1.0, "h": 0.5, "N": 2, "potential": pot}}


UNREAD_KEYS = [
    dict(window={"L": 12, "interior_margin": 4, "shape": "round"}),
    # a section only another task reads
    dict(probes={"fit_range": [4, 12]}),
    dict(task="evolve", probes={"fit_range": [4, 12]}),
    dict(dynamics={"t_max": 1.0}),
    dict(task="localization", dynamics={"samples": 4}),
    dict(resolvent={"z_grid": [[0.0, 8.0]]}),
    dict(task="evolve", resolvent={"z_grid": [[0.0, 8.0]]}),
    # a potential field its kind ignores
    _potential(kind="nearest_neighbor", strength=1.0, decay=2.0),
    _potential(decay=2.0),  # the default kind is nearest_neighbor
    _potential(kind="tabulated", table={"1": 1.0}, decay=2.0),
    _potential(kind="tabulated", table={"1": 1.0}, strength=2.0),
    _potential(kind="nearest_neighbor", table={"1": 1.0}),
    _potential(kind="exponential", strength=1.0, decay=1.0, table={"1": 1.0}),
    _potential(kind="power_law", decay=2.0, table={"1": 1.0}),
]


def test_load_config_rejects_nested_unknown(tmp_path):
    p = tmp_path / "c.json"
    for overrides in UNREAD_KEYS:
        cfg = write_config(p, **overrides)
        with pytest.raises(cli.ConfigError):
            cli.load_config(str(p))
        assert cli.main([cfg["task"], "--config", str(p)]) == cli.EXIT_CONFIG
    assert not (tmp_path / "out").exists()


def test_load_config_rejects_malformed(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{not json")
    with pytest.raises(cli.ConfigError):
        cli.load_config(str(p))


def test_load_config_rejects_bad_physics(tmp_path, monkeypatch):
    p = tmp_path / "c.json"
    write_config(p, model={"g": 1.0, "h": 0.0, "N": 1})
    with pytest.raises(cli.ConfigError):
        cli.load_config(str(p))
    write_config(p, task="teleport")
    with pytest.raises(cli.ConfigError):
        cli.load_config(str(p))
    # the symmetrized initial state is a pair state: any other N would ignore the key
    for n in (1, 3):
        write_config(p, task="evolve", model={"g": 1.0, "h": 0.5, "N": n},
                     dynamics={"symmetrized": True, "initial_sites": [0] * n})
        with pytest.raises(cli.ConfigError, match="symmetrized"):
            cli.load_config(str(p))
        assert cli.main(["evolve", "--config", str(p)]) == cli.EXIT_CONFIG
    # z_grid is a nonempty list of finite [re, im] pairs
    for z_grid in ([], [[0.5]], [[0.5, 8.0], [0.5]], [[0.5, float("nan")]], [[0.5, "8"]],
                   [[True, 8.0]], [[0.5, 10**400]], [0.5, 8.0], {"z": [0.5, 8.0]}):
        write_config(p, task="resolvent-check", model={"g": 1.0, "h": 0.5, "N": 2},
                     resolvent={"z_grid": z_grid})
        with pytest.raises(cli.ConfigError, match="z_grid"):
            cli.load_config(str(p))
        assert cli.main(["resolvent-check", "--config", str(p)]) == cli.EXIT_CONFIG
    # every section value is parsed and checked before the output dir is made:
    # an integer field takes a number equal to an integer, a float field a
    # finite number, and neither a bool or a string
    nan, inf = float("nan"), float("inf")
    bad_sections = [
        ("localization", 1, {"probes": {"shell_stat": "sup"}}),
        ("localization", 1, {"probes": {"fit_range": [10, 4]}}),
        ("localization", 1, {"probes": {"theta_list": 0.5}}),
        ("localization", 1, {"probes": {"rate_halfwidth": 0}}),
        ("evolve", 2, {"dynamics": {"t_max": -1}}),
        ("evolve", 2, {"dynamics": {"samples": 0}}),
        ("evolve", 2, {"dynamics": {"radii": ["a"]}}),
        ("evolve", 2, {"dynamics": {"initial_sites": [0, 9]}}),  # outside the window
        ("evolve", 2, {"dynamics": {"initial_sites": [0, 6]}}),  # on the face
        ("evolve", 2, {"dynamics": {"initial_sites": [0]}}),  # one site for two particles
        ("spectrum", 1, {"window": {"L": 8.5, "interior_margin": 2}}),
        ("spectrum", 1, {"model": {"g": 1.0, "h": 0.5, "N": 1.9}}),
        ("spectrum", 1, {"model": {"g": 1.0, "h": 0.5, "N": True}}),
        ("evolve", 2, {"dynamics": {"samples": 2.5}}),
        ("localization", 1, {"probes": {"rate_halfwidth": 4.5}}),
        ("evolve", 2, {"dynamics": {"radii": [2.7]}}),
        # a radius below 0 or at the face (L = 6), or named twice
        ("evolve", 2, {"dynamics": {"radii": [-1]}}),
        ("evolve", 2, {"dynamics": {"radii": [6]}}),
        ("evolve", 2, {"dynamics": {"radii": [2, 2]}}),
        # margin 0 puts the guard radius on the face, so truncation_safe would always pass
        ("evolve", 2, {"window": {"L": 6, "interior_margin": 0}, "dynamics": {"radii": [2]}}),
        ("localization", 1, {"probes": {"fit_range": [4, 12, 99]}}),
        ("localization", 1, {"probes": {"fit_range": [4.5, 12]}}),
        ("localization", 1, {"probes": {"theta_list": [nan]}}),
        ("spectrum", 1, {"model": {"g": 1.0, "h": inf, "N": 1}}),
        ("spectrum", 1, {"model": {"g": "1.0", "h": 0.5, "N": 1}}),
        ("spectrum", 1, {"model": {"g": nan, "h": 0.5, "N": 1}}),
        ("evolve", 2, {"dynamics": {"t_max": nan}}),
        ("spectrum", 2, {"model": {"g": 1.0, "h": 0.5, "N": 2, "potential": {"strength": inf}}}),
        # a string is not a bool; two keys of one lag; a directory name is a string
        ("evolve", 2, {"dynamics": {"symmetrized": "false", "initial_sites": [0, 1]}}),
        ("evolve", 2, {"dynamics": {"symmetrized": 0, "initial_sites": [0, 1]}}),
        ("spectrum", 2, {"model": {"g": 1.0, "h": 0.5, "N": 2, "potential": {
            "kind": "tabulated", "table": {"1": 0.5, "01": 0.7}}}}),
        ("spectrum", 2, {"model": {"g": 1.0, "h": 0.5, "N": 2, "potential": {
            "kind": "tabulated", "table": [[1, 0.5]]}}}),
        ("spectrum", 1, {"output_dir": 5}),
        # the cluster spectrum and the expansion need N >= 2; a growing exponential v
        ("cluster-spectrum", 1, {}),
        ("resolvent-check", 1, {}),
        # N_MAX bounds the chain enumeration of resolvent-check, SPLIT_N_MAX every task
        # that splits by S_N symmetry: its orbit bases at N = 6, and the partitions the
        # budget reads at N = 13, are past what the split is tested at
        ("resolvent-check", lattice.N_MAX + 1, {}),
        ("spectrum", lattice.SPLIT_N_MAX + 1, {}),
        ("localization", lattice.SPLIT_N_MAX + 1, {}),
        ("cluster-spectrum", lattice.SPLIT_N_MAX + 1, {}),
        ("spectrum", 13, {}),
        ("spectrum", 2, {"model": {"g": 1.0, "h": 0.5, "N": 2, "potential": {
            "kind": "exponential", "decay": -1.0}}}),
        ("spectrum", 2, {"model": {"g": 1.0, "h": 0.5, "N": 2, "potential": {
            "kind": "exponential", "decay": 0.0}}}),
    ]
    monkeypatch.chdir(tmp_path)  # where a numeric output_dir would be made
    for task, n, section in bad_sections:
        base = {"model": {"g": 1.0, "h": 0.5, "N": n}, "window": {"L": 6, "interior_margin": 2}}
        write_config(p, task=task, **{**base, **section})
        with pytest.raises(cli.ConfigError):
            cli.load_config(str(p))
        assert cli.main([task, "--config", str(p)]) == cli.EXIT_CONFIG
    assert not (tmp_path / "out").exists() and not (tmp_path / "5").exists()
    # the DecayProbe dataclass holds the only probe defaults
    write_config(p, task="localization")
    assert cli.load_config(str(p)).probe == localization.DecayProbe()


def test_malformed_config_exit_code(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text("{not json")
    assert cli.run(str(p)) == cli.EXIT_CONFIG
    assert not (tmp_path / "out").exists()


def test_task_mismatch_exit_code(tmp_path):
    p = tmp_path / "c.json"
    write_config(p)
    assert cli.main(["evolve", "--config", str(p)]) == cli.EXIT_CONFIG


def test_spectrum_run_and_ladder(tmp_path):
    p = tmp_path / "c.json"
    write_config(p)
    assert cli.main(["spectrum", "--config", str(p)]) == cli.EXIT_OK
    out = tmp_path / "out"
    rows = cli._read_csv(str(out / "eigenvalues.csv"))
    interior = [float(r["eigenvalue"]) for r in rows if r["interior"] == "1"]
    assert interior
    # h = 0.5 puts the ladder on the integers
    assert max(abs(v - round(v)) for v in interior) <= 1e-8
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["complete"] and all(manifest["checks"].values())


def test_determinism_byte_identical(tmp_path):
    p = tmp_path / "c.json"
    write_config(p)
    assert cli.main(["spectrum", "--config", str(p), "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["spectrum", "--config", str(p), "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "eigenvalues.csv").read_bytes()
    b = (tmp_path / "b" / "eigenvalues.csv").read_bytes()
    assert a == b
    assert b"\r" not in a


def test_export_matrices_flag(tmp_path, capsys):
    p = tmp_path / "c.json"
    write_config(p)
    assert cli.main(
        ["spectrum", "--config", str(p), "--out", str(tmp_path / "m"), "--export-matrices"]
    ) == 0
    assert (tmp_path / "m" / "hamiltonian_coo.csv").exists()
    # only spectrum exports; any other task would accept the flag and ignore it
    write_config(p, **EVOLVE_N2)
    assert cli.main(
        ["evolve", "--config", str(p), "--out", str(tmp_path / "e"), "--export-matrices"]
    ) == cli.EXIT_CONFIG
    assert "--export-matrices" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


# sha256 of hamiltonian_coo.csv at N = 2, L = 3 (nearest-neighbour v = 1, g = 1,
# h = 0.5): the bytes the export wrote when H was assembled by scipy.sparse
EXPORT_SHA256 = {
    "stark": "adaedfac0dc1e31e324620e01554fd95e5ec23d34f17e41881a79d4d766c3bde",
    "position": "a00df38e0b560c2ab5f0d2fec659e232d90947135928d3b9303751def86717f0",
}


@pytest.mark.parametrize("basis", sorted(EXPORT_SHA256))
def test_exported_hamiltonian_bytes_are_pinned(tmp_path, basis):
    p = tmp_path / "c.json"
    model_cfg = {"g": 1.0, "h": 0.5, "N": 2, "potential": {"kind": "nearest_neighbor", "strength": 1.0}}
    write_config(p, model=model_cfg, window={"L": 3, "interior_margin": 1}, basis=basis)
    code = cli.main(["spectrum", "--config", str(p), "--out", str(tmp_path / "m"), "--export-matrices"])
    assert code in (cli.EXIT_OK, cli.EXIT_ASSERT)  # the export precedes every check
    data = (tmp_path / "m" / "hamiltonian_coo.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == EXPORT_SHA256[basis]


def test_write_csv_formats(tmp_path):
    rows = [
        (0, 0.1, -0.0, float("nan"), float("inf"), np.float64(1e-300), "2+1", True),
        (np.int64(7), 1.0, 2.5e17, -1.25, 3, np.float64(-0.5), "x", False),
        [1, 2.0],
        (),
    ]
    path = tmp_path / "t.csv"
    cli.write_csv(str(path), ["a", "b"], rows)
    want = "a,b\n" + "".join(
        ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n"
        for row in rows
    )
    assert path.read_bytes() == want.encode()


def test_selftest(tmp_path):
    p = tmp_path / "c.json"
    write_config(p, task="selftest")
    assert cli.main(["selftest", "--config", str(p)]) == cli.EXIT_OK
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["checks"]["bessel_bound"] and manifest["checks"]["bessel_summability"]
    bounds = manifest["diagnostics"]["kernel_bounds"]
    assert [b["x"] for b in bounds] == list(cli.KERNEL_BOUND_GRID)
    for b in bounds:  # the floats of the specfun reports, unrounded
        x, tail = b["x"], 2 * int(abs(b["x"])) + 60
        summed = specfun.check_summability(x, tail).fitted
        pair = specfun.pair_decay_sum(0, 8, x, tail).fitted
        assert b == {
            "x": x,
            "factorial_max_ratio": specfun.check_upper_bound(40, x).max_ratio,
            "summability_sum": summed["sum"],
            "summability_bound": summed["bound"],
            "pair_decay_value": pair["value"],
            "pair_decay_C_fit": pair["C_fit"],
        }


def test_evolve_run(tmp_path):
    p = tmp_path / "c.json"
    write_config(
        p,
        task="evolve",
        model={"g": 1.0, "h": 0.5, "N": 2,
               "potential": {"kind": "nearest_neighbor", "strength": 1.0}},
        window={"L": 12, "interior_margin": 3},
        dynamics={"t_max": 5.0, "samples": 20, "radii": [2, 4, 9], "initial_sites": [0, 1]},
    )
    assert cli.main(["evolve", "--config", str(p)]) == cli.EXIT_OK
    rows = cli._read_csv(str(tmp_path / "out" / "tail_summary.csv"))
    sups = [float(r["sup_tail"]) for r in rows]
    assert sups == sorted(sups, reverse=True)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    diag = manifest["diagnostics"]
    assert set(diag) == {
        "chebyshev_terms", "samples_per_expansion", "matvecs", "spectral_bounds", "dt",
        "norm_drift_max", "guard_radius", "guard_tail", "propagator_bytes", "memory_estimate_mb",
    }
    assert diag["propagator_bytes"] == dynamics.propagator_bytes(Window(12, 3), 2, 8)
    assert diag["memory_estimate_mb"] == diag["propagator_bytes"] / 2**20
    assert isinstance(diag["chebyshev_terms"], int) and diag["chebyshev_terms"] > 2
    # 20 samples: blocks of 8, 8 and 4, each one recurrence
    assert diag["samples_per_expansion"] == dynamics.SAMPLES_PER_EXPANSION == 8
    assert isinstance(diag["matvecs"], int)
    assert 2 * (diag["chebyshev_terms"] - 1) < diag["matvecs"] < 3 * (diag["chebyshev_terms"] - 1)
    assert set(manifest["timings"]) == {"evolve", "dynamics.model_stencil", "dynamics.tail_trace"}
    assert 0.0 < manifest["timings"]["dynamics.tail_trace"] <= manifest["timings"]["evolve"]
    params = ModelParams(1.0, 0.5, 2, PairPotential("nearest_neighbor", 1.0))
    vals = np.linalg.eigvalsh(model.build_hamiltonian(params, Window(12, 3), "position").toarray())
    lo, hi = diag["spectral_bounds"]
    assert lo < vals.min() and vals.max() < hi
    assert diag["dt"] == pytest.approx(0.25, rel=1e-15)
    assert 0.0 <= diag["norm_drift_max"] <= 1e-10
    assert diag["guard_radius"] == 9
    assert 0.0 <= diag["guard_tail"] <= 1e-4
    assert manifest["checks"] == {"norm_drift": True, "truncation_safe": True}
    outputs = sorted(f for f in os.listdir(tmp_path / "out") if f != "manifest.json")
    assert sorted(manifest["files"]) == outputs == ["density_trace.csv", "tail_summary.csv"]
    for name, digest in manifest["files"].items():
        assert digest == hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()


def test_failed_check_exit_two(tmp_path):
    # a tight window reflects density off the faces: truncation-unsafe
    p = tmp_path / "c.json"
    write_config(
        p,
        task="evolve",
        model={"g": 1.0, "h": 0.5, "N": 2,
               "potential": {"kind": "nearest_neighbor", "strength": 1.0}},
        window={"L": 6, "interior_margin": 3},
        dynamics={"t_max": 20.0, "samples": 40, "radii": [2], "initial_sites": [0, 1]},
    )
    assert cli.main(["evolve", "--config", str(p)]) == cli.EXIT_ASSERT
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["checks"]["truncation_safe"] is False
    assert manifest["diagnostics"]["guard_tail"] > 1e-4


def test_plot_data(tmp_path):
    p = tmp_path / "c.json"
    write_config(
        p,
        task="localization",
        model={"g": 1.0, "h": 0.5, "N": 1},
        window={"L": 14, "interior_margin": 5},
        probes={"fit_range": [4, 12]},
    )
    assert cli.main(["localization", "--config", str(p)]) == cli.EXIT_OK
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert set(manifest["timings"]) == {
        "localization", "model.build_hamiltonian", "spectra.eigh", "spectra.interior_mask",
        "localization.superexp_shell_fit",
    }
    assert manifest["checks"] == {"diagonalization_residual": True, "decay_checks": True}
    diag = manifest["diagnostics"]
    assert set(diag) == {
        "eigh", "interior_states", "isolated_states", "shell_fits_failed", "com_checks_failed",
        "final_rate_min", "memory_estimate_mb",
    }
    # one particle: one sector, a diagonal stark H, and no cluster spectrum,
    # so the eigenpairs are exact and every interior state is isolated
    assert diag["eigh"] == {
        "sector_dims": [29], "cross_norm": 0.0, "residual_max": 0.0, "orthogonality_defect": 0.0,
    }
    assert diag["interior_states"] == diag["isolated_states"] > 0
    assert diag["shell_fits_failed"] == diag["com_checks_failed"] == 0
    assert diag["final_rate_min"] > 1.0
    assert cli.main(["plot-data", "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    assert (tmp_path / "out" / "shell_decay_plot.csv").exists()
    assert (tmp_path / "out" / "com_profile_plot.csv").exists()


def test_localization_diagnostics_match_report(tmp_path):
    p = tmp_path / "c.json"
    write_config(
        p,
        task="localization",
        model={"g": 1.0, "h": 0.5, "N": 2,
               "potential": {"kind": "nearest_neighbor", "strength": 1.0}},
        window={"L": 14, "interior_margin": 5},
    )
    assert cli.main(["localization", "--config", str(p)]) == cli.EXIT_OK
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    report = json.loads((out / "decay_report.json").read_text())
    diag = manifest["diagnostics"]
    isolated = [e for e in report if e["isolated"]]
    assert diag["interior_states"] == len(report) > diag["isolated_states"] == len(isolated) > 0
    assert diag["shell_fits_failed"] == sum(not e["shell_passed"] for e in isolated) == 0
    assert diag["com_checks_failed"] == 0
    assert diag["final_rate_min"] == min(e["final_rate"] for e in isolated)
    assert diag["eigh"]["sector_dims"] == [435, 406]
    assert diag["eigh"]["residual_max"] <= 1e-8
    assert manifest["checks"] == {"diagonalization_residual": True, "decay_checks": True}


def test_plot_data_missing_inputs(tmp_path):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert cli.main(["plot-data", "--out", str(empty)]) == cli.EXIT_CONFIG


def test_resolvent_check_run(tmp_path):
    p = tmp_path / "c.json"
    write_config(
        p,
        task="resolvent-check",
        model={"g": 1.0, "h": 0.5, "N": 2,
               "potential": {"kind": "nearest_neighbor", "strength": 1.0}},
        window={"L": 6, "interior_margin": 2},
        resolvent={"z_grid": [[0.0, 8.0]]},
    )
    assert cli.main(["resolvent-check", "--config", str(p)]) == cli.EXIT_OK
    entries = json.loads((tmp_path / "out" / "functional_eq.json").read_text())
    assert entries[0]["residual"] <= 1e-8
    params = ModelParams(1.0, 0.5, 2, PairPotential("nearest_neighbor", 1.0))
    h = model.build_hamiltonian(params, Window(6, 2), "stark").toarray()
    dist = np.abs(8j - np.linalg.eigvalsh(h)).min()
    assert entries[0]["dist_to_spectrum"] == pytest.approx(dist, rel=1e-12)
    assert 0.0 <= entries[0]["resolvent_residual_bound"] <= 1e-10


def test_resolvent_z_on_spectrum_fails_without_warnings(tmp_path, capsys):
    # z = 0 is an eigenvalue of the stark H_D of the singletons, -2h (m1 + m2)
    p = tmp_path / "c.json"
    write_config(p, task="resolvent-check", model={"g": 1.0, "h": 0.5, "N": 2},
                 window={"L": 4, "interior_margin": 1}, resolvent={"z_grid": [[0.0, 0.0]]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["resolvent-check", "--config", str(p)]) == cli.EXIT_ASSERT
    assert "z within 0.00e+00 of the truncated spectrum of H_D" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["exception"] == "LinAlgError"


def _resolvent_config(path, n, L, z_grid):
    pot = {"kind": "nearest_neighbor", "strength": 1.0}
    write_config(path, task="resolvent-check", model={"g": 1.0, "h": 0.5, "N": n, "potential": pot},
                 window={"L": L, "interior_margin": 1}, resolvent={"z_grid": z_grid})


@pytest.mark.parametrize("n,L", [(2, 6), (3, 3)])
def test_first_z_norm_i_is_its_2_norm(tmp_path, n, L):
    # the first z's norm_I is the compactness SVD's largest singular value over the
    # sector blocks, ||I||_2 to within the cross norm; a later z keeps the power estimate,
    # and the manifest says which z used which
    p = tmp_path / "c.json"
    _resolvent_config(p, n, L, [[0.5, 8.0], [0.5, 1.0]])
    cli.main(["resolvent-check", "--config", str(p)])
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    entries = json.loads((tmp_path / "out" / "functional_eq.json").read_text())
    stream = manifest["diagnostics"]["functional_equation"]
    assert manifest["complete"] and len(entries) == 2
    assert [s["path"] for s in stream] == ["sectors" if n == 2 else "chunks"] * 2
    assert [s["norm_method"] for s in stream] == [
        {"D": resolvent.NORM_METHOD, "I": resolvent.SVD_NORM_METHOD},
        {"D": resolvent.NORM_METHOD, "I": resolvent.NORM_METHOD},
    ]
    params = ModelParams(1.0, 0.5, n, PairPotential("nearest_neighbor", 1.0))
    i = resolvent.build_I(0.5 + 8j, resolvent.ResolventWorkspace(params, Window(L, 1)))
    exact = np.linalg.norm(i, 2)
    assert abs(entries[0]["norm_I"] - exact) <= 1e-12 * exact
    assert entries[0]["norm_I"] == stream[0]["norm_I_svd"]


@pytest.mark.parametrize("n,L", [(2, 6), (3, 3)])
def test_compactness_svd_is_real_on_the_sector_pass(tmp_path, monkeypatch, n, L):
    # at N = 2 with a diagonal H^(1) the first z's SVD runs on the real |Delta_0| W_ss,
    # which have the singular values of I_s = Delta_0 W_ss; the chunked stream (N = 3)
    # still takes them from its complex blocks
    kinds, svd = [], np.linalg.svd
    recorded = lambda a, *r, **k: kinds.append(a.dtype) or svd(a, *r, **k)  # noqa: E731
    monkeypatch.setattr(np.linalg, "svd", recorded)
    p = tmp_path / "c.json"
    _resolvent_config(p, n, L, [[0.5, 8.0], [0.5, 1.0]])
    cli.main(["resolvent-check", "--config", str(p)])  # 7 sites fail compactness at N = 3
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["complete"]
    assert kinds and set(kinds) == {np.dtype(float if n == 2 else complex)}, kinds


def test_chunk_buffers_dropped_before_the_first_svd(tmp_path, monkeypatch):
    # over two z at N = 3 the chunk buffers are freed before the first z's SVD, and the
    # second z makes them again
    made, seen = [], []

    class Workspace(resolvent.ResolventWorkspace):
        def __post_init__(self):
            super().__post_init__()
            made.append(self)

    proxy = resolvent.compactness_proxy

    def checked(i, blocks=None):
        seen.append(made[0].buffer is not None)
        return proxy(i, blocks)

    monkeypatch.setattr(resolvent, "ResolventWorkspace", Workspace)
    monkeypatch.setattr(resolvent, "compactness_proxy", checked)
    p = tmp_path / "c.json"
    _resolvent_config(p, 3, 3, [[0.5, 8.0], [0.5, 1.0]])
    cli.main(["resolvent-check", "--config", str(p)])
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    stream = manifest["diagnostics"]["functional_equation"]
    assert manifest["complete"] and len(made) == 1 and seen == [False]
    assert [s["path"] for s in stream] == ["chunks"] * 2
    assert stream[0]["chunks"] == stream[1]["chunks"]
    assert made[0].buffer is None  # dropped again after the last z


@pytest.mark.parametrize(
    "table,even,reps",
    [({"-1": 1.0, "1": 1.0}, True, 2), ({"-1": 0.2, "1": 0.7, "2": 0.1}, False, 4)],
)
def test_resolvent_expansion_diagnostics(tmp_path, table, even, reps):
    p = tmp_path / "c.json"
    write_config(p, task="resolvent-check",
                 model={"g": 1.0, "h": 0.5, "N": 3,
                        "potential": {"kind": "tabulated", "table": table}},
                 window={"L": 2, "interior_margin": 1}, resolvent={"z_grid": [[0.5, 8.0]]})
    cli.main(["resolvent-check", "--config", str(p)])
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["complete"] is True
    assert manifest["diagnostics"]["expansion"] == {
        "chains": 4, "representatives": reps, "even_potential": even,
    }
    entries = json.loads((tmp_path / "out" / "functional_eq.json").read_text())
    assert entries[0]["residual"] <= 1e-8


def test_workers_flag_rejected(tmp_path):
    p = tmp_path / "c.json"
    write_config(p)
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--config", str(p), "--workers", "2"])
    assert exc.value.code == 2


EVOLVE_N2 = dict(
    task="evolve",
    model={"g": 1.0, "h": 0.5, "N": 2},
    window={"L": 10, "interior_margin": 3},
    dynamics={"t_max": 2.0, "samples": 4, "radii": [2], "initial_sites": [0, 1]},
)
LOCALIZATION_N1 = dict(
    task="localization",
    model={"g": 1.0, "h": 0.5, "N": 1},
    window={"L": 14, "interior_margin": 5},
    probes={"fit_range": [4, 12]},
)
CLUSTER_N2 = dict(
    task="cluster-spectrum",
    model={"g": 1.0, "h": 0.5, "N": 2},
    window={"L": 12, "interior_margin": 3},
)
SELFTEST = dict(task="selftest")


@pytest.mark.parametrize(
    "overrides, basis, code",
    [
        (EVOLVE_N2, "position", cli.EXIT_OK),
        (EVOLVE_N2, "stark", cli.EXIT_CONFIG),
        (LOCALIZATION_N1, "stark", cli.EXIT_OK),
        (LOCALIZATION_N1, "position", cli.EXIT_CONFIG),
        (CLUSTER_N2, "stark", cli.EXIT_OK),
        (CLUSTER_N2, "position", cli.EXIT_CONFIG),
        (SELFTEST, "position", cli.EXIT_OK),
        (SELFTEST, "stark", cli.EXIT_CONFIG),
    ],
)
def test_single_basis_tasks(tmp_path, capsys, overrides, basis, code):
    p = tmp_path / "c.json"
    write_config(p, basis=basis, **overrides)
    assert cli.main([overrides["task"], "--config", str(p)]) == code
    if code == cli.EXIT_CONFIG:
        assert "basis only" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_evolve_symmetrized_pair(tmp_path):
    p = tmp_path / "c.json"
    write_config(p, **dict(EVOLVE_N2, dynamics=dict(EVOLVE_N2["dynamics"], symmetrized=True)))
    assert cli.main(["evolve", "--config", str(p)]) == cli.EXIT_OK
    got = [
        (float(r["t"]), int(r["x"]), float(r["rho"]))
        for r in cli._read_csv(str(tmp_path / "out" / "density_trace.csv"))
    ]
    w = Window(10, 3)
    op = model.build_hamiltonian(ModelParams(1.0, 0.5, 2), w, "position")
    pcfg = dynamics.PropagatorConfig(2.0, 4)
    x = np.arange(-w.L, w.L + 1)
    for psi0, same in ((dynamics.symmetrized_pair(w, 0, 1), True),
                       (dynamics.product_state(w, (0, 1)), False)):
        trace = dynamics.tail_trace(op, psi0, pcfg, [2])
        want = [
            (float(t), int(xx), float(trace.densities[k, j]))
            for k, t in enumerate(trace.times)
            for j, xx in enumerate(x)
            if trace.densities[k, j] > 1e-16
        ]
        assert (got == want) is same


def test_evolve_forms_no_operator(tmp_path, monkeypatch):
    # the stencil comes from the model: no CSR H is assembled or read back
    def refused(*args, **kwargs):
        raise AssertionError("evolve formed an operator")

    monkeypatch.setattr(model, "build_hamiltonian", refused)
    monkeypatch.setattr(dynamics, "position_stencil", refused)
    monkeypatch.setattr(model.OperatorMatrix, "__post_init__", refused)
    p = tmp_path / "c.json"
    write_config(p, **EVOLVE_N2)
    assert cli.main(["evolve", "--config", str(p)]) == cli.EXIT_OK


def test_evolve_past_n_max(tmp_path):
    # N = 5 runs, and its trace is the CSR route's, bit for bit
    p = tmp_path / "c.json"
    dyn = {"t_max": 0.25, "samples": 16, "radii": [1, 2], "initial_sites": [0] * 5}
    write_config(p, task="evolve", model={"g": 1.0, "h": 0.5, "N": 5},
                 window={"L": 3, "interior_margin": 1}, dynamics=dyn)
    assert cli.main(["evolve", "--config", str(p)]) == cli.EXIT_OK
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    diag = manifest["diagnostics"]
    assert manifest["complete"] and diag["norm_drift_max"] <= 1e-10
    assert diag["matvecs"] == 2 * (diag["chebyshev_terms"] - 1)
    w = Window(3, 1)
    op = model.build_hamiltonian(ModelParams(1.0, 0.5, 5), w, "position")
    assert tuple(diag["spectral_bounds"]) == oracles.gershgorin_bounds(op)
    trace = dynamics.tail_trace(
        op, dynamics.product_state(w, (0,) * 5), dynamics.PropagatorConfig(0.25, 16), [1, 2]
    )
    got = [float(r["rho"]) for r in cli._read_csv(str(tmp_path / "out" / "density_trace.csv"))]
    assert got == trace.densities[trace.densities > 1e-16].tolist()


def test_spectrum_tiny_hopping_matches_g0(tmp_path):
    # J_n(g/h) at g/h = 2e-100 is its leading series term, not a NaN from the recurrence
    eigenvalues = {}
    for g in (1e-100, 0.0):
        p = tmp_path / f"{g}.json"
        write_config(p, model={"g": g, "h": 0.5, "N": 2}, window={"L": 6, "interior_margin": 2})
        out = tmp_path / f"out-{g}"
        assert cli.main(["spectrum", "--config", str(p), "--out", str(out)]) == cli.EXIT_OK
        rows = cli._read_csv(str(out / "eigenvalues.csv"))
        eigenvalues[g] = np.array([float(r["eigenvalue"]) for r in rows])
    assert np.isfinite(eigenvalues[1e-100]).all()
    assert np.abs(eigenvalues[1e-100] - eigenvalues[0.0]).max() <= 1e-12


def test_resolvent_check_basis(tmp_path, monkeypatch):
    seen = []

    class Spy(resolvent.ResolventWorkspace):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            seen.append(self.basis)

    monkeypatch.setattr(resolvent, "ResolventWorkspace", Spy)
    base = dict(
        task="resolvent-check",
        model={"g": 1.0, "h": 0.5, "N": 2},
        window={"L": 5, "interior_margin": 2},
        resolvent={"z_grid": [[0.0, 8.0]]},
    )
    for basis in (None, "position", "stark"):
        p = tmp_path / f"{basis}.json"
        write_config(p, **(base if basis is None else dict(base, basis=basis)))
        assert cli.main(["resolvent-check", "--config", str(p)]) == cli.EXIT_OK
    assert seen == ["stark", "position", "stark"]
    p = tmp_path / "bad.json"
    write_config(p, basis="momentum", **base)
    assert cli.main(["resolvent-check", "--config", str(p)]) == cli.EXIT_CONFIG


BUDGET = "GiB, above the memory budget of 4 GiB"


@pytest.mark.parametrize(
    "overrides, stages, failed_stage, message",
    [
        # dim 33^3 (position): its sector solves, about 6 GiB, are refused before the
        # build; no stage is open then, so the task name stands for it
        (dict(task="spectrum", basis="position", model={"g": 1.0, "h": 0.5, "N": 3},
              window={"L": 16, "interior_margin": 7}),
         set(), "spectrum", BUDGET),
        # dim 61^4 stops at the propagator's budget before the stencil is built;
        # no stage is open then, so the task name stands for it
        (dict(task="evolve", model={"g": 1.0, "h": 0.5, "N": 4},
              window={"L": 30, "interior_margin": 7}),
         set(), "evolve", BUDGET),
        # dim 29^3 stops when the workspace is made, before any dense matrix is allocated;
        # no stage is open then, so the task name stands for it
        (dict(task="resolvent-check", model={"g": 1.0, "h": 0.5, "N": 3},
              window={"L": 14, "interior_margin": 2}),
         set(), "resolvent-check", BUDGET),
        # |g/h| = 2000 stops before the stark pair kernel gathers its table
        (dict(task="spectrum", model={"g": 1000.0, "h": 0.5, "N": 2},
              window={"L": 3, "interior_margin": 1}),
         {"model.build_hamiltonian"}, "model.build_hamiltonian", BUDGET),
        # one sample over t_max = 1e9: the Chebyshev step's Bessel argument is above X_MAX
        (dict(task="evolve", model={"g": 1.0, "h": 0.5, "N": 1},
              window={"L": 8, "interior_margin": 3},
              dynamics={"t_max": 1e9, "samples": 1}),
         {"dynamics.model_stencil", "dynamics.tail_trace"}, "dynamics.tail_trace", "Bessel cap"),
        # dim 61^4 stops at the budget of its solves, before the build and before any
        # room is made in the heap
        (dict(task="spectrum", model={"g": 1.0, "h": 0.5, "N": 4},
              window={"L": 30, "interior_margin": 7}),
         set(), "spectrum", BUDGET),
    ],
    ids=["dense-cap", "nnz-cap", "resolvent-dense-cap", "kernel-gather-cap", "evolve-step-cap",
         "spectrum-nnz-cap"],
)
def test_capacity_limit_exit_config(tmp_path, capsys, overrides, stages, failed_stage, message):
    p = tmp_path / "c.json"
    write_config(p, **overrides)
    assert cli.main([overrides["task"], "--config", str(p)]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["complete"] is False
    assert manifest["failed_stage"] == failed_stage
    assert manifest["exception"] == "CapacityError"
    assert "run_completed" not in manifest["checks"]
    # the task total, and each stage entered up to the one that stopped
    assert set(manifest["timings"]) == {overrides["task"]} | stages


def test_peak_rss_falls_back_to_ru_maxrss(monkeypatch):
    # VmHWM of /proc/self/status where it exists; ru_maxrss (the same kB) where it does not
    import resource

    with open("/proc/self/status", encoding="ascii") as fh:
        hwm = int(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
    assert hwm / 1024 <= cli._peak_rss_mb()  # the peak can only rise in between

    def absent(*args, **kwargs):
        raise FileNotFoundError(args[0])

    monkeypatch.setattr(cli, "open", absent, raising=False)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert before <= cli._peak_rss_mb() <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def test_over_budget_refused_before_the_allocation(tmp_path):
    # localization at N = 3, L = 16 (stark): its sector solves would hold about 6 GiB.
    # A fresh process exits 1 with the estimate and the budget named, before the build,
    # so its own peak stays near the interpreter's; the manifest records the estimate
    import subprocess
    import sys

    p = tmp_path / "c.json"
    write_config(p, task="localization", model={"g": 1.0, "h": 0.5, "N": 3},
                 window={"L": 16, "interior_margin": 7})
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    # started straight from this process: its peak_rss_mb is its own (VmHWM), not this one's
    run = subprocess.run([sys.executable, "-m", "starklat.cli", "localization", "--config", str(p)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == cli.EXIT_CONFIG
    assert "config error: the sector split and solves at N = 3, L = 16 would hold about" in run.stderr
    assert "GiB, above the memory budget of 4 GiB" in run.stderr
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["exception"] == "CapacityError" and manifest["failed_stage"] == "localization"
    assert set(manifest["timings"]) == {"localization"}
    assert manifest["diagnostics"]["memory_estimate_mb"] > manifest["memory_budget_mb"] == 4096
    assert manifest["peak_rss_mb"] <= 150, manifest["peak_rss_mb"]


def test_spectrum_past_n_max_goes_by_the_budget(tmp_path):
    # N = 5, L = 2 (dim 3125): no interior state at L = 2, so exit 2, with the solve's
    # residual bound passing and its estimate well within the budget
    p = tmp_path / "c.json"
    write_config(p, model={"g": 1.0, "h": 0.5, "N": 5}, window={"L": 2, "interior_margin": 1})
    assert cli.main(["spectrum", "--config", str(p)]) == cli.EXIT_ASSERT
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["complete"] and manifest["checks"] == {
        "diagonalization_residual": True, "interior_nonempty": False,
    }
    assert sum(manifest["diagnostics"]["eigh"]["sector_dims"]) == 5**5
    assert 0 < manifest["diagnostics"]["memory_estimate_mb"] < 100


def test_failed_stage_on_run_failure(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("solver exploded")

    monkeypatch.setattr(spectra, "sector_eigh", broken)
    p = tmp_path / "c.json"
    write_config(p)
    assert cli.main(["spectrum", "--config", str(p)]) == cli.EXIT_ASSERT
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["complete"] is False
    assert manifest["failed_stage"] == "spectra.eigh"
    assert manifest["exception"] == "RuntimeError"
    assert manifest["checks"] == {"run_completed": False}


@pytest.mark.parametrize("potential", [5, [], None, "x"], ids=["int", "list", "null", "string"])
def test_potential_that_is_not_an_object_is_a_config_error(tmp_path, capsys, potential):
    p = tmp_path / "c.json"
    write_config(p, model={"g": 1.0, "h": 0.5, "N": 2, "potential": potential})
    with pytest.raises(cli.ConfigError, match="model.potential must be an object"):
        cli.load_config(str(p))
    assert cli.run(str(p)) == cli.EXIT_CONFIG
    assert "model.potential must be an object" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("statistics", ["boson", "fermion"])
def test_statistics_other_than_distinguishable_rejected(tmp_path, capsys, statistics):
    p = tmp_path / "c.json"
    write_config(p, model={"g": 1.0, "h": 0.5, "N": 2, "statistics": statistics})
    with pytest.raises(cli.ConfigError, match="ROADMAP item 11"):
        cli.load_config(str(p))
    assert cli.main(["spectrum", "--config", str(p)]) == cli.EXIT_CONFIG
    assert not (tmp_path / "out").exists()
    write_config(p, model={"g": 1.0, "h": 0.5, "N": 2, "statistics": "distinguishable"})
    assert cli.load_config(str(p)).params.statistics == "distinguishable"


def test_manifest_versions_and_sector_diagnostics(tmp_path):
    pair = {"g": 1.0, "h": 0.5, "N": 2}
    runs = {
        "spectrum": dict(task="spectrum", model=pair, window={"L": 12, "interior_margin": 2}),
        "resolvent-check": dict(task="resolvent-check", model=pair,
                                window={"L": 8, "interior_margin": 2},
                                resolvent={"z_grid": [[0.0, 8.0], [0.5, 4.0]]}),
    }
    manifests = {}
    for task, overrides in runs.items():
        p = tmp_path / f"{task}.json"
        write_config(p, **overrides)
        out = tmp_path / task
        assert cli.main([task, "--config", str(p), "--out", str(out)]) == cli.EXIT_OK
        manifests[task] = json.loads((out / "manifest.json").read_text())
    for manifest in manifests.values():
        versions = manifest["versions"]
        assert set(versions) == {
            "python", "numpy", "starklat", "blas", "blas_threads", "cpu_count",
        }
        assert versions["numpy"] == np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert versions["blas"] == f"{blas.get('name')} {blas.get('version')}"
        assert set(versions["blas_threads"]) == set(cli.BLAS_THREAD_VARS)
        assert versions["cpu_count"] == os.cpu_count()
        assert "failed_stage" not in manifest and "exception" not in manifest
    assert set(manifests["spectrum"]["timings"]) == {
        "spectrum", "model.build_hamiltonian", "spectra.eigh", "spectra.interior_mask",
    }
    assert set(manifests["resolvent-check"]["timings"]) == {
        "resolvent-check", "resolvent.block", "resolvent.expansion",
        "resolvent.functional_equation", "resolvent.compactness_proxy", "resolvent.operator_norm",
    }
    # leg-swap orbits: d (d + 1) / 2 even and d (d - 1) / 2 odd at d = 2L + 1
    eigh = manifests["spectrum"]["diagnostics"]["eigh"]
    assert set(eigh) == {"sector_dims", "cross_norm", "residual_max", "orthogonality_defect"}
    assert eigh["sector_dims"] == [325, 300] and 0.0 <= eigh["cross_norm"] <= 1e-10
    assert 0.0 < eigh["residual_max"] <= 1e-8 and 0.0 < eigh["orthogonality_defect"] <= 1e-10
    diag = manifests["resolvent-check"]["diagnostics"]
    # N = 2: the chain tree is its root alone
    assert diag["expansion"] == {"chains": 1, "representatives": 1, "even_potential": True}
    # the stark H^(1) is diagonal, so only H^(2) is solved; it reports what eigh does
    assert set(diag["block_eigh"]) == {"2"}
    assert set(diag["block_eigh"]["2"]) == set(eigh)
    for entry in (diag["block_eigh"]["2"], diag["compactness_svd"]):
        assert entry["sector_dims"] == [153, 136] and 0.0 <= entry["cross_norm"] <= 1e-10
    # per z, the sector pass: 64-column blocks of the 153 bosons and 136 fermions,
    # and the norms of each sector's blocks, whose max is what functional_eq.json reports
    entries = json.loads((tmp_path / "resolvent-check" / "functional_eq.json").read_text())
    assert len(diag["functional_equation"]) == len(entries) == 2
    for k, (stream, entry) in enumerate(zip(diag["functional_equation"], entries)):
        # the compactness SVD runs at the first z only, and gives ||I||_2 there
        assert set(stream) == {
            "path", "chunk_columns", "chunks", "residual_sector", "residual_dropped",
            "cross_norm_D", "cross_norm_I", "sector_norms_D", "sector_norms_I", "norm_method",
        } | ({"norm_I_svd"} if k == 0 else set())
        assert stream["path"] == "sectors"
        assert stream["chunk_columns"] == resolvent.CHUNK_COLUMNS == 64 and stream["chunks"] == 6
        assert stream["residual_sector"] + stream["residual_dropped"] == entry["residual"]
        assert 0.0 < stream["residual_dropped"] <= 1e-12
        if k == 0:
            assert stream["norm_I_svd"] >= entry["norm_I"] * (1.0 - 1e-12)
        svd = resolvent.SVD_NORM_METHOD if k == 0 else resolvent.NORM_METHOD
        assert stream["norm_method"] == {"D": resolvent.NORM_METHOD, "I": svd}
        for name in ("D", "I"):
            assert 0.0 <= stream[f"cross_norm_{name}"] <= 1e-10
            assert len(stream[f"sector_norms_{name}"]) == 2
            assert max(stream[f"sector_norms_{name}"]) == entry[f"norm_{name}"]
    # N = 3: the two remainders are solved once, and the manifest gives their pair defect
    p = tmp_path / "n3.json"
    write_config(p, task="resolvent-check", model={"g": 1.0, "h": 0.5, "N": 3},
                 window={"L": 2, "interior_margin": 1}, resolvent={"z_grid": [[0.5, 8.0]]})
    # the 5-site window is too small for the compactness criterion; the manifest is complete
    code = cli.main(["resolvent-check", "--config", str(p), "--out", str(tmp_path / "n3")])
    manifest = json.loads((tmp_path / "n3" / "manifest.json").read_text())
    assert code == cli.EXIT_ASSERT and manifest["complete"]
    assert manifest["checks"] == {"functional_equation": True, "compactness_proxy": False}
    diag = manifest["diagnostics"]
    assert set(diag["block_eigh"]) == {"2", "3"}
    assert set(diag["block_eigh"]["2"]) == set(eigh)
    assert set(diag["block_eigh"]["3"]) == set(eigh) | {"pair_defect"}
    assert set(diag["compactness_svd"]) == {"sector_dims", "cross_norm", "pair_defect"}
    for entry in (diag["block_eigh"]["3"], diag["compactness_svd"]):
        assert entry["sector_dims"] == [35, 10, 40, 40]
        assert 0.0 <= entry["cross_norm"] <= 1e-10 and 0.0 <= entry["pair_defect"] <= 1e-10
