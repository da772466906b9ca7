"""The four benchmark workloads: CLI configs made from a seed, and output checks.

All workloads use g = 1, h = 0.5 and a nearest-neighbour pair potential of
strength 1. What the seed picks:

- loc-n2: nothing. The physics must not be jittered: the interior set and the
  fitted rates are the quantities under test, and strength 1.5 already fails
  `decay_checks` at L = 20.
- evolve-n3: three distinct initial sites in [-2, 2], in seeded order.
- fe-n3: one z from {-0.5, 0.5} + i{4, 6, ..., 32}.
- fe-n2-zsweep: six distinct z from {-1, -0.5, 0, 0.5, 1} + i{1, 2, 4, 8, 16, 32},
  in seeded order.

The seeded inputs are drawn from finite grids so that every input has a
reference value in `references.json`, made by `make_references.py`.
"""

from __future__ import annotations

import csv
import json
import os
import random

BASE_MODEL = {
    "g": 1.0,
    "h": 0.5,
    "potential": {"kind": "nearest_neighbor", "strength": 1.0},
}
EVOLVE_SITES = range(-2, 3)
FE_N3_GRID = [(re, float(im)) for re in (-0.5, 0.5) for im in range(4, 33, 2)]
FE_N2_GRID = [(re, float(im)) for re in (-1.0, -0.5, 0.0, 0.5, 1.0) for im in (1, 2, 4, 8, 16, 32)]

# tolerances of the output checks
EIG_TOL = 1e-9  # eigenvalues; also the gap below which eigenvalues form a multiplet
RATE_RTOL = 1e-3  # fitted rates read amplitudes near 1e-14, where roundoff is percent-level
TAIL_RTOL, TAIL_ATOL = 1e-6, 1e-9  # sup_tail, against a 1e-12 Chebyshev truncation
FE_RESIDUAL_MAX = 1e-6
NORM_RTOL = 1e-6


def _model(n: int) -> dict:
    return dict(BASE_MODEL, N=n)


def z_key(z) -> str:
    return f"{z[0]:g},{z[1]:g}"


def make_config(name: str, seed: int) -> dict:
    """The CLI config of workload `name`; output_dir is set by the caller."""
    rng = random.Random(seed)
    if name == "loc-n2":
        return {
            "model": _model(2),
            "window": {"L": 20, "interior_margin": 5},
            "task": "localization",
        }
    if name == "evolve-n3":
        return {
            "model": _model(3),
            "window": {"L": 12, "interior_margin": 2},
            "task": "evolve",
            "dynamics": {
                "t_max": 50.0,
                "samples": 200,
                "radii": list(range(2, 11)),
                "initial_sites": rng.sample(list(EVOLVE_SITES), 3),
            },
        }
    if name == "fe-n3":
        return {
            "model": _model(3),
            "window": {"L": 5, "interior_margin": 2},
            "task": "resolvent-check",
            "resolvent": {"z_grid": [list(rng.choice(FE_N3_GRID))]},
        }
    if name == "fe-n2-zsweep":
        return {
            "model": _model(2),
            "window": {"L": 12, "interior_margin": 5},
            "task": "resolvent-check",
            "resolvent": {"z_grid": [list(z) for z in rng.sample(FE_N2_GRID, 6)]},
        }
    raise KeyError(name)


WORKLOADS = ("loc-n2", "evolve-n3", "fe-n3", "fe-n2-zsweep")


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def _check_localization(out: str, ref: dict) -> list:
    with open(os.path.join(out, "decay_report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    errors = []
    counts = [0] * len(ref["clusters"])
    for entry in report:
        lam = entry["eigenvalue"]
        hit = [
            k for k, (lo, hi, _, _, _) in enumerate(ref["clusters"])
            if lo - EIG_TOL <= lam <= hi + EIG_TOL
        ]
        if not hit:
            errors.append(f"interior eigenvalue {lam!r} is not a reference candidate")
            continue
        counts[hit[0]] += 1
        rates = ref["clusters"][hit[0]][4]
        if "final_rate" in entry and not any(
            _close(entry["final_rate"], r, RATE_RTOL) for r in rates
        ):
            errors.append(f"final rate {entry['final_rate']!r} at {lam!r}, reference {rates}")
    for (lo, hi, n_min, n_max, _), n in zip(ref["clusters"], counts):
        if not n_min <= n <= n_max:
            errors.append(f"{n} interior states in [{lo!r}, {hi!r}], expected {n_min}..{n_max}")
    return errors


def _check_evolve(out: str, cfg: dict, ref: dict) -> list:
    sites = sorted(cfg["dynamics"]["initial_sites"])
    want = ref[",".join(map(str, sites))]
    with open(os.path.join(out, "tail_summary.csv"), encoding="utf-8") as fh:
        got = [(int(r["r"]), float(r["sup_tail"])) for r in csv.DictReader(fh)]
    if [r for r, _ in got] != cfg["dynamics"]["radii"]:
        return [f"tail radii {[r for r, _ in got]}"]
    return [
        f"sup_tail at r={r}: {s!r}, reference {w!r}"
        for (r, s), w in zip(got, want)
        if not _close(s, w, TAIL_RTOL, TAIL_ATOL)
    ]


def _check_resolvent(out: str, cfg: dict, ref: dict) -> list:
    with open(os.path.join(out, "functional_eq.json"), encoding="utf-8") as fh:
        entries = json.load(fh)
    z_grid = cfg["resolvent"]["z_grid"]
    if [e["z"] for e in entries] != z_grid:
        return [f"z values {[e['z'] for e in entries]}, expected {z_grid}"]
    errors = []
    for e in entries:
        key = z_key(e["z"])
        if not e["residual"] <= FE_RESIDUAL_MAX:
            errors.append(f"FE residual {e['residual']!r} at z={key}")
        for name in ("norm_I", "norm_D"):
            # any estimate at least as good as the stored power
            # iteration, and no larger than the exact 2-norm, is accepted
            estimate, exact = ref[key][name]
            if not estimate * (1 - NORM_RTOL) <= e[name] <= exact * (1 + NORM_RTOL):
                errors.append(f"{name} {e[name]!r} at z={key}, reference [{estimate!r}, {exact!r}]")
    return errors


def check(name: str, cfg: dict, out: str, refs: dict) -> list:
    """Mismatches between a run's outputs and the references; empty if none."""
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    errors = [] if manifest.get("complete") else ["manifest incomplete"]
    errors += [f"check {k} failed" for k, v in manifest.get("checks", {}).items() if not v]
    ref = refs[name]
    if name == "loc-n2":
        errors += _check_localization(out, ref)
    elif name == "evolve-n3":
        errors += _check_evolve(out, cfg, ref)
    else:
        errors += _check_resolvent(out, cfg, ref)
    return errors
