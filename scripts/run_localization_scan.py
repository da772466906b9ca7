#!/usr/bin/env python3
"""Scan shell decay rates of interior eigenvectors across field strengths.

For each field value the script diagonalizes the two-particle Hamiltonian,
fits the log-amplitude slope of the shell profile for every interior
eigenvector, and prints the worst final rate together with the thresholds
it cleared.
"""

import argparse

import numpy as np

from starklat import localization, model, spectra
from starklat.model import ModelParams, PairPotential, Window


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--g", type=float, default=1.0)
    ap.add_argument("--fields", type=float, nargs="+", default=[0.5, 1.0, 2.0])
    ap.add_argument("--strength", type=float, default=1.0)
    ap.add_argument("--L", type=int, default=14)
    ap.add_argument("--margin", type=int, default=5)
    args = ap.parse_args()

    probe = localization.DecayProbe()
    for h in args.fields:
        p = ModelParams(
            g=args.g, h=h, N=2,
            potential=PairPotential("nearest_neighbor", args.strength),
        )
        w = Window(L=args.L, interior_margin=args.margin)
        ham = model.build_hamiltonian(p, w, "stark")
        res = spectra.eigh(ham)
        mask = spectra.interior_mask(res, p)
        cspec = spectra.cluster_spectrum(p, w)
        rates, n_checked = [], 0
        for i in np.flatnonzero(mask):
            lam = res.eigenvalues[i]
            if spectra.dist_to_cluster(lam, cspec) < 0.05:
                continue
            c = localization.localization_center(lam, p)
            rep = localization.superexp_shell_fit(
                res.eigenvectors[:, i], w, p.N, probe, center=c
            )
            if rep.note == "point support":
                continue
            n_checked += 1
            rates.append(rep.final_rate)
            if not rep.passed:
                print(f"  FAIL lam={lam:+.6f} rate={rep.final_rate:.3f} note={rep.note}")
        rates = np.array(rates)
        print(
            f"h = {h:g}  x = {args.g / h:g}  checked {n_checked}"
            f"  min rate {rates.min():.3f}  median {np.median(rates):.3f}"
            f"  thetas {probe.theta_list}"
        )


if __name__ == "__main__":
    main()
