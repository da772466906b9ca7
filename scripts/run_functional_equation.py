#!/usr/bin/env python3
"""Sweep the resolvent identity G(z) = D(z) + I(z) G(z) over a grid of z.

Reports the residual of the identity, as a Frobenius bound on its operator
norm, and the norm of I(z) along a vertical line in the upper half plane, for
two and three particles.
"""

import argparse

from starklat import resolvent as rsv
from starklat.model import ModelParams, PairPotential, Window


def sweep(p, w, heights):
    ws = rsv.ResolventWorkspace(p, w)
    print(f"N = {p.N}  L = {w.L}")
    for y in heights:
        z = 1j * y
        fe = rsv.functional_equation(z, ws)
        inorm = rsv.operator_norm(fe.i)
        print(f"  z = {y:g}i  residual {fe.residual:.3e}  ||I(z)|| {inorm:.3e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--heights", type=float, nargs="+", default=[4.0, 8.0, 16.0, 32.0])
    ap.add_argument("--strength", type=float, default=1.0)
    args = ap.parse_args()

    pot = PairPotential("nearest_neighbor", args.strength)
    sweep(ModelParams(g=1.0, h=0.5, N=2, potential=pot),
          Window(L=10, interior_margin=3), args.heights)
    sweep(ModelParams(g=1.0, h=0.5, N=3, potential=pot),
          Window(L=5, interior_margin=2), args.heights)


if __name__ == "__main__":
    main()
