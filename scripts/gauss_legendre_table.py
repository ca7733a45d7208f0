#!/usr/bin/env python3
"""Write src/holonomy/gauss_legendre.npz, the Gauss-Legendre rules that
reports.py reads, so no process pays numpy's leggauss eigensolve.

For each n the file holds the nonnegative half of leggauss(n): arrays
x{n} (nodes, ascending) and w{n} (their weights). leggauss symmetrises its
rule exactly (x = (x - x[::-1])/2, w = (w + w[::-1])/2), so the full rule
is the mirrored half, bit for bit. The shipped table was written with
numpy 2.4.6; tests/test_reports.py rebuilds every rule with the installed
numpy and requires equality.
"""

import os

import numpy as np

SIZES = (48, 200, 800)

if __name__ == "__main__":
    path = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", "src", "holonomy",
                                        "gauss_legendre.npz"))
    halves = {}
    for n in SIZES:
        x, w = np.polynomial.legendre.leggauss(n)
        halves[f"x{n}"], halves[f"w{n}"] = x[n // 2:], w[n // 2:]
    np.savez(path, **halves)
    print(f"wrote {path}: n = {', '.join(map(str, SIZES))}")
