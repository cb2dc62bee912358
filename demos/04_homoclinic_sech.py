#!/usr/bin/env python3
"""Homoclinic index identity on the sech well family.

The family Ju' + (B + amplitude * lambda * sech(t)) u = 0 acquires a
homoclinic solution when the well depth passes 1.5.  The spectral flow of
the truncated boundary-value pencil, the Maslov index of the stable/unstable
pair at t = 0, and the kernel-crossing scan all see the same event.
"""

import numpy as np

from hamflow import (
    make_family,
    theorem_A_report,
    kernel_crossings,
    unstable_space,
    stable_space,
    gap_distance,
)

family = make_family("sech-perturbation", amplitude=2.0)
T = 9.0

# stable and unstable subspaces at t = 0 approach each other near the crossing
print("lambda   gap(E^u(0), E^s(0))")
for lam in (0.5, 0.7, 0.74, 0.75, 0.76, 0.8, 1.0):
    eu = unstable_space(family, lam, 0.0, T)
    es = stable_space(family, lam, 0.0, T)
    print(f"{lam:.2f}     {gap_distance(eu, es):.6f}")

recs = kernel_crossings(family, np.linspace(0, 1, 33), T=T)
print("\nkernel crossings:", [(round(r.lam, 6), r.intersection_dim) for r in recs])
print("(the well depth at the crossing is amplitude * lambda =",
      f"{2.0 * recs[0].lam:.6f})")

report = theorem_A_report(family, lam_grid=np.linspace(0, 1, 17), T=T, N=128,
                          third_opinion=True)
print("\nindex report:", report.summary())
print("three integers, one homoclinic bifurcation event; chern is read from",
      report.extras["chern_source"])
