#!/usr/bin/env python3
"""Lagrangian frames, the gap metric and the Souriau map.

Walks through the basic dictionary: orthonormal frames for Lagrangian
subspaces, the gap distance between subspaces, and the unitary whose
eigenvalue -1 detects intersections, checked against the rank count
2n - rank[F_L | F_W].
"""

import numpy as np

from hamflow import (
    standard_space,
    lagrangian_from_matrix,
    gap_distance,
    souriau_map,
    intersection_dimension_rank,
)

sp = standard_space(1)
print("standard complex structure on R^2:")
print(sp.J)
print()

W = lagrangian_from_matrix(np.array([[1.0], [0.0]]), sp)
print("the horizontal axis is Lagrangian; its frame:", W.columns.ravel())

# rotating line: distance from W grows like |sin angle|
print("\nangle   gap(W, line)   |sin|")
for deg in (10, 30, 60, 90):
    a = np.radians(deg)
    L = lagrangian_from_matrix(np.array([[np.cos(a)], [np.sin(a)]]), sp)
    print(f"{deg:5d}   {gap_distance(W, L):.6f}      {abs(np.sin(a)):.6f}")

# the Souriau unitary of the rotating line winds twice as fast
print("\nlambda   Souriau unitary      exp(2 pi i lambda)")
for lam in (0.1, 0.25, 0.5, 0.75):
    L = lagrangian_from_matrix(
        np.array([[-np.sin(np.pi * lam)], [np.cos(np.pi * lam)]]), sp)
    S = souriau_map(W, L, sp)[0, 0]
    print(f"{lam:.2f}    {S:+.4f}   {np.exp(2j * np.pi * lam):+.4f}")

# eigenvalue -1 of the Souriau unitary detects the intersection
lam = 0.5
L = lagrangian_from_matrix(np.array([[-np.sin(np.pi * lam)], [np.cos(np.pi * lam)]]), sp)
print("\nat lambda = 1/2 the moving line coincides with the reference:")
print("  Souriau unitary:", f"{souriau_map(W, L, sp)[0, 0]:+.4f}")
print("  intersection dimension (rank count):", intersection_dimension_rank(W, L))
