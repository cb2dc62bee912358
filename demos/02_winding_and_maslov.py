#!/usr/bin/env python3
"""The winding number through -1 and the Maslov index of the rotating line.

The one-crossing rotation is the normalization example: its Maslov index is
+1, the crossing form at the midpoint is pi times the squared norm, and the
partial indices split 1 + 0 around the crossing.
"""

import numpy as np

from hamflow import (
    standard_space,
    lagrangian_from_matrix,
    UnitaryPath,
    LagrangianPath,
    winding_number,
    maslov_index,
    maslov_index_pair,
    partial_maslov_index,
    crossing_form_index,
    find_crossings,
)

# plain winding of a scalar loop
loop = lambda lam: np.array([[np.exp(2j * np.pi * lam)]])
path = UnitaryPath.from_callable(loop, grid=9)
print("winding of exp(2 pi i lambda):", winding_number(path))

# the rotating Lagrangian line against the horizontal axis
sp = standard_space(1)
W = lagrangian_from_matrix(np.array([[1.0], [0.0]]), sp)


def frame(lam):
    return lagrangian_from_matrix(
        np.array([[-np.sin(np.pi * lam)], [np.cos(np.pi * lam)]]), sp)


gnor = LagrangianPath.from_callable(sp, frame, grid=17)
print("Maslov index of the rotating line:", maslov_index(gnor, W))
print("reversed path:", maslov_index(gnor.reverse(), W))

crossings = find_crossings(gnor, W)
print("crossings found:", [(round(c.lam, 6), c.intersection_dim) for c in crossings])

rec = crossing_form_index(gnor, W, 0.5)
print(f"crossing form at 1/2: signature {rec.signature}, "
      f"Gamma[u]/<u,u> = {rec.form[0, 0]:.6f} (pi = {np.pi:.6f})")

print("partial indices around the crossing:",
      partial_maslov_index(gnor, W, 0.5, "left"), "+",
      partial_maslov_index(gnor, W, 0.5, "right"))

# pairs: a constant second path reproduces the single-reference index
const = LagrangianPath.from_callable(sp, lambda lam: W, grid=17)
print("pair index against the constant reference:", maslov_index_pair(gnor, const))
