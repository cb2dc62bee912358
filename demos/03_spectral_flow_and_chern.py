#!/usr/bin/env python3
"""Spectral flow of matrix paths and the determinant-winding route.

The flow counts eigenvalues crossing zero with sign, certified on an
adaptive partition.  It is unchanged when the path is read as complex
Hermitian matrices or shifted by a small multiple of the identity.  The
same integer is the winding number of det(A(lambda) + i s) along a
rectangle around the singular set.
"""

import numpy as np

from hamflow import (
    SymmetricMatrixPath,
    spectral_flow,
    normalization_path,
    chern_winding,
)

# the single upward crossing
path = SymmetricMatrixPath(lambda lam: np.array([[2 * lam - 1.0]]), lipschitz=2.0)
flow, cert = spectral_flow(path)
print("spectral flow of [2 lambda - 1]:", flow)
print("certificate:", cert.summary())

# the reference path of order 3 + 1 + 3: one rank-one branch through zero
nor = normalization_path(3, 3)
print("\nnormalization path flow:", spectral_flow(nor)[0])
print("reversed:", spectral_flow(nor.reverse())[0])
complexified = SymmetricMatrixPath(lambda lam: nor(lam).astype(complex), nor.lipschitz)
print("complexified:", spectral_flow(complexified)[0])
shifted = SymmetricMatrixPath(lambda lam: nor(lam) + 1e-3 * np.eye(7), nor.lipschitz)
print("shifted by +1e-3:", spectral_flow(shifted)[0])

# determinant winding: kappa(lambda, s) = lambda - 1/2 + i s turns once
print("\nchern winding of [2 lambda - 1]:", chern_winding(path))

# a random path: the two pipelines agree exactly
rng = np.random.default_rng(42)
mats = [0.5 * (m + m.T) for m in rng.standard_normal((4, 6, 6))]


def evaluate(lam):
    x = lam * (len(mats) - 1)
    i = min(int(x), len(mats) - 2)
    t = x - i
    return (1 - t) * mats[i] + t * mats[i + 1]


random_path = SymmetricMatrixPath(evaluate)
flow, _ = spectral_flow(random_path)
wind = chern_winding(random_path)
print(f"\nrandom 6x6 path: spectral flow {flow}, determinant winding {wind}")
