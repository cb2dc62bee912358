"""Shared generators and references for randomized tests.

Lagrangian subspaces of R^{2n} correspond to real spans of unitary frames
through the complex identification z = x + iy, so random Lagrangian paths
are built from Hermitian generator paths.
"""

import numpy as np

from hamflow import hamiltonian as ha
from hamflow.symplectic import LagrangianFrame, souriau_map, standard_space
from hamflow.maslov import LagrangianPath, _eigenphases


def random_hermitian(rng, n, scale=1.0):
    H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (H + H.conj().T) * scale


def unitary_from_hermitian(H):
    vals, vecs = np.linalg.eigh(H)
    return (vecs * np.exp(1j * vals)) @ vecs.conj().T


def frame_from_unitary(U):
    """Real 2n x n Lagrangian frame spanned by the columns of a unitary."""
    return LagrangianFrame(np.vstack([U.real, U.imag]))


def random_lagrangian_frame(rng, n):
    return frame_from_unitary(unitary_from_hermitian(random_hermitian(rng, n)))


def random_lagrangian_path(rng, n, speed=1.0, grid=17):
    """Smooth random path of Lagrangian subspaces of R^{2n}."""
    H0 = random_hermitian(rng, n)
    H1 = random_hermitian(rng, n, scale=speed)
    H2 = random_hermitian(rng, n, scale=0.5 * speed)

    def frame(lam):
        H = H0 + lam * H1 + np.sin(np.pi * lam) * H2
        return frame_from_unitary(unitary_from_hermitian(H))

    return LagrangianPath.from_callable(standard_space(n), frame, grid=grid)


def line_frame(space, degrees):
    a = np.radians(degrees)
    return LagrangianFrame(np.array([[np.cos(a)], [np.sin(a)]]))


def gamma_nor_path(grid=17):
    """The one-crossing normalization path in R^2 and its reference line."""
    space = standard_space(1)
    W = LagrangianFrame(np.array([[1.0], [0.0]]))

    def frame(lam):
        return LagrangianFrame(np.array([[-np.sin(np.pi * lam)], [np.cos(np.pi * lam)]]))

    return LagrangianPath.from_callable(space, frame, grid=grid), W, space


def phase_block_path(signs, fixed_phases, grid=17, speed=0.5 * np.pi):
    """Path of Lagrangians realifying diag(e^{i phi_j(lam)}).

    Phases with an entry in ``signs`` move through zero at lam = 1/2 with the
    given orientation; ``fixed_phases`` stay put, away from 0 and pi.  The
    reference is the real-axis Lagrangian R^n x 0.
    """
    k = len(signs)
    n = k + len(fixed_phases)
    space = standard_space(n)
    W = LagrangianFrame(np.vstack([np.eye(n), np.zeros((n, n))]))
    signs = np.asarray(signs, dtype=float)
    fixed = np.asarray(fixed_phases, dtype=float)

    def frame(lam):
        moving = signs * speed * (lam - 0.5)
        phases = np.concatenate([moving, fixed])
        U = np.diag(np.exp(1j * phases))
        return frame_from_unitary(U)

    return LagrangianPath.from_callable(space, frame, grid=grid), W, space


def souriau_intersection_count(W, L, space):
    """dim(L /\\ W) by the rule find_crossings gives a record: the Souriau
    eigenphases within 1e-6 of -1."""
    return int(np.count_nonzero(np.abs(_eigenphases(souriau_map(W, L, space))) <= 1e-6))


def relative_dimension(V, W):
    """Reference: dim(W /\\ V_perp) - dim(W_perp /\\ V) for orthonormal frames V, W."""
    s = np.linalg.svd(V.T @ W, compute_uv=False)
    r = int(np.count_nonzero(s > 1e-8 * (s[0] if s.size and s[0] > 0 else 1.0)))
    return (W.shape[1] - r) - (V.shape[1] - r)


def fundamental_solution(family, lam, t0, steps):
    """Psi with J Psi' + S_lam Psi = 0 and Psi(0) = I, composed from the
    transport's Magnus-Pade steps run out from t = 0 both ways: an array of
    2 steps + 1 matrices, Psi[steps + k] at t = k t0 / steps."""
    Psi = np.empty((2 * steps + 1, family.dim, family.dim))
    Psi[steps] = np.eye(family.dim)
    for sign in (1, -1):
        i = steps
        for chunk in ha._magnus_steps(family, [lam], 0.0, sign * t0, steps):
            for step in chunk[0]:
                Psi[i + sign] = step @ Psi[i]
                i += sign
    return Psi


def symplectic_residual(Psi, J):
    """max ||Psi^T J Psi - J||_2 over a stack of matrices."""
    return float(np.max(np.linalg.norm(Psi.swapaxes(-1, -2) @ J @ Psi - J, 2, axis=(-2, -1))))
