"""Symplectic and Lagrangian linear algebra in R^{2n}.

A symplectic space is R^{2n} together with a compatible complex structure J
(J^2 = -I, J^T = -J); the symplectic form is w(x, y) = <Jx, y>.  Subspaces are
represented by orthonormal column frames, projections are derived from frames,
and the real <-> complex dictionary runs through an orthonormal basis adapted
to J, so that complexification is an exact algebra map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TOL_STRUCTURE = 1e-10
TOL_FRAME = 1e-10
RANK_RTOL = 1e-8


class SymplecticError(ValueError):
    """Raised when an input violates a symplectic/Lagrangian contract."""


def _spectral_norm(m):
    return float(np.linalg.norm(m, 2))


def _rank(m):
    """Rank by singular values with a scale-invariant threshold."""
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_RTOL * s[0]))


@dataclass(frozen=True)
class SymplecticSpace:
    """R^{2n} with a compatible complex structure J.

    The constructor verifies J^2 = -I and J^T = -J to ``TOL_STRUCTURE`` and
    builds, once, an orthonormal basis (v_1..v_n, Jv_1..Jv_n).  In that basis
    J takes the standard block form [[0, -I], [I, 0]], which makes the
    complex identification z_k = x_k + i x_{n+k} exact.
    """

    J: np.ndarray
    # orthogonal change of basis: C^T J C = J_standard
    adapted_basis: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        J = np.asarray(self.J, dtype=float)
        if J.ndim != 2 or J.shape[0] != J.shape[1] or J.shape[0] % 2 != 0 or J.shape[0] == 0:
            raise SymplecticError(f"J must be a nonempty even-dimensional square matrix, got shape {J.shape}")
        dim = J.shape[0]
        eye = np.eye(dim)
        if _spectral_norm(J @ J + eye) > TOL_STRUCTURE:
            raise SymplecticError("J^2 + I exceeds tolerance; J is not a complex structure")
        if _spectral_norm(J.T + J) > TOL_STRUCTURE:
            raise SymplecticError("J is not antisymmetric within tolerance")
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "adapted_basis", _adapted_basis(J))

    @property
    def dim(self) -> int:
        return self.J.shape[0]

    @property
    def n(self) -> int:
        return self.J.shape[0] // 2

    def product(self, other: "SymplecticSpace") -> "SymplecticSpace":
        """Product space carrying the form w x (-w'), i.e. J~ = diag(J, -J')."""
        d1, d2 = self.dim, other.dim
        Jt = np.zeros((d1 + d2, d1 + d2))
        Jt[:d1, :d1] = self.J
        Jt[d1:, d1:] = -other.J
        return SymplecticSpace(Jt)


def _adapted_basis(J):
    """Orthonormal basis (v_1..v_n, Jv_1..Jv_n) for which J becomes standard."""
    dim = J.shape[0]
    n = dim // 2
    vs = np.zeros((dim, n))
    chosen = np.zeros((dim, 0))
    for k in range(n):
        # any unit vector orthogonal to span{v_i, Jv_i : i < k} works
        resid = np.eye(dim) - chosen @ chosen.T
        # pick the residual column with the largest norm for stability
        norms = np.linalg.norm(resid, axis=0)
        v = resid[:, int(np.argmax(norms))]
        v = v / np.linalg.norm(v)
        vs[:, k] = v
        chosen = np.column_stack([chosen, v, J @ v])
        # re-orthonormalize accumulated block to fight drift
        chosen, _ = np.linalg.qr(chosen)
    return np.column_stack([vs, J @ vs])


def standard_space(n: int) -> SymplecticSpace:
    """Standard model: J with blocks [[0, -I], [I, 0]] on R^{2n}."""
    if n < 1:
        raise SymplecticError("n must be a positive integer")
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return SymplecticSpace(J)


@dataclass(frozen=True)
class LagrangianFrame:
    """Orthonormal 2n x n frame spanning a J-Lagrangian subspace."""

    columns: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "columns", np.asarray(self.columns, dtype=float))

    @property
    def dim_ambient(self) -> int:
        return self.columns.shape[0]

    @property
    def dim(self) -> int:
        return self.columns.shape[1]

    def projection(self) -> np.ndarray:
        return self.columns @ self.columns.T


def check_frame_columns(F, space: SymplecticSpace, tol: float = TOL_FRAME) -> None:
    """Raise SymplecticError unless the (d, k) frame F, or every frame of an
    (L, d, k) stack, is orthonormal and isotropic within tol."""
    # Frobenius norms bound the spectral norms from above, without an SVD;
    # a NaN fails the comparisons, so it fails the checks
    Ft = F.swapaxes(-1, -2)
    if not np.all(np.linalg.norm(Ft @ F - np.eye(F.shape[-1]), axis=(-2, -1)) <= tol):
        raise SymplecticError("frame columns are not orthonormal within tolerance")
    if not np.all(np.linalg.norm(Ft @ space.J @ F, axis=(-2, -1)) <= tol):
        raise SymplecticError("frame is not isotropic within tolerance")


def lagrangian_from_matrix(raw, space: SymplecticSpace) -> LagrangianFrame:
    """Orthonormalize the columns of ``raw`` and certify the span is Lagrangian.

    Rejects rank-deficient input and spans on which the symplectic form
    exceeds ``TOL_FRAME``.
    """
    raw = np.atleast_2d(np.asarray(raw, dtype=float))
    if raw.shape[0] == 1 and space.dim > 1:
        raw = raw.T
    n = space.n
    if raw.shape[0] != space.dim:
        raise SymplecticError(f"expected {space.dim} rows, got {raw.shape[0]}")
    if _rank(raw) != n:
        raise SymplecticError(f"input matrix must have rank exactly n = {n}")
    u, s, _ = np.linalg.svd(raw, full_matrices=False)
    F = u[:, :n]
    resid = _spectral_norm(F.T @ space.J @ F)
    if resid > TOL_FRAME:
        raise SymplecticError(f"span is not Lagrangian: |F^T J F| = {resid:.3e} > {TOL_FRAME:.1e}")
    return LagrangianFrame(F)


def _signed_norm(diff):
    """Spectral norm of a difference, bitwise symmetric in the operand order."""
    flat = diff.ravel()
    nz = np.flatnonzero(flat)
    if nz.size and flat[nz[0]] < 0:
        diff = -diff
    return _spectral_norm(diff)


def gap_distance(U: LagrangianFrame, V: LagrangianFrame) -> float:
    """Gap metric between subspaces: the spectral norm of P_U - P_V."""
    if U.dim_ambient != V.dim_ambient:
        raise SymplecticError("frames live in different ambient dimensions")
    return _signed_norm(U.projection() - V.projection())


def _reflection(F, space: SymplecticSpace) -> np.ndarray:
    """Z Z^T, where z -> Z Z^T conj(z) is the reflection 2 P_F - I on C^n, for
    (..., 2n, n) frame columns F.

    Z = X + iY holds the frame's columns in the adapted basis.
    """
    G = space.adapted_basis.T @ F
    Z = G[..., :space.n, :] + 1j * G[..., space.n:, :]
    return Z @ Z.swapaxes(-1, -2)


def souriau_map(W, L, space: SymplecticSpace) -> np.ndarray:
    """Unitary -(I - 2 P_L)(I - 2 P_W) on C^n for Lagrangian L, W.

    Both reflections are antilinear, z -> Z Z^T conj(z), so the product is
    -(Z_L Z_L^T) conj(Z_W Z_W^T).  dim(L /\\ W) equals the multiplicity of -1
    in the spectrum of the result.  Broadcasts over stacks of frames as
    ``propagate_subspace`` does over lam: W and L are frames or (..., 2n, n)
    stacks of frame columns, which broadcast against each other, and two
    frames give one (n, n) unitary.
    """
    W, L = (F.columns if isinstance(F, LagrangianFrame) else np.asarray(F, dtype=float)
            for F in (W, L))
    U = -_reflection(L, space) @ _reflection(W, space).conj()
    # the Frobenius norm bounds the spectral norm from above
    resid = np.linalg.norm(U @ U.conj().swapaxes(-1, -2) - np.eye(space.n), axis=(-2, -1))
    if not np.all(resid <= 1e-8):  # NaN-safe
        raise SymplecticError(f"Souriau image is not unitary: residual {np.max(resid):.3e}; "
                              f"inputs likely not Lagrangian")
    return U


def intersection_dimension_rank(W: LagrangianFrame, L: LagrangianFrame) -> int:
    """Independent oracle: dim(L /\\ W) = 2n - rank[F_L | F_W]."""
    stacked = np.column_stack([L.columns, W.columns])
    return stacked.shape[0] - _rank(stacked)


def intersection_basis(W: LagrangianFrame, L: LagrangianFrame) -> np.ndarray:
    """Orthonormal basis of L /\\ W (possibly zero columns)."""
    stacked = np.column_stack([L.columns, -W.columns])
    _, s, vh = np.linalg.svd(stacked, full_matrices=True)
    ncols = stacked.shape[1]
    thresh = RANK_RTOL * (s[0] if s.size and s[0] > 0 else 1.0)
    idx = np.concatenate([np.flatnonzero(s <= thresh), np.arange(s.size, ncols)])
    if idx.size == 0:
        return np.zeros((L.dim_ambient, 0))
    # null vectors (a; b) satisfy L a = W b, which lies in the intersection
    null_vecs = vh[idx].T
    vecs = L.columns @ null_vecs[: L.dim, :]
    q, _ = np.linalg.qr(vecs)
    return q[:, : idx.size]
