"""Asymptotically hyperbolic linear Hamiltonian systems on the real line.

Systems Ju' + S_lam(t)u = 0 with S_lam(t) = B_lam + K_lam(t), where the
perturbation K has limits at t = +-infinity and the asymptotic coefficient
matrices J B_lam and J S_lam(+-infinity) are hyperbolic.  The module builds
fundamental solutions, stable/unstable subspaces, and P1 Galerkin
discretizations of the boundary-value operators whose spectral flow is
compared against the Maslov index of the stable/unstable pair path.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from .symplectic import (
    LagrangianFrame,
    SymplecticSpace,
    SymplecticError,
    gap_distance,
    intersection_dimension_rank,
    standard_space,
)
from .maslov import (
    LagrangianPath,
    find_crossings,
    maslov_index_pair,
    pair_to_product_path,
    partial_maslov_index,
)
from .spectral import (
    FlowCertificate,
    SymmetricMatrixPath,
    chern_winding,
    flow_from_spectra,
)

STEPS_PER_UNIT = 64
TOL_SYMPLECTIC = 1e-8


class TruncationError(RuntimeError):
    """A finite-time truncation certificate exceeded its threshold."""


class AssumptionError(ValueError):
    """A family violates (A1)-(A3) where an operation requires them."""


# ---------------------------------------------------------------------------
# families and pointwise operations


@dataclass
class HamiltonianFamily:
    """Family (lam, t) -> S_lam(t) = B_lam + K_lam(t) on R^{2n}.

    ``B`` maps lam to the constant symmetric part, ``K`` maps (lam, t) to the
    symmetric perturbation and ``K_limits`` maps lam to the pair of limits
    (K(lam, -inf), K(lam, +inf)).  ``decay_scale`` certifies the envelope
    |K(lam, t) - K(lam, +-inf)| <= C exp(-|t| / decay_scale).  Per-lambda
    results are memoized on the instance, so its fields must not change after
    use; ``shifted`` returns a new family with an empty memo.
    """

    n: int
    B: Callable[[float], np.ndarray]
    K: Callable[[float, float], np.ndarray]
    K_limits: Callable[[float], tuple]
    decay_scale: float = 1.0
    name: str = "custom"
    satisfies: tuple = ("A1", "A2")

    def __post_init__(self):
        self._space = standard_space(self.n)
        self._memo = {}  # per-lambda frames and spectra, shared by every report

    def _cached(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    @property
    def dim(self) -> int:
        return 2 * self.n

    @property
    def space(self) -> SymplecticSpace:
        return self._space

    def S(self, lam: float, t: float) -> np.ndarray:
        return np.asarray(self.B(lam)) + np.asarray(self.K(lam, t))

    def S_limit(self, lam: float, sign: int) -> np.ndarray:
        km, kp = self.K_limits(lam)
        return np.asarray(self.B(lam)) + np.asarray(kp if sign > 0 else km)

    def validate(self, lam_samples=(0.0, 0.25, 0.5, 0.75, 1.0), t_samples=(-3.0, 0.0, 3.0),
                 sym_tol: float = 1e-9, hyp_tol: float = 1e-8) -> dict:
        """Check symmetry and the hyperbolicity assumptions on sample points."""
        J = self.space.J
        margin = np.inf
        for lam in lam_samples:
            for t in t_samples:
                S = self.S(lam, t)
                if np.linalg.norm(S - S.T, 2) > sym_tol * max(1.0, np.linalg.norm(S, 2)):
                    raise AssumptionError(f"S is not symmetric at (lam={lam}, t={t})")
            for M in (J @ np.asarray(self.B(lam)),
                      J @ self.S_limit(lam, -1), J @ self.S_limit(lam, +1)):
                m = hyperbolicity_margin(M)
                margin = min(margin, m)
                if m <= hyp_tol:
                    raise AssumptionError(
                        f"asymptotic coefficient matrix at lam={lam} is not hyperbolic "
                        f"(margin {m:.3e})")
        # decay envelope spot check at 10 decay scales
        t_far = 10.0 * self.decay_scale
        for lam in lam_samples:
            km, kp = self.K_limits(lam)
            tail = max(np.linalg.norm(self.K(lam, -t_far) - np.asarray(km), 2),
                       np.linalg.norm(self.K(lam, t_far) - np.asarray(kp), 2))
            if tail > 1e-2:
                raise AssumptionError(
                    f"perturbation has not settled at |t| = 10 decay scales (lam={lam}, "
                    f"residual {tail:.3e}); decay_scale looks wrong")
        return {"hyperbolicity_margin": float(margin)}

    def lambda_lipschitz(self, lam_samples=None, t_samples=None, safety: float = 1.5) -> float:
        """Bound on sup_t ||d S / d lam||, certifying pencil eigenvalue speed."""
        lams = lam_samples if lam_samples is not None else np.linspace(0.0, 1.0, 9)
        ts = t_samples if t_samples is not None else np.linspace(-3.0, 3.0, 7)
        h = 1e-4
        worst = 0.0
        for lam in lams:
            lo, hi = max(0.0, lam - h), min(1.0, lam + h)
            for t in ts:
                rate = np.linalg.norm(self.S(hi, t) - self.S(lo, t), 2) / (hi - lo)
                worst = max(worst, rate)
        return safety * worst + 1e-9

    def shifted(self, delta: float) -> "HamiltonianFamily":
        """Family with S replaced by S + delta I (B absorbs the shift)."""
        eye = np.eye(self.dim)
        B, K, KL = self.B, self.K, self.K_limits
        return HamiltonianFamily(
            n=self.n,
            B=lambda lam: np.asarray(B(lam)) + delta * eye,
            K=K,
            K_limits=KL,
            decay_scale=self.decay_scale,
            name=f"{self.name}+{delta:g}I",
            satisfies=self.satisfies,
        )


def hyperbolicity_margin(M) -> float:
    """Distance of the spectrum of M from the imaginary axis."""
    return float(np.min(np.abs(np.linalg.eigvals(np.asarray(M, dtype=float)).real)))


def is_hyperbolic(M, tol: float = 1e-8) -> bool:
    """True when no eigenvalue of M has |Re| <= tol."""
    return hyperbolicity_margin(M) > tol


def stable_unstable_splitting(M, space: Optional[SymplecticSpace] = None, tol: float = 1e-9):
    """Orthonormal frames for the stable (Re < 0) and unstable (Re > 0) subspaces.

    Uses an ordered real Schur decomposition.  When ``space`` is given, the
    frames are certified Lagrangian (true whenever M = JS with S symmetric)
    and returned as LagrangianFrame objects.
    """
    M = np.asarray(M, dtype=float)
    if not is_hyperbolic(M):
        raise ValueError("matrix has spectrum on the imaginary axis; no hyperbolic splitting")
    _, Zm, k_minus = scipy.linalg.schur(M, output="real", sort="lhp")
    _, Zp, k_plus = scipy.linalg.schur(M, output="real", sort="rhp")
    if k_minus + k_plus != M.shape[0]:
        raise ValueError("Schur ordering failed to split the spectrum")
    Vm, Vp = Zm[:, :k_minus], Zp[:, :k_plus]
    scale = max(1.0, np.linalg.norm(M, 2))
    for V in (Vm, Vp):
        P = V @ V.T
        resid = np.linalg.norm((np.eye(M.shape[0]) - P) @ M @ P, 2)
        if resid > 100 * tol * scale:
            raise ValueError(f"invariant-subspace residual {resid:.3e} too large")
    if space is None:
        return Vm, Vp
    fm, fp = LagrangianFrame(Vm), LagrangianFrame(Vp)
    fm.check(space, tol=1e-8)
    fp.check(space, tol=1e-8)
    return fm, fp


def relative_dimension(V, W) -> int:
    """dim(W /\\ V_perp) - dim(W_perp /\\ V) for orthonormal frames V, W."""
    V = V.columns if isinstance(V, LagrangianFrame) else np.asarray(V)
    W = W.columns if isinstance(W, LagrangianFrame) else np.asarray(W)
    s = np.linalg.svd(V.T @ W, compute_uv=False) if min(V.shape[1], W.shape[1]) else np.array([])
    r = int(np.count_nonzero(s > 1e-8 * (s[0] if s.size and s[0] > 0 else 1.0)))
    return (W.shape[1] - r) - (V.shape[1] - r)


# ---------------------------------------------------------------------------
# flows


@dataclass
class FundamentalSolution:
    """Sampled fundamental solution Psi of J Psi' + S Psi = 0, Psi(0) = I."""

    lam: float
    ts: np.ndarray
    Psi: np.ndarray
    symplectic_residual: float
    space: SymplecticSpace = field(repr=False, default=None)

    def at(self, t: float) -> np.ndarray:
        idx = int(np.argmin(np.abs(self.ts - t)))
        if abs(self.ts[idx] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"t={t} is not on the stored grid")
        return self.Psi[idx]

    def inverse_at(self, t: float) -> np.ndarray:
        J = self.space.J
        return -J @ self.at(t).T @ J


def _rk4_matrix(f, Y, t, h):
    k1 = f(t, Y)
    k2 = f(t + 0.5 * h, Y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, Y + 0.5 * h * k2)
    k4 = f(t + h, Y + h * k3)
    return Y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def fundamental_solution(family: HamiltonianFamily, lam: float, t0: float,
                         steps: int = 256, tol_symp: float = TOL_SYMPLECTIC) -> FundamentalSolution:
    """Integrate Psi' = J S_lam(t) Psi on [-t0, t0] with classical RK4.

    The symplectic residual max ||Psi^T J Psi - J|| is monitored; the step is
    halved (up to three times) if it exceeds ``tol_symp``.
    """
    J = family.space.J
    d = family.dim

    def rhs(t, Y):
        return J @ family.S(lam, t) @ Y

    attempt = steps
    resid = np.inf
    for _ in range(4):
        ts = np.linspace(-t0, t0, 2 * attempt + 1)
        h = ts[1] - ts[0]
        Psi = np.empty((len(ts), d, d))
        Psi[attempt] = np.eye(d)
        for i in range(attempt, 2 * attempt):
            Psi[i + 1] = _rk4_matrix(rhs, Psi[i], ts[i], h)
        for i in range(attempt, 0, -1):
            Psi[i - 1] = _rk4_matrix(rhs, Psi[i], ts[i], -h)
        resid = max(float(np.linalg.norm(P.T @ J @ P - J, 2)) for P in Psi)
        if resid <= tol_symp:
            return FundamentalSolution(lam=lam, ts=ts, Psi=Psi,
                                       symplectic_residual=resid, space=family.space)
        attempt *= 2
    raise RuntimeError(f"symplectic residual {resid:.3e} persists after step halving")


def propagate_subspaces(frames, family: HamiltonianFamily, lams, t_from: float, t_to: float,
                        steps_per_unit: int = STEPS_PER_UNIT) -> np.ndarray:
    """Push stacked frames (L, d, k), one per lam, through Ju' + S_lam u = 0.

    All frames share the RK4 time points from t_from to t_to and are
    re-orthonormalized by one batched QR every step; the subspace, not the
    individual solutions, is the invariant object.  Per step only the stage
    generators J S_lam(t) of that step are held, so memory is O(L d^2).
    Returns the transported frames stacked as (L, d, k).
    """
    F = np.asarray(frames, dtype=float)
    span = abs(t_to - t_from)
    if span == 0.0:
        return np.linalg.qr(F)[0]
    J = family.space.J
    stages = {}

    def rhs(t, Y):
        # the step's stage times repeat (t + h/2 twice, and t + h is the next
        # step's t), so each is tabulated once for all lam
        if t not in stages:
            if len(stages) == 3:
                del stages[next(iter(stages))]
            stages[t] = J @ np.stack([family.S(lam, t) for lam in lams])
        return stages[t] @ Y

    nsteps = max(16, int(np.ceil(span * steps_per_unit)))
    h = (t_to - t_from) / nsteps
    t = t_from
    for _ in range(nsteps):
        F = _rk4_matrix(rhs, F, t, h)
        F, r = np.linalg.qr(F)
        # keep column orientation stable
        F = F * np.sign(np.sign(np.diagonal(r, axis1=-2, axis2=-1)) + 0.5)[:, None, :]
        t += h
    return F


def propagate_subspace(frame, family: HamiltonianFamily, lam: float,
                       t_from: float, t_to: float,
                       steps_per_unit: int = STEPS_PER_UNIT) -> LagrangianFrame:
    """Push one frame through the flow of Ju' + S u = 0 from t_from to t_to."""
    F = frame.columns if isinstance(frame, LagrangianFrame) else np.asarray(frame, dtype=float)
    return LagrangianFrame(propagate_subspaces(F[None], family, [lam], t_from, t_to,
                                               steps_per_unit)[0])


def _asymptotic_frame(family, lam, sign):
    """Boundary frame at the end t -> sign * inf: the unstable splitting of
    J S_lam(-inf) for sign -1, the stable splitting of J S_lam(+inf) for +1."""
    def splitting():
        Vm, Vp = stable_unstable_splitting(family.space.J @ family.S_limit(lam, sign))
        return LagrangianFrame(Vp if sign < 0 else Vm)
    return family._cached(("frame", lam, sign), splitting)


def _decaying_space(family, lam, t0, T, sign, steps_per_unit, certify, cert_factor, cert_tol):
    """Solutions decaying as t -> sign * inf, at t0: the asymptotic frame
    transported from sign * T (and, to certify, from sign * cert_factor * T).
    Memoized on the family, as are the batches of the pair path."""
    def transported(T):
        key = ("decay", lam, sign, t0, T, steps_per_unit)
        return family._cached(key, lambda: propagate_subspace(
            _asymptotic_frame(family, lam, sign), family, lam, sign * T, t0, steps_per_unit))
    F = transported(T)
    if not certify:
        return F
    F2 = transported(cert_factor * T)
    gap = gap_distance(F, F2)
    if gap > cert_tol:
        name = "unstable" if sign < 0 else "stable"
        raise TruncationError(f"{name} space not converged: gap {gap:.3e} between "
                              f"T={T} and T={cert_factor * T}")
    return F, gap


def unstable_space(family: HamiltonianFamily, lam: float, t0: float, T: float,
                   steps_per_unit: int = STEPS_PER_UNIT, certify: bool = False,
                   cert_factor: float = 1.5, cert_tol: float = 1e-6):
    """E^u_lam(t0): initial values at t0 of solutions decaying as t -> -inf.

    Computed by transporting the unstable splitting of J S_lam(-inf) from -T
    to t0.  With ``certify=True`` the result is recomputed from -cert_factor*T
    and the pair (frame, gap) is returned; a gap above ``cert_tol`` raises.
    """
    return _decaying_space(family, lam, t0, T, -1, steps_per_unit, certify, cert_factor, cert_tol)


def stable_space(family: HamiltonianFamily, lam: float, t0: float, T: float,
                 steps_per_unit: int = STEPS_PER_UNIT, certify: bool = False,
                 cert_factor: float = 1.5, cert_tol: float = 1e-6):
    """E^s_lam(t0): initial values at t0 of solutions decaying as t -> +inf."""
    return _decaying_space(family, lam, t0, T, +1, steps_per_unit, certify, cert_factor, cert_tol)


def stable_unstable_pair_path(family: HamiltonianFamily, lam_grid, t0: float, T: float,
                              steps_per_unit: int = STEPS_PER_UNIT):
    """Lagrangian paths lam -> E^u_lam(t0) and lam -> E^s_lam(t0).

    Nodes missing from the family's memo are transported in one batch per
    path; the evaluators used for refinement transport a single lam.
    """
    lams = [float(l) for l in (np.linspace(0.0, 1.0, lam_grid) if np.isscalar(lam_grid)
                               else np.asarray(lam_grid, dtype=float))]
    paths = []
    for sign, space_at in ((-1, unstable_space), (+1, stable_space)):
        key = lambda lam: ("decay", lam, sign, t0, T, steps_per_unit)  # as in _decaying_space
        missing = [lam for lam in lams if key(lam) not in family._memo]
        if missing:
            starts = np.stack([_asymptotic_frame(family, lam, sign).columns for lam in missing])
            frames = propagate_subspaces(starts, family, missing, sign * T, t0, steps_per_unit)
            family._memo.update((key(lam), LagrangianFrame(F)) for lam, F in zip(missing, frames))
        samples = [(lam, family._memo[key(lam)]) for lam in lams]
        evaluator = lambda lam, space_at=space_at: space_at(family, lam, t0, T, steps_per_unit)
        paths.append(LagrangianPath(family.space, samples, evaluator))
    return tuple(paths)


def kernel_crossings(family: HamiltonianFamily, lam_grid=None, t0: float = 0.0,
                     T: Optional[float] = None, steps_per_unit: int = STEPS_PER_UNIT,
                     coarse: int = 64, tol_lambda: float = 1e-10) -> list:
    """Parameter values where E^u_lam(t0) and E^s_lam(t0) intersect.

    The scan runs on the product path against the diagonal, so it is exactly
    the crossing set of the Maslov pipeline and serves as an independent
    oracle for the spectral-flow side.  The scan nodes are transported in one
    batch, so only the refinement transports single lam.
    """
    T = T if T is not None else 10.0 * family.decay_scale
    grid = np.asarray(lam_grid if lam_grid is not None else np.linspace(0.0, 1.0, coarse + 1),
                      dtype=float)
    coarse = max(coarse, len(grid) - 1)
    nodes = np.linspace(grid[0], grid[-1], coarse + 1)
    path_u, path_s = stable_unstable_pair_path(family, nodes, t0, T, steps_per_unit)
    product, diag = pair_to_product_path(path_u, path_s)
    return find_crossings(product, diag, coarse=coarse, tol_lambda=tol_lambda)


# ---------------------------------------------------------------------------
# discretized boundary-value operators


@dataclass
class BoundaryValueOperator:
    """P1 Galerkin pencil (stiffness, mass) of Ju' (+ S u) with frame boundary conditions.

    Central-type discretizations of first-order operators carry a spurious
    parity branch (lattice doubling): sawtooth-modulated modes whose pencil
    eigenvalues reach zero exactly where the genuine kernel does, with
    opposite flow.  Ghost and genuine modes are separated by the roughness
    quotient v^T L v / v^T M v (L the second-difference form): genuine
    eigenfunctions score O(1), ghosts score ~12/h^2.  Windowed spectra are
    therefore filtered at 6/h^2 by default.
    """

    stiffness: np.ndarray
    mass: np.ndarray
    frames: tuple
    interval: tuple
    mesh: int
    space: SymplecticSpace = field(repr=False, default=None)
    roughness_form: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        K = self.stiffness
        resid = np.linalg.norm(K - K.T, 2)
        if resid > 1e-12 * max(1.0, np.linalg.norm(K, 2)):
            raise ValueError(f"stiffness symmetry residual {resid:.3e} too large")
        try:
            scipy.linalg.cholesky(self.mass, lower=True)
        except scipy.linalg.LinAlgError as exc:
            raise ValueError("mass matrix is not positive definite") from exc

    @property
    def size(self) -> int:
        return self.stiffness.shape[0]

    @property
    def step(self) -> float:
        a, b = self.interval
        return (b - a) / self.mesh

    @property
    def rough_cut(self) -> float:
        # genuine eigenfunctions score ~kappa^2 = O(1), parity ghosts score
        # 12/h^2 (consistent mass) or 4/h^2 (lumped); 2/h^2 separates both
        return 2.0 / self.step ** 2

    def eigenvalues(self, window: Optional[float] = None, drop_rough: bool = True) -> np.ndarray:
        """Generalized symmetric eigenvalues, optionally windowed to |mu| <= window.

        With ``drop_rough`` (and a window), parity-ghost modes are removed by
        the roughness filter; values falling ambiguously near the cut raise a
        warning.
        """
        if window is None:
            return scipy.linalg.eigh(self.stiffness, self.mass, eigvals_only=True)
        if not drop_rough or self.roughness_form is None:
            return scipy.linalg.eigh(self.stiffness, self.mass, eigvals_only=True,
                                     subset_by_value=(-window, window))
        vals, vecs = scipy.linalg.eigh(self.stiffness, self.mass,
                                       subset_by_value=(-window, window))
        if vals.size == 0:
            return vals
        # eigh normalizes v^T M v = 1, so the quotient is just v^T L v
        rough = np.einsum("ji,jk,ki->i", vecs, self.roughness_form, vecs)
        cut = self.rough_cut
        ambiguous = (rough > 0.5 * cut) & (rough < 1.5 * cut)
        if ambiguous.any():
            warnings.warn("eigenvector roughness near the ghost-filter cut; "
                          "refine the mesh to separate the sectors", RuntimeWarning)
        return vals[rough < cut]

    def smallest_magnitude(self, window: Optional[float] = None) -> float:
        vals = self.eigenvalues(window=window)
        return float(np.min(np.abs(vals))) if vals.size else float(window)


def _tridiagonal_blocks(d, N, diag_block, off_block):
    """Assembled matrix with per-element contributions (diag, off, off^T, diag)."""
    size = (N + 1) * d
    M = np.zeros((size, size))
    Mb = M.reshape(N + 1, d, N + 1, d)
    idx = np.arange(N)
    Mb[idx, :, idx, :] += diag_block
    Mb[idx + 1, :, idx + 1, :] += diag_block
    Mb[idx, :, idx + 1, :] += off_block
    Mb[idx + 1, :, idx, :] += off_block.T
    return M


def _skew_stiffness(space, N):
    d = space.dim
    return _tridiagonal_blocks(d, N, np.zeros((d, d)), 0.5 * space.J)


def _mass_matrix(d, a, b, N):
    h = (b - a) / N
    return _tridiagonal_blocks(d, N, (h / 3.0) * np.eye(d), (h / 6.0) * np.eye(d))


def _second_difference_stiffness(d, a, b, N):
    """P1 stiffness of -u'' (int u'v'), used as parity-mode stabilization."""
    h = (b - a) / N
    return _tridiagonal_blocks(d, N, np.eye(d) / h, -np.eye(d) / h)


def _potential_matrix(space, a, b, N, S_fn):
    """Assemble int <S(t) u, v> with two-point Gauss quadrature per element."""
    d = space.dim
    h = (b - a) / N
    size = (N + 1) * d
    V = np.zeros((size, size))
    Vb = V.reshape(N + 1, d, N + 1, d)
    offs = 0.5 * h / np.sqrt(3.0)
    w = 0.5 * h
    for e in range(N):
        tl = a + e * h
        mid = tl + 0.5 * h
        for tg in (mid - offs, mid + offs):
            phi1 = (tg - tl) / h
            phi0 = 1.0 - phi1
            S = np.asarray(S_fn(tg))
            S = 0.5 * (S + S.T)
            Vb[e, :, e, :] += w * phi0 * phi0 * S
            Vb[e, :, e + 1, :] += w * phi0 * phi1 * S
            Vb[e + 1, :, e, :] += w * phi1 * phi0 * S
            Vb[e + 1, :, e + 1, :] += w * phi1 * phi1 * S
    return V


def _reduce_by_frames(M, d, N, F0, F1):
    """C^T M C for the boundary-frame constraint injection, using its structure."""
    k0, k1 = F0.shape[1], F1.shape[1]
    rows = np.vstack([F0.T @ M[:d, :], M[d:N * d, :], F1.T @ M[N * d:, :]])
    out = np.empty((rows.shape[0], k0 + (N - 1) * d + k1))
    out[:, :k0] = rows[:, :d] @ F0
    out[:, k0:k0 + (N - 1) * d] = rows[:, d:N * d]
    out[:, k0 + (N - 1) * d:] = rows[:, N * d:] @ F1
    return out


DEFAULT_STABILIZATION = 0.05


def _assemble(space, L0, L1, a, b, N, S_fn=None, stabilization=None, scheme="galerkin"):
    """Reduced pencil of the symmetrized weak form with frame boundary conditions.

    A small consistent second-difference term (O(h^2) on smooth modes) keeps
    the parity-ghost sector spectrally separated from genuine near-kernel
    modes so the roughness filter never sees hybridized eigenvectors;
    ``stabilization=0`` disables it, which exhibits the doubled kernel.
    """
    if N < 4:
        raise ValueError("mesh must have at least 4 intervals")
    if scheme not in ("galerkin", "central"):
        raise ValueError("scheme must be 'galerkin' or 'central'")
    L0.check(space)
    L1.check(space)
    h = (b - a) / N
    K = _skew_stiffness(space, N)
    if S_fn is not None:
        K = K + _potential_matrix(space, a, b, N, S_fn)
    rough = _second_difference_stiffness(space.dim, a, b, N)
    beta = DEFAULT_STABILIZATION if stabilization is None else stabilization
    if beta:
        K = K + beta * h * h * rough
    if scheme == "central":
        # trapezoid (lumped) mass turns the weak form into the classical
        # central-difference scheme; kept as a secondary oracle
        weights = np.full(N + 1, h)
        weights[0] = weights[-1] = 0.5 * h
        M = np.kron(np.diag(weights), np.eye(space.dim))
    else:
        M = _mass_matrix(space.dim, a, b, N)
    d = space.dim
    Kr = _reduce_by_frames(K, d, N, L0.columns, L1.columns)
    Mr = _reduce_by_frames(M, d, N, L0.columns, L1.columns)
    Rr = _reduce_by_frames(rough, d, N, L0.columns, L1.columns)
    Kr = 0.5 * (Kr + Kr.T)
    Mr = 0.5 * (Mr + Mr.T)
    return BoundaryValueOperator(stiffness=Kr, mass=Mr, frames=(L0, L1),
                                 interval=(a, b), mesh=N, space=space,
                                 roughness_form=0.5 * (Rr + Rr.T))


def assemble_Q_operator(L0: LagrangianFrame, L1: LagrangianFrame, a: float, b: float,
                        N: int, space: SymplecticSpace, stabilization=None,
                        scheme: str = "galerkin") -> BoundaryValueOperator:
    """Discretize u -> Ju' on [a, b] with u(a) in span(L0), u(b) in span(L1).

    The symmetrized weak form equals int <Ju', v> on the constrained space
    because the Lagrangian boundary terms vanish, so the reduced stiffness is
    exactly symmetric and the pencil eigenvalues approximate the spectrum.
    """
    return _assemble(space, L0, L1, a, b, N, stabilization=stabilization, scheme=scheme)


def assemble_A0_operator(family: HamiltonianFamily, lam: float, T: float, N: int,
                         stabilization=None, scheme: str = "galerkin") -> BoundaryValueOperator:
    """Discretize u -> Ju' + S_lam(t) u on [-T, T] with asymptotic boundary frames.

    At -T the boundary space is the unstable splitting of J S_lam(-inf) and at
    +T the stable splitting of J S_lam(+inf); by that time the perturbation has
    settled, so the pencil kernel matches intersections of E^u and E^s.
    """
    L0 = _asymptotic_frame(family, lam, -1)
    L1 = _asymptotic_frame(family, lam, +1)
    return _assemble(family.space, L0, L1, -T, T, N, S_fn=lambda t: family.S(lam, t),
                     stabilization=stabilization, scheme=scheme)


def pencil_window(a: float, b: float, asym_gap: Optional[float] = None) -> float:
    """Counting window below the genuine eigenvalue spacing and the essential gap."""
    w = np.pi / (2.0 * (b - a))
    if asym_gap is not None:
        w = min(w, asym_gap)
    return 0.5 * w


# ---------------------------------------------------------------------------
# theorem reports


@dataclass
class IndexReport:
    """The independently computed integers and their agreement flags."""

    sfl: int
    maslov: int
    chern: Optional[int] = None
    sfl_certificate: Optional[FlowCertificate] = None
    crossings: list = field(default_factory=list)
    truncation: Optional[float] = None
    grid_sizes: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    @property
    def agreement(self) -> dict:
        flags = {"sfl_vs_maslov": self.sfl == self.maslov}
        if self.chern is not None:
            flags["chern_vs_sfl"] = self.chern == self.sfl
        return flags

    @property
    def agree(self) -> bool:
        return all(self.agreement.values())

    def summary(self) -> str:
        parts = [f"sfl={self.sfl}", f"maslov={self.maslov}"]
        if self.chern is not None:
            parts.append(f"chern={self.chern}")
        parts.append(f"agree={self.agree}")
        if self.crossings:
            parts.append("crossings=" + ",".join(f"{c.lam:.6f}(dim {c.intersection_dim})"
                                                 for c in self.crossings))
        return " ".join(parts)


def _pencil_flow(node_fn, lam_lo, lam_hi, window, initial_nodes,
                 value_lipschitz=None, report_window=None, **kwargs):
    """Certified flow of a pencil path.

    When a bound on the eigenvalue speed is available it serves as the drift
    estimate: the admissibility cap report_window - L*(step) then forces
    lambda refinement until no branch can traverse the reported band between
    two nodes unseen, which closes the only hole in sampled certification.
    """
    drift_fn = None
    budget = 0.5 * window
    if value_lipschitz is not None:
        drift_fn = lambda a, b: value_lipschitz * (b - a)
        budget = None  # the cap report_window - L*step already limits steps
    return flow_from_spectra(node_fn, lam_lo, lam_hi, initial_nodes=initial_nodes,
                             window=window, drift_budget=budget,
                             drift_fn=drift_fn, report_window=report_window, **kwargs)


def theorem_B_report(path0: LagrangianPath, path1: LagrangianPath, a: float, b: float,
                     N: int, initial_nodes=None) -> IndexReport:
    """Spectral flow of the boundary-condition pencil vs the pair Maslov index.

    The pair path must be admissible: transversal at both parameter endpoints.
    """
    space = path0.space
    if path1.space.dim != space.dim:
        raise SymplecticError("paths live in different spaces")
    for lam_end in (path0.lo, path0.hi):
        if intersection_dimension_rank(path0.frame(lam_end), path1.frame(lam_end)) != 0:
            raise SymplecticError("inadmissible endpoints: the boundary pair is not transversal")

    w = pencil_window(a, b)

    def node_fn(lam):
        op = assemble_Q_operator(path0.frame(lam), path1.frame(lam), a, b, N, space)
        return op.eigenvalues(window=1.5 * w)

    nodes = initial_nodes if initial_nodes is not None else [s[0] for s in path0.samples]
    flow, cert = _pencil_flow(node_fn, path0.lo, path0.hi, w, nodes, report_window=1.5 * w)
    mas = maslov_index_pair(path0, path1)
    return IndexReport(sfl=flow, maslov=mas, sfl_certificate=cert,
                       grid_sizes={"mesh": N, "lambda_nodes": len(cert.nodes)})


def _a0_node_fn(family, T, N, window_report):
    def node_fn(lam):
        return family._cached(("a0", lam, T, N, window_report), lambda: assemble_A0_operator(
            family, lam, T, N).eigenvalues(window=window_report))
    return node_fn


def _asymptotic_gap(family, lam_grid):
    J = family.space.J
    return min(min(hyperbolicity_margin(J @ family.S_limit(lam, sgn)) for sgn in (-1, +1))
               for lam in lam_grid)


def _a0_flow_setup(family, grid, T, N):
    """Node spectra of the A0 pencils and their certified flow over grid.

    Returns (node_fn, report_band, flow): node_fn reports the windowed pencil
    spectrum out to report_band, and flow(node_fn, **kwargs) counts such a
    node function (this family's or a shifted one's) with the counting window
    below the asymptotic gap and the family's lambda-Lipschitz drift bound.
    """
    gap_asym = _asymptotic_gap(family, (grid[0], grid[-1]))
    w_report = pencil_window(-T, T, asym_gap=gap_asym)
    report_band = max(1.5 * w_report, min(6.0 * w_report, 0.45 * gap_asym))
    lam_lip = family.lambda_lipschitz(lam_samples=np.linspace(grid[0], grid[-1], 9),
                                      t_samples=np.linspace(-T, T, 9))

    def flow(node_fn, **kwargs):
        return _pencil_flow(node_fn, float(grid[0]), float(grid[-1]), w_report, grid,
                            value_lipschitz=lam_lip, report_window=report_band, **kwargs)

    return _a0_node_fn(family, T, N, report_band), report_band, flow


def theorem_A_report(family: HamiltonianFamily, lam_grid=None, T: Optional[float] = None,
                     N: int = 160, t0: float = 0.0, steps_per_unit: int = STEPS_PER_UNIT,
                     third_opinion: bool = False, locate_crossings: bool = True,
                     endpoint_kernel_tol: float = 1e-6, delta: Optional[float] = None,
                     chern_samples: int = 256) -> IndexReport:
    """Spectral flow of the truncated homoclinic pencil path vs the Maslov
    index of the stable/unstable pair path at t = t0.

    When the endpoints carry kernels the report follows the shift recipe: it
    computes the raw integers (kernel eigenvalues counted at the nodes), the
    spectral flow of the delta-shifted family, and the one-sided partial
    Maslov indices of the shift segments at both endpoints.
    """
    T = T if T is not None else 10.0 * family.decay_scale
    grid = np.asarray(lam_grid if lam_grid is not None else np.linspace(0.0, 1.0, 17), dtype=float)
    family.validate(lam_samples=(grid[0], grid[len(grid) // 2], grid[-1]))

    node_fn, report_band, pencil_flow = _a0_flow_setup(family, grid, T, N)

    end_gaps = []
    for lam in (grid[0], grid[-1]):
        vals = node_fn(lam)
        end_gaps.append(float(np.min(np.abs(vals))) if len(vals) else np.inf)
    general_case = min(end_gaps) < endpoint_kernel_tol

    zero_snap = 1e-9 if not general_case else max(1e-9, 3.0 * min(end_gaps))
    flow, cert = pencil_flow(node_fn, check_endpoints=False, zero_snap=zero_snap)

    path_u, path_s = stable_unstable_pair_path(family, grid, t0, T, steps_per_unit)
    kernel_dims = None
    if general_case:
        kernel_dims = tuple(
            intersection_dimension_rank(path_u.frame(lam), path_s.frame(lam))
            for lam in (grid[0], grid[-1]))
    mas = maslov_index_pair(path_u, path_s, endpoint_kernel_dims=kernel_dims)

    crossings = []
    if locate_crossings:
        crossings = kernel_crossings(family, grid, t0, T, steps_per_unit)

    report = IndexReport(sfl=flow, maslov=mas, sfl_certificate=cert, crossings=crossings,
                         truncation=T, grid_sizes={"mesh": N, "lambda_nodes": len(grid)})

    if third_opinion:
        if general_case:
            warnings.warn("chern winding skipped: endpoints are not invertible", RuntimeWarning)
        else:
            lo, hi = float(grid[0]), float(grid[-1])
            dense = np.union1d(cert.nodes, np.linspace(lo, hi, 65))
            report.chern = chern_winding(
                _compressed_diagonal_path(node_fn, dense, pad=1.1 * report_band),
                half_height=1.2 * report_band + 1.0, samples=chern_samples)

    if general_case:
        report.extras["endpoint_gaps"] = tuple(end_gaps)
        d = delta if delta is not None else _auto_delta(node_fn, grid, endpoint_kernel_tol)
        shifted = family.shifted(d)
        s_node_fn = _a0_node_fn(shifted, T, N, report_band)
        sf_shift, _ = pencil_flow(s_node_fn)
        report.extras["delta"] = d
        report.extras["sfl_shifted"] = sf_shift
        report.extras["shift_corrections"] = tuple(
            _shift_partial_correction(family, lam, t0, T, d, steps_per_unit)
            for lam in (grid[0], grid[-1]))
    return report


def _compressed_diagonal_path(node_fn, lams, pad) -> SymmetricMatrixPath:
    """Continuous diagonal carrier of the near-zero pencil spectrum.

    At each node the windowed eigenvalues are packed into a fixed number of
    slots; missing slots are parked at -pad or +pad, the split chosen to
    minimize slot movement from the previous node, so window traffic consumes
    the pad on its entry side and the tracks stay continuous.  Between nodes
    the slots are interpolated linearly; the winding of the resulting path's
    determinant therefore sees exactly the zero crossings of the spectrum.
    """
    lams = np.asarray(sorted(set(float(x) for x in lams)))
    values = [np.sort(np.asarray(node_fn(lam), dtype=float)) for lam in lams]
    m = max(len(v) for v in values) + 2
    tracks = np.empty((len(lams), m))
    prev = None
    for row, v in enumerate(values):
        k = len(v)
        best = None
        for d_low in range(m - k + 1):
            cand = np.concatenate([np.full(d_low, -pad), v, np.full(m - k - d_low, pad)])
            cost = abs(d_low - 0.5 * (m - k)) if prev is None else float(np.abs(cand - prev).sum())
            if best is None or cost < best[0]:
                best = (cost, cand)
        prev = best[1]
        tracks[row] = prev

    def evaluate(lam):
        x = float(np.clip(lam, lams[0], lams[-1]))
        i = int(np.searchsorted(lams, x, side="right")) - 1
        i = min(max(i, 0), len(lams) - 2)
        t = (x - lams[i]) / (lams[i + 1] - lams[i])
        return np.diag((1.0 - t) * tracks[i] + t * tracks[i + 1])

    return SymmetricMatrixPath(evaluate)


def _auto_delta(node_fn, grid, kernel_tol):
    """Shift past the endpoint kernels but below the first genuine gap."""
    candidates = []
    for lam in (grid[0], grid[-1]):
        vals = np.abs(node_fn(lam))
        nonzero = vals[vals > kernel_tol]
        candidates.append(0.25 * nonzero.min() if len(nonzero) else 1e-3)
    return float(min(candidates))


def _shift_partial_correction(family, lam, t0, T, delta, steps_per_unit):
    """Right partial Maslov index of the shift segment s -> spaces of S + s*delta*I."""
    space = family.space

    def eu(s):
        return unstable_space(family.shifted(s * delta), lam, t0, T, steps_per_unit)

    def es(s):
        return stable_space(family.shifted(s * delta), lam, t0, T, steps_per_unit)

    su = LagrangianPath.from_callable(space, eu, grid=9, lo=-1.0, hi=1.0)
    ss = LagrangianPath.from_callable(space, es, grid=9, lo=-1.0, hi=1.0)
    product, diag = pair_to_product_path(su, ss)
    return partial_maslov_index(product, diag, 0.0, "right")


def corollary_A_report(family: HamiltonianFamily, lam_grid=None, T: Optional[float] = None,
                       N: int = 160, steps_per_unit: int = STEPS_PER_UNIT,
                       periodicity_tol: float = 1e-9) -> IndexReport:
    """Spectral flow vs the Maslov index of the asymptotic-splitting pair path.

    Requires the family to be lambda-periodic (the coefficients at lam = 0 and
    lam = 1 coincide).  The Maslov side needs no time integration: it pairs
    the unstable splitting of the t -> -inf autonomous system with the stable
    splitting of the t -> +inf one.  These are the spaces the finite-time
    unstable/stable subspaces converge to at the ends where their decay
    conditions live, uniformly in the parameter, so the finite-truncation
    homotopy argument carries the equality with the spectral flow over to
    them (the opposite end assignment reverses every crossing orientation;
    see the orientation tests).
    """
    for t in (-7.0, -1.0, 0.0, 1.0, 7.0):
        drift = np.linalg.norm(family.S(0.0, t) - family.S(1.0, t), 2)
        if drift > periodicity_tol:
            raise AssumptionError(
                f"family is not lambda-periodic: |S_0 - S_1| = {drift:.3e} at t={t}")

    T = T if T is not None else 10.0 * family.decay_scale
    grid = np.asarray(lam_grid if lam_grid is not None else np.linspace(0.0, 1.0, 17), dtype=float)
    space = family.space

    path_u, path_s = (LagrangianPath.from_callable(
        space, lambda lam, sign=sign: _asymptotic_frame(family, lam, sign), grid=grid)
        for sign in (-1, +1))
    mas = maslov_index_pair(path_u, path_s)

    node_fn, _, pencil_flow = _a0_flow_setup(family, grid, T, N)
    flow, cert = pencil_flow(node_fn)

    return IndexReport(sfl=flow, maslov=mas, sfl_certificate=cert, truncation=T,
                       grid_sizes={"mesh": N, "lambda_nodes": len(grid)})
