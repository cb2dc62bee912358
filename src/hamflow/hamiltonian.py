"""Asymptotically hyperbolic linear Hamiltonian systems on the real line.

Systems Ju' + S_lam(t)u = 0 with S_lam(t) = B_lam + K_lam(t), where the
perturbation K has limits at t = +-infinity and the asymptotic coefficient
matrices J B_lam and J S_lam(+-infinity) are hyperbolic.  The module builds
stable/unstable subspaces and P1 Galerkin discretizations of the
boundary-value operators whose spectral flow is compared against the Maslov
index of the stable/unstable pair path.
"""

from __future__ import annotations

import ctypes
import operator
import struct
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .symplectic import (
    LagrangianFrame,
    SymplecticSpace,
    SymplecticError,
    check_frame_columns,
    intersection_dimension_rank,
    souriau_map,
    standard_space,
)
from .maslov import (
    LagrangianPath,
    _eigenphases,
    find_crossings,
    maslov_index_pair,
    pair_to_product_path,
    winding_number,
)
from .spectral import (
    FlowCertificate,
    SymmetricMatrixPath,
    _batched,
    _phase_margin,
    chern_winding,
    flow_from_spectra,
)

STEPS_PER_UNIT = 64
STEP_CHUNK = 64      # transport steps per family call, so memory is O(L STEP_CHUNK d^2)
QR_EVERY = 8         # transport steps between re-orthonormalizations
_GAUSS = 0.5 + np.array([-1.0, 1.0]) * np.sqrt(3.0) / 6.0  # Gauss-Legendre nodes on [0, 1]
SIGN_TOL = 1e-10     # relative 1-norm change that ends the sign iteration
SIGN_MAX_STEPS = 100


class AssumptionError(ValueError):
    """A family violates (A1)-(A3) where an operation requires them."""


# ---------------------------------------------------------------------------
# families and pointwise operations


@dataclass
class HamiltonianFamily:
    """Family (lam, t) -> S_lam(t) = B_lam + K_lam(t) on R^{2n}.

    ``B`` maps lam to the constant symmetric part, ``K`` maps (lam, t) to the
    symmetric perturbation and ``K_limits`` maps lam to the pair of limits
    (K(lam, -inf), K(lam, +inf)).  ``B`` and ``K`` broadcast: given arrays of
    lam and t that broadcast against each other they return a stack whose
    leading shape broadcasts to ``np.broadcast_shapes(shape(lam), shape(t))``,
    followed by ``(d, d)``; scalars give one ``(d, d)`` matrix, and a
    lam-independent ``(d, d)`` return is legal because it broadcasts.  So
    ``S`` evaluates a whole (lam, t) grid in one call; ``check_contract``
    checks the contract once per family, before any such call.
    ``decay_scale``, finite and positive, certifies the envelope
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

    def __post_init__(self):
        if not (np.isfinite(self.decay_scale) and self.decay_scale > 0):
            raise AssumptionError(
                f"decay_scale must be finite and positive, got {self.decay_scale}")
        self._space = standard_space(self.n)
        self._memo = {}  # per-quantity {lam: value} dicts and bounds, shared by every report

    def _cached(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def _cached_batch(self, key, lams, compute):
        """The quantity ``key`` at each lam, memoized per lam; compute maps the
        tuple of the lam missing from the memo to their values, in one call."""
        return _batched(self._memo.setdefault(key, {}), lams, compute)

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

    def check_contract(self) -> None:
        """Check the broadcasting contract, once per family.

        ``S`` is evaluated on a (lam, t) sample grid as one broadcast call and
        compared with the stacked scalar calls, to 1e-12 max(1, ||S||_F).  If the
        call raises or differs, ``AssumptionError`` names the contract.  Every
        operation that hands ``S`` an array of lam or t calls this first.
        """
        def check():
            lams = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
            ts = np.array([-3.0, 0.0, 3.0])
            scalar = np.array([[self.S(lam, t) for t in ts] for lam in lams])
            contract = ("B and K must broadcast over arrays of lam and t (the HamiltonianFamily "
                        "contract); on the sample grid the broadcast call")
            try:
                S = np.broadcast_to(self.S(lams[:, None], ts[None, :]), scalar.shape)
            except (TypeError, ValueError, IndexError) as exc:
                raise AssumptionError(f"{contract} failed: {exc}") from exc
            scale = np.maximum(1.0, np.linalg.norm(scalar, axis=(-2, -1)))
            if not np.all(np.linalg.norm(S - scalar, axis=(-2, -1)) <= 1e-12 * scale):
                raise AssumptionError(f"{contract} differs from the scalar calls")
            return True
        self._cached(("contract",), check)

    def validate(self, lam_samples=(0.0, 0.25, 0.5, 0.75, 1.0)) -> dict:
        """Check the broadcasting contract (``check_contract``), symmetry and
        the hyperbolicity assumptions on sample points."""
        self.check_contract()
        J = self.space.J
        lams = np.asarray(lam_samples, dtype=float)
        ts = np.array([-3.0, 0.0, 3.0])
        S = np.broadcast_to(self.S(lams[:, None], ts[None, :]),
                            lams.shape + ts.shape + (self.dim, self.dim))
        asym = np.linalg.norm(S - S.swapaxes(-1, -2), 2, axis=(-2, -1))
        bad = np.argwhere(asym > 1e-9 * np.maximum(1.0, np.linalg.norm(S, 2, axis=(-2, -1))))
        if bad.size:
            i, j = bad[0]
            raise AssumptionError(f"S is not symmetric at (lam={lams[i]}, t={ts[j]})")
        margin = np.inf
        for lam in lam_samples:
            for M in (J @ np.asarray(self.B(lam)),
                      J @ self.S_limit(lam, -1), J @ self.S_limit(lam, +1)):
                m = hyperbolicity_margin(M)
                margin = min(margin, m)
                if m <= 1e-8:
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

    def lambda_lipschitz(self, lam_samples=None, t_samples=None) -> float:
        """Bound on sup_t ||d S / d lam||, certifying pencil eigenvalue speed:
        1.5 times the largest sampled difference quotient."""
        self.check_contract()
        lams = np.asarray(lam_samples if lam_samples is not None else np.linspace(0.0, 1.0, 9),
                          dtype=float)[:, None]
        ts = np.asarray(t_samples if t_samples is not None else np.linspace(-3.0, 3.0, 7),
                        dtype=float)
        h = 1e-4
        # each difference stays inside [0, 1] joined with the samples' range
        lo = np.maximum(min(0.0, lams.min()), lams - h)
        hi = np.minimum(max(1.0, lams.max()), lams + h)
        rates = np.linalg.norm(self.S(hi, ts) - self.S(lo, ts), 2, axis=(-2, -1)) / (hi - lo)
        return 1.5 * float(np.max(rates)) + 1e-9

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
        )


def hyperbolicity_margin(M) -> float:
    """Distance of the spectrum of M from the imaginary axis."""
    return float(np.min(np.abs(np.linalg.eigvals(np.asarray(M, dtype=float)).real)))


def stable_unstable_splitting(M):
    """Orthonormal frames for the stable (Re < 0) and unstable (Re > 0) subspaces.

    Broadcasts over a stack (..., d, d) whose matrices split alike.  The
    matrix sign function Z of M comes from the Newton iteration
    Z <- (mu Z + (mu Z)^-1) / 2 with determinant scaling (Kenney and Laub
    1991) and one unscaled step after it converges; the frames are the
    leading left singular vectors of the spectral projectors (I -+ Z) / 2.
    """
    M = np.asarray(M, dtype=float)
    d = M.shape[-1]
    ev = np.linalg.eigvals(M).real
    if np.min(np.abs(ev)) <= 1e-8:
        raise ValueError("matrix has spectrum on the imaginary axis; no hyperbolic splitting")
    k = np.unique(np.count_nonzero(ev < 0, axis=-1))
    if k.size != 1:
        raise ValueError("the stack splits into subspaces of different dimensions")
    Z = M
    for _ in range(SIGN_MAX_STEPS):
        mu = np.exp(-np.linalg.slogdet(Z)[1] / d)[..., None, None]
        Z, Z_old = 0.5 * (mu * Z + np.linalg.inv(mu * Z)), Z
        change = np.linalg.norm(Z - Z_old, 1, axis=(-2, -1))
        if np.all(change <= SIGN_TOL * np.linalg.norm(Z, 1, axis=(-2, -1))):
            break
    else:
        raise ValueError("matrix sign iteration did not converge")
    Z = 0.5 * (Z + np.linalg.inv(Z))
    eye = np.eye(d)
    Vm = np.linalg.svd(0.5 * (eye - Z))[0][..., :k[0]]
    Vp = np.linalg.svd(0.5 * (eye + Z))[0][..., :d - k[0]]
    scale = np.maximum(1.0, np.linalg.norm(M, 2, axis=(-2, -1)))
    for V in (Vm, Vp):
        MV = M @ V
        resid = np.linalg.norm(MV - V @ (V.swapaxes(-1, -2) @ MV), 2, axis=(-2, -1))
        if np.any(resid > 100 * 1e-9 * scale):
            raise ValueError(f"invariant-subspace residual {np.max(resid):.3e} too large")
    return Vm, Vp


# ---------------------------------------------------------------------------
# flows


def _magnus_steps(family, lams, t_from, t_to, nsteps):
    """Step maps of Ju' + S_lam u = 0 over nsteps equal steps from t_from to t_to.

    Yields (L, k, d, d) chunks, L = len(lams), of at most STEP_CHUNK steps
    each, in step order; each chunk costs one family call, S at the two
    Gauss points of its steps for all lam.  A step maps the
    4th-order Magnus generator Omega = h/2 (A1 + A2) + sqrt(3)/12 h^2 [A2, A1],
    A_i = J S_lam(t + c_i h), by the (2, 2) Pade approximant of exp (Iserles
    and Norsett 1999).  Omega is Hamiltonian, so the step is symplectic.
    """
    family.check_contract()
    J = family.space.J
    d = family.dim
    lams = np.asarray(lams, dtype=float)[:, None, None]
    h = (t_to - t_from) / nsteps
    eye = np.eye(d)
    for start in range(0, nsteps, STEP_CHUNK):
        tg = t_from + h * (np.arange(start, min(start + STEP_CHUNK, nsteps))[:, None] + _GAUSS)
        A = J @ np.broadcast_to(family.S(lams, tg), (len(lams),) + tg.shape + (d, d))
        A1, A2 = A[:, :, 0], A[:, :, 1]
        omega = 0.5 * h * (A1 + A2) + (np.sqrt(3.0) / 12.0) * h * h * (A2 @ A1 - A1 @ A2)
        even = eye + omega @ omega / 12.0
        yield np.linalg.solve(even - 0.5 * omega, even + 0.5 * omega)


def propagate_subspace(frame, family: HamiltonianFamily, lam, t_from: float, t_to: float,
                       steps_per_unit: int = STEPS_PER_UNIT):
    """Push frames through the flow of Ju' + S_lam u = 0 from t_from to t_to.

    Broadcasts over lam as ``S`` does: one (d, k) frame at a float lam gives
    a LagrangianFrame, and an (L, d, k) stack, one frame per entry of a
    sequence lam, gives the transported (L, d, k) stack.  All frames share
    the max(16, ceil(span * steps_per_unit)) Magnus-Pade steps of
    ``_magnus_steps``, one family call per chunk of steps, and are
    re-orthonormalized every ``QR_EVERY`` steps and at the end, by one
    batched QR with a positive R diagonal, which for one column is the
    division by its norm; the subspace, not the individual solutions, is the
    invariant object.  Memory is O(L STEP_CHUNK d^2).
    """
    one = np.ndim(lam) == 0
    F = frame.columns if isinstance(frame, LagrangianFrame) else np.asarray(frame, dtype=float)
    F = F[None] if one else F
    span = abs(t_to - t_from)
    if span == 0.0:
        F = np.linalg.qr(F)[0]
        return LagrangianFrame(F[0]) if one else F
    nsteps = max(16, int(np.ceil(span * steps_per_unit)))
    steps = (step for chunk in _magnus_steps(family, np.atleast_1d(lam), t_from, t_to, nsteps)
             for step in chunk.swapaxes(0, 1))
    for i, step in enumerate(steps, 1):
        F = step @ F
        if (i % QR_EVERY == 0 or i == nsteps) and F.shape[-1] == 1:
            F = F / np.linalg.norm(F, axis=-2, keepdims=True)
        elif i % QR_EVERY == 0 or i == nsteps:
            F, r = np.linalg.qr(F)
            # keep column orientation stable
            F = F * np.sign(np.sign(np.diagonal(r, axis1=-2, axis2=-1)) + 0.5)[:, None, :]
    return LagrangianFrame(F[0]) if one else F


def _asymptotic_frames(family, lams, sign):
    """Boundary frames at the end t -> sign * inf: the unstable splitting of
    J S_lam(-inf) for sign -1, the stable splitting of J S_lam(+inf) for +1.
    Memoized on the family per lam and per matrix (keyed by its bytes), so
    each distinct J S_lam is split once; the unseen matrices of the lam
    missing from the memo are split in one stacked call."""
    def split(missing):
        M = family.space.J @ np.stack([family.S_limit(lam, sign) for lam in missing])
        keys = [m.tobytes() for m in M]
        matrices = dict(zip(keys, M))

        def split_unseen(unseen):
            frames = stable_unstable_splitting(np.stack([matrices[k] for k in unseen]))
            return map(LagrangianFrame, frames[1 if sign < 0 else 0])
        return family._cached_batch(("split", sign), keys, split_unseen)
    return family._cached_batch(("frame", sign), lams, split)


def _decaying_frames(family, lams, sign, t0, T):
    """Solutions decaying as t -> sign * inf, at t0, for each lam: the
    asymptotic frame transported from sign * T.  Memoized on the family; the
    lam missing from the memo are transported in one batch."""
    def transport(missing):
        starts = np.stack([f.columns for f in _asymptotic_frames(family, missing, sign)])
        return map(LagrangianFrame, propagate_subspace(starts, family, missing, sign * T, t0))
    return family._cached_batch(("decay", sign, t0, T), lams, transport)


def unstable_space(family: HamiltonianFamily, lam: float, t0: float, T: float):
    """E^u_lam(t0): initial values at t0 of solutions decaying as t -> -inf.

    Computed by transporting the unstable splitting of J S_lam(-inf) from -T
    to t0.
    """
    return _decaying_frames(family, [lam], -1, t0, T)[0]


def stable_space(family: HamiltonianFamily, lam: float, t0: float, T: float):
    """E^s_lam(t0): initial values at t0 of solutions decaying as t -> +inf."""
    return _decaying_frames(family, [lam], +1, t0, T)[0]


def stable_unstable_pair_path(family: HamiltonianFamily, lam_grid, t0: float, T: float):
    """Lagrangian paths lam -> E^u_lam(t0) and lam -> E^s_lam(t0).

    The samples and every evaluator call (one per refinement round of a
    Maslov count) transport the lam missing from the family's memo in one
    batch per path.
    """
    lams = [float(l) for l in (np.linspace(0.0, 1.0, lam_grid) if np.isscalar(lam_grid)
                               else np.asarray(lam_grid, dtype=float))]
    paths = []
    for sign in (-1, +1):
        ev = lambda lams, sign=sign: _decaying_frames(family, lams, sign, t0, T)
        paths.append(LagrangianPath(family.space, list(zip(lams, ev(lams))), ev))
    return tuple(paths)


def _report_inputs(family: HamiltonianFamily, lam_grid, T: Optional[float], nodes: int = 17):
    """The truncation T (None: 10 decay scales) and the lam grid (None:
    ``nodes`` equispaced points on [0, 1]) of a report, as a float and a float
    array.  Raises ``ValueError`` unless T is finite and positive and the grid
    has at least 2 points, finite and strictly increasing."""
    T = float(T) if T is not None else 10.0 * family.decay_scale
    if not (np.isfinite(T) and T > 0):
        raise ValueError(f"T must be finite and positive, got {T}")
    grid = np.asarray(lam_grid if lam_grid is not None else np.linspace(0.0, 1.0, nodes),
                      dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise ValueError(f"lam_grid must be a 1-d grid of at least 2 points, got shape "
                         f"{grid.shape}")
    if not (np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0)):
        raise ValueError(f"lam_grid must be finite and strictly increasing, got {grid}")
    return T, grid


def kernel_crossings(family: HamiltonianFamily, lam_grid=None, t0: float = 0.0,
                     T: Optional[float] = None) -> list:
    """Parameter values where E^u_lam(t0) and E^s_lam(t0) intersect.

    The scan runs on the product path against the diagonal, so it is exactly
    the crossing set of the Maslov pipeline and serves as an independent
    oracle for the spectral-flow side.  The pair path over ``lam_grid`` is
    counted once; the scan, of at least 64 cells and one per grid cell,
    transports new lam only in the count's cells the drift rule leaves open.
    """
    T, grid = _report_inputs(family, lam_grid, T, 65)
    path_u, path_s = stable_unstable_pair_path(family, grid, t0, T)
    product, diag = pair_to_product_path(path_u, path_s)
    winding_number(product.souriau_path(diag))
    return find_crossings(product, diag)


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
    therefore filtered at 2/h^2 (``rough_cut``) by default.

    The operator holds what assembly computes: ``blocks``, the stiffness,
    mass and roughness forms, each as its (diagonal, upper, lower) d x d
    blocks led by a pencil axis, the boundary ``frames`` and whether the
    stiffness carries a ``potential``.  A stack of L pencils that share
    interval and mesh holds two sequences of L (d, k) frame columns; its
    stiffness blocks have L entries when there is a potential, and every
    other form one entry, which all pencils share.  The solve works from the
    blocks, never writes a pencil's dense forms and keeps nothing on the
    operator, so threads may solve one operator at once.  ``size`` is one
    pencil's order m.
    """

    blocks: tuple
    frames: tuple
    interval: tuple
    mesh: int
    potential: bool = False

    @property
    def _stacked(self) -> bool:
        return not isinstance(self.frames[0], LagrangianFrame)

    @property
    def size(self) -> int:
        k = sum((F[0] if self._stacked else F.columns).shape[1] for F in self.frames)
        return k + (self.mesh - 1) * self.blocks[0][0].shape[-1]

    @property
    def step(self) -> float:
        a, b = self.interval
        return (b - a) / self.mesh

    @property
    def rough_cut(self) -> float:
        # genuine eigenfunctions score ~kappa^2 = O(1), parity ghosts score
        # 12/h^2 (consistent mass) or 4/h^2 (lumped); 2/h^2 separates both
        return 2.0 / self.step ** 2

    def eigenvalues(self, window: float):
        """Generalized symmetric eigenvalues in the window |mu| <= window,
        parity ghosts removed by the roughness filter (``_ghost_filter``).  A
        stack gives the list of its pencils' arrays, solved together from the
        blocks: in band storage when there is a potential (``_band_solve``),
        else over the interior the pencils share (``_shared_solve``).  Each
        pencil's reduced eigenvectors x give the filter, called once per
        stack, the nodal values F0 x[:k0], x's interior and F1 x[m - k1:].
        """
        K, M, R = self.blocks
        if not all(np.isfinite(x).all() for x in K + M):
            raise ValueError("array must not contain infs or NaNs")
        F0, F1 = (np.stack(F if self._stacked else [F.columns]) for F in self.frames)
        k0, k1, d = F0.shape[-1], F1.shape[-1], F0.shape[-2]
        solve = self._band_solve if self.potential else self._shared_solve
        spectra, u = [], []
        for f0, f1, (vals, x) in zip(F0, F1, solve(F0, F1, window)):
            spectra.append(vals)
            u.append(np.concatenate([(f0 @ x[:k0])[None],
                                     x[k0:len(x) - k1].reshape(self.mesh - 1, d, len(vals)),
                                     (f1 @ x[len(x) - k1:])[None]]))
        spectra = _ghost_filter(spectra, np.concatenate(u, axis=-1), R, self.rough_cut)
        return spectra if self._stacked else spectra[0]

    def _band_solve(self, F0, F1, window):
        """Yields, pencil after pencil, its eigenvalues in (-window, window],
        ascending, and their M-orthonormal eigenvectors in the frame-reduced
        coordinates [c0, nodes 1 .. N-1, c1], an (m, len(vals)) array.

        Each pencil's frame-reduced forms are written in band storage
        (``_reduced_band``), each to its own half-bandwidth, so a pencil
        solves alike in any stack.  ``_band_values`` finds the values, with
        the guarantee ``dsyevx`` gives, and ``_inverse_iteration`` the
        eigenvectors.  Memory is O(m kd) per pencil.
        """
        K, M = (_reduced_band(*form, F0, F1) for form in self.blocks[:2])
        # each pencil's half-bandwidths: its last nonzero diagonals
        kb = M.shape[-1] - 1 - np.argmax(M.any(axis=1)[:, ::-1], axis=1)
        ka = np.maximum(kb, K.shape[-1] - 1 - np.argmax(K.any(axis=1)[:, ::-1], axis=1))
        for i in range(len(F0)):
            Ki, Mi = K[i, :, :ka[i] + 1], M[i, :, :kb[i] + 1]
            vals = _band_values(Ki, Mi, window)
            yield vals, _inverse_iteration(Ki, Mi, vals) if len(vals) else np.zeros((len(Ki), 0))

    def _shared_solve(self, F0, F1, window):
        """Yields what ``_band_solve`` yields, the values as a windowed dense
        ``eigh`` gives them.  One LAPACK ``dsyevx`` per pencil solves
        C = L^-1 K L^-T, M = L L^T (Golub and Van Loan, Matrix Computations,
        8.7).

        The frame coordinates are the border b, ordered after the interior.
        L = [[L_II, 0], [X^T, L_bb]] with X = L_II^-1 M_Ib and L_bb the factor
        of the Schur complement M_bb - X^T X, so M is positive definite
        exactly when M_II and it are (Haynsworth 1968).  With W = L_II^-1 K_Ib,
        Z = L_bb^-1, Y = X Z^T and V = W Z^T, C's border columns are
        G = V - C_II Y and its border block is Z K_bb Z^T - V^T Y - Y^T G.
        The stack shares K_II and M_II, so C_II is the stack's
        (``_interior_factor``), X and W of every pencil come from one banded
        solve over all border columns and the k x k Schur complements are
        factored as one stack.  A pencil's own work is one ``dsymm`` for G,
        its ``dsyevx`` and, when it has values, x = L^-T z: x_b = Z^T z_b and
        x_I = L_II^-T (z_I - Y z_b), one transposed banded solve.  No BLAS or
        LAPACK call gets an empty operand, which some mishandle.
        """
        K, M, _ = self.blocks
        count, k0 = len(F0), F0.shape[-1]
        k, d = k0 + F1.shape[-1], K[0].shape[-1]
        n_in = (self.mesh - 1) * d
        L_II, C_II = self._interior_factor()
        # border rows of M and K for every pencil; rhs holds their interior
        # columns M_Ib and K_Ib transposed, (form, pencil, k, n_in)
        bb = np.zeros((2, count, k, k))
        rhs = np.zeros((2, count, k, n_in))
        for f, form in enumerate((M, K)):
            c0, e0, e1, c1 = _frame_border(*form, F0, F1)
            bb[f, :, :k0, :k0], bb[f, :, k0:, k0:] = c0, c1
            rhs[f, :, :k0, :d], rhs[f, :, k0:, -d:] = e0, e1.swapaxes(-1, -2)
        Xt, Wt = _triangular_solve(L_II, rhs.reshape(-1, n_in).T).T.reshape(rhs.shape)
        try:
            Z = np.linalg.inv(np.linalg.cholesky(bb[0] - Xt @ Xt.swapaxes(-1, -2)))
        except np.linalg.LinAlgError:
            raise ValueError("mass matrix is not positive definite") from None
        Yt, Vt = Z @ Xt, Z @ Wt
        Q = Z @ bb[1] @ Z.swapaxes(-1, -2) - Vt @ Yt.swapaxes(-1, -2)
        n = n_in + k
        for i in range(count):
            G = np.array(Vt[i].T, order="F")  # G = V - C_II Y, written over V
            _lapack("dsymm", b"L", b"L", n_in, k, -1.0, C_II, n_in, Yt[i].T, n_in, 1.0, G, n_in)()
            C = np.empty((n, n), order="F")  # dsyevx reads its lower triangle only
            C[:n_in, :n_in] = C_II
            C[n_in:, :n_in] = G.T
            C[n_in:, n_in:] = Q[i] - Yt[i] @ G
            vals, iwork = np.empty(n), np.empty(6 * n, dtype=np.int64)  # IWORK, then IFAIL
            z = np.empty((n, n), order="F")
            # the integers end M, LDZ, LWORK, INFO; LWORK, LAPACK's minimum
            # 8 n, also bounds dsytrd's block size and so the rounding
            *_, m, _, _, info = _lapack("dsyevx", b"V", b"V", b"L", n, C, n, -window, window,
                                        1, n, 0.0, 0, vals, z, n, np.empty(8 * n), 8 * n,
                                        iwork, iwork[5 * n:], 0)()
            if info:
                raise np.linalg.LinAlgError(f"dsyevx failed with info {info}")
            zb = z[n_in:, :m]
            x_in = np.asfortranarray(z[:n_in, :m] - np.einsum("kn,kc->nc", Yt[i], zb))
            if m:
                _triangular_solve(L_II, x_in, b"T")
            xb = Z[i].T @ zb
            yield vals[:m], np.concatenate([xb[:k0], x_in, xb[k0:]])

    def _interior_factor(self):
        """(L_II, C_II): the Cholesky factor of the interior mass M_II in band
        storage and the lower triangle of C_II = L_II^-1 K_II L_II^-T, by two
        banded solves of the dense interior K_II, (N-1) d square.

        Every pencil of a stack without potential has the same K_II and M_II,
        so one solve computes the pair once for all its pencils.  The factor
        and solves are banded because OpenBLAS hands dense ones of these
        orders to its thread pool.
        """
        L = np.asfortranarray(_interior_band(*self.blocks[1]))
        if _lapack("dpbtrf", b"L", L.shape[1], len(L) - 1, L, len(L), 0)()[-1]:
            raise ValueError("mass matrix is not positive definite")
        sym_diag, sym_upper = _interior_blocks(*(x[0] for x in self.blocks[0]))
        nodes, d = sym_diag.shape[:2]
        at = d * np.arange(nodes)[:, None, None]
        rows, cols = at + np.arange(d)[:, None], at + np.arange(d)
        K = np.zeros((nodes * d, nodes * d), order="F")
        K[rows, cols] = sym_diag
        K[rows[:-1], cols[1:]] = sym_upper
        K[rows[1:], cols[:-1]] = sym_upper.swapaxes(-1, -2)
        return L, _triangular_solve(L, np.asfortranarray(_triangular_solve(L, K).T))


def _ghost_filter(spectra, u, rough, cut):
    """Each pencil's eigenvalues whose eigenvectors have roughness u^T R u below
    ``cut``.  ``u`` holds the (N+1, d) nodal values of every eigenvector
    (v^T M v = 1), pencil after pencil, and ``rough`` the roughness form's
    (diagonal, upper, lower) blocks; a pencil with a roughness within a
    factor 1.5 of the cut warns."""
    diag, upper, lower = (x[0] for x in rough)
    Ru = np.einsum("pij,pjc->pic", diag, u)
    Ru[:-1] += np.einsum("pij,pjc->pic", upper, u[1:])
    Ru[1:] += np.einsum("pij,pjc->pic", lower, u[:-1])
    roughness = np.einsum("pic,pic->c", u, Ru)
    kept, start = [], 0
    for vals in spectra:
        r = roughness[start:start + len(vals)]
        start += len(vals)
        if np.any((r > 0.5 * cut) & (r < 1.5 * cut)):
            warnings.warn("eigenvector roughness near the ghost-filter cut; "
                          "refine the mesh to separate the sectors", RuntimeWarning)
        kept.append(vals[r < cut])
    return kept


def _interior_blocks(diag, upper, lower):
    """A form's symmetrized interior blocks: (X + X^T) / 2 on the diagonal of
    nodes 1 .. N-1 and (upper + lower^T) / 2 off it."""
    sym_diag = (diag[..., 1:-1, :, :] + diag[..., 1:-1, :, :].swapaxes(-1, -2)) * 0.5
    sym_upper = (upper[..., 1:-1, :, :] + lower[..., 1:-1, :, :].swapaxes(-1, -2)) * 0.5
    return sym_diag, sym_upper


def _node_columns(sym_diag, sym_upper):
    """Each interior node's d columns from the diagonal down, (..., nodes, 2d, d):
    its diagonal block over the block coupling it to the next node, which is
    zero for the last node."""
    nodes, d = sym_diag.shape[-3], sym_diag.shape[-1]
    tall = np.zeros(sym_diag.shape[:-3] + (nodes, 2 * d, d))
    tall[..., :d, :] = sym_diag
    tall[..., :-1, d:, :] = sym_upper.swapaxes(-1, -2)
    return tall


def _band_columns(tall, width):
    """A run of w columns in lower band storage, (..., w, width): ``tall``
    (..., H, w) holds the columns from their diagonal entry down, so column
    b's band entries are tall[b + k, b] for k < width, zero past row H."""
    H, w = tall.shape[-2:]
    rows, cols = np.arange(w)[:, None] + np.arange(width), np.arange(w)[:, None]
    return np.where(rows < H, tall[..., np.minimum(rows, H - 1), cols], 0.0)


def _interior_band(diag, upper, lower):
    """The shared interior form's lower band in LAPACK band storage,
    band[k, j] = A[j + k, j], reaching back to every row's first nonzero:
    every entry a dense Cholesky reads."""
    tall = _node_columns(*_interior_blocks(diag[0], upper[0], lower[0]))
    band = _band_columns(tall, tall.shape[-2]).reshape(-1, tall.shape[-2]).T
    return band[:np.flatnonzero(band.any(axis=1))[-1] + 1]


def _reduced_band(diag, upper, lower, F0, F1):
    """One form's frame-reduced matrix for each pencil of a stack in lower
    band storage, (L, m, 2d): row j of a pencil holds its column j from the
    diagonal down, A[j + k, j], the coordinates ordered [c0, nodes 1 .. N-1,
    c1], so it is LAPACK's (2d, m) band in column-major order.  The entries
    are the symmetrized interior blocks and ``_frame_border``'s rows; no
    m x m array is formed."""
    c0, e0, e1, c1 = _frame_border(diag, upper, lower, F0, F1)
    sym_diag, sym_upper = _interior_blocks(diag, upper, lower)
    L, d, width = len(F0), sym_diag.shape[-1], 2 * sym_diag.shape[-1]
    tall = _node_columns(np.broadcast_to(sym_diag, (L,) + sym_diag.shape[1:]), sym_upper)
    tall[:, -1, d:d + F1.shape[-1]] = e1.swapaxes(-1, -2)  # the last node couples with c1
    head = np.concatenate([c0, e0.swapaxes(-1, -2)], axis=-2)  # c0 couples with node 1
    return np.concatenate([_band_columns(head, width),
                           _band_columns(tall, width).reshape(L, -1, width),
                           _band_columns(c1, width)], axis=1)


_LAPACK_ARGS = {  # Fortran's arguments in order: c a character, i an integer,
    # d a double, I an integer array, D a double array
    "dgbtrf": "iiiiDiIi",
    "dgbtrs": "ciiiiDiIDii",
    "dpbtrf": "ciiDii",
    "dsbgvx": "ccciiiDiDiDiddiidiDDiDIIi",
    "dsbmv": "ciidDiDidDi",
    "dsymm": "cciidDiDidDi",
    "dsyevx": "ccciDiddiidiDDiDiIIi",
    "dtbtrs": "ccciiiDiDii",
}
_ARRAYS = {"I": np.dtype(np.int64), "D": np.dtype(np.float64)}
_NO_BYTES = ctypes.c_char * 0
_LAPACK = {}


def _lapack_function(name, library):
    """LAPACK or BLAS ``name`` of ``library``, whose ILP64 OpenBLAS exports it
    as ``scipy_<name>_64_``, with how ``_lapack`` binds its arguments."""
    symbol = f"scipy_{name}_64_"
    try:
        function = getattr(library, symbol)
    except AttributeError:
        raise ImportError(f"numpy's OpenBLAS lacks {symbol}; hamflow needs a numpy build "
                          "that bundles the ILP64 scipy-openblas, as the Linux wheels of "
                          "numpy >= 2.0 on PyPI do") from None
    kinds = _LAPACK_ARGS[name]
    lengths = (1,) * kinds.count("c")  # gfortran passes them after the last argument
    function.argtypes = ([ctypes.c_char_p if k == "c" else ctypes.c_void_p for k in kinds]
                         + [ctypes.c_size_t] * len(lengths))
    function.restype = None
    at = [i for i, k in enumerate(kinds) if k in "id"]
    layout = tuple(8 * at.index(i) if i in at else k for i, k in enumerate(kinds))
    return (function, struct.Struct("=" + "".join(kinds[i] for i in at).replace("i", "q")),
            operator.itemgetter(*at), layout, lengths)


def _lapack(name, *args):
    """LAPACK or BLAS ``name`` of the OpenBLAS numpy has loaded, resolved on
    first use and bound to its Fortran arguments in ``_LAPACK_ARGS`` order:
    bytes for a character, numbers for integers and doubles, which are packed
    in one buffer and passed by offset, and writable Fortran-ordered int64 or
    float64 arrays, which the routine reads and writes in place.  Each call
    of the bound routine runs it, releasing the GIL, and returns the integers
    and doubles as it left them, INFO last where it has one."""
    if name not in _LAPACK:
        _LAPACK[name] = _lapack_function(name, ctypes.CDLL(np.linalg._umath_linalg.__file__))
    function, scalars, get_scalars, layout, lengths = _LAPACK[name]
    packed = ctypes.create_string_buffer(scalars.pack(*get_scalars(args)))
    base, pointers = ctypes.addressof(packed), []
    for a, at in zip(args, layout, strict=True):
        if type(at) is int:
            pointers.append(base + at)
        elif at == "c":
            pointers.append(a)
        elif a.dtype != _ARRAYS[at]:
            raise TypeError(f"{name} takes {_ARRAYS[at]} arrays, not {a.dtype}")
        else:  # the transpose's buffer raises unless a is Fortran-ordered and writable
            pointers.append(ctypes.addressof(_NO_BYTES.from_buffer(a.T)))

    def run():
        function(*pointers, *lengths)
        return scalars.unpack_from(packed)

    run.arrays = args  # the addresses stay valid while the bound routine lives
    return run


def _triangular_solve(L, B, trans=b"N"):
    """B overwritten by L^-1 B, or L^-T B with ``trans`` b"T": L is a lower
    band Cholesky factor in LAPACK band storage (kd + 1, n) and B a
    Fortran-ordered (n, nrhs) array."""
    kd, n = len(L) - 1, L.shape[1]
    _lapack("dtbtrs", b"L", trans, b"N", n, kd, B.shape[1], L, kd + 1, B, n, 0)()
    return B


def _band_values(K, M, window):
    """The eigenvalues of the pencil (K, M) in (-window, window], ascending.

    K and M are in lower band storage as (m, ka + 1) and (m, kb + 1) arrays,
    ka >= kb, row j holding column j from the diagonal down; they are only
    read.  LAPACK's dsbgvx takes their copies through the split Cholesky
    factorization M = S^T S, Crawford's band-preserving reduction of K to
    the standard form X^T K X, its tridiagonalization and the Sturm count
    bisection; no vector is formed.  Raises ValueError when M is not
    positive definite.  Every buffer is this call's, so threads may solve at
    once.
    """
    (m, wa), wb = K.shape, M.shape[1]
    K, M = np.array(K.T, order="F"), np.array(M.T, order="F")  # LAPACK's (w, m) bands
    vals, unused = np.empty(m), np.empty(1)  # JOBZ = 'N' leaves Q and Z unreferenced
    iwork = np.empty(6 * m, dtype=np.int64)  # IWORK, then IFAIL
    # the integers end M, LDZ, INFO
    *_, count, _, info = _lapack("dsbgvx", b"N", b"V", b"L", m, wa - 1, wb - 1, K, wa, M, wb,
                                 unused, 1, -window, window, 0, 0, 0.0, 0, vals, unused, 1,
                                 np.empty(7 * m), iwork, iwork[5 * m:], 0)()
    if info > m:  # dsbgvx's split Cholesky failed
        raise ValueError("mass matrix is not positive definite")
    if info:
        raise np.linalg.LinAlgError(f"dsbgvx failed with info {info}")
    return vals[:count]


def _general_band(X, ka):
    """A symmetric matrix in lower band storage (m, kx + 1), kx <= ka, in
    LAPACK's general band storage with ka sub- and superdiagonals, as the
    C-ordered transpose (m, 3 ka + 1) of the Fortran array dgbtrf factors,
    whose first ka rows are free for the factor's fill."""
    m = len(X)
    G = np.zeros((m, 3 * ka + 1))
    for k in range(X.shape[1]):
        G[:m - k, 2 * ka + k] = X[:m - k, k]
        G[k:, 2 * ka - k] = X[:m - k, k]
    return G


def _inverse_iteration(K, M, vals):
    """M-orthonormal eigenvectors, (m, len(vals)), of the band pencil (K, M)
    at its eigenvalues ``vals``.

    Each takes two steps of inverse iteration with K - mu M in general band
    storage (LAPACK dgbtrf and dgbtrs) from a fixed start, and each step is
    M-orthogonalized against every earlier vector: a window holds few values,
    so no cluster rule picks which.  Where K - mu M is singular to working
    precision, mu steps off by eps max|K| / max|M|; a factor still singular
    raises LinAlgError.
    """
    (m, wb), ka = M.shape, K.shape[1] - 1
    GK, GM = _general_band(K, ka), _general_band(M, ka)
    # one LU, step and product buffer for every value, bound once
    lu, piv = np.empty((3 * ka + 1, m), order="F"), np.empty(m, dtype=np.int64)
    x, Mx = np.empty(m), np.zeros(m)
    factor = _lapack("dgbtrf", m, m, ka, ka, lu, 3 * ka + 1, piv, 0)
    solve = _lapack("dgbtrs", b"N", m, ka, ka, 1, lu, 3 * ka + 1, piv, x, m, 0)
    mass = _lapack("dsbmv", b"L", m, wb - 1, 1.0, np.array(M.T, order="F"), wb, x, 1, 0.0, Mx, 1)
    # the fixed starts, taken as M x: sin((j + 1) i) for value j and row i
    starts = np.sin(np.arange(1.0, len(vals) + 1.0)[:, None] * np.arange(1.0, m + 1.0))
    X, MX = np.empty((m, len(vals))), np.empty((m, len(vals)))
    for j, mu in enumerate(vals):
        np.subtract(GK, mu * GM, out=lu.T)
        if factor()[-1] > 0:  # mu is an eigenvalue to working precision: step off it
            mu += np.finfo(float).eps * np.abs(GK).max() / np.abs(GM).max()
            np.subtract(GK, mu * GM, out=lu.T)
            if factor()[-1]:
                raise np.linalg.LinAlgError(f"K - mu M is singular at the stepped-off mu = {mu}")
        rhs = starts[j]
        for _ in range(2):  # the steps are scale-free, so only the last is normalized
            x[:] = rhs
            solve()
            if j:
                x -= X[:, :j] @ (MX[:, :j].T @ x)
            mass()
            rhs = Mx
        norm = np.sqrt(x @ Mx)
        X[:, j], MX[:, j] = x / norm, Mx / norm
    return X


def _frame_border(diag, upper, lower, F0, F1):
    """The frame rows of one form for a stack of pencils, as the dense
    reduction (C^T X C + (C^T X C)^T) / 2 gives them, C putting the frames in
    place of the end nodes: F0^T D_0 F0, the rows (F0^T U_0 + (L_0 F0)^T) / 2
    that couple c0 with node 1, the columns (U_{N-1} F1 + (F1^T L_{N-1})^T) / 2
    that couple node N-1 with c1, and F1^T D_N F1."""
    F0t, F1t = F0.swapaxes(-1, -2), F1.swapaxes(-1, -2)
    c0, c1 = F0t @ diag[:, 0] @ F0, F1t @ diag[:, -1] @ F1
    e0 = (F0t @ upper[:, 0] + (lower[:, 0] @ F0).swapaxes(-1, -2)) * 0.5
    e1 = (upper[:, -1] @ F1 + (F1t @ lower[:, -1]).swapaxes(-1, -2)) * 0.5
    return ((c0 + c0.swapaxes(-1, -2)) * 0.5, e0, e1, (c1 + c1.swapaxes(-1, -2)) * 0.5)


def _tridiagonal(d, N, diag_block, off_block):
    """(diagonal, upper, lower) blocks of a form whose N elements add (diag, off, off^T, diag)."""
    diag = np.zeros((N + 1, d, d))
    diag[:-1] += diag_block
    diag[1:] += diag_block
    return diag, np.zeros((N, d, d)) + off_block, np.zeros((N, d, d)) + off_block.T


def _potential_matrix(space, a, b, N, S_fn):
    """(diagonal, upper, lower) blocks of int <S(t) u, v> by two-point Gauss
    quadrature per element.

    S_fn broadcasts over t: one call on the (N, 2) Gauss points gives the
    (N, 2, d, d) stack (a t-independent (d, d) return is broadcast), or an
    (L, N, 2, d, d) stack for L pencils, whose blocks then lead with L.  Each
    block sums its weighted terms from zero in the order an element loop adds
    them (element e-1's right-end terms reach block (e, e) before element e's
    left-end terms), so it rounds as the loop's does.
    """
    d = space.dim
    h = (b - a) / N
    tl = a + np.arange(N) * h
    offs = 0.5 * h / np.sqrt(3.0)
    w = 0.5 * h
    tg = (tl + 0.5 * h)[:, None] + np.array([-offs, offs])
    S = np.asarray(S_fn(tg))
    S = np.broadcast_to(S, S.shape[:-4] + tg.shape + (d, d))
    S = 0.5 * (S + S.swapaxes(-1, -2))
    phi1 = ((tg - tl[:, None]) / h)[..., None, None]
    phi = (1.0 - phi1, phi1)

    def term(p, q, g):
        # one weighted Gauss-point term, formed only when it is added
        return w * phi[p][:, g] * phi[q][:, g] * S[..., g, :, :]

    diag = np.zeros(S.shape[:-4] + (N + 1, d, d))
    for p, rows in ((1, slice(1, None)), (0, slice(None, -1))):
        for g in (0, 1):
            diag[..., rows, :, :] += term(p, p, g)
    upper, lower = ((0.0 + term(p, q, 0)) + term(p, q, 1) for p, q in ((0, 1), (1, 0)))
    return diag, upper, lower


DEFAULT_STABILIZATION = 0.05


def _form_blocks(space, a, b, N, S_fn, stabilization, scheme):
    """The stiffness, mass and roughness forms, each as its (diagonal, upper,
    lower) blocks led by a pencil axis; the stiffness sums its parts as a
    dense assembly does.  The stiffness's pencil axis has one entry per
    pencil when the potential has a leading pencil axis; every other
    form's has one entry, which the pencils share."""
    d = space.dim
    h = (b - a) / N
    I = np.eye(d)
    K = _tridiagonal(d, N, np.zeros((d, d)), 0.5 * space.J)
    if S_fn is not None:
        K = tuple(x + v for x, v in zip(K, _potential_matrix(space, a, b, N, S_fn)))
    # P1 stiffness of -u'' (int u'v'), the parity-mode stabilization
    rough = _tridiagonal(d, N, I / h, -I / h)
    beta = DEFAULT_STABILIZATION if stabilization is None else stabilization
    if beta:
        K = tuple(x + beta * h * h * r for x, r in zip(K, rough))
    if scheme == "central":
        # trapezoid (lumped) mass: the classical central-difference scheme, a secondary oracle
        M = _tridiagonal(d, N, 0.5 * h * I, 0.0 * I)
    else:
        M = _tridiagonal(d, N, (h / 3.0) * I, (h / 6.0) * I)
    return tuple(tuple(x.reshape((-1,) + x.shape[-3:]) for x in form) for form in (K, M, rough))


def _assemble(space, L0, L1, a, b, N, S_fn=None, stabilization=None, scheme="galerkin"):
    """Reduced pencil of the symmetrized weak form with frame boundary conditions.

    L0 and L1 are frames, or sequences of L (d, k) frame columns (an (L, d, k)
    array is one) for a stack of L pencils; S_fn then returns a leading L axis
    (see ``_potential_matrix``).  The operator holds the forms as d x d blocks
    (the potential from one ``S_fn`` call) and solves from them.  A small
    consistent second-difference term (O(h^2) on
    smooth modes) keeps the parity-ghost sector spectrally separated from
    genuine near-kernel modes so the roughness filter never sees hybridized
    eigenvectors; ``stabilization=0`` disables it, which exhibits the doubled
    kernel.
    """
    if N < 4:
        raise ValueError("mesh must have at least 4 intervals")
    if scheme not in ("galerkin", "central"):
        raise ValueError("scheme must be 'galerkin' or 'central'")
    one = isinstance(L0, LagrangianFrame)
    frames = (L0, L1) if one else (list(L0), list(L1))
    for F in frames:
        check_frame_columns(np.stack([F.columns] if one else F), space)
    return BoundaryValueOperator(blocks=_form_blocks(space, a, b, N, S_fn, stabilization, scheme),
                                 frames=frames, interval=(a, b), mesh=N,
                                 potential=S_fn is not None)


def assemble_Q_operator(L0: LagrangianFrame, L1: LagrangianFrame, a: float, b: float,
                        N: int, space: SymplecticSpace, stabilization=None,
                        scheme: str = "galerkin") -> BoundaryValueOperator:
    """Discretize u -> Ju' on [a, b] with u(a) in span(L0), u(b) in span(L1).

    The symmetrized weak form equals int <Ju', v> on the constrained space
    because the Lagrangian boundary terms vanish, so the reduced stiffness is
    exactly symmetric and the pencil eigenvalues approximate the spectrum.
    Two (L, d, n) stacks of frame columns give one stack of L pencils.
    """
    return _assemble(space, L0, L1, a, b, N, stabilization=stabilization, scheme=scheme)


def assemble_A0_operator(family: HamiltonianFamily, lam: float, T: float, N: int,
                         stabilization=None, scheme: str = "galerkin") -> BoundaryValueOperator:
    """Discretize u -> Ju' + S_lam(t) u on [-T, T] with asymptotic boundary frames.

    At -T the boundary space is the unstable splitting of J S_lam(-inf) and at
    +T the stable splitting of J S_lam(+inf); by that time the perturbation has
    settled, so the pencil kernel matches intersections of E^u and E^s.
    Broadcasts over lam as ``propagate_subspace`` does: a float gives one
    pencil, a sequence one stack with a pencil per entry, whose frames are
    split in at most one call per end and whose potential takes one ``S``
    call.
    """
    family.check_contract()
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    L0, L1 = (_asymptotic_frames(family, [float(x) for x in lams], sign) for sign in (-1, +1))
    if np.ndim(lam) == 0:
        return _assemble(family.space, L0[0], L1[0], -T, T, N,
                         S_fn=lambda t: family.S(lam, t),
                         stabilization=stabilization, scheme=scheme)
    return _assemble(family.space, *([f.columns for f in Ls] for Ls in (L0, L1)), -T, T, N,
                     S_fn=lambda t: family.S(lams[:, None, None], t),
                     stabilization=stabilization, scheme=scheme)


def pencil_window(a: float, b: float, asym_gap: Optional[float] = None) -> float:
    """Counting window below the genuine eigenvalue spacing and the essential gap."""
    w = np.pi / (2.0 * (b - a))
    if asym_gap is not None:
        w = min(w, asym_gap)
    return 0.5 * w


# ---------------------------------------------------------------------------
# theorem reports


SHIFT_RECIPE = "shift recipe"


@dataclass
class IndexReport:
    """The independently computed integers and their agreement flags.

    A report whose ``extras["agreement_rule"]`` is ``SHIFT_RECIPE`` (theorem
    A with an endpoint kernel) checks the recipe's identity
    sfl_shifted = maslov + c1 - c0, with (c0, c1) its ``shift_corrections``,
    instead of the raw sfl = maslov: the raw integers count the endpoint
    kernels by conventions that the theorem does not equate, so the raw
    comparison is no flag.
    """

    sfl: int
    maslov: int
    chern: Optional[int] = None
    sfl_certificate: Optional[FlowCertificate] = None
    crossings: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @property
    def agreement(self) -> dict:
        if self.extras.get("agreement_rule") == SHIFT_RECIPE:
            c0, c1 = self.extras["shift_corrections"]
            flags = {"shift_recipe": self.extras["sfl_shifted"] == self.maslov + c1 - c0}
        else:
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


def theorem_B_report(path0: LagrangianPath, path1: LagrangianPath, a: float, b: float,
                     N: int) -> IndexReport:
    """Spectral flow of the boundary-condition pencil vs the pair Maslov index.

    The pair path must be admissible: transversal at both parameter endpoints.
    The operator u -> Ju' with u(a) in L0, u(b) in L1 has the explicit spectrum
    (2 pi k - theta_j) / (2(b - a)), where e^{i theta_j} are the eigenvalues of
    -U and U = souriau_map(L0, L1).  So between two nodes its eigenvalues move
    at most _phase_margin(|U(hi) - U(lo)|) / (2(b - a)), the unitary-step rule
    the Maslov side counts with; the drift adds each node's measured gap from
    the windowed pencil eigenvalues to that spectrum.  A refinement round's
    pencils are one stack, and its unitaries, eigenphases and step norms
    take one call each.
    """
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ValueError(f"the interval [a, b] must be finite with a < b, got [{a}, {b}]")
    space = path0.space
    if path1.space.dim != space.dim:
        raise SymplecticError("paths live in different spaces")
    for lam_end in (path0.lo, path0.hi):
        if intersection_dimension_rank(path0.frame(lam_end), path1.frame(lam_end)) != 0:
            raise SymplecticError("inadmissible endpoints: the boundary pair is not transversal")

    w = pencil_window(a, b)
    length = 2.0 * (b - a)
    nodes = {}

    def node_fn(lams):
        # per new lam: (windowed pencil eigenvalues, Souriau unitary, gap to the explicit
        # spectrum); k in {-1, 0, 1} suffices since the report window
        # 3 pi / (4 length) < pi / length
        L0s, L1s = (np.stack([f.columns for f in p.frames(lams)]) for p in (path0, path1))
        spectra = assemble_Q_operator(L0s, L1s, a, b, N, space).eigenvalues(window=1.5 * w)
        Us = souriau_map(L0s, L1s, space)
        for lam, vals, U, theta in zip(lams, spectra, Us, _eigenphases(Us)):
            exact = (2.0 * np.pi * np.arange(-1, 2)[:, None] - theta).ravel() / length
            gap = float(np.abs(vals[:, None] - exact).min(axis=1).max()) if vals.size else 0.0
            nodes[lam] = (vals, U, gap)
        return spectra

    def drift_fn(pairs):
        steps = np.linalg.norm(np.stack([nodes[hi][1] - nodes[lo][1] for lo, hi in pairs]), 2,
                               axis=(-2, -1))
        return [_phase_margin(step) / length + nodes[lo][2] + nodes[hi][2]
                for step, (lo, hi) in zip(steps.tolist(), pairs)]

    flow, cert = flow_from_spectra(node_fn, drift_fn, path0.lo, path0.hi,
                                   initial_nodes=[s[0] for s in path0.samples], window=w,
                                   report_window=1.5 * w)
    mas = maslov_index_pair(path0, path1)
    return IndexReport(sfl=flow, maslov=mas, sfl_certificate=cert)


def _a0_node_fn(family, T, N, window_report):
    """Windowed A0 spectra for a list of lam, memoized on the family.  The
    lam missing from the memo are assembled as one stack: one ``S`` call and
    at most one splitting call per end."""
    def compute(missing):
        return assemble_A0_operator(family, missing, T, N).eigenvalues(window=window_report)
    return lambda lams: family._cached_batch(("a0", T, N, window_report), lams, compute)


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
    Both bounds are memoized on the family by (grid ends, T).
    """
    gap_asym, lam_lip = family._cached(("a0-bounds", grid[0], grid[-1], T), lambda: (
        _asymptotic_gap(family, (grid[0], grid[-1])),
        family.lambda_lipschitz(lam_samples=np.linspace(grid[0], grid[-1], 9),
                                t_samples=np.linspace(-T, T, 9))))
    w_report = pencil_window(-T, T, asym_gap=gap_asym)
    report_band = max(1.5 * w_report, min(6.0 * w_report, 0.45 * gap_asym))

    def flow(node_fn, **kwargs):
        drift_fn = lambda pairs: [lam_lip * (hi - lo) for lo, hi in pairs]
        return flow_from_spectra(node_fn, drift_fn, float(grid[0]), float(grid[-1]),
                                 initial_nodes=grid, window=w_report,
                                 report_window=report_band, **kwargs)

    return _a0_node_fn(family, T, N, report_band), report_band, flow


def theorem_A_report(family: HamiltonianFamily, lam_grid=None, T: Optional[float] = None,
                     N: int = 160, t0: float = 0.0, third_opinion: bool = False,
                     locate_crossings: bool = True, endpoint_kernel_tol: float = 1e-6) -> IndexReport:
    """Spectral flow of the truncated homoclinic pencil path vs the Maslov
    index of the stable/unstable pair path at t = t0.

    When the endpoints carry kernels the report follows the shift recipe: it
    computes the raw integers (kernel eigenvalues counted at the nodes), the
    spectral flow of the family shifted by a delta between the endpoint
    kernels and the first genuine gap, and the one-sided partial Maslov
    indices of the shift segments at both endpoints, and its agreement
    checks the recipe's identity (``IndexReport``).  With ``third_opinion``
    and invertible endpoints it adds the Chern winding of the sfl node
    spectra, labelled so in ``extras["chern_source"]``: it reads the
    spectra at the certificate's own nodes, so it solves no pencil of its own.
    """
    T, grid = _report_inputs(family, lam_grid, T)
    family.validate(lam_samples=(grid[0], grid[len(grid) // 2], grid[-1]))

    node_fn, report_band, pencil_flow = _a0_flow_setup(family, grid, T, N)

    spectra = node_fn(list(grid))  # one stack: the ends are read from it
    end_gaps = [float(np.min(np.abs(vals))) if len(vals) else np.inf
                for vals in (spectra[0], spectra[-1])]
    general_case = min(end_gaps) < endpoint_kernel_tol

    zero_snap = 1e-9 if not general_case else max(1e-9, 3.0 * min(end_gaps))
    flow, cert = pencil_flow(node_fn, check_endpoints=False, zero_snap=zero_snap)

    path_u, path_s = stable_unstable_pair_path(family, grid, t0, T)
    kernel_dims = None
    if general_case:
        kernel_dims = tuple(
            intersection_dimension_rank(path_u.frame(lam), path_s.frame(lam))
            for lam in (grid[0], grid[-1]))
    product, diag = pair_to_product_path(path_u, path_s)
    mas = winding_number(product.souriau_path(diag), kernel_dims)
    crossings = find_crossings(product, diag) if locate_crossings else []

    report = IndexReport(sfl=flow, maslov=mas, sfl_certificate=cert, crossings=crossings)

    if third_opinion:
        if general_case:
            warnings.warn("chern winding skipped: endpoints are not invertible", RuntimeWarning)
        else:
            report.chern = chern_winding(
                _compressed_diagonal_path(node_fn, cert.nodes, pad=1.1 * report_band),
                half_height=1.2 * report_band + 1.0)
            report.extras["chern_source"] = "sfl node spectra"

    if general_case:
        report.extras["endpoint_gaps"] = tuple(end_gaps)
        d = _auto_delta(node_fn, grid, endpoint_kernel_tol)
        shifted = family.shifted(d)
        s_node_fn = _a0_node_fn(shifted, T, N, report_band)
        sf_shift, _ = pencil_flow(s_node_fn)
        report.extras["delta"] = d
        report.extras["sfl_shifted"] = sf_shift
        report.extras["shift_corrections"] = tuple(
            _shift_partial_correction(family, lam, t0, T, d)
            for lam in (grid[0], grid[-1]))
        report.extras["agreement_rule"] = SHIFT_RECIPE
    return report


def _compressed_diagonal_path(node_fn, lams, pad) -> SymmetricMatrixPath:
    """Continuous diagonal carrier of the near-zero pencil spectrum.

    At each node the windowed eigenvalues fill consecutive slots, with pads
    parked at -pad below them and at +pad above.  Each node's bottom-pad
    offset, uncapped, is the one that minimizes slot movement from the previous
    node, so an eigenvalue leaving the window turns into a pad on its exit
    side however many leave on one side, and the tracks stay continuous.  The
    slots span the offsets' range plus one spare pad on each side.  Between
    nodes the slots are interpolated linearly; the winding of the resulting
    path's determinant therefore sees exactly the zero crossings of the spectrum.
    The path runs over [0, 1], as ``chern_winding`` reads it: s maps to
    lam = lams[0] + s (lams[-1] - lams[0]).
    """
    lams = sorted(set(float(x) for x in lams))
    values = [np.sort(np.asarray(vals, dtype=float)) for vals in node_fn(lams)]
    lams = np.asarray(lams)

    def placed(v, start, width):
        return np.concatenate([np.full(start, -pad), v, np.full(width - start - len(v), pad)])

    # the cost of every shift d in [-M, M] of each node against the previous one
    # (M the largest node size): the previous node on slots [-M, 2M) against
    # windows of the next one placed on [-2M, 3M); shifts leaving a gap are out
    sizes = np.array([len(v) for v in values])
    M = int(sizes.max())
    placings = np.array([placed(v, 2 * M, 5 * M) for v in values])
    shifted = np.lib.stride_tricks.sliding_window_view(placings[1:], 3 * M, axis=1)[:, ::-1]
    costs = np.abs(shifted - placings[:-1, None, M:4 * M]).sum(axis=-1)
    d = np.arange(-M, M + 1)
    costs[(d < -sizes[1:, None]) | (d > sizes[:-1, None])] = np.inf
    offsets = np.concatenate([[0], np.cumsum(np.argmin(costs, axis=1) - M)]).tolist()
    lo = min(offsets) - 1
    m = max(o + len(v) for o, v in zip(offsets, values)) + 1 - lo
    tracks = np.array([placed(v, o - lo, m) for o, v in zip(offsets, values)])

    def evaluate(s):
        x = float(np.clip(lams[0] + s * (lams[-1] - lams[0]), lams[0], lams[-1]))
        i = int(np.searchsorted(lams, x, side="right")) - 1
        i = min(max(i, 0), len(lams) - 2)
        t = (x - lams[i]) / (lams[i + 1] - lams[i])
        return np.diag((1.0 - t) * tracks[i] + t * tracks[i + 1])

    return SymmetricMatrixPath(evaluate)


def _auto_delta(node_fn, grid, kernel_tol):
    """Shift past the endpoint kernels but below the first genuine gap."""
    candidates = []
    for vals in node_fn([grid[0], grid[-1]]):
        vals = np.abs(vals)
        nonzero = vals[vals > kernel_tol]
        candidates.append(0.25 * nonzero.min() if len(nonzero) else 1e-3)
    return float(min(candidates))


def _shift_partial_correction(family, lam, t0, T, delta):
    """Pair Maslov index of the shift segment s -> (E^u, E^s) of S_lam + s delta I
    on s in [0, 1], itself a family in s with its own memo, from five nodes."""
    eye, B, K, KL = np.eye(family.dim), family.B, family.K, family.K_limits
    segment = HamiltonianFamily(
        n=family.n, B=lambda s: np.asarray(B(lam)) + (np.asarray(s)[..., None, None] * delta) * eye,
        K=lambda s, t: K(lam, t), K_limits=lambda s: KL(lam), decay_scale=family.decay_scale,
        name=f"{family.name}@{lam:g}+s*{delta:g}I")
    return maslov_index_pair(*stable_unstable_pair_path(segment, 5, t0, T))


def corollary_A_report(family: HamiltonianFamily, lam_grid=None, T: Optional[float] = None,
                       N: int = 160) -> IndexReport:
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
    family.check_contract()
    ts = np.array([-7.0, -1.0, 0.0, 1.0, 7.0])
    drift = np.linalg.norm(family.S(0.0, ts) - family.S(1.0, ts), 2, axis=(-2, -1))
    if np.max(drift) > 1e-9:
        raise AssumptionError(f"family is not lambda-periodic: |S_0 - S_1| = "
                              f"{np.max(drift):.3e} at t={ts[np.argmax(drift)]}")

    T, grid = _report_inputs(family, lam_grid, T)
    space = family.space

    lams = [float(lam) for lam in grid]
    path_u, path_s = (LagrangianPath(space, list(zip(lams, ev(lams))), ev) for ev in (
        lambda lams, sign=sign: _asymptotic_frames(family, lams, sign) for sign in (-1, +1)))
    mas = maslov_index_pair(path_u, path_s)

    node_fn, _, pencil_flow = _a0_flow_setup(family, grid, T, N)
    flow, cert = pencil_flow(node_fn)

    return IndexReport(sfl=flow, maslov=mas, sfl_certificate=cert)
