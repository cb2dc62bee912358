"""Winding number for paths of unitaries and the Maslov index.

The Maslov index of a path of Lagrangian subspaces against a reference
Lagrangian W is the winding number, through the eigenvalue -1, of the path
of unitaries obtained from the Souriau map.  Counting is certified on an
adaptive partition by the engine that also counts spectral flow
(``spectral.certified_count``): on each subinterval an angular window around
-1 is chosen whose boundary phases are provably avoided by the spectrum, and
the index is the telescoping sum of window counts at the partition nodes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .spectral import FlowRefinementError as RefinementError
from .spectral import _choose_eps, certified_count
from .symplectic import (
    LagrangianFrame,
    SymplecticSpace,
    SymplecticError,
    intersection_basis,
    souriau_map,
)

UNITARY_BUDGET = 0.4  # max ||U_{i+1} - U_i|| per certified subinterval
MAX_REFINE_DEPTH = 48
SNAP_TOL = 1e-8  # node eigenphases this close to -1 count as crossings


def _eigenphases(U):
    """Signed angular distance of each eigenvalue from -1, in (-pi, pi]."""
    return np.angle(-np.linalg.eigvals(U))


def _phase_margin(dU_norm):
    """Certified bound on eigenphase motion for a unitary step of given norm."""
    half = min(1.0, 0.5 * dU_norm)
    return 2.0 * np.arcsin(half) * 1.25 + 1e-7


@dataclass
class UnitaryPath:
    """Sampled path of complex unitaries, optionally refinable.

    ``samples`` is a list of (lam, U) with strictly increasing lam; the
    canonical parameter domain is [0, 1].  When ``evaluator`` is provided it
    is used to insert midpoints during certification.
    """

    samples: list
    evaluator: Optional[Callable[[float], np.ndarray]] = None
    tol_unitary: float = 1e-8

    def __post_init__(self):
        if len(self.samples) < 2:
            raise ValueError("a unitary path needs at least two samples")
        lams = [s[0] for s in self.samples]
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise ValueError("sample parameters must be strictly increasing")
        for lam, U in self.samples:
            U = np.asarray(U)
            n = U.shape[0]
            resid = np.linalg.norm(U @ U.conj().T - np.eye(n), 2)
            if resid > self.tol_unitary:
                raise ValueError(f"sample at lam={lam} is not unitary (residual {resid:.2e})")

    def evaluate(self, lam):
        for s_lam, U in self.samples:
            if s_lam == lam:
                return U
        if self.evaluator is None:
            raise RefinementError(f"path is not refinable and lam={lam} is not sampled")
        return np.asarray(self.evaluator(lam))


def winding_number(d: UnitaryPath, budget: float = UNITARY_BUDGET,
                   snap_tol: float = SNAP_TOL, max_depth: int = MAX_REFINE_DEPTH,
                   endpoint_kernel_dims=None) -> int:
    """Winding number of a path of unitaries through the eigenvalue -1.

    Counts, with sign, the net number of eigenvalues crossing -1 counter-
    clockwise.  The partition is refined adaptively until on each subinterval
    the step norm is below ``budget`` and an admissible counting window
    exists; the result is independent of the admissible partition.

    ``endpoint_kernel_dims`` optionally declares (k0, k1) eigenvalues at -1
    at the two path endpoints; their eigenphases are snapped with a looser
    tolerance so that restrictions cut exactly at a crossing count it.
    """
    lams = [lam for lam, _ in d.samples]
    unitaries = {lam: np.asarray(U) for lam, U in d.samples}
    phases = {}

    def unitary(lam):
        if lam not in unitaries:
            unitaries[lam] = np.asarray(d.evaluate(lam))
        return unitaries[lam]

    def psi_at(lam):
        if lam not in phases:
            phases[lam] = _eigenphases(unitary(lam))
        return phases[lam]

    if endpoint_kernel_dims is not None:
        for lam, k in zip((lams[0], lams[-1]), endpoint_kernel_dims):
            psi = psi_at(lam)
            order = np.argsort(np.abs(psi))
            loose = max(snap_tol, 1e-5)
            if k and np.abs(psi[order[: int(k)]]).max() > loose:
                warnings.warn("declared endpoint kernel not visible in eigenphases", RuntimeWarning)
            psi = psi.copy()
            psi[order[: int(k)]] = 0.0
            phases[lam] = psi

    def drift(a, b):
        dU = float(np.linalg.norm(unitary(b) - unitary(a), 2))
        return _phase_margin(dU) if dU <= budget else None

    def eps_for(psi_a, psi_b, margin):
        # exp(i(pi +- eps)) must avoid every eigenvalue, also across the wrap at pi
        centers = np.abs(np.concatenate((psi_a, psi_b)))
        return _choose_eps(np.concatenate([centers, 2.0 * np.pi - centers]), margin,
                           np.pi, 1e-9, 1e-7)

    total, _ = certified_count(psi_at, drift, eps_for, lams, snap_tol, max_depth)
    return total


@dataclass
class LagrangianPath:
    """Path of Lagrangian subspaces of a fixed symplectic space.

    Carries samples (lam, LagrangianFrame) and, optionally, a frame evaluator
    used for adaptive refinement and restriction.
    """

    space: SymplecticSpace
    samples: list
    evaluator: Optional[Callable[[float], LagrangianFrame]] = None

    def __post_init__(self):
        lams = [s[0] for s in self.samples]
        if len(lams) < 2:
            raise ValueError("a Lagrangian path needs at least two samples")
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise ValueError("sample parameters must be strictly increasing")

    @classmethod
    def from_callable(cls, space: SymplecticSpace, fn: Callable[[float], LagrangianFrame],
                      grid=17, lo: float = 0.0, hi: float = 1.0) -> "LagrangianPath":
        lams = np.linspace(lo, hi, grid) if np.isscalar(grid) else np.asarray(grid, dtype=float)
        return cls(space, [(float(l), fn(float(l))) for l in lams], evaluator=fn)

    @property
    def lo(self) -> float:
        return self.samples[0][0]

    @property
    def hi(self) -> float:
        return self.samples[-1][0]

    def frame(self, lam) -> LagrangianFrame:
        for s_lam, F in self.samples:
            if s_lam == lam:
                return F
        if self.evaluator is None:
            raise RefinementError(f"path is not refinable and lam={lam} is not sampled")
        return self.evaluator(lam)

    def reverse(self) -> "LagrangianPath":
        lo, hi = self.lo, self.hi
        rev = [(lo + hi - lam, F) for lam, F in reversed(self.samples)]
        ev = None
        if self.evaluator is not None:
            fn = self.evaluator
            ev = lambda lam: fn(lo + hi - lam)
        return LagrangianPath(self.space, rev, ev)

    def restrict(self, a: float, b: float) -> "LagrangianPath":
        inner = [(lam, F) for lam, F in self.samples if a < lam < b]
        ends = [(a, self.frame(a))], [(b, self.frame(b))]
        return LagrangianPath(self.space, ends[0] + inner + ends[1], self.evaluator)

    def souriau_path(self, W: LagrangianFrame) -> UnitaryPath:
        space = self.space
        samples = [(lam, souriau_map(W, F, space)) for lam, F in self.samples]
        ev = None
        if self.evaluator is not None:
            fn = self.evaluator
            ev = lambda lam: souriau_map(W, fn(lam), space)
        return UnitaryPath(samples, ev)


@dataclass
class CrossingRecord:
    """An isolated intersection of a Lagrangian path with the reference."""

    lam: float
    intersection_dim: int
    signature: Optional[int]
    regular: bool
    form: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        if self.signature is not None and abs(self.signature) > self.intersection_dim:
            raise ValueError("signature cannot exceed the intersection dimension")


def maslov_index(path: LagrangianPath, W: LagrangianFrame, **winding_kwargs) -> int:
    """Maslov index of a Lagrangian path against the reference W."""
    return winding_number(path.souriau_path(W), **winding_kwargs)


def _product_frame(F1: LagrangianFrame, F2: LagrangianFrame) -> LagrangianFrame:
    d1, k1 = F1.columns.shape
    d2, k2 = F2.columns.shape
    cols = np.zeros((d1 + d2, k1 + k2))
    cols[:d1, :k1] = F1.columns
    cols[d1:, k1:] = F2.columns
    return LagrangianFrame(cols)


def _diagonal_frame(dim: int) -> LagrangianFrame:
    eye = np.eye(dim)
    return LagrangianFrame(np.vstack([eye, eye]) / np.sqrt(2.0))


def pair_to_product_path(path1: LagrangianPath, path2: LagrangianPath):
    """Product path Lam1 x Lam2 in (E x E, w x (-w)) plus the diagonal frame."""
    if path1.space.dim != path2.space.dim:
        raise SymplecticError("paired paths must share the ambient dimension")
    prod_space = path1.space.product(path2.space)
    lams1 = [lam for lam, _ in path1.samples]
    lams2 = [lam for lam, _ in path2.samples]
    if lams1 != lams2:
        if path1.evaluator is None or path2.evaluator is None:
            raise RefinementError("pair paths sampled on different grids and not refinable")
        lams1 = sorted(set(lams1) | set(lams2))
    samples = [(lam, _product_frame(path1.frame(lam), path2.frame(lam))) for lam in lams1]
    ev = None
    if path1.evaluator is not None and path2.evaluator is not None:
        f1, f2 = path1.evaluator, path2.evaluator
        ev = lambda lam: _product_frame(f1(lam), f2(lam))
    product = LagrangianPath(prod_space, samples, ev)
    return product, _diagonal_frame(path1.space.dim)


def maslov_index_pair(path1: LagrangianPath, path2: LagrangianPath, **winding_kwargs) -> int:
    """Maslov index of a path of Lagrangian pairs.

    Computed as the index of Lam1(.) x Lam2(.) against the diagonal in the
    product space with form w x (-w); for constant path2 this agrees with
    ``maslov_index(path1, W)``.
    """
    product, diag = pair_to_product_path(path1, path2)
    return maslov_index(product, diag, **winding_kwargs)


def partial_maslov_index(path: LagrangianPath, W: LagrangianFrame, lam0: float,
                         side: str, **winding_kwargs) -> int:
    """Maslov index of the restriction to [lo, lam0] ('left') or [lam0, hi] ('right')."""
    if not (path.lo < lam0 < path.hi):
        raise ValueError(f"lam0 must lie strictly inside ({path.lo}, {path.hi})")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if side == "left":
        sub = path.restrict(path.lo, lam0)
    else:
        sub = path.restrict(lam0, path.hi)
    return maslov_index(sub, W, **winding_kwargs)


def _graph_operator(F0: LagrangianFrame, F: LagrangianFrame, J, cond_max=1e8):
    """Operator A with span(F) = {u + J A u : u in span(F0)}, in F0 coordinates."""
    Uc = F0.columns.T @ F.columns
    Wc = -(F0.columns.T @ J @ F.columns)
    if np.linalg.cond(Uc) > cond_max:
        raise SymplecticError("graph representation over the crossing frame is unsolvable")
    A = Wc @ np.linalg.inv(Uc)
    return 0.5 * (A + A.T)


def crossing_form_index(path: LagrangianPath, W: LagrangianFrame, lam0: float,
                        h: float = 1e-4, reg_rtol: float = 1e-3) -> CrossingRecord:
    """Signature of the crossing form at an isolated crossing.

    Near lam0 the path is written as a graph {u + J A(lam) u : u in Lam(lam0)};
    the form is the derivative of <u, A(lam) u> on the intersection with W,
    obtained by central differences with a Richardson consistency check at
    h/2.  For regular crossings the signature is the local index contribution.
    """
    space = path.space
    F0 = path.frame(lam0)
    basis = intersection_basis(W, F0)
    k = basis.shape[1]
    if k == 0:
        raise SymplecticError(f"lam0={lam0} is not a crossing: the intersection is trivial")

    bcoef = F0.columns.T @ basis  # intersection basis in F0 coordinates

    def form_at(step):
        Ap = _graph_operator(F0, path.frame(lam0 + step), space.J)
        Am = _graph_operator(F0, path.frame(lam0 - step), space.J)
        return bcoef.T @ ((Ap - Am) / (2.0 * step)) @ bcoef

    gamma = form_at(h)
    gamma_half = form_at(h / 2.0)
    if np.linalg.norm(gamma_half - gamma, 2) > 0.25 * max(1.0, np.linalg.norm(gamma_half, 2)):
        warnings.warn("crossing form finite differences did not stabilize under h/2", RuntimeWarning)
    gamma = gamma_half
    gamma = 0.5 * (gamma + gamma.T)

    eigs = np.linalg.eigvalsh(gamma)
    scale = max(np.abs(eigs).max(), 1e-12)
    regular = bool(np.all(np.abs(eigs) > reg_rtol * scale)) and np.abs(eigs).min() > 1e-10
    signature = int(np.count_nonzero(eigs > 0) - np.count_nonzero(eigs < 0)) if regular else None
    return CrossingRecord(lam=float(lam0), intersection_dim=int(k),
                          signature=signature, regular=regular, form=gamma)


def _nearest_phase(path: LagrangianPath, W: LagrangianFrame, lam: float) -> float:
    """Signed Souriau eigenphase closest to -1 (zero exactly at a crossing)."""
    psi = _eigenphases(souriau_map(W, path.frame(lam), path.space))
    return float(psi[np.argmin(np.abs(psi))])


def _shrink_bracket(f, a, b, fa, fb, tol):
    """Midpoint of a bracket [a, b] of a sign change of f, shrunk below tol.

    Regula falsi with the Illinois rule: an end kept twice in a row has its
    secant weight halved, so both ends converge superlinearly.  A secant
    point outside the open bracket is replaced by the midpoint, and one
    closer than tol/2 to an end is moved to tol/2 from it, so that an end
    converged to the noise floor does not stall the other.  The update of
    the ends is that of bisection, so the bracket always holds the sign
    change.
    """
    wa, wb = fa, fb
    moved = 0  # -1 when a moved last, +1 when b moved last
    while b - a > tol:
        m = (a * wb - b * wa) / (wb - wa) if wb != wa else 0.5 * (a + b)
        if not a < m < b:
            m = 0.5 * (a + b)
        m = min(max(m, a + 0.5 * tol), b - 0.5 * tol)
        fm = f(m)
        if abs(fm) <= 1e-15 or np.sign(fm) == np.sign(fa):
            a, fa, wa = m, fm, fm
            if moved < 0:
                wb *= 0.5
            moved = -1
        else:
            b, wb = m, fm
            if moved > 0:
                wa *= 0.5
            moved = 1
    return 0.5 * (a + b)


def find_crossings(path: LagrangianPath, W: LagrangianFrame, coarse: int = 64,
                   tol_lambda: float = 1e-10, phase_tol: float = 1e-6) -> list:
    """Locate parameter values where the path intersects W.

    Scans the Souriau eigenphase nearest -1 on a coarse grid and shrinks the
    bracket of each sign change below ``tol_lambda`` by bracketed secant
    steps; grid points already within ``phase_tol`` of a crossing are
    reported directly.  A sign change where the nearest phase only jumps
    between branches is skipped before refinement when the drift rule of
    ``winding_number`` keeps every eigenphase off zero across its cell, and
    dropped after it when no eigenphase lies within tolerance of zero.
    Crossings at the path endpoints are flagged.
    """
    lams = np.linspace(path.lo, path.hi, coarse + 1)
    vals = np.array([_nearest_phase(path, W, lam) for lam in lams])
    records = []

    def record_at(lam):
        # a sign change with no eigenphase near zero is the nearest phase
        # jumping between branches near +-pi/2, not an intersection
        psi = _eigenphases(souriau_map(W, path.frame(lam), path.space))
        dim = int(np.count_nonzero(np.abs(psi) <= max(phase_tol, 1e3 * tol_lambda)))
        if dim:
            records.append(CrossingRecord(lam=float(lam), intersection_dim=dim,
                                          signature=None, regular=False))

    for i, v in enumerate(vals):
        if abs(v) <= phase_tol:
            if i in (0, len(vals) - 1):
                warnings.warn(f"crossing at path endpoint lam={lams[i]:.6g}", RuntimeWarning)
            record_at(lams[i])

    for i in range(len(lams) - 1):
        a, b = lams[i], lams[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if abs(fa) <= phase_tol or abs(fb) <= phase_tol:
            continue
        if np.sign(fa) == np.sign(fb):
            continue
        # |fa|, |fb| are the ends' smallest |eigenphase|: none reaches 0 inside
        Ua, Ub = (souriau_map(W, path.frame(lam), path.space) for lam in (a, b))
        dU = float(np.linalg.norm(Ub - Ua, 2))
        if dU <= UNITARY_BUDGET and min(abs(fa), abs(fb)) > _phase_margin(dU):
            continue
        record_at(_shrink_bracket(lambda lam: _nearest_phase(path, W, lam), a, b, fa, fb,
                                  tol_lambda))

    records.sort(key=lambda r: r.lam)
    return records
