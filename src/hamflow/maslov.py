"""Winding number for paths of unitaries and the Maslov index.

The Maslov index of a path of Lagrangian subspaces against a reference
Lagrangian W is the winding number, through the eigenvalue -1, of the path
of unitaries obtained from the Souriau map.  Counting is certified on an
adaptive partition by the engine that also counts spectral flow, through
its unitary-step rule (``spectral.unitary_count``): on each subinterval an
angular window around -1 is chosen whose boundary phases are provably avoided
by the spectrum, and the index is the telescoping sum of window counts at the
partition nodes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .spectral import FlowRefinementError as RefinementError
from .spectral import _batched, _unitary_drift, unitary_count
from .symplectic import (
    LagrangianFrame,
    SymplecticSpace,
    SymplecticError,
    intersection_basis,
    souriau_map,
)


def _eigenphases(U):
    """Signed angular distance of each eigenvalue from -1, in (-pi, pi]; for a
    stack of unitaries, one row per unitary from one ``eigvals`` call."""
    return np.angle(-np.linalg.eigvals(U))


def _lookup(known, evaluator, lams):
    """Path values at lams: known ones from the dict ``known``, the rest from
    one ``evaluator`` call, which are added to ``known``."""
    def unsampled(missing):
        raise RefinementError(f"path is not refinable and lam={missing[0]} is not sampled")
    return _batched(known, lams, evaluator or unsampled)


@dataclass
class UnitaryPath:
    """Sampled path of complex unitaries, optionally refinable.

    ``samples`` is a list of (lam, U) with strictly increasing lam; the
    canonical parameter domain is [0, 1].  When ``evaluator`` is provided it
    is used to insert midpoints during certification: it maps a sequence of
    lam to the sequence of their unitaries, and each refinement round of
    ``winding_number`` makes one call.  ``from_callable`` adapts a function
    of one lam.  The path is the one memo of its unitaries, their
    eigenphases and its last ``winding_number`` certificate (``_certificate``),
    which the count and the crossing scan share.
    """

    samples: list
    evaluator: Optional[Callable[[Sequence[float]], list]] = None

    def __post_init__(self):
        if len(self.samples) < 2:
            raise ValueError("a unitary path needs at least two samples")
        lams = [s[0] for s in self.samples]
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise ValueError("sample parameters must be strictly increasing")
        Us = np.stack([np.asarray(U) for _, U in self.samples])
        # Frobenius >= spectral
        resid = np.linalg.norm(Us @ Us.conj().swapaxes(-1, -2) - np.eye(Us.shape[-1]),
                               axis=(-2, -1))
        if np.any(resid > 1e-8):
            i = int(np.argmax(resid > 1e-8))
            raise ValueError(f"sample at lam={lams[i]} is not unitary (residual {resid[i]:.2e})")
        self._known, self._phases, self._certificate = dict(self.samples), {}, None

    @classmethod
    def from_callable(cls, fn: Callable[[float], np.ndarray], grid=17, lo: float = 0.0,
                      hi: float = 1.0) -> "UnitaryPath":
        lams = np.linspace(lo, hi, grid) if np.isscalar(grid) else np.asarray(grid, dtype=float)
        return cls([(float(l), fn(float(l))) for l in lams],
                   lambda lams: [fn(float(l)) for l in lams])

    def unitaries(self, lams) -> list:
        """Unitaries at lams: known ones looked up, the rest from one evaluator call."""
        return _lookup(self._known, self.evaluator, lams)

    def phases(self, lams) -> list:
        """Eigenphases (``_eigenphases``) of the unitaries at lams: known ones
        looked up, the rest from one ``eigvals`` call on their stack."""
        return _batched(self._phases, lams,
                        lambda new: _eigenphases(np.stack(self.unitaries(new))))

    def evaluate(self, lam):
        return np.asarray(self.unitaries([lam])[0])


def winding_number(d: UnitaryPath, endpoint_kernel_dims=None) -> int:
    """Winding number of a path of unitaries through the eigenvalue -1.

    Counts, with sign, the net number of eigenvalues crossing -1 counter-
    clockwise, by the unitary-step rule of ``spectral.unitary_count``; the
    result is independent of the admissible partition.

    ``endpoint_kernel_dims`` optionally declares (k0, k1) eigenvalues at -1
    at the two path endpoints; their eigenphases are snapped with a looser
    tolerance (1e-5) so that restrictions cut exactly at a crossing count it.
    The snap acts on copies: the path's memo keeps the phases as computed.

    The samples, and each refinement round's new unitaries, take one
    evaluator call, one ``eigvals`` call and one norm call for their steps,
    through the path's memo.
    """
    lams = [lam for lam, _ in d.samples]
    snapped = {}
    if endpoint_kernel_dims is not None:
        psis = d.phases(lams)  # every sample in one call, as the count asks for them
        for lam, psi, k in zip((lams[0], lams[-1]), (psis[0], psis[-1]), endpoint_kernel_dims):
            order = np.argsort(np.abs(psi))
            if k and np.abs(psi[order[: int(k)]]).max() > 1e-5:
                warnings.warn("declared endpoint kernel not visible in eigenphases", RuntimeWarning)
            snapped[lam] = psi.copy()
            snapped[lam][order[: int(k)]] = 0.0

    def phases_at(lams):
        return [snapped.get(lam, psi) for lam, psi in zip(lams, d.phases(lams))]

    def step_norm(pairs):
        steps = np.stack([np.asarray(d._known[b]) - np.asarray(d._known[a]) for a, b in pairs])
        return np.linalg.norm(steps, 2, axis=(-2, -1)).tolist()

    total, d._certificate = unitary_count(phases_at, step_norm, lams)
    return total


@dataclass
class LagrangianPath:
    """Path of Lagrangian subspaces of a fixed symplectic space.

    Carries samples (lam, LagrangianFrame) and, optionally, a frame evaluator
    used for adaptive refinement and restriction.  The evaluator maps a
    sequence of lam to the list of their frames, so a refinement round asks
    for all its new lam in one call (the pair path of a Hamiltonian family
    transports them in one batch); ``from_callable`` adapts a function of
    one lam, and ``frame(lam)`` evaluates one.
    """

    space: SymplecticSpace
    samples: list
    evaluator: Optional[Callable[[Sequence[float]], list]] = None

    def __post_init__(self):
        lams = [s[0] for s in self.samples]
        if len(lams) < 2:
            raise ValueError("a Lagrangian path needs at least two samples")
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise ValueError("sample parameters must be strictly increasing")
        self._souriau = {}  # souriau_path per reference, by its columns' bytes

    @classmethod
    def from_callable(cls, space: SymplecticSpace, fn: Callable[[float], LagrangianFrame],
                      grid=17, lo: float = 0.0, hi: float = 1.0) -> "LagrangianPath":
        lams = np.linspace(lo, hi, grid) if np.isscalar(grid) else np.asarray(grid, dtype=float)
        return cls(space, [(float(l), fn(float(l))) for l in lams],
                   lambda lams: [fn(float(l)) for l in lams])

    @property
    def lo(self) -> float:
        return self.samples[0][0]

    @property
    def hi(self) -> float:
        return self.samples[-1][0]

    def frames(self, lams) -> list:
        """Frames at lams: sampled ones looked up, the rest from one evaluator call."""
        return _lookup(dict(self.samples), self.evaluator, lams)

    def frame(self, lam) -> LagrangianFrame:
        return self.frames([lam])[0]

    def reverse(self) -> "LagrangianPath":
        lo, hi = self.lo, self.hi
        rev = [(lo + hi - lam, F) for lam, F in reversed(self.samples)]
        ev = None
        if self.evaluator is not None:
            fn = self.evaluator
            ev = lambda lams: fn([lo + hi - lam for lam in lams])
        return LagrangianPath(self.space, rev, ev)

    def restrict(self, a: float, b: float) -> "LagrangianPath":
        inner = [(lam, F) for lam, F in self.samples if a < lam < b]
        Fa, Fb = self.frames([a, b])
        return LagrangianPath(self.space, [(a, Fa)] + inner + [(b, Fb)], self.evaluator)

    def souriau_path(self, W: LagrangianFrame) -> UnitaryPath:
        """The unitaries of the path against W, memoized on the path per W;
        the samples, and each evaluator call, take one Souriau call on the
        stack of their frames."""
        space, fn = self.space, self.evaluator  # the memoized path must not refer to self

        def unitaries(frames):
            return souriau_map(W, np.stack([F.columns for F in frames]), space)

        key = W.columns.tobytes()
        if key not in self._souriau:
            samples = list(zip([lam for lam, _ in self.samples],
                               unitaries([F for _, F in self.samples])))
            ev = None if fn is None else (lambda lams: unitaries(fn(lams)))
            self._souriau[key] = UnitaryPath(samples, ev)
        return self._souriau[key]


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


def maslov_index(path: LagrangianPath, W: LagrangianFrame) -> int:
    """Maslov index of a Lagrangian path against the reference W."""
    return winding_number(path.souriau_path(W))


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
    samples = [(lam, _product_frame(F1, F2))
               for lam, F1, F2 in zip(lams1, path1.frames(lams1), path2.frames(lams1))]
    ev = None
    if path1.evaluator is not None and path2.evaluator is not None:
        f1, f2 = path1.evaluator, path2.evaluator
        ev = lambda lams: [_product_frame(F1, F2) for F1, F2 in zip(f1(lams), f2(lams))]
    product = LagrangianPath(prod_space, samples, ev)
    return product, _diagonal_frame(path1.space.dim)


def maslov_index_pair(path1: LagrangianPath, path2: LagrangianPath) -> int:
    """Maslov index of a path of Lagrangian pairs.

    Computed as the index of Lam1(.) x Lam2(.) against the diagonal in the
    product space with form w x (-w); for constant path2 this agrees with
    ``maslov_index(path1, W)``.
    """
    product, diag = pair_to_product_path(path1, path2)
    return winding_number(product.souriau_path(diag))


def partial_maslov_index(path: LagrangianPath, W: LagrangianFrame, lam0: float,
                         side: str) -> int:
    """Maslov index of the restriction to [lo, lam0] ('left') or [lam0, hi] ('right')."""
    if not (path.lo < lam0 < path.hi):
        raise ValueError(f"lam0 must lie strictly inside ({path.lo}, {path.hi})")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if side == "left":
        sub = path.restrict(path.lo, lam0)
    else:
        sub = path.restrict(lam0, path.hi)
    return maslov_index(sub, W)


def _graph_operator(F0: LagrangianFrame, F: LagrangianFrame, J):
    """Operator A with span(F) = {u + J A u : u in span(F0)}, in F0 coordinates."""
    Uc = F0.columns.T @ F.columns
    Wc = -(F0.columns.T @ J @ F.columns)
    if np.linalg.cond(Uc) > 1e8:
        raise SymplecticError("graph representation over the crossing frame is unsolvable")
    A = Wc @ np.linalg.inv(Uc)
    return 0.5 * (A + A.T)


def crossing_form_index(path: LagrangianPath, W: LagrangianFrame, lam0: float) -> CrossingRecord:
    """Signature of the crossing form at an isolated crossing.

    Near lam0 the path is written as a graph {u + J A(lam) u : u in Lam(lam0)};
    the form is the derivative of <u, A(lam) u> on the intersection with W,
    obtained by central differences at step h = 1e-4 with a Richardson
    consistency check at h/2.  The crossing is regular when every eigenvalue
    of the form exceeds 1e-3 of the largest; for regular crossings the
    signature is the local index contribution.
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

    h = 1e-4
    gamma = form_at(h)
    gamma_half = form_at(h / 2.0)
    if np.linalg.norm(gamma_half - gamma, 2) > 0.25 * max(1.0, np.linalg.norm(gamma_half, 2)):
        warnings.warn("crossing form finite differences did not stabilize under h/2", RuntimeWarning)
    gamma = gamma_half
    gamma = 0.5 * (gamma + gamma.T)

    eigs = np.linalg.eigvalsh(gamma)
    scale = max(np.abs(eigs).max(), 1e-12)
    regular = bool(np.all(np.abs(eigs) > 1e-3 * scale)) and np.abs(eigs).min() > 1e-10
    signature = int(np.count_nonzero(eigs > 0) - np.count_nonzero(eigs < 0)) if regular else None
    return CrossingRecord(lam=float(lam0), intersection_dim=int(k),
                          signature=signature, regular=regular, form=gamma)


def _nearest(psi) -> float:
    return float(psi[np.argmin(np.abs(psi))])


def _shrink_bracket(f, a, b, fa, fb, tol):
    """Midpoint of a bracket [a, b] of a sign change of f, shrunk below tol.

    Regula falsi with the Illinois rule: an end kept twice in a row has its
    secant weight halved, so both ends converge superlinearly.  A secant
    point outside the open bracket is replaced by the midpoint, and one
    closer than tol/2 to an end is moved to tol/2 from it, so that an end
    converged to the noise floor does not stall the other.  The update of
    the ends is that of bisection, so the bracket always holds the sign
    change.  A point where |f| <= 1e-15 is a zero and is returned.
    """
    wa, wb = fa, fb
    moved = 0  # -1 when a moved last, +1 when b moved last
    while b - a > tol:
        m = (a * wb - b * wa) / (wb - wa) if wb != wa else 0.5 * (a + b)
        if not a < m < b:
            m = 0.5 * (a + b)
        m = min(max(m, a + 0.5 * tol), b - 0.5 * tol)
        fm = f(m)
        if abs(fm) <= 1e-15:
            return m
        if np.sign(fm) == np.sign(fa):
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


def find_crossings(path: LagrangianPath, W: LagrangianFrame) -> list:
    """Locate parameter values where the path intersects W.

    Every unitary and eigenphase the scan reads comes from the memo of
    ``path.souriau_path(W)``.  The drift rule of ``winding_number`` first
    clears the cells of the certified partition of that path's last count,
    or of the samples when there was none, whose unitary step is within
    budget and whose end eigenphases all lie farther from zero than the step
    can move them and than 1e-6.  The cells of a grid of max(64, samples - 1)
    equal cells that meet a cell left open are scanned: the eigenphase
    nearest -1 is read at their nodes, and the bracket of each sign change
    is shrunk below 1e-10 in lam by bracketed secant steps; nodes within
    1e-6 of a crossing are reported directly, and a record's dimension
    counts the eigenphases within 1e-6 at the end of its final bracket
    nearest its midpoint.  A sign change where the nearest phase only jumps
    between branches is skipped before refinement when the drift rule clears
    its cell, and dropped after it when no eigenphase lies within 1e-6 of
    zero.  Crossings at the path endpoints are flagged.
    """
    phase_tol = 1e-6
    coarse = max(64, len(path.samples) - 1)
    upath = path.souriau_path(W)
    records = []

    def unitaries(lams):
        return np.stack(upath.unitaries(lams)), np.stack(upath.phases(lams))

    def cleared(step, psi_a, psi_b):  # no eigenphase comes within phase_tol of zero inside
        drift = _unitary_drift(float(step))
        return drift is not None and np.abs(np.append(psi_a, psi_b)).min() > max(drift, phase_tol)

    def record_at(lam, psi):
        # a sign change with no eigenphase near zero is the nearest phase
        # jumping between branches near +-pi/2, not an intersection
        dim = int(np.count_nonzero(np.abs(psi) <= phase_tol))
        if dim:
            records.append(CrossingRecord(lam=float(lam), intersection_dim=dim,
                                          signature=None, regular=False))

    cert = upath._certificate
    ends = [lam for lam, _ in path.samples] if cert is None else cert.nodes.tolist()
    Us, psis = unitaries(ends)
    steps = np.linalg.norm(Us[1:] - Us[:-1], 2, axis=(-2, -1))
    spans = np.array([(a, b) for a, b, step, pa, pb in zip(ends, ends[1:], steps, psis, psis[1:])
                      if not cleared(step, pa, pb)]).reshape(-1, 2)
    lams = np.linspace(path.lo, path.hi, coarse + 1)
    # the grid cells that meet an open span, and their nodes
    hit = ((lams[:-1, None] < spans[:, 1]) & (spans[:, 0] < lams[1:, None])).any(axis=1)
    scan = np.flatnonzero(np.append(hit, False) | np.insert(hit, 0, False)).tolist()
    Us, psis = (dict(zip(scan, x)) for x in unitaries(list(lams[scan]))) if scan else ({}, {})
    vals = {i: _nearest(psis[i]) for i in scan}

    for i in scan:
        if abs(vals[i]) <= phase_tol:
            if i in (0, coarse):
                warnings.warn(f"crossing at path endpoint lam={lams[i]:.6g}", RuntimeWarning)
            record_at(lams[i], psis[i])

    cells = [i for i in np.flatnonzero(hit).tolist()
             if min(abs(vals[i]), abs(vals[i + 1])) > phase_tol
             and np.sign(vals[i]) != np.sign(vals[i + 1])]
    steps = (np.linalg.norm(np.stack([Us[i + 1] - Us[i] for i in cells]), 2, axis=(-2, -1))
             if cells else [])
    for i, step in zip(cells, steps):
        if cleared(step, psis[i], psis[i + 1]):
            continue
        seen = {lams[i]: vals[i], lams[i + 1]: vals[i + 1]}
        lam = _shrink_bracket(lambda lam: seen.setdefault(lam, _nearest(upath.phases([lam])[0])),
                              lams[i], lams[i + 1], vals[i], vals[i + 1], 1e-10)
        end = min(seen, key=lambda x: abs(x - lam))  # an end of the final bracket
        record_at(lam, upath.phases([end])[0])

    records.sort(key=lambda r: r.lam)
    return records
