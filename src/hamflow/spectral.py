"""Spectral flow of symmetric/Hermitian matrix paths and Chern winding.

The spectral flow is computed from a certified adaptive partition of the
parameter interval: on each subinterval a window boundary eps is chosen so
that +-eps provably avoids the spectrum, and the flow is the telescoping sum
of eigenvalue counts in [0, eps] at the partition nodes.  ``certified_count``
is that engine; it runs on precomputed node spectra, which is how
discretized operator pencils are handled, and on Souriau eigenphases, which
is how the Maslov winding is counted.  Every count takes its drift from a
bound the caller supplies (Weyl, Lipschitz or unitary step); there is no
sampled fallback that compares node spectra.  ``unitary_count`` holds the
unitary-step rule: a step of norm at most ``UNITARY_BUDGET`` moves every
eigenphase by at most ``_phase_margin`` of it, and the window around -1 is
chosen across the wrap at pi.  The Chern route counts the winding number of
det(A(lam) + i s I) along a rectangle enclosing the singular set by the same
rule, on the eigenphases of the unitary polar factor of A + i s I: from an
initial partition each step is halved until it is within budget and clears
a window, and a contour that does not settle raises
``FlowRefinementError``.  Both integers agree for admissible paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

MAX_FLOW_DEPTH = 40
UNITARY_BUDGET = 0.4  # max ||U_{i+1} - U_i|| per certified subinterval
MAX_REFINE_DEPTH = 48
SNAP_TOL = 1e-8  # node eigenphases this close to -1 count as crossings


class EndpointKernelError(ValueError):
    """An operation requiring invertible path endpoints found a kernel."""


class FlowRefinementError(RuntimeError):
    """A certified partition could not be refined to admissibility."""


@dataclass
class SymmetricMatrixPath:
    """Path lam in [0,1] -> symmetric (or Hermitian) N x N matrix.

    Each value must be symmetric to 1e-9 of max(1, its norm)."""

    evaluator: Callable[[float], np.ndarray]
    lipschitz: Optional[float] = None

    def evaluate(self, lam: float) -> np.ndarray:
        return self.evaluate_many([lam])[0]

    def evaluate_many(self, lams) -> np.ndarray:
        """Stack of the symmetrized values at ``lams``, checked in one batch.

        Only a value with a nonzero residual A - A^H pays for the 2-norms of
        the rule; a ``ValueError`` names the first value that breaks it."""
        A = np.stack([np.asarray(self.evaluator(float(lam))) for lam in lams])
        AH = A.conj().swapaxes(-1, -2)
        suspect = np.flatnonzero(np.any(A != AH, axis=(-2, -1)))
        if suspect.size:
            resid = np.linalg.norm(A[suspect] - AH[suspect], 2, axis=(-2, -1))
            bad = resid > 1e-9 * np.maximum(1.0, np.linalg.norm(A[suspect], 2, axis=(-2, -1)))
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(f"path value at lam={lams[suspect[i]]} is not symmetric "
                                 f"(residual {resid[i]:.2e})")
        return 0.5 * (A + AH)

    __call__ = evaluate

    def reverse(self) -> "SymmetricMatrixPath":
        fn = self.evaluator
        return SymmetricMatrixPath(lambda lam: fn(1.0 - lam), self.lipschitz)


@dataclass
class FlowCertificate:
    """Partition, window half-widths and node counts backing a counted integer."""

    nodes: np.ndarray
    eps: np.ndarray          # per subinterval
    counts: np.ndarray       # per subinterval: (count at left node, count at right node)
    drifts: np.ndarray       # per subinterval certified/sampled drift bound
    endpoint_gaps: tuple     # min |eigenvalue| at the two path endpoints
    total: int = 0

    def summary(self) -> str:
        lines = [f"subintervals={len(self.eps)} total={self.total} "
                 f"endpoint_gaps=({self.endpoint_gaps[0]:.3e}, {self.endpoint_gaps[1]:.3e})"]
        return "\n".join(lines)


def _choose_eps(centers, margin, cap, floor, min_gap):
    """Window bound eps in (floor, cap) at distance > margin from every centre.

    Each centre c excludes the zone (c - margin, c + margin).  Returns the
    midpoint of the first free gap above ``floor`` when that gap lies below
    ``cap`` and is wider than ``min_gap``, else None.
    """
    zones = sorted((c - margin, c + margin) for c in centers)
    lo = floor
    for zlo, zhi in zones:
        if zhi <= lo:
            continue
        if zlo > lo:
            break
        lo = zhi
    if lo >= cap:
        return None
    hi = cap
    for zlo, zhi in zones:
        if zlo > lo:
            hi = min(hi, zlo)
            break
    if np.isinf(hi):
        return lo + 1.0
    if hi - lo <= min_gap:
        return None
    return 0.5 * (lo + hi)


def _batched(memo, keys, compute):
    """Values at keys from the dict ``memo``.  The keys missing from it go to
    ``compute`` as one tuple, deduplicated in first-seen order, and its
    answer, one value per key, is added to the memo."""
    missing = tuple(k for k in dict.fromkeys(keys) if k not in memo)
    if missing:
        got = list(compute(missing))
        if len(got) != len(missing):
            raise ValueError(f"a batched evaluator maps a sequence of lam to a list of values; "
                             f"asked for {len(missing)}, it returned {len(got)}")
        memo.update(zip(missing, got))
    return [memo[k] for k in keys]


def _min_abs(vals):
    return float(np.min(np.abs(vals))) if len(vals) else np.inf


def certified_count(values, drift, window, nodes, zero_snap, max_depth):
    """Telescoping window count on an adaptive partition (Phillips 1996).

    ``values(lams)`` maps a list of nodes to the list of their signed spectra,
    measured from the crossing point (eigenvalues from 0, Souriau eigenphases
    from -1).  ``drift(pairs)`` maps a list of subintervals (a, b) to the
    list of bounds on how far any value moves over each, with None for one
    that must be split.  ``window(va, vb, m)`` returns a bound eps whose
    +-eps stays clear of both node spectra by more than the
    drift m, or None.  The total is the sum over subintervals of the right
    count minus the left count of values in [-zero_snap, eps].

    The partition is refined in rounds.  Each round asks for the drift of
    every subinterval whose ends are known in one ``drift`` call, decides
    them, raising ``FlowRefinementError`` on one that fails at ``max_depth``
    or cannot be halved, then halves the leftmost failing subintervals and
    asks for all their midpoints in one ``values`` call, so a batched
    evaluator (the transport behind a Maslov winding) serves a whole round.
    A round halves at most as many subintervals as the initial
    partition has: a path that never settles (a discontinuous one) would
    otherwise double the work of every round up to the depth limit, while
    with the cap it fails after about that many times ``max_depth``
    evaluations.  Every failing subinterval is halved in some round, so a
    successful count evaluates the nodes of the bisection tree, whatever the
    order of the rounds.  Returns (total, FlowCertificate).
    """
    nodes = list(nodes)
    known = dict(zip(nodes, values(nodes)))
    width = len(nodes) - 1
    todo = [(a, b, 0) for a, b in zip(nodes, nodes[1:])]
    failing, intervals = [], []
    while todo:
        drifts = list(drift([(a, b) for a, b, _ in todo]))
        if len(drifts) != len(todo):
            raise ValueError(f"a drift function maps a list of subintervals to a list of bounds; "
                             f"asked for {len(todo)}, it returned {len(drifts)}")
        for (a, b, depth), m in zip(todo, drifts):
            va, vb = known[a], known[b]
            eps = None if m is None else window(va, vb, m)
            if eps is None:
                mid = 0.5 * (a + b)
                if depth >= max_depth or mid <= a or mid >= b:
                    detail = "over budget" if m is None else f"{m:.3g}"
                    raise FlowRefinementError(
                        f"refinement exhausted on [{a:.6g}, {b:.6g}] (drift {detail})")
                failing.append((a, b, depth))
                continue
            kL = int(np.count_nonzero((va >= -zero_snap) & (va <= eps)))
            kR = int(np.count_nonzero((vb >= -zero_snap) & (vb <= eps)))
            intervals.append((a, b, eps, kL, kR, m))
        failing.sort()
        split, failing = failing[:width], failing[width:]
        mids = [0.5 * (a + b) for a, b, _ in split]
        if mids:
            known.update(zip(mids, values(mids)))
        todo = [half for (a, b, depth), mid in zip(split, mids)
                for half in ((a, mid, depth + 1), (mid, b, depth + 1))]

    intervals.sort(key=lambda iv: iv[0])
    total = int(sum(kR - kL for (_, _, _, kL, kR, _) in intervals))
    cert = FlowCertificate(
        nodes=np.array([iv[0] for iv in intervals] + [intervals[-1][1]]),
        eps=np.array([iv[2] for iv in intervals]),
        counts=np.array([(iv[3], iv[4]) for iv in intervals]),
        drifts=np.array([iv[5] for iv in intervals]),
        endpoint_gaps=(_min_abs(known[nodes[0]]), _min_abs(known[nodes[-1]])),
        total=total,
    )
    return total, cert


def _phase_margin(dU_norm):
    """Certified bound on eigenphase motion for a unitary step of given norm."""
    half = min(1.0, 0.5 * dU_norm)
    return 2.0 * np.arcsin(half) * 1.25 + 1e-7


def _unitary_drift(dU_norm):
    """Eigenphase drift across a unitary step of the given norm, or None when
    the step exceeds ``UNITARY_BUDGET`` and must be split."""
    return _phase_margin(dU_norm) if dU_norm <= UNITARY_BUDGET else None


def _phase_window(psi_a, psi_b, margin):
    # exp(i(pi +- eps)) must avoid every eigenvalue, also across the wrap at pi
    centers = np.abs(np.concatenate((psi_a, psi_b)))
    return _choose_eps(np.concatenate([centers, 2.0 * np.pi - centers]), margin, np.pi, 1e-9, 1e-7)


def unitary_count(phases, step_norm, nodes):
    """Net count of eigenvalues crossing -1 counterclockwise along a path of unitaries.

    ``phases(lams)`` maps a list of nodes to their eigenphases, the signed
    angular distances from -1 in (-pi, pi], and ``step_norm(pairs)`` maps a
    list of subintervals (a, b), whose nodes were asked for, to the list of
    their ||U(b) - U(a)||.  A subinterval counts once its step norm is
    within ``UNITARY_BUDGET`` and a window of
    half-width eps around -1 clears both nodes' phases by more than
    ``_phase_margin`` of the step; node phases within ``SNAP_TOL`` of -1
    count as crossings, and refinement stops at ``MAX_REFINE_DEPTH``
    halvings.  Returns ``certified_count``'s (total, certificate).
    """
    return certified_count(phases, lambda pairs: [_unitary_drift(s) for s in step_norm(pairs)],
                           _phase_window, nodes, SNAP_TOL, MAX_REFINE_DEPTH)


def flow_from_spectra(node_fn, drift_fn, lo=0.0, hi=1.0, initial_nodes=17, window=None,
                      zero_snap=1e-9, check_endpoints=True, report_window=None):
    """Certified spectral flow from node eigenvalue data.

    The partition starts from ``initial_nodes``, a count (an integer >= 2)
    of equally spaced nodes on [lo, hi] or a sequence of finite nodes in
    [lo, hi], to which lo and hi are added; refinement stops at
    ``MAX_FLOW_DEPTH`` halvings.

    ``node_fn(lams)`` maps a list of nodes to the list of their (real)
    eigenvalues relevant for counting; it is asked once for both endpoints and
    then once per refinement round, for the nodes not asked before, so a
    batched evaluator serves a whole round.  ``drift_fn(pairs)`` maps a list
    of subintervals (lamL, lamR), whose nodes were asked for, to the list of
    certified bounds on how far any of the eigenvalues moves over each (e.g.
    a Weyl, Lipschitz or unitary-step bound); it is asked once per round.
    With a ``window``, counting boundaries stay below it; ``report_window``
    (>= window, default equal) declares how far out ``node_fn`` reports, so
    unreported eigenvalues are known to be at least that far from zero at the
    nodes and the boundary eps additionally stays below report_window minus
    the drift, which refines every subinterval whose drift could carry a
    branch across the reported band unseen.  With ``check_endpoints``, an
    endpoint eigenvalue within 1e-8 of zero raises ``EndpointKernelError``.
    """
    cache = {}

    def spec(lams):
        return _batched(cache, lams, lambda missing: [np.sort(np.asarray(v, dtype=float))
                                                      for v in node_fn(missing)])

    if np.isscalar(initial_nodes):
        if not isinstance(initial_nodes, (int, np.integer)) or initial_nodes < 2:
            raise ValueError(f"initial_nodes must be an integer >= 2, got {initial_nodes!r}")
        nodes = list(np.linspace(lo, hi, initial_nodes))
    else:
        nodes = sorted(set(float(x) for x in initial_nodes) | {lo, hi})
        if not (np.isfinite(nodes).all() and nodes[0] == lo and nodes[-1] == hi):
            raise ValueError(f"initial_nodes must be finite and lie in [{lo}, {hi}]")

    gap = min(map(_min_abs, spec([lo, hi])))
    if check_endpoints and gap <= 1e-8:
        raise EndpointKernelError(
            f"endpoint kernel detected: smallest |eigenvalue| at the ends is {gap:.3e}")

    rw = report_window if report_window is not None else window

    def eps_for(sa, sb, m):
        cap = min(window, rw - m) if window is not None else np.inf
        return _choose_eps(np.abs(np.concatenate((sa, sb))), m, cap, 0.0, max(1e-14, 1e-9 * m))

    return certified_count(spec, lambda pairs: [m + 1e-12 for m in drift_fn(pairs)], eps_for,
                           nodes, zero_snap, MAX_FLOW_DEPTH)


def spectral_flow(path: SymmetricMatrixPath, initial_nodes=17, check_endpoints=True):
    """Net signed count of eigenvalues of A(lam) crossing zero on [0, 1].

    Returns (flow, certificate).  Subintervals are refined until the window
    boundary is provably clear of the spectrum, using the operator-norm step
    as a Weyl drift bound (or the declared Lipschitz constant when present).
    """
    mats = {}

    def node_fn(lams):
        # flow_from_spectra asks only for new nodes: one check and one eigvalsh per round
        A = path.evaluate_many(lams)
        mats.update(zip(lams, A))
        return list(np.linalg.eigvalsh(A))

    def drift_fn(pairs):
        steps = np.linalg.norm(np.stack([mats[b] - mats[a] for a, b in pairs]), 2, axis=(-2, -1))
        if path.lipschitz is None:
            return steps.tolist()
        return [min(step if step > 0 else np.inf, path.lipschitz * (b - a))
                for step, (a, b) in zip(steps.tolist(), pairs)]

    return flow_from_spectra(node_fn, drift_fn, 0.0, 1.0, initial_nodes=initial_nodes,
                             check_endpoints=check_endpoints)


def normalization_path(dim_minus: int, dim_plus: int) -> SymmetricMatrixPath:
    """Reference path with spectral flow one.

    A(lam) = -P_minus + (lam - 1/2) P_0 + P_plus with complementary orthogonal
    projections, rank P_0 = 1; the only eigenvalue branch meeting zero is
    lam - 1/2, crossing upward at lam = 1/2.
    """
    if dim_minus < 1 or dim_plus < 1:
        raise ValueError("dim_minus and dim_plus must be at least 1")
    diag_fixed = np.concatenate([-np.ones(dim_minus), [0.0], np.ones(dim_plus)])
    mid = dim_minus

    def evaluate(lam):
        d = diag_fixed.copy()
        d[mid] = lam - 0.5
        return np.diag(d)

    return SymmetricMatrixPath(evaluate, lipschitz=1.0)


def chern_winding(path: SymmetricMatrixPath, half_height: Optional[float] = None,
                  samples: int = 16) -> int:
    """Winding number of det(A(lam) + i s I) along a rectangle around [0,1] x {0}.

    The rectangle spans lam in [-0.05, 1.05] and s in [-half_height, half_height],
    ``half_height`` finite and positive.
    The path is extended by constants beyond [0, 1]; since the endpoints are
    invertible and A + i s I is invertible for s != 0, the determinant is
    nonvanishing on the contour and the winding equals the spectral flow.
    det/|det| is the determinant of the unitary polar factor of A + i s I,
    whose eigenvalues (a_j + i s)/|a_j + i s|, a_j those of A, each turn
    less than half a turn along an edge, so ``unitary_count`` counts their
    flow through -1 and no step hides a whole turn of the product.  The
    contour runs counterclockwise from corner to corner, each edge
    parametrised by its fraction.  It starts from its four corners, with
    ``samples`` (an integer >= 1) equal steps split evenly over the edges,
    at least one each, so no step spans a corner.  Steps are halved until
    the polar factor moves by at most ``UNITARY_BUDGET`` across each and a
    window clears it; a contour that does not settle raises
    ``FlowRefinementError``.  Each round's new lam are checked and
    diagonalized in one stack, and its steps between distinct lam take one
    stacked product and one batched 2-norm.
    """
    if not isinstance(samples, (int, np.integer)) or samples < 1:
        raise ValueError(f"samples must be an integer >= 1, got {samples!r}")
    if half_height is not None and not (np.isfinite(half_height) and half_height > 0):
        raise ValueError(f"half_height must be finite and positive, got {half_height!r}")
    eig = {}

    def decompose(lams):
        return _batched(eig, lams, lambda new: zip(*np.linalg.eigh(path.evaluate_many(new))))

    if min(np.min(np.abs(vals)) for vals, _ in decompose([0.0, 1.0])) <= 1e-10:
        raise EndpointKernelError("chern_winding requires invertible endpoints")
    if half_height is None:
        half_height = max(np.max(np.abs(vals)) for vals, _ in decompose(
            [float(lam) for lam in np.linspace(0, 1, 9)])) + 1.0

    # the contour parameter runs over [0, 4] with the corners at the integers
    corners = np.array([(-0.05, -half_height), (1.05, -half_height), (1.05, half_height),
                        (-0.05, half_height), (-0.05, -half_height)])
    steps = [max(1, samples // 4 + (edge < samples % 4)) for edge in range(4)]
    nodes = np.concatenate([np.linspace(edge, edge + 1, k, endpoint=False)
                            for edge, k in enumerate(steps)] + [[4.0]])
    polar = {}

    def phases(taus):
        xs, ss = (np.interp(taus, np.arange(5.0), corners[:, i]) for i in (0, 1))
        vals, vecs = map(np.stack, zip(*decompose([float(x) for x in np.clip(xs, 0.0, 1.0)])))
        z = vals + 1j * ss[:, None]
        if np.any(z == 0):
            i = int(np.argwhere(z == 0)[0, 0])
            raise FlowRefinementError(f"determinant vanished on the contour at {(xs[i], ss[i])}")
        polar.update(zip(taus, zip(np.clip(xs, 0.0, 1.0), vecs, z / np.abs(z))))
        return list(np.angle(-z))

    def step_norm(pairs):
        (xa, Va, ua), (xb, Vb, ub) = (map(np.stack, zip(*(polar[tau] for tau in taus)))
                                      for taus in zip(*pairs))
        # one A at both ends, so both polar factors have its eigenvectors
        norms = np.max(np.abs(ub - ua), axis=-1)
        cross = xa != xb
        if cross.any():
            Va, ua, Vb, ub = Va[cross], ua[cross], Vb[cross], ub[cross]
            moved = ((Vb * ub[:, None, :]) @ Vb.conj().swapaxes(-1, -2)
                     - (Va * ua[:, None, :]) @ Va.conj().swapaxes(-1, -2))
            norms[cross] = np.linalg.norm(moved, 2, axis=(-2, -1))
        return norms.tolist()

    total, _ = unitary_count(phases, step_norm, nodes)
    return total
