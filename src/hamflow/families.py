"""Builtin catalog of asymptotically hyperbolic Hamiltonian families.

Four parameterized families cover the report pipelines without an expression
parser: an autonomous reference, a sech-profile perturbation that creates
kernel crossings as its amplitude sweeps past a threshold, a lambda-periodic
family whose asymptotic splittings rotate, and a localized rotation whose
stable/unstable boundary data reproduces the normalization path.

Every ``B(lam)`` and ``K(lam, t)`` here broadcasts: arrays of lam and t that
broadcast against each other give a stack of shape
``np.broadcast_shapes(shape(lam), shape(t)) + (d, d)``, and scalars give one
``(d, d)`` matrix.  Each scalar profile is lifted by ``[..., None, None]``
before it scales a matrix, so every entry rounds as the scalar call's does.
"""

from __future__ import annotations

import numpy as np

from .hamiltonian import AssumptionError, HamiltonianFamily
from .symplectic import standard_space

# amplitude at which the default sech family first acquires a homoclinic
# solution (located numerically by the kernel-crossing scan; further
# thresholds follow at spacing one: 1.5, 2.5, 3.5, ...)
SECH_CRITICAL_AMPLITUDE = 1.5


def _hyperbolic_B(n, rates):
    rates = np.asarray(rates, dtype=float)
    return np.diag(np.concatenate([rates, -rates]))


def _rotation(eye, J, theta):
    """Block rotation cos(theta) I + sin(theta) J; commutes with J."""
    return np.cos(theta)[..., None, None] * eye + np.sin(theta)[..., None, None] * J


def autonomous_family(n: int = 1, rates=None) -> HamiltonianFamily:
    """Constant coefficients S_lam(t) = B; no kernel for any lam."""
    rates = rates if rates is not None else 1.0 + np.arange(n)
    B = _hyperbolic_B(n, rates)
    zero = np.zeros((2 * n, 2 * n))
    return HamiltonianFamily(
        n=n,
        B=lambda lam: B,
        K=lambda lam, t: zero,
        K_limits=lambda lam: (zero, zero),
        decay_scale=1.0,
        name="autonomous",
    )


def sech_family(n: int = 1, amplitude: float = 2.0, width: float = 1.0,
                rates=None) -> HamiltonianFamily:
    """S_lam(t) = B + amplitude * lam * sech(t / width) * I.

    The isotropic sech well pulls an eigenvalue across zero: for n = 1 the
    first crossing sits at amplitude * lam ~ SECH_CRITICAL_AMPLITUDE, so with
    the default amplitude the sweep lam in [0, 1] sees exactly one crossing.
    """
    rates = rates if rates is not None else 1.0 + np.arange(n)
    B = _hyperbolic_B(n, rates)
    eye = np.eye(2 * n)
    zero = np.zeros((2 * n, 2 * n))

    def K(lam, t):
        return (amplitude * lam / np.cosh(t / width))[..., None, None] * eye

    return HamiltonianFamily(
        n=n,
        B=lambda lam: B,
        K=K,
        K_limits=lambda lam: (zero, zero),
        decay_scale=width,
        name="sech-perturbation",
    )


def rotating_asymptotics_family(n: int = 1, turns: float = 1.0, ramp_scale: float = 1.0,
                                rates=None) -> HamiltonianFamily:
    """Lambda-periodic family whose t -> +inf limit rotates by pi * turns.

    S_lam(t) = (1 - sigma(t)) B + sigma(t) R(lam)^T B R(lam) with a tanh ramp
    sigma; at lam = 0, 1 the rotation is trivial (R(1) = -I), so S_0 = S_1.
    The asymptotic unstable space at +inf sweeps through the fixed stable
    space at -inf once per half-turn.
    """
    rates = rates if rates is not None else 1.0 + np.arange(n)
    B = _hyperbolic_B(n, rates)
    J = standard_space(n).J
    eye = np.eye(2 * n)

    def B_plus(lam):
        R = _rotation(eye, J, np.pi * turns * lam)
        return R.swapaxes(-1, -2) @ B @ R

    def sigma(t):
        return 0.5 * (1.0 + np.tanh(t / ramp_scale))

    return HamiltonianFamily(
        n=n,
        B=lambda lam: B,
        K=lambda lam, t: sigma(t)[..., None, None] * (B_plus(lam) - B),
        K_limits=lambda lam: (np.zeros((2 * n, 2 * n)), B_plus(lam) - B),
        decay_scale=ramp_scale,
        name="rotating-asymptotics",
    )


def gamma_nor_embedding_family(n: int = 1, angle: float = np.pi, bump_width: float = 0.25,
                               rates=None) -> HamiltonianFamily:
    """Localized rotation: S_lam(t) = B + angle * lam * bump(t) * I.

    The isotropic bump integrates to one, so crossing t = 0 rotates every
    solution by about angle * lam; the unstable frame at 0 traces a rotating
    line against the fixed stable frame, reproducing the one-crossing
    normalization data for angle = pi.  ``bump_width`` must be finite and
    positive: a negative width turns the rotation backwards.
    """
    if not (np.isfinite(bump_width) and bump_width > 0):
        raise AssumptionError(f"bump_width must be finite and positive, got {bump_width}")
    rates = rates if rates is not None else 1.0 + np.arange(n)
    B = _hyperbolic_B(n, rates)
    eye = np.eye(2 * n)
    zero = np.zeros((2 * n, 2 * n))
    norm = 1.0 / (bump_width * np.sqrt(2.0 * np.pi))

    def bump(t):
        return norm * np.exp(-0.5 * (t / bump_width) ** 2)

    return HamiltonianFamily(
        n=n,
        B=lambda lam: B,
        K=lambda lam, t: (angle * lam * bump(t))[..., None, None] * eye,
        K_limits=lambda lam: (zero, zero),
        decay_scale=max(bump_width, 0.5),
        name="gamma-nor-embedding",
    )


_CATALOG = {
    "autonomous": {
        "factory": autonomous_family,
        "params": {"n": "half-dimension (default 1)",
                   "rates": "hyperbolic rates per block (default 1..n)"},
        "assumptions": "A1, A2, A3 (constant in lambda); JB hyperbolic by construction",
        "notes": "no crossings; both indices vanish",
    },
    "sech-perturbation": {
        "factory": sech_family,
        "params": {"n": "half-dimension (default 1)",
                   "amplitude": "well depth c; K = c*lam*sech(t/width)*I (default 2.0)",
                   "width": "decay scale of the well (default 1.0)",
                   "rates": "hyperbolic rates (default 1..n)"},
        "assumptions": "A1, A2; asymptotic operators equal JB for every lambda",
        "notes": f"first crossing near lam = {SECH_CRITICAL_AMPLITUDE}/amplitude",
    },
    "rotating-asymptotics": {
        "factory": rotating_asymptotics_family,
        "params": {"n": "half-dimension (default 1)",
                   "turns": "half-turns of the +inf block over the sweep (default 1.0)",
                   "ramp_scale": "tanh ramp scale (default 1.0)",
                   "rates": "hyperbolic rates (default 1..n)"},
        "assumptions": "A1, A2, and A3 when turns is an integer",
        "notes": "asymptotic-splitting pair path loses transversality once per half-turn",
    },
    "gamma-nor-embedding": {
        "factory": gamma_nor_embedding_family,
        "params": {"n": "half-dimension (default 1)",
                   "angle": "total rotation at lam = 1 (default pi)",
                   "bump_width": "Gaussian width of the localized rotation (default 0.25)",
                   "rates": "hyperbolic rates (default 1..n)"},
        "assumptions": "A1, A2",
        "notes": "unstable frame at 0 rotates by ~angle*lam; one crossing for angle = pi",
    },
}


def family_catalog() -> dict:
    """Catalog of builtin family ids with parameters and assumption notes."""
    return {fid: {k: v for k, v in entry.items() if k != "factory"}
            for fid, entry in _CATALOG.items()}


def make_family(family_id: str, **params) -> HamiltonianFamily:
    """Instantiate a builtin family by catalog id."""
    if family_id not in _CATALOG:
        known = ", ".join(sorted(_CATALOG))
        raise KeyError(f"unknown family '{family_id}'; known ids: {known}")
    return _CATALOG[family_id]["factory"](**params)


def random_family(rng, n: int = 1, kind: str = "sech") -> HamiltonianFamily:
    """Random family satisfying (A1), (A2), for property tests.

    Every asymptotic coefficient matrix has hyperbolicity margin above 0.3.
    ``kind='sech'`` keeps the asymptotic operators constant; ``kind='tanh'``
    draws different limits at the two ends (resampled until hyperbolic).
    """
    d = 2 * n
    J = standard_space(n).J
    while True:
        B = rng.standard_normal((d, d))
        B = 0.5 * (B + B.T)
        if np.min(np.abs(np.linalg.eigvals(J @ B).real)) > 0.3:
            break
    G0 = rng.standard_normal((d, d))
    G0 = 0.5 * (G0 + G0.T)
    G1 = rng.standard_normal((d, d))
    G1 = 0.5 * (G1 + G1.T)
    zero = np.zeros((d, d))

    if kind == "sech":
        K = lambda lam, t: ((G0 + np.asarray(lam)[..., None, None] * G1)
                            / np.cosh(t)[..., None, None])
        K_limits = lambda lam: (zero, zero)
    elif kind == "tanh":
        while True:
            Gp = rng.standard_normal((d, d))
            Gp = 0.5 * (Gp + Gp.T) * 0.4
            margins = [np.min(np.abs(np.linalg.eigvals(J @ (B + lam * Gp)).real))
                       for lam in np.linspace(0, 1, 5)]
            if min(margins) > 0.3:
                break
        sigma = lambda t: 0.5 * (1.0 + np.tanh(t))
        K = lambda lam, t: ((sigma(t) * lam)[..., None, None] * Gp
                            + G0 / np.cosh(t)[..., None, None])
        K_limits = lambda lam: (zero, lam * Gp)
    else:
        raise ValueError("kind must be 'sech' or 'tanh'")

    return HamiltonianFamily(n=n, B=lambda lam: B, K=K, K_limits=K_limits,
                             decay_scale=1.0, name=f"random-{kind}")
