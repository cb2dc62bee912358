"""Acceptance criteria: the integer identities at their stated tolerances.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
The randomized criteria use fixed seeds so runs are reproducible.
"""

import time

import numpy as np
import pytest

from hamflow.families import rotating_asymptotics_family, sech_family
from hamflow.hamiltonian import (
    assemble_Q_operator,
    corollary_A_report,
    stable_unstable_splitting,
    theorem_A_report,
    theorem_B_report,
)
from hamflow.families import random_family
from hamflow.maslov import (
    LagrangianPath,
    UnitaryPath,
    crossing_form_index,
    maslov_index,
    maslov_index_pair,
    pair_to_product_path,
    partial_maslov_index,
    winding_number,
)
from hamflow.spectral import (
    SymmetricMatrixPath,
    chern_winding,
    normalization_path,
    spectral_flow,
)
from hamflow.symplectic import (
    gap_distance,
    intersection_dimension_rank,
    lagrangian_from_matrix,
    souriau_map,
    standard_space,
)
from helpers import (
    frame_from_unitary,
    fundamental_solution,
    gamma_nor_path,
    phase_block_path,
    random_hermitian,
    random_lagrangian_frame,
    random_lagrangian_path,
    relative_dimension,
    souriau_intersection_count,
    symplectic_residual,
    unitary_from_hermitian,
)

from test_spectral import complexified_path, random_piecewise_linear, shifted_path


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {status} {name} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def test_criterion_1_normalization_maslov():
    start = time.time()
    path, W, _ = gamma_nor_path()
    mu = maslov_index(path, W)
    rec = crossing_form_index(path, W, 0.5)
    value = rec.form[0, 0]
    ok = (mu == 1 and rec.signature == 1 and abs(value - np.pi) <= 1e-3)
    elapsed = time.time() - start
    _report("1 normalization Maslov",
            ok and elapsed < 1.0,
            f"mu={mu} signature={rec.signature} Gamma/<u,u>={value:.6f} ({elapsed:.2f}s)")


def test_criterion_2_normalization_spectral_flow():
    start = time.time()
    flow, _ = spectral_flow(normalization_path(1, 1))
    elapsed = time.time() - start
    _report("2 normalization spectral flow", flow == 1 and elapsed < 1.0,
            f"sfl={flow} ({elapsed:.2f}s)")


def test_criterion_3_q_pencil_eigenvalue_branch():
    start = time.time()
    sp = standard_space(1)
    W = lagrangian_from_matrix(np.array([[1.0], [0.0]]), sp)
    errors_ok = True
    details = []
    for lam in (0.3, 0.5, 0.7):
        L0 = lagrangian_from_matrix(
            np.array([[-np.sin(np.pi * lam)], [np.cos(np.pi * lam)]]), sp)
        op = assemble_Q_operator(L0, W, 0.0, 1.0, 400, sp)
        eigs = op.eigenvalues(window=np.pi / 2 * 0.99)
        exact = np.pi * lam - np.pi / 2
        err = np.abs(eigs - exact).min()
        errors_ok &= (len(eigs) == 1 and err <= 5e-3)
        details.append(f"lam={lam}: err={err:.2e}")
    errs = []
    for N in (100, 200, 400):
        op = assemble_Q_operator(
            lagrangian_from_matrix(
                np.array([[-np.sin(0.3 * np.pi)], [np.cos(0.3 * np.pi)]]), sp),
            W, 0.0, 1.0, N, sp)
        errs.append(np.abs(op.eigenvalues(window=np.pi / 2 * 0.99)
                           - (0.3 * np.pi - np.pi / 2)).min())
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    elapsed = time.time() - start
    ok = errors_ok and all(o >= 1.9 for o in orders) and elapsed < 10.0
    _report("3 Q-pencil eigenvalue branch", ok,
            f"{'; '.join(details)}; orders={[f'{o:.2f}' for o in orders]} ({elapsed:.1f}s)")


def _random_admissible_pair(rng, n, grid=17, margin=0.15):
    while True:
        p1 = random_lagrangian_path(rng, n, speed=float(rng.uniform(1.0, 2.2)), grid=grid)
        p2 = random_lagrangian_path(rng, n, speed=float(rng.uniform(0.5, 1.5)), grid=grid)
        product, diag = pair_to_product_path(p1, p2)
        good = True
        for lam in (0.0, 1.0):
            U = souriau_map(diag, product.frame(lam), product.space)
            psi = np.angle(-np.linalg.eigvals(U))
            if np.abs(psi).min() < margin:
                good = False
                break
        if good:
            return p1, p2


def test_criterion_4_theorem_b_random_pairs():
    start = time.time()
    rng = np.random.default_rng(20240001)
    mismatches = []
    for trial in range(50):
        n = 2 if trial < 25 else 3
        mesh = 32 if n == 2 else 24
        p1, p2 = _random_admissible_pair(rng, n)
        rep = theorem_B_report(p1, p2, 0.0, 1.0, mesh)
        if rep.sfl != rep.maslov:
            mismatches.append((trial, n, rep.sfl, rep.maslov))
    elapsed = time.time() - start
    _report("4 theorem B random pairs", not mismatches and elapsed < 300.0,
            f"50 pairs (R^4 and R^6), mismatches={mismatches} ({elapsed:.1f}s)")


@pytest.mark.parametrize("seed, skip_n3", [(4, 3), (803, 11)])
def test_theorem_b_pairs_once_miscounted_by_a_sampled_drift(seed, skip_n3):
    # boundary-pairs pair-7-R6 of seed 4 and pair-23-R6 of seed 803; a drift
    # sampled from node spectra counted -4 and -2 against maslov -5 and -3
    rng = np.random.default_rng(seed)
    for n in [2] * 25 + [3] * skip_n3:
        _random_admissible_pair(rng, n)
    p0, p1 = _random_admissible_pair(rng, 3)
    rep = theorem_B_report(p0, p1, 0.0, 1.0, 24)
    assert rep.sfl == rep.maslov
    # the windowed pencil spectrum is (2 pi k - theta_j) / 2 on [0, 1], with
    # e^{i theta_j} the eigenvalues of minus the Souriau map of the pair
    for lam in (0.1, 0.35, 0.6, 0.85):
        L0, L1 = p0.frame(lam), p1.frame(lam)
        theta = np.angle(-np.linalg.eigvals(souriau_map(L0, L1, p0.space)))
        exact = ((2.0 * np.pi * np.arange(-1, 2)[:, None] - theta) / 2.0).ravel()
        vals = assemble_Q_operator(L0, L1, 0.0, 1.0, 24, p0.space).eigenvalues(
            window=3.0 * np.pi / 8.0)
        assert vals.size
        assert np.abs(vals[:, None] - exact).min(axis=1).max() <= 2e-4


def test_criterion_5_theorem_c_random_paths():
    start = time.time()
    rng = np.random.default_rng(20240002)
    mismatches = 0
    for _ in range(100):
        N = int(rng.integers(2, 9))
        path = random_piecewise_linear(rng, N)
        flow, _ = spectral_flow(path, initial_nodes=13)
        if chern_winding(path) != flow:
            mismatches += 1
    kappa = chern_winding(SymmetricMatrixPath(lambda lam: np.array([[2 * lam - 1.0]])))
    elapsed = time.time() - start
    _report("5 theorem C determinant winding",
            mismatches == 0 and kappa == 1 and elapsed < 120.0,
            f"100 random paths, mismatches={mismatches}, kappa winding={kappa} ({elapsed:.1f}s)")


def test_criterion_6_theorem_a_sech_sweep():
    start = time.time()
    amplitudes = np.linspace(1.1, 2.15, 8)
    grid = np.linspace(0.0, 1.0, 9)
    failures = []
    for amp in amplitudes:
        fam = sech_family(1, amplitude=float(amp))
        base = theorem_A_report(fam, lam_grid=grid, T=9.0, N=96, locate_crossings=False)
        t2 = theorem_A_report(fam, lam_grid=grid, T=18.0, N=192, locate_crossings=False)
        n2 = theorem_A_report(fam, lam_grid=grid, T=9.0, N=192, locate_crossings=False)
        same = (base.sfl == base.maslov == t2.sfl == t2.maslov == n2.sfl == n2.maslov)
        if not same:
            failures.append((float(amp), base.sfl, base.maslov, t2.sfl, t2.maslov,
                             n2.sfl, n2.maslov))
    elapsed = time.time() - start
    _report("6 theorem A sech sweep", not failures and elapsed < 600.0,
            f"8 amplitudes in [1.10, 2.15], failures={failures} ({elapsed:.1f}s)")


def test_criterion_7_corollary_a_rotating():
    start = time.time()
    settings = ({"turns": 1.0}, {"turns": -1.0}, {"turns": 1.0, "rates": np.array([2.0])})
    failures = []
    for kwargs in settings:
        fam = rotating_asymptotics_family(1, **kwargs)
        rep = corollary_A_report(fam, lam_grid=np.linspace(0, 1, 17), T=7.0, N=96)
        if not rep.agree:
            failures.append((kwargs, rep.sfl, rep.maslov))
    elapsed = time.time() - start
    _report("7 corollary A rotating asymptotics", not failures and elapsed < 300.0,
            f"3 settings, failures={failures} ({elapsed:.1f}s)")


# --- criterion 8: property suites, >= 100 randomized trials each -------------


def test_criterion_8a_souriau_unitarity():
    rng = np.random.default_rng(81)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 6))
        sp = standard_space(n)
        U = souriau_map(random_lagrangian_frame(rng, n), random_lagrangian_frame(rng, n), sp)
        worst = max(worst, np.linalg.norm(U @ U.conj().T - np.eye(n), 2))
    _report("8a Souriau unitarity", worst <= 1e-10, f"worst residual {worst:.2e} (200 trials)")


def test_criterion_8b_intersection_count_equality():
    rng = np.random.default_rng(82)
    bad = 0
    for _ in range(150):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(0, n + 1))
        sp = standard_space(n)
        Q = unitary_from_hermitian(random_hermitian(rng, n))
        O = np.linalg.qr(rng.standard_normal((n, n)))[0]
        phases = np.concatenate([np.zeros(k), rng.uniform(0.3, np.pi - 0.3, n - k)])
        W = frame_from_unitary(Q)
        L = frame_from_unitary(Q @ O @ np.diag(np.exp(1j * phases)) @ O.T)
        if not (souriau_intersection_count(W, L, sp) == intersection_dimension_rank(W, L) == k):
            bad += 1
    _report("8b intersection count equality", bad == 0, f"engineered dims 0..n, {bad} failures (150 trials)")


def test_criterion_8c_gap_metric_axioms():
    rng = np.random.default_rng(83)
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 4))
        a, b, c = (random_lagrangian_frame(rng, n) for _ in range(3))
        ok &= gap_distance(a, b) == gap_distance(b, a)
        ok &= gap_distance(a, c) <= gap_distance(a, b) + gap_distance(b, c) + 1e-10
        ok &= gap_distance(a, a) == 0.0
    _report("8c gap metric axioms", ok, "(100 trials)")


def test_criterion_8d_symplectic_identities():
    rng = np.random.default_rng(84)
    worst = 0.0
    for _ in range(100):
        fam = random_family(rng, n=int(rng.integers(1, 3)))
        Psi = fundamental_solution(fam, float(rng.uniform(0, 1)), 3.0, steps=192)
        worst = max(worst, symplectic_residual(Psi, fam.space.J))
    _report("8d fundamental solution symplectic identities", worst <= 1e-8,
            f"worst residual {worst:.2e} (100 trials)")


def test_criterion_8e_relative_dimension():
    rng = np.random.default_rng(85)
    ok = True
    for _ in range(100):
        fam = random_family(rng, n=int(rng.integers(1, 4)), kind="tanh")
        J = fam.space.J
        lam = float(rng.uniform(0, 1))
        Vp_plus, _ = stable_unstable_splitting(J @ fam.S_limit(lam, +1))
        Vp_minus, _ = stable_unstable_splitting(J @ fam.S_limit(lam, -1))
        ok &= relative_dimension(Vp_plus, Vp_minus) == -relative_dimension(Vp_minus, Vp_plus)
        ok &= relative_dimension(Vp_plus, Vp_minus) == 0
    _report("8e relative dimension antisymmetry and Fredholm index zero", ok, "(100 trials)")


def test_criterion_8f_concatenation_and_reversal():
    rng = np.random.default_rng(86)
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 3))
        path = random_lagrangian_path(rng, n, speed=2.0)
        W = frame_from_unitary(unitary_from_hermitian(random_hermitian(rng, n)))
        split = float(rng.uniform(0.2, 0.8))
        total = maslov_index(path, W)
        ok &= (partial_maslov_index(path, W, split, "left")
               + partial_maslov_index(path, W, split, "right") == total)
        ok &= maslov_index(path.reverse(), W) == -total
    for _ in range(100):
        p = random_piecewise_linear(rng, 4)
        total, _ = spectral_flow(p)
        half_a, _ = spectral_flow(SymmetricMatrixPath(lambda l: p.evaluator(0.5 * l)),
                                  check_endpoints=False)
        half_b, _ = spectral_flow(SymmetricMatrixPath(lambda l: p.evaluator(0.5 + 0.5 * l)),
                                  check_endpoints=False)
        ok &= half_a + half_b == total
        rev, _ = spectral_flow(p.reverse())
        ok &= rev == -total
    _report("8f concatenation additivity and reversal antisymmetry", ok,
            "(100 Maslov + 100 spectral flow trials)")


def test_criterion_8g_shift_invariance():
    rng = np.random.default_rng(87)
    ok = True
    for _ in range(100):
        p = random_piecewise_linear(rng, 4)
        gap = min(np.abs(np.linalg.eigvalsh(p.evaluate(lam))).min() for lam in (0.0, 1.0))
        base, _ = spectral_flow(p)
        ok &= spectral_flow(shifted_path(p, 1e-3 * gap))[0] == base
    _report("8g small-shift invariance of the spectral flow", ok, "(100 trials)")


def test_criterion_8h_complexification():
    rng = np.random.default_rng(88)
    ok = True
    for _ in range(100):
        p = random_piecewise_linear(rng, int(rng.integers(2, 7)))
        fr, _ = spectral_flow(p)
        fc, _ = spectral_flow(complexified_path(p))
        ok &= fr == fc
    _report("8h complexification equality", ok, "(100 trials)")


def test_criterion_8i_maslov_midpoint_dichotomy():
    rng = np.random.default_rng(89)
    ok = True
    for _ in range(100):
        k = int(rng.integers(1, 4))
        extra = int(rng.integers(0, 3))
        sign = int(rng.choice([-1, 1]))
        fixed = rng.uniform(0.4, np.pi - 0.4, extra)
        path, W, _ = phase_block_path((sign,) * k, fixed_phases=fixed)
        total = maslov_index(path, W)
        left = partial_maslov_index(path, W, 0.5, "left")
        right = partial_maslov_index(path, W, 0.5, "right")
        if sign > 0:
            ok &= (total == k and left == k and right == 0)
        else:
            ok &= (total == -k and left == 0 and right == -k)
    _report("8i Maslov midpoint dichotomy", ok, "(100 constructed single-crossing paths)")


def test_criterion_8j_refinement_stability():
    rng = np.random.default_rng(90)
    ok = True
    for _ in range(50):
        n = int(rng.integers(1, 3))
        path = random_lagrangian_path(rng, n, speed=1.8, grid=9)
        W = frame_from_unitary(unitary_from_hermitian(random_hermitian(rng, n)))
        coarse = maslov_index(path, W)
        for factor in (2, 4):
            dense = LagrangianPath(path.space,
                                   [(l, path.frame(l)) for l in np.linspace(0, 1, 8 * factor + 1)],
                                   path.evaluator)
            ok &= maslov_index(dense, W) == coarse
    for _ in range(50):
        p = random_piecewise_linear(rng, 5)
        f1, _ = spectral_flow(p, initial_nodes=9)
        f2, _ = spectral_flow(p, initial_nodes=17)
        f3, _ = spectral_flow(p, initial_nodes=33)
        ok &= f1 == f2 == f3
        ok &= chern_winding(p, samples=128) == chern_winding(p, samples=512) == f1
    _report("8j refinement stability of the integer outputs", ok,
            "(50 Maslov + 50 flow/winding trials)")
