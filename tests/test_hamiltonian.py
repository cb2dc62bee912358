import inspect
import math
import os
import sys
import threading
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from hamflow.families import (
    autonomous_family,
    gamma_nor_embedding_family,
    make_family,
    random_family,
    rotating_asymptotics_family,
    sech_family,
)
from hamflow.hamiltonian import (
    AssumptionError,
    HamiltonianFamily,
    assemble_A0_operator,
    assemble_Q_operator,
    corollary_A_report,
    hyperbolicity_margin,
    kernel_crossings,
    pencil_window,
    propagate_subspace,
    stable_space,
    stable_unstable_pair_path,
    stable_unstable_splitting,
    theorem_A_report,
    theorem_B_report,
    unstable_space,
)
from hamflow import hamiltonian as ha
from hamflow import maslov
from hamflow import spectral
from hamflow.maslov import (
    LagrangianPath,
    find_crossings,
    maslov_index_pair,
    pair_to_product_path,
    partial_maslov_index,
    winding_number,
)
from hamflow.spectral import _unitary_drift, chern_winding
from hamflow.symplectic import (
    LagrangianFrame,
    check_frame_columns,
    gap_distance,
    intersection_dimension_rank,
    lagrangian_from_matrix,
    souriau_map,
    standard_space,
)
from helpers import (
    fundamental_solution,
    gamma_nor_path,
    line_frame,
    relative_dimension,
    symplectic_residual,
)


SP1 = standard_space(1)
B_HYP = np.diag([1.0, -1.0])


class TestHyperbolicity:
    def test_examples(self):
        assert hyperbolicity_margin(SP1.J @ B_HYP) > 1e-8         # eigenvalues +-1
        assert not hyperbolicity_margin(SP1.J) > 1e-8             # eigenvalues +-i
        assert hyperbolicity_margin(np.diag([2.0, -3.0])) > 1e-8

    def test_margin(self):
        assert hyperbolicity_margin(np.diag([2.0, -3.0])) == pytest.approx(2.0)


def _schur_splitting(M):
    """Reference: stable and unstable frames from two ordered real Schur forms."""
    _, Zm, k_minus = scipy.linalg.schur(M, output="real", sort="lhp")
    _, Zp, k_plus = scipy.linalg.schur(M, output="real", sort="rhp")
    return Zm[:, :k_minus], Zp[:, :k_plus]


def _asymptotic_matrices():
    """J S_lam(-+inf) of the builtin and random n = 1-3 families, 9 lam each."""
    rng = np.random.default_rng(21)
    families = [autonomous_family(1), autonomous_family(2), sech_family(1, amplitude=2.0),
                rotating_asymptotics_family(1), rotating_asymptotics_family(3, turns=1.5),
                gamma_nor_embedding_family(1)]
    families += [random_family(rng, n=n, kind=kind) for n in (1, 2, 3) for kind in ("sech", "tanh")]
    return [np.stack([fam.space.J @ fam.S_limit(lam, sign) for lam in np.linspace(0.0, 1.0, 9)])
            for fam in families for sign in (-1, +1)]


def _projector(V):
    return V @ V.swapaxes(-1, -2)


class TestSplitting:
    def test_matches_schur_splitting(self):
        for stack in _asymptotic_matrices():
            for M in stack:
                for V, W in zip(stable_unstable_splitting(M), _schur_splitting(M)):
                    assert np.linalg.norm(_projector(V) - _projector(W), 2) <= 1e-13

    def test_stack_matches_one_call_per_matrix(self):
        for stack in _asymptotic_matrices():
            Vm, Vp = stable_unstable_splitting(stack)
            assert Vm.shape == Vp.shape == stack.shape[:-1] + (stack.shape[-1] // 2,)
            for M, vm, vp in zip(stack, Vm, Vp):
                for V, W in zip((vm, vp), stable_unstable_splitting(M)):
                    assert np.linalg.norm(_projector(V) - _projector(W), 2) <= 1e-13

    def test_diagonal(self):
        Vm, Vp = stable_unstable_splitting(np.diag([-1.0, 2.0]))
        assert np.allclose(np.abs(Vm.ravel()), [1.0, 0.0])
        assert np.allclose(np.abs(Vp.ravel()), [0.0, 1.0])

    def test_jb_eigenvectors(self):
        Vm, Vp = stable_unstable_splitting(SP1.J @ B_HYP)
        assert np.allclose(np.abs(Vm.ravel()), [1, 1] / np.sqrt(2))
        assert np.allclose(np.abs(Vp.ravel()), [1, 1] / np.sqrt(2))
        assert Vm.ravel()[0] * Vm.ravel()[1] < 0  # span(e1 - e2)
        assert Vp.ravel()[0] * Vp.ravel()[1] > 0  # span(e1 + e2)

    def test_exponential_decay(self):
        M = SP1.J @ B_HYP
        Vm, Vp = stable_unstable_splitting(M)
        x = Vm[:, 0]
        assert np.linalg.norm(scipy.linalg.expm(5.0 * M) @ x) < 1e-2

    def test_lagrangian_when_from_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            fam = random_family(rng, n=int(rng.integers(1, 4)))
            sp = fam.space
            Vm, Vp = stable_unstable_splitting(sp.J @ fam.S_limit(0.5, +1))
            for V in (Vm, Vp):
                check_frame_columns(V, sp, tol=1e-8)
            assert Vm.shape[1] + Vp.shape[1] == sp.dim

    def test_invariance_residual(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            fam = random_family(rng, n=2)
            M = fam.space.J @ fam.S_limit(0.3, -1)
            Vm, Vp = stable_unstable_splitting(M)
            for V in (Vm, Vp):
                P = V @ V.T
                resid = np.linalg.norm((np.eye(4) - P) @ M @ P, 2)
                assert resid <= 1e-10 * max(1.0, np.linalg.norm(M, 2))

    def test_rejects_nonhyperbolic(self):
        with pytest.raises(ValueError):
            stable_unstable_splitting(SP1.J)


class TestRelativeDimension:
    def test_examples(self):
        V = np.eye(4)[:, :1]
        W = np.eye(4)[:, :2]
        assert relative_dimension(V, V) == 0
        assert relative_dimension(V, W) == 1
        assert relative_dimension(W, V) == -1

    def test_antisymmetry_and_dim_difference(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            d = int(rng.integers(2, 7))
            kv, kw = int(rng.integers(1, d)), int(rng.integers(1, d))
            V = np.linalg.qr(rng.standard_normal((d, kv)))[0]
            W = np.linalg.qr(rng.standard_normal((d, kw)))[0]
            assert relative_dimension(V, W) == -relative_dimension(W, V)
            assert relative_dimension(V, W) == kw - kv

    def test_fredholm_index_zero_for_families(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            fam = random_family(rng, n=int(rng.integers(1, 4)), kind="tanh")
            J = fam.space.J
            lam = float(rng.uniform(0, 1))
            Vm_plus, _ = stable_unstable_splitting(J @ fam.S_limit(lam, +1))
            Vm_minus, _ = stable_unstable_splitting(J @ fam.S_limit(lam, -1))
            assert relative_dimension(Vm_plus, Vm_minus) == 0


class TestFundamentalSolution:
    def test_zero_coefficients(self):
        zero = np.zeros((2, 2))
        fam = autonomous_family(1)
        free = type(fam)(n=1, B=lambda lam: zero, K=lambda lam, t: zero,
                         K_limits=lambda lam: (zero, zero))
        Psi = fundamental_solution(free, 0.0, 2.0, steps=32)
        assert np.allclose(Psi[-1], np.eye(2), atol=1e-12)
        assert np.allclose(Psi[0], np.eye(2), atol=1e-12)

    def test_constant_coefficients_vs_expm(self):
        fam = autonomous_family(1)
        Psi = fundamental_solution(fam, 0.7, 1.0, steps=128)
        oracle = scipy.linalg.expm(SP1.J @ B_HYP)
        assert np.linalg.norm(Psi[-1] - oracle, 2) <= 1e-8

    def test_symplectic_residual_builtin_families(self):
        for fam in (autonomous_family(1), sech_family(1, amplitude=2.0),
                    rotating_asymptotics_family(1), gamma_nor_embedding_family(1)):
            Psi = fundamental_solution(fam, 0.6, 5.0, steps=512)
            assert symplectic_residual(Psi, fam.space.J) <= 1e-8

    def test_inverse_via_symplectic_identity(self):
        fam = sech_family(1, amplitude=1.0)
        Psi = fundamental_solution(fam, 0.5, 3.0, steps=256)
        J = fam.space.J
        assert np.allclose(-J @ Psi[-1].T @ J @ Psi[-1], np.eye(2), atol=1e-8)


class TestPropagation:
    def test_zero_field_preserves_projection(self):
        zero = np.zeros((2, 2))
        fam = autonomous_family(1)
        free = type(fam)(n=1, B=lambda lam: zero, K=lambda lam, t: zero,
                         K_limits=lambda lam: (zero, zero))
        F0 = line_frame(SP1, 30.0)
        F1 = propagate_subspace(F0, free, 0.0, 0.0, 4.0)
        assert gap_distance(F0, F1) < 1e-12

    def test_autonomous_invariance(self):
        fam = autonomous_family(1)
        _, Vp = stable_unstable_splitting(SP1.J @ B_HYP)
        frame = LagrangianFrame(Vp)
        out = propagate_subspace(frame, fam, 0.5, 0.0, 5.0)
        assert gap_distance(out, frame) <= 1e-8

    def test_lagrangian_preserved(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            fam = random_family(rng, n=2)
            sp = fam.space
            _, Vp = stable_unstable_splitting(sp.J @ fam.S_limit(0.2, -1))
            out = propagate_subspace(LagrangianFrame(Vp), fam, 0.2, -4.0, 2.0)
            assert np.linalg.norm(out.columns.T @ sp.J @ out.columns, 2) <= 1e-8

    def test_truncation_self_convergence(self):
        fam = sech_family(1, amplitude=2.0)
        a = propagate_subspace(LagrangianFrame(
            stable_unstable_splitting(SP1.J @ B_HYP)[0]), fam, 0.9, 8.0, 0.0)
        b = propagate_subspace(LagrangianFrame(
            stable_unstable_splitting(SP1.J @ B_HYP)[0]), fam, 0.9, 12.0, 0.0)
        assert gap_distance(a, b) <= 1e-6


def _loop_transport(frame, family, lam, t_from, t_to, steps_per_unit=64):
    """Reference: one lam and one Magnus-Pade step at a time, a QR every 8
    steps and at the end."""
    F = np.asarray(frame, dtype=float)
    if t_to == t_from:
        return np.linalg.qr(F)[0]
    J, eye = family.space.J, np.eye(family.dim)
    nsteps = max(16, int(np.ceil(abs(t_to - t_from) * steps_per_unit)))
    h = (t_to - t_from) / nsteps
    c1, c2 = 0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0
    for i in range(nsteps):
        A1 = J @ family.S(lam, t_from + h * (i + c1))
        A2 = J @ family.S(lam, t_from + h * (i + c2))
        omega = 0.5 * h * (A1 + A2) + math.sqrt(3.0) / 12.0 * h * h * (A2 @ A1 - A1 @ A2)
        even = eye + omega @ omega / 12.0
        F = np.linalg.solve(even - 0.5 * omega, even + 0.5 * omega) @ F
        if (i + 1) % 8 == 0 or i + 1 == nsteps:
            F, r = np.linalg.qr(F)
            F = F * np.sign(np.sign(np.diag(r)) + 0.5)
    return F


def _nearest_phase(path, W, lam):
    """Reference: the Souriau eigenphase nearest -1 of one frame, from its own
    Souriau call and ``eigvals``, outside the path's memo."""
    psi = maslov._eigenphases(souriau_map(W, path.frame(lam), path.space))
    return psi[np.argmin(np.abs(psi))]


def _full_grid_crossings(family, lam_grid, T):
    """Reference: the scan on every node of the coarse grid, a sign-change
    cell refined unless the drift rule clears it, and each record's
    dimension read at the refined midpoint's own frame."""
    coarse = max(64, len(lam_grid) - 1)
    nodes = np.linspace(lam_grid[0], lam_grid[-1], coarse + 1)
    path, W = pair_to_product_path(*stable_unstable_pair_path(family, nodes, 0.0, T))
    Us = souriau_map(W, np.stack([F.columns for _, F in path.samples]), path.space)
    psis = maslov._eigenphases(Us)
    vals = [psi[np.argmin(np.abs(psi))] for psi in psis]
    found = [(lam, psi) for lam, v, psi in zip(nodes, vals, psis) if abs(v) <= 1e-6]
    for i in range(coarse):
        fa, fb = vals[i], vals[i + 1]
        if min(abs(fa), abs(fb)) <= 1e-6 or np.sign(fa) == np.sign(fb):
            continue
        drift = _unitary_drift(float(np.linalg.norm(Us[i + 1] - Us[i], 2)))
        if drift is not None and min(abs(fa), abs(fb)) > drift:
            continue
        lam = maslov._shrink_bracket(lambda x: _nearest_phase(path, W, x),
                                     nodes[i], nodes[i + 1], fa, fb, 1e-10)
        found.append((lam, maslov._eigenphases(souriau_map(W, path.frame(lam), path.space))))
    records = [(float(lam), int(np.count_nonzero(np.abs(psi) <= 1e-6))) for lam, psi in found]
    return sorted(r for r in records if r[1])


def _loop_lipschitz(family, lams, ts):
    """Reference: one S difference and one 2-norm per (lam, t) sample."""
    h = 1e-4
    worst = 0.0
    for lam in lams:
        lo, hi = max(0.0, lam - h), min(1.0, lam + h)
        for t in ts:
            rate = np.linalg.norm(family.S(hi, t) - family.S(lo, t), 2) / (hi - lo)
            worst = max(worst, rate)
    return 1.5 * worst + 1e-9


BATCH_FAMILIES = {
    "autonomous": lambda: autonomous_family(2),
    "sech": lambda: sech_family(1, amplitude=2.0),
    "rotating": lambda: rotating_asymptotics_family(1),
    "rotating-n3": lambda: rotating_asymptotics_family(3, turns=1.5),
    "gamma-nor": lambda: gamma_nor_embedding_family(1),
    "random-n2": lambda: random_family(np.random.default_rng(11), n=2, kind="tanh"),
    "random-sech-n2": lambda: random_family(np.random.default_rng(12), n=2, kind="sech"),
}


class TestMagnusSteps:
    @pytest.mark.parametrize("name", sorted(BATCH_FAMILIES))
    def test_steps_are_symplectic(self, name):
        fam = BATCH_FAMILIES[name]()
        J = fam.space.J
        for t_from, t_to, nsteps in ((-4.0, 3.0, 100), (2.0, -1.0, 16)):
            for chunk in ha._magnus_steps(fam, np.linspace(0.0, 1.0, 5), t_from, t_to, nsteps):
                resid = np.linalg.norm(chunk.swapaxes(-1, -2) @ J @ chunk - J, 2, axis=(-2, -1))
                scale = np.maximum(1.0, np.linalg.norm(chunk, 2, axis=(-2, -1)) ** 2)
                assert np.all(resid <= 1e-12 * scale)

    def test_chunks_cover_every_step(self):
        fam = sech_family(1, amplitude=2.0)
        chunks = list(ha._magnus_steps(fam, [0.2, 0.7], -3.0, 0.0, 150))
        assert [c.shape for c in chunks] == [(2, 64, 2, 2), (2, 64, 2, 2), (2, 22, 2, 2)]

    @pytest.mark.parametrize("name", ["sech", "gamma-nor", "rotating", "random-sech-n2"])
    def test_fourth_order(self, name):
        # halving h cuts the error against a 16x finer run by about 2^4
        fam = BATCH_FAMILIES[name]()
        ref = fundamental_solution(fam, 0.6, 3.0, steps=16 * 24)[-1]
        coarse, fine = (np.linalg.norm(fundamental_solution(fam, 0.6, 3.0, steps=s)[-1] - ref, 2)
                        for s in (12, 24))
        assert fine > 0 and coarse >= 10.0 * fine


class TestBatchedTransport:
    @pytest.mark.parametrize("name", sorted(BATCH_FAMILIES))
    def test_family_broadcasts_bitwise(self, name):
        fam = BATCH_FAMILIES[name]()
        lams, ts = np.linspace(0.0, 1.0, 7), np.linspace(-4.0, 4.0, 9)
        scalar = np.array([[fam.S(lam, t) for t in ts] for lam in lams])
        assert scalar.shape == (7, 9, fam.dim, fam.dim)
        batch = fam.S(lams[:, None], ts[None, :])
        assert np.array_equal(np.broadcast_to(batch, scalar.shape), scalar)
        assert fam.S(0.3, -0.7).shape == (fam.dim, fam.dim)

    @pytest.mark.parametrize("name", sorted(BATCH_FAMILIES))
    def test_lipschitz_matches_double_loop_bitwise(self, name):
        fam = BATCH_FAMILIES[name]()
        assert fam.lambda_lipschitz() == _loop_lipschitz(
            fam, np.linspace(0.0, 1.0, 9), np.linspace(-3.0, 3.0, 7))
        lams, ts = np.linspace(0.2, 0.9, 5), np.linspace(-5.0, 5.0, 11)
        assert (fam.lambda_lipschitz(lam_samples=lams, t_samples=ts)
                == _loop_lipschitz(fam, lams, ts))

    @pytest.mark.parametrize("L", [1, 5])
    def test_one_family_call_per_stage_time(self, L, monkeypatch):
        fam = sech_family(1, amplitude=2.0)
        calls = []
        S = fam.S

        def counting(lam, t):
            calls.append(t)
            return S(lam, t)

        fam.check_contract()  # once per family, not per transport
        monkeypatch.setattr(fam, "S", counting)
        lams = np.linspace(0.0, 1.0, L)
        starts = np.stack([stable_unstable_splitting(fam.space.J @ fam.S_limit(lam, -1))[1]
                           for lam in lams])
        propagate_subspace(starts, fam, lams, -2.0, 0.5)
        nsteps = int(np.ceil(2.5 * 64))
        assert 0 < len(calls) <= 2 * nsteps + 1

    def test_refinement_rounds_transport_in_batches(self, monkeypatch):
        sizes, batches = [], []
        transport, count = ha.propagate_subspace, maslov.unitary_count

        def counting_transport(frames, family, lams, *args):
            sizes.append(np.size(lams))
            return transport(frames, family, lams, *args)

        def counting_count(values, *args):
            def batch(lams):
                batches.append(len(lams))
                return values(lams)
            return count(batch, *args)

        monkeypatch.setattr(ha, "propagate_subspace", counting_transport)
        monkeypatch.setattr(maslov, "unitary_count", counting_count)
        rep = theorem_A_report(rotating_asymptotics_family(1), np.linspace(0.0, 1.0, 9),
                               T=0.5, N=32, locate_crossings=False)
        assert rep.maslov == rep.sfl == 1
        rounds = len(batches) - 1  # the first batch is the sampled grid
        assert rounds > 0
        assert sizes and min(sizes) > 1
        assert len(sizes) <= 2 * (1 + rounds)

    @pytest.mark.parametrize("name", sorted(BATCH_FAMILIES))
    @pytest.mark.parametrize("t_from,t_to", [(-2.0, 0.5), (2.0, 0.0), (0.3, 0.3)])
    def test_matches_per_lambda_loop(self, name, t_from, t_to):
        fam = BATCH_FAMILIES[name]()
        lams = np.linspace(0.0, 1.0, 5)
        starts = np.stack([stable_unstable_splitting(fam.space.J @ fam.S_limit(lam, -1))[1]
                           for lam in lams])
        batch = propagate_subspace(starts, fam, lams, t_from, t_to)
        assert batch.shape == starts.shape
        for lam, F0, F in zip(lams, starts, batch):
            ref = _loop_transport(F0, fam, lam, t_from, t_to)
            single = propagate_subspace(LagrangianFrame(F0), fam, lam, t_from, t_to)
            assert np.abs(F - ref).max() <= 1e-13
            assert np.abs(single.columns - ref).max() <= 1e-13

    def test_one_column_transport_calls_no_qr(self, monkeypatch):
        # for one column the QR with a positive R diagonal is the division by its norm
        fam, qr, calls = sech_family(1, amplitude=2.0), np.linalg.qr, []

        def counting(A, *args, **kwargs):
            calls.append(np.shape(A))
            return qr(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting)
        start = stable_unstable_splitting(fam.space.J @ fam.S_limit(0.4, -1))[1]
        F = propagate_subspace(LagrangianFrame(start), fam, 0.4, -2.0, 0.5).columns
        assert calls == []
        monkeypatch.undo()
        assert np.abs(F - _loop_transport(start, fam, 0.4, -2.0, 0.5)).max() <= 1e-13

    @pytest.mark.parametrize("name", ["sech", "rotating"])
    def test_pair_path_matches_single_spaces(self, name):
        fam = BATCH_FAMILIES[name]()
        path_u, path_s = stable_unstable_pair_path(fam, np.linspace(0.0, 1.0, 5), 0.0, 3.0)
        for (lam, eu), (lam_s, es) in zip(path_u.samples, path_s.samples):
            assert lam == lam_s
            assert np.abs(eu.columns - unstable_space(fam, lam, 0.0, 3.0).columns).max() <= 1e-13
            assert np.abs(es.columns - stable_space(fam, lam, 0.0, 3.0).columns).max() <= 1e-13


class TestStableUnstableSpaces:
    def test_autonomous_equals_splitting(self):
        fam = autonomous_family(1)
        Vm, Vp = stable_unstable_splitting(SP1.J @ B_HYP)
        for t0 in (-2.0, 0.0, 3.0):
            eu = unstable_space(fam, 0.4, t0, 8.0)
            es = stable_space(fam, 0.4, t0, 8.0)
            assert gap_distance(eu, LagrangianFrame(Vp)) <= 1e-8
            assert gap_distance(es, LagrangianFrame(Vm)) <= 1e-8

    def test_sech_transversal_away_from_crossing(self):
        fam = sech_family(1, amplitude=2.0)
        eu = unstable_space(fam, 0.4, 0.0, 10.0)
        es = stable_space(fam, 0.4, 0.0, 10.0)
        assert gap_distance(eu, es) > 0.05
        assert intersection_dimension_rank(eu, es) == 0

    def test_truncation_converged(self):
        fam = sech_family(1, amplitude=2.0)
        gap = gap_distance(unstable_space(fam, 0.3, 0.0, 10.0), unstable_space(fam, 0.3, 0.0, 15.0))
        assert gap <= 1e-6

    def test_short_truncation_not_converged(self):
        fam = sech_family(1, amplitude=2.0)
        gap = gap_distance(unstable_space(fam, 0.75, 0.0, 1.0), unstable_space(fam, 0.75, 0.0, 1.5))
        assert gap > 1e-10

    def test_time_reversal_swaps_roles(self):
        fam = sech_family(1, amplitude=2.0)
        mirrored = type(fam)(n=1, B=fam.B, K=lambda lam, t: fam.K(lam, -t),
                             K_limits=lambda lam: tuple(reversed(fam.K_limits(lam))),
                             decay_scale=fam.decay_scale)
        lam = 0.6
        # w(t) = C u(-t) solves the mirrored system for C = diag(1,-1), which
        # anticommutes with J and commutes with this family's coefficients
        C = np.diag([1.0, -1.0])
        eu = unstable_space(fam, lam, 0.0, 10.0)
        es_m = stable_space(mirrored, lam, 0.0, 10.0)
        assert gap_distance(es_m, lagrangian_from_matrix(C @ eu.columns, SP1)) <= 1e-6
        es = stable_space(fam, lam, 0.0, 10.0)
        eu_m = unstable_space(mirrored, lam, 0.0, 10.0)
        assert gap_distance(eu_m, lagrangian_from_matrix(C @ es.columns, SP1)) <= 1e-6


class TestKernelCrossings:
    def test_autonomous_has_none(self):
        assert kernel_crossings(autonomous_family(1), np.linspace(0, 1, 17), T=6.0) == []

    def test_sech_single_crossing(self):
        recs = kernel_crossings(sech_family(1, amplitude=2.0), np.linspace(0, 1, 33), T=10.0)
        assert len(recs) == 1
        assert recs[0].lam == pytest.approx(0.75, abs=1e-4)
        assert recs[0].intersection_dim == 1

    def test_amplitude_threshold_changes_count(self):
        low = kernel_crossings(sech_family(1, amplitude=1.2), np.linspace(0, 1, 17), T=8.0)
        high = kernel_crossings(sech_family(1, amplitude=1.8), np.linspace(0, 1, 17), T=8.0)
        assert len(high) - len(low) == 1

    def test_branch_jumps_are_not_crossings(self):
        # the nearest Souriau phase also changes sign where it jumps between
        # two branches at |psi| = pi/2; only the four intersections count
        recs = kernel_crossings(sech_family(1, amplitude=5.0), np.linspace(0, 1, 9), T=4.0)
        assert [r.lam for r in recs] == pytest.approx([0.3, 0.5, 0.7, 0.9], abs=1e-3)
        assert all(r.intersection_dim == 1 for r in recs)

    def test_branch_jump_cells_are_not_refined(self, monkeypatch):
        # the four jump cells keep every eigenphase away from zero, so the
        # drift rule rejects them before any refinement evaluation
        scan, calls = ha.find_crossings, []

        def scanning(path, W):
            # the scan's new unitaries off its 65-node grid are refinement points
            upath, grid = path.souriau_path(W), np.linspace(path.lo, path.hi, 65)
            evaluator = upath.evaluator

            def counting(lams):
                calls.extend(lam for lam in lams if lam not in grid)
                return evaluator(lams)

            upath.evaluator = counting
            return scan(path, W)

        monkeypatch.setattr(ha, "find_crossings", scanning)
        recs = kernel_crossings(sech_family(1, amplitude=5.0), np.linspace(0, 1, 9), T=4.0)
        assert [r.lam for r in recs] == pytest.approx([0.3, 0.5, 0.7, 0.9], abs=1e-3)
        assert len(calls) <= 30  # refinement evaluations only; the scan keeps its unitaries


    @pytest.mark.parametrize("make,grid,T,N,most", [
        (lambda: sech_family(1, amplitude=2.0), 9, 1.0, 32, 21),
        (lambda: rotating_asymptotics_family(1), 9, 0.5, 32, 4),
        (lambda: autonomous_family(1), 9, 6.0, 64, 0),
    ], ids=["bench-sech", "bench-rotating", "autonomous"])
    def test_the_scan_transports_only_in_open_cells(self, make, grid, T, N, most, monkeypatch):
        # after theorem A's one Maslov count, the scan transports new lam only
        # inside the certificate cells the drift rule does not clear; the
        # full 65-node scan transported 56 and 42 per side, and 48 on autonomous
        count, transport = maslov.unitary_count, ha.propagate_subspace
        certs, phases, scanned = [], {}, []

        def counting(values, step_norm, nodes):
            def kept(lams):
                phases.update(zip(lams, values(lams)))
                return [phases[lam] for lam in lams]
            certs.append(count(kept, step_norm, nodes))
            return certs[-1]

        def recording(frames, family, lams, *args):
            if certs:
                scanned.append(np.atleast_1d(lams).tolist())
            return transport(frames, family, lams, *args)

        monkeypatch.setattr(maslov, "unitary_count", counting)
        monkeypatch.setattr(ha, "propagate_subspace", recording)
        rep = theorem_A_report(make(), np.linspace(0, 1, grid), T=T, N=N)
        assert rep.sfl == rep.maslov
        [(_, cert)] = certs  # the unitaries are counted once
        open_cells = [(a, b) for a, b, m in zip(cert.nodes, cert.nodes[1:], cert.drifts)
                      if min(np.abs(phases[a]).min(), np.abs(phases[b]).min()) <= max(m, 1e-6)]
        assert all(any(a < lam < b for a, b in open_cells) for lams in scanned for lam in lams)
        assert max(map(len, scanned), default=0) <= most
        assert most or scanned == []

    @pytest.mark.parametrize("make,grid,T", [
        (lambda: sech_family(1, amplitude=2.0), 33, 10.0),
        (lambda: sech_family(1, amplitude=5.0), 9, 4.0),
        (lambda: sech_family(1, amplitude=6.0), 9, 4.0),
        (lambda: sech_family(2, amplitude=6.0), 9, 4.0),
        (lambda: rotating_asymptotics_family(1), 9, 0.5),
        (lambda: gamma_nor_embedding_family(1), 17, 5.0),
    ] + [(lambda seed=seed, n=n, kind=kind: random_family(np.random.default_rng(seed), n=n,
                                                         kind=kind), 9, 4.0)
         for seed, n, kind in ((6, 1, "sech"), (17, 1, "sech"), (13, 1, "tanh"),
                               (5, 2, "sech"), (8, 2, "sech"), (3, 2, "tanh"))],
        ids=["sech-2", "sech-5", "sech-6", "sech-n2-6", "rotating", "gamma-nor", "random-6",
             "random-17", "random-tanh-13", "random-n2-5", "random-n2-8", "random-n2-tanh-3"])
    def test_records_match_a_full_grid_reference(self, make, grid, T):
        lam_grid = np.linspace(0, 1, grid)
        recs = kernel_crossings(make(), lam_grid, T=T)
        reference = _full_grid_crossings(make(), lam_grid, T)
        assert [(r.lam, r.intersection_dim) for r in recs] == reference
        assert reference  # every family here crosses

    @pytest.mark.parametrize("scenario", ["autonomous", "gamma_nor", "rotating", "sech",
                                          "sech_endpoint_kernel", "endpoint-crossing"])
    def test_report_records_match_a_full_grid_reference(self, scenario):
        # theorem A's scan reads its own count, which snaps declared endpoint
        # kernels; amplitude 1.5 puts a crossing exactly at lam = 1
        from hamflow import cli
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        name = "sech_endpoint_kernel" if scenario == "endpoint-crossing" else scenario
        cfg = cli.load_config(os.path.join(root, "scenarios", f"{name}.json"))
        params = dict(cfg.family_params, amplitude=1.5) if name != scenario else cfg.family_params
        lam_grid, T = np.linspace(0, 1, cfg.grid), float(cfg.trunc)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rep = theorem_A_report(make_family(cfg.family_id, **params), lam_grid, T=T,
                                   N=cfg.mesh, endpoint_kernel_tol=cfg.tol)
            reference = _full_grid_crossings(make_family(cfg.family_id, **params), lam_grid, T)
        assert [(r.lam, r.intersection_dim) for r in rep.crossings] == reference


class TestCrossingRefinement:
    @pytest.mark.parametrize("fam,T", [(sech_family(1, amplitude=2.0), 1.0),
                                       (gamma_nor_embedding_family(1), 5.0)])
    def test_secant_is_cheap_and_matches_bisection(self, fam, T):
        coarse, tol = 64, 1e-10
        path_u, path_s = stable_unstable_pair_path(fam, np.linspace(0.0, 1.0, coarse + 1), 0.0, T)
        product, diag = pair_to_product_path(path_u, path_s)
        phase = lambda lam: _nearest_phase(product, diag, lam)
        # every grid node is a sample, so each evaluation is a refinement point
        upath, calls = product.souriau_path(diag), []
        evaluator = upath.evaluator

        def counting(lams):
            calls.extend(lams)
            return evaluator(lams)

        upath.evaluator = counting
        recs = find_crossings(product, diag)
        assert len(recs) == 1
        assert 0 < len(calls) <= 10
        # the bisection this refinement replaced, on the same coarse cell
        a = np.floor(recs[0].lam * coarse) / coarse
        b, fa = a + 1.0 / coarse, phase(a)
        while b - a > tol:
            m = 0.5 * (a + b)
            fm = phase(m)
            if abs(fm) <= 1e-15 or np.sign(fm) == np.sign(fa):
                a, fa = m, fm
            else:
                b = m
        assert abs(recs[0].lam - 0.5 * (a + b)) <= tol

    def test_a_count_and_its_scan_diagonalize_each_node_once(self, monkeypatch):
        # the bench-sech pair path: the scan reads the count's eigenphases
        # from the path's memo instead of taking them again
        eigenphases, diagonalized = maslov._eigenphases, []

        def recording(U):
            diagonalized.extend(u.tobytes() for u in np.reshape(U, (-1,) + U.shape[-2:]))
            return eigenphases(U)

        monkeypatch.setattr(maslov, "_eigenphases", recording)
        fam = sech_family(1, amplitude=2.0)
        product, diag = pair_to_product_path(
            *stable_unstable_pair_path(fam, np.linspace(0.0, 1.0, 9), 0.0, 1.0))
        upath = product.souriau_path(diag)
        assert winding_number(upath) == 1
        assert [r.intersection_dim for r in find_crossings(product, diag)] == [1]
        nodes = upath._certificate.nodes.tolist()
        times = [diagonalized.count(U.tobytes()) for U in upath.unitaries(nodes)]
        assert times == [1] * len(nodes)


class TestQOperator:
    def test_eigenvalue_branch(self):
        _, W, sp = gamma_nor_path()
        for lam in (0.3, 0.5, 0.7):
            L0 = lagrangian_from_matrix(
                np.array([[-np.sin(np.pi * lam)], [np.cos(np.pi * lam)]]), sp)
            op = assemble_Q_operator(L0, W, 0.0, 1.0, 200, sp)
            eigs = op.eigenvalues(window=np.pi / 2 * 0.99)
            assert len(eigs) == 1  # simple
            assert eigs[0] == pytest.approx(np.pi * lam - np.pi / 2, abs=5e-3)

    def test_equal_frames_kernel_multiplicity(self):
        for n in (1, 2):
            sp = standard_space(n)
            W = lagrangian_from_matrix(np.vstack([np.eye(n), np.zeros((n, n))]), sp)
            op = assemble_Q_operator(W, W, 0.0, 1.0, 48, sp)
            eigs = op.eigenvalues(window=0.5)
            assert np.count_nonzero(np.abs(eigs) < 1e-8) == n

    def test_transversal_pair_vs_shooting_oracle(self):
        sp = standard_space(1)
        a, b = 0.0, 1.0
        for theta in (35.0, 60.0, 80.0):
            L0 = line_frame(sp, theta)
            L1 = line_frame(sp, 0.0)
            op = assemble_Q_operator(L0, L1, a, b, 160, sp)
            # shooting oracle: exp(-mu J) rotates by -mu, eigenvalue iff the
            # rotated L0 meets L1, i.e. mu = theta + k pi (in radians here)
            exact = np.radians(theta)
            exact_branch = min(exact, np.pi - exact, key=abs)
            eigs = op.eigenvalues(window=np.pi / 2 * 0.99)
            best = eigs[np.argmin(np.abs(np.abs(eigs) - exact_branch))]
            assert abs(best) == pytest.approx(exact_branch, abs=5e-3)

    def test_symmetry_and_mass(self):
        sp = standard_space(2)
        W = lagrangian_from_matrix(np.vstack([np.eye(2), np.zeros((2, 2))]), sp)
        op = assemble_Q_operator(W, W, -1.0, 1.0, 32, sp)
        ref = _dense_pencil(sp, W.columns, W.columns, -1.0, 1.0, 32)
        _assert_blocks_match(op, ref.forms)
        for diag, upper, lower in op.blocks:
            assert np.array_equal(diag, diag.swapaxes(-1, -2))
            assert np.array_equal(lower, upper.swapaxes(-1, -2))
        K, M, _ = ref.reduced
        assert np.linalg.norm(K - K.T, 2) <= 1e-12 * max(1.0, np.linalg.norm(K, 2))
        scipy.linalg.cholesky(M)

    def test_small_mesh_rejected(self):
        sp = standard_space(1)
        W = line_frame(sp, 0.0)
        with pytest.raises(ValueError):
            assemble_Q_operator(W, W, 0.0, 1.0, 3, sp)

    def test_parity_ghost_demonstration(self):
        # without stabilization the lattice doubles the kernel at a crossing
        _, W, sp = gamma_nor_path()
        op_raw = assemble_Q_operator(W, W, 0.0, 1.0, 64, sp, stabilization=0.0)
        raw = op_raw.eigenvalues(window=0.3, drop_rough=False)
        assert np.count_nonzero(np.abs(raw) < 1e-8) == 2
        op = assemble_Q_operator(W, W, 0.0, 1.0, 64, sp)
        filtered = op.eigenvalues(window=0.3)
        assert np.count_nonzero(np.abs(filtered) < 1e-8) == 1

    def test_central_scheme_secondary_oracle(self):
        _, W, sp = gamma_nor_path()
        lam = 0.3
        L0 = lagrangian_from_matrix(
            np.array([[-np.sin(np.pi * lam)], [np.cos(np.pi * lam)]]), sp)
        op_g = assemble_Q_operator(L0, W, 0.0, 1.0, 200, sp)
        op_c = assemble_Q_operator(L0, W, 0.0, 1.0, 200, sp, scheme="central")
        e_g = op_g.eigenvalues(window=1.0)
        e_c = op_c.eigenvalues(window=1.0)
        assert e_g[0] == pytest.approx(e_c[0], abs=5e-3)


class TestA0Operator:
    def test_autonomous_gap_uniform_in_mesh(self):
        fam = autonomous_family(1)
        # no eigenvalue in the window counts as the window
        smallest = [np.min(np.abs(assemble_A0_operator(fam, 0.5, 6.0, N).eigenvalues(window=1.0)),
                           initial=1.0) for N in (40, 80, 160)]
        assert min(smallest) > 0.05

    def test_kernel_approach_at_crossing(self):
        fam = sech_family(1, amplitude=2.0)
        lam_star = 0.75
        vals = [np.min(np.abs(assemble_A0_operator(fam, lam_star, 10.0, N).eigenvalues(window=0.2)),
                       initial=0.2) for N in (40, 80, 160)]
        assert vals[2] < vals[0]
        assert vals[2] < 5e-3
        # second-order-ish decrease
        assert vals[0] / vals[2] > 6

    def test_conjugacy_kernel_dimensions_match(self):
        fam = sech_family(1, amplitude=2.0)
        lam_star, T = 0.75, 10.0
        a0 = assemble_A0_operator(fam, lam_star, T, 160)
        eu = unstable_space(fam, lam_star, 0.0, T)
        es = stable_space(fam, lam_star, 0.0, T)
        assert intersection_dimension_rank(eu, es) == 1
        w = pencil_window(-T, T, asym_gap=1.0)
        near_zero = np.abs(a0.eigenvalues(window=w))
        assert np.count_nonzero(near_zero < 5e-3) == 1


def _loop_potential_matrix(space, a, b, N, S_fn):
    """Reference: the potential form assembled one element and Gauss point at a time."""
    d = space.dim
    h = (b - a) / N
    V = np.zeros(((N + 1) * d, (N + 1) * d))
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


# The dense assembly that the block assembly replaced, kept as its bitwise
# reference: every form as an (N+1)d x (N+1)d matrix, reduced by the frames.


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


def _dense_potential_matrix(space, a, b, N, S_fn):
    """The potential form int <S(t) u, v>, vectorized over elements and Gauss points."""
    d = space.dim
    h = (b - a) / N
    tl = a + np.arange(N) * h
    offs = 0.5 * h / np.sqrt(3.0)
    w = 0.5 * h
    tg = (tl + 0.5 * h)[:, None] + np.array([-offs, offs])
    S = np.broadcast_to(np.asarray(S_fn(tg)), tg.shape + (d, d))
    S = 0.5 * (S + S.swapaxes(-1, -2))
    phi1 = ((tg - tl[:, None]) / h)[..., None, None]
    phi0 = 1.0 - phi1
    P00, P01, P10, P11 = (w * p * q * S for p, q in
                          ((phi0, phi0), (phi0, phi1), (phi1, phi0), (phi1, phi1)))
    diag = np.zeros((N + 1, d, d))
    for P, rows in ((P11, slice(1, None)), (P00, slice(None, -1))):
        for g in (0, 1):
            diag[rows] += P[:, g]
    upper, lower = ((0.0 + P[:, 0]) + P[:, 1] for P in (P01, P10))
    V = np.zeros(((N + 1) * d, (N + 1) * d))
    Vb = V.reshape(N + 1, d, N + 1, d)
    idx = np.arange(N)
    Vb[np.arange(N + 1), :, np.arange(N + 1), :] = diag
    Vb[idx, :, idx + 1, :] = upper
    Vb[idx + 1, :, idx, :] = lower
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


def _dense_pencil(space, F0, F1, a, b, N, S_fn=None, stabilization=None, scheme="galerkin",
                  potential=_dense_potential_matrix):
    """Reference: one pencil's stiffness, mass and roughness forms, unreduced
    (``forms``) and reduced by the frames (``reduced``)."""
    d = space.dim
    h = (b - a) / N
    K = _tridiagonal_blocks(d, N, np.zeros((d, d)), 0.5 * space.J)
    if S_fn is not None:
        K = K + potential(space, a, b, N, S_fn)
    rough = _tridiagonal_blocks(d, N, np.eye(d) / h, -np.eye(d) / h)
    beta = ha.DEFAULT_STABILIZATION if stabilization is None else stabilization
    if beta:
        K = K + beta * h * h * rough
    if scheme == "central":
        weights = np.full(N + 1, h)
        weights[0] = weights[-1] = 0.5 * h
        M = np.kron(np.diag(weights), np.eye(d))
    else:
        M = _tridiagonal_blocks(d, N, (h / 3.0) * np.eye(d), (h / 6.0) * np.eye(d))
    forms = (K, M, rough)
    reduced = tuple((r + r.T) * 0.5 for r in (_reduce_by_frames(X, d, N, F0, F1) for X in forms))
    return SimpleNamespace(forms=forms, reduced=reduced)


def _dense_a0_pencil(fam, lam, T, N, scheme="galerkin", potential=_dense_potential_matrix):
    F0, F1 = (ha._asymptotic_frames(fam, [lam], sign)[0].columns for sign in (-1, +1))
    return _dense_pencil(fam.space, F0, F1, -T, T, N, S_fn=lambda t: fam.S(lam, t),
                         scheme=scheme, potential=potential)


def _held_blocks(op, i=0):
    """Pencil i's (diagonal, upper, lower) blocks of each form: its own entry
    of a form held per pencil, the shared entry 0 of every other."""
    return [[x[i if len(form[0]) > 1 else 0] for x in form] for form in op.blocks]


def _assert_blocks_match(op, forms, i=0):
    """Pencil i's blocks are bitwise the d x d block slices of the unreduced forms."""
    N = op.mesh
    nodes, elements = np.arange(N + 1), np.arange(N)
    for blocks, X in zip(_held_blocks(op, i), forms):
        Xb = X.reshape(N + 1, X.shape[0] // (N + 1), N + 1, -1)
        want = (Xb[nodes, :, nodes, :], Xb[elements, :, elements + 1, :],
                Xb[elements + 1, :, elements, :])
        for got, w in zip(blocks, want):
            assert np.array_equal(got, w)


def _assert_stack_matches(stack, ops, window):
    """Each pencil of a stack has its own operator's blocks, frames and
    windowed eigenvalues, bitwise."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        spectra = stack.eigenvalues(window)
        for i, op in enumerate(ops):
            for got, want in zip(_held_blocks(stack, i), _held_blocks(op)):
                assert all(np.array_equal(x, y) for x, y in zip(got, want))
            for F, G in zip(stack.frames, op.frames):
                assert np.array_equal(F[i], G.columns)
            assert np.array_equal(spectra[i], op.eigenvalues(window))


class TestPencilAssembly:
    @pytest.mark.parametrize("name", sorted(BATCH_FAMILIES))
    @pytest.mark.parametrize("N", [4, 32, 96])
    def test_matches_element_loop_bitwise(self, name, N):
        fam = BATCH_FAMILIES[name]()
        S_fn = lambda t: fam.S(0.4, t)
        assert np.array_equal(_dense_potential_matrix(fam.space, -3.0, 3.0, N, S_fn),
                              _loop_potential_matrix(fam.space, -3.0, 3.0, N, S_fn))
        op = assemble_A0_operator(fam, 0.4, 3.0, N)
        _assert_blocks_match(op, _dense_a0_pencil(fam, 0.4, 3.0, N,
                                                  potential=_loop_potential_matrix).forms)

    def test_pencil_build_calls_no_svd_or_dense_cholesky(self, monkeypatch):
        fam = sech_family(2, amplitude=2.0)
        W = lagrangian_from_matrix(np.vstack([np.eye(2), np.zeros((2, 2))]), fam.space)
        calls = []
        svd, cholesky = np.linalg.svd, scipy.linalg.cholesky

        def counting_svd(a, *args, **kwargs):
            calls.append(("svd", np.shape(a)))
            return svd(a, *args, **kwargs)

        def counting_cholesky(a, *args, **kwargs):
            calls.append(("cholesky", np.shape(a)))
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        # np.linalg.norm(., 2) calls the svd bound in its own module
        monkeypatch.setitem(inspect.unwrap(np.linalg.norm).__globals__, "svd", counting_svd)
        monkeypatch.setattr(scipy.linalg, "cholesky", counting_cholesky)
        assemble_A0_operator(fam, 0.4, 2.0, 32)
        assert calls, "the wrappers saw no call at all"
        # only the asymptotic splittings (at most 2n x 2n) use SVDs
        assert [c for c in calls if c[0] == "cholesky" or max(c[1]) > fam.dim] == []
        calls.clear()
        assemble_Q_operator(W, W, 0.0, 1.0, 32, fam.space)
        assert calls == []


def _random_lagrangian(rng, space):
    n = space.dim // 2
    U = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    return lagrangian_from_matrix(np.vstack([U.real, U.imag]), space)


class TestPencilStacks:
    @pytest.mark.parametrize("name", sorted(BATCH_FAMILIES))
    @pytest.mark.parametrize("N", [4, 32, 96])
    @pytest.mark.parametrize("scheme", ["galerkin", "central"])
    def test_stacked_a0_pencils_match_per_lambda_bitwise(self, name, N, scheme):
        lams = (0.0, 0.13, 0.4, 0.77, 1.0)
        stack = assemble_A0_operator(BATCH_FAMILIES[name](), lams, 3.0, N, scheme=scheme)
        # a fresh family splits each lambda's boundary frames on its own
        fam = BATCH_FAMILIES[name]()
        assert stack.size == N * fam.dim
        ops = [assemble_A0_operator(fam, lam, 3.0, N, scheme=scheme) for lam in lams]
        _assert_stack_matches(stack, ops, window=2.0)
        for lam, op in zip(lams, ops):
            _assert_blocks_match(op, _dense_a0_pencil(fam, lam, 3.0, N, scheme=scheme).forms)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stacked_q_pencils_match_per_frame_bitwise(self, n):
        rng = np.random.default_rng(40 + n)
        sp = standard_space(n)
        L0s = [_random_lagrangian(rng, sp) for _ in range(3)]
        L1s = [_random_lagrangian(rng, sp) for _ in range(2)] + [L0s[0]]
        stack = assemble_Q_operator(np.stack([f.columns for f in L0s]),
                                    np.stack([f.columns for f in L1s]), 0.0, 1.0, 24, sp)
        _assert_stack_matches(stack, [assemble_Q_operator(L0, L1, 0.0, 1.0, 24, sp)
                                      for L0, L1 in zip(L0s, L1s)],
                              window=1.5 * pencil_window(0.0, 1.0))
        for L0, L1 in zip(L0s, L1s):
            for stabilization in (None, 0.0):
                for scheme in ("galerkin", "central"):
                    op = assemble_Q_operator(L0, L1, 0.0, 1.0, 24, sp,
                                             stabilization=stabilization, scheme=scheme)
                    ref = _dense_pencil(sp, L0.columns, L1.columns, 0.0, 1.0, 24,
                                        stabilization=stabilization, scheme=scheme)
                    _assert_blocks_match(op, ref.forms)

    def test_stacked_frames_are_checked(self):
        sp = standard_space(1)
        good = lagrangian_from_matrix(np.array([[1.0], [0.0]]), sp).columns
        with pytest.raises(ha.SymplecticError, match="not orthonormal"):
            assemble_Q_operator(np.stack([good, 2.0 * good]), np.stack([good, good]),
                                0.0, 1.0, 8, sp)

    @pytest.mark.parametrize("count", [1, 5, 65])
    def test_a_round_is_one_stack_bitwise_per_pencil(self, count, monkeypatch):
        N, T, window = 32, 2.0, 0.5
        lams = [float(x) for x in np.linspace(0.05, 0.95, count)]
        stacks = []
        assemble = ha.assemble_A0_operator

        def counting_assemble(family, lam, *args, **kwargs):
            stacks.append(len(lam))
            return assemble(family, lam, *args, **kwargs)

        monkeypatch.setattr(ha, "assemble_A0_operator", counting_assemble)
        got = ha._a0_node_fn(sech_family(1, amplitude=2.0), T, N, window)(lams)
        assert stacks == [count]
        fam = sech_family(1, amplitude=2.0)
        for lam, vals in zip(lams, got):
            assert np.array_equal(vals, assemble(fam, lam, T, N).eigenvalues(window=window))

    def test_stacked_pencils_are_ghost_filtered_each(self):
        # test_parity_ghost_demonstration, on a stack of two pencils
        _, W, sp = gamma_nor_path()
        frames = np.stack([W.columns] * 2)
        raw = assemble_Q_operator(frames, frames, 0.0, 1.0, 64, sp, stabilization=0.0)
        for vals in raw.eigenvalues(window=0.3, drop_rough=False):
            assert np.count_nonzero(np.abs(vals) < 1e-8) == 2
        for vals in assemble_Q_operator(frames, frames, 0.0, 1.0, 64, sp).eigenvalues(0.3):
            assert np.count_nonzero(np.abs(vals) < 1e-8) == 1

    def test_a_stack_holds_the_shared_forms_once(self):
        # only the stiffness carries a potential, so only it is held per pencil
        fam, lams, N = sech_family(2, amplitude=2.0), np.linspace(0.0, 1.0, 7), 16
        stack = assemble_A0_operator(fam, lams, 2.0, N)
        d = fam.dim
        for form, pencils in zip(stack.blocks, (len(lams), 1, 1)):
            assert [x.shape for x in form] == [(pencils, N + 1, d, d), (pencils, N, d, d),
                                               (pencils, N, d, d)]
        frames = np.stack([ha._asymptotic_frames(fam, [0.3], -1)[0].columns] * 3)
        q = assemble_Q_operator(frames, frames, 0.0, 1.0, N, fam.space)
        assert {x.shape[0] for form in q.blocks for x in form} == {1}

    def test_q_assembly_peaks_under_one_dense_form(self):
        # order 144 (n = 3, N = 24): assembly holds the forms as d x d blocks,
        # so it stays under one dense m x m form
        sp = standard_space(3)
        rng = np.random.default_rng(7)
        L0, L1 = _random_lagrangian(rng, sp), _random_lagrangian(rng, sp)
        assemble_Q_operator(L0, L1, 0.0, 1.0, 24, sp)
        tracemalloc.start()
        try:
            op = assemble_Q_operator(L0, L1, 0.0, 1.0, 24, sp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.size == 144
        assert peak < 8 * op.size ** 2

    def test_a_round_of_potentials_is_assembled_without_weighted_copies(self):
        # a 65-pencil round at order 64: the potential's weighted Gauss-point
        # terms are formed one at a time, not held as four copies of the stack
        fam = sech_family(1, amplitude=2.0)
        lams = [float(x) for x in np.linspace(0.0, 1.0, 65)]
        assemble_A0_operator(fam, lams, 1.0, 32)  # memoizes the boundary frames
        tracemalloc.start()
        try:
            assemble_A0_operator(fam, lams, 1.0, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.8e6

    def test_a_round_of_nodes_stays_under_a_third_of_its_dense_forms(self):
        # 65 pencils of order 64 as dense reduced forms would take 3 x 65 x
        # 32 KiB; their blocks and one pencil's dense forms stay under a third
        node_fn = ha._a0_node_fn(sech_family(1, amplitude=2.0), 1.0, 32, 0.5)
        tracemalloc.start()
        try:
            node_fn([float(x) for x in np.linspace(0.0, 1.0, 65)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20


class TestOperatorChecks:
    def test_infinite_potential_rejected(self):
        base = sech_family(1, amplitude=2.0)

        def K(lam, t):
            # infinite at the first Gauss point of mesh 8 on [-2, 2], t = -1.894
            bad = ((np.asarray(t) > -1.9) & (np.asarray(t) < -1.89))[..., None, None]
            return np.where(bad, np.inf, base.K(lam, t))

        fam = HamiltonianFamily(n=1, B=base.B, K=K, K_limits=base.K_limits,
                                decay_scale=base.decay_scale, name="infinite")
        for lam in (0.4, (0.3, 0.4)):
            op = assemble_A0_operator(fam, lam, 2.0, 8)
            with pytest.raises(ValueError, match="infs or NaNs"):
                op.eigenvalues(window=1.0)

    def test_the_solve_certifies_the_mass(self):
        sp = standard_space(1)
        W = line_frame(sp, 0.0)
        # a reversed interval has a negative mass
        with pytest.raises(ValueError, match="not positive definite"):
            assemble_Q_operator(W, W, 1.0, 0.0, 8, sp).eigenvalues(window=1.0)
        # without stabilization an infinite step leaves the stiffness finite
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="infs or NaNs"):
            assemble_Q_operator(W, W, 0.0, np.inf, 8, sp, stabilization=0.0).eigenvalues(1.0)



def _eigh_reference(reduced, cut, window):
    """Reference: a pencil's windowed spectrum from its reduced dense forms by
    scipy's generalized ``eigh`` (LAPACK ``dsygvx``), the solve the
    interior-basis solve replaced, and the roughness filter's keep mask."""
    K, M, R = reduced
    vals, vecs = scipy.linalg.eigh(K, M, subset_by_value=(-window, window))
    return vals, np.einsum("ji,jk,ki->i", vecs, R, vecs) < cut


def _assert_matches_eigh(op, reduced, window):
    want, keep = _eigh_reference(reduced, op.rough_cut, window)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        every, kept = op.eigenvalues(window, drop_rough=False), op.eigenvalues(window)
    assert every.shape == want.shape
    assert np.all(np.abs(every - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
    assert np.array_equal(np.isin(every, kept), keep)


def _counting(monkeypatch, name):
    """Record the order of every call to LAPACK ``name`` through hamflow's
    LAPACK layer: its first integer argument, N for every routine counted."""
    calls = []
    routine = ha._lapack

    def counting(called, *args):
        if called == name:
            calls.append(next(a for a in args if isinstance(a, int)))
        return routine(called, *args)

    monkeypatch.setattr(ha, "_lapack", counting)
    return calls


def _band_reductions(monkeypatch):
    """Record (order, stiffness band rows, mass band rows) of every band reduction."""
    calls = []
    reduce = ha._band_tridiagonal

    def counting(K, M):
        calls.append((len(K), K.shape[1], M.shape[1]))
        return reduce(K, M)

    monkeypatch.setattr(ha, "_band_tridiagonal", counting)
    return calls


def _assert_close(got, want):
    """Equal to 1e-12 relative to the largest entry of ``want``."""
    assert np.shape(got) == np.shape(want)
    assert np.abs(np.asarray(got) - want).max() <= 1e-12 * np.abs(want).max()


def _spd_band(rng, n, kd):
    """A diagonally dominant symmetric band matrix's lower band (kd + 1, n), Fortran order."""
    ab = np.asfortranarray(rng.uniform(-1.0, 1.0, (kd + 1, n)))
    ab[0] += 2 * kd + 1
    return ab


class TestLapackLayer:
    """hamflow's LAPACK layer against scipy's wrappers of the same routines,
    on random inputs.  dpbstf, dsbgst and dsbtrd, which scipy.linalg does not
    wrap, are checked through ``_band_tridiagonal`` in ``TestBandSolve``."""

    def test_band_cholesky_and_triangular_solves(self):
        rng = np.random.default_rng(31)
        n, kd = 11, 3
        L = _spd_band(rng, n, kd)
        want, info = scipy.linalg.lapack.dpbtrf(L, lower=1)
        assert info == 0 and ha._lapack("dpbtrf", b"L", n, kd, L, kd + 1, 0)()[-1] == 0
        _assert_close(L, want)
        B = rng.standard_normal((n, 4))
        for trans in ("N", "T"):
            got = ha._triangular_solve(L, np.asfortranarray(B), trans.encode())
            _assert_close(got, scipy.linalg.lapack.dtbtrs(want, B, uplo="L", trans=trans)[0])

    def test_band_lu_solve(self):
        rng = np.random.default_rng(32)
        n, k = 10, 2
        ab = np.asfortranarray(rng.standard_normal((3 * k + 1, n)))
        ab[:k] = 0.0  # the rows dgbtrf fills
        want, piv, info = scipy.linalg.lapack.dgbtrf(ab, k, k)
        lu, ipiv = ab.copy(order="F"), np.empty(n, dtype=np.int64)
        assert info == 0 and ha._lapack("dgbtrf", n, n, k, k, lu, 3 * k + 1, ipiv, 0)()[-1] == 0
        _assert_close(lu, want)
        assert np.array_equal(ipiv, piv + 1)  # scipy's pivots count from 0
        x = rng.standard_normal(n)
        want = scipy.linalg.lapack.dgbtrs(want, k, k, x, piv)[0]
        assert ha._lapack("dgbtrs", b"N", n, k, k, 1, lu, 3 * k + 1, ipiv, x, n, 0)()[-1] == 0
        _assert_close(x, want)

    def test_band_and_symmetric_products(self):
        rng = np.random.default_rng(33)
        n, kd = 9, 2
        A = _spd_band(rng, n, kd)
        x, y = rng.standard_normal(n), np.zeros(n)
        # bound to a copy of A that nothing else holds, and run twice
        product = ha._lapack("dsbmv", b"L", n, kd, 1.0, A.copy(order="F"), kd + 1, x, 1, 0.0, y, 1)
        for _ in range(2):
            y[:] = 7.0  # BETA = 0: the product overwrites y
            product()
            _assert_close(y, scipy.linalg.blas.dsbmv(kd, 1.0, A, x, lower=1))
        S, B, C = (np.asfortranarray(rng.standard_normal((n, cols))) for cols in (n, 3, 3))
        want = scipy.linalg.blas.dsymm(-1.0, S, B, beta=1.0, c=C, lower=1)  # on a copy of C
        ha._lapack("dsymm", b"L", b"L", n, 3, -1.0, S, n, B, n, 1.0, C, n)()
        _assert_close(C, want)

    def test_tridiagonal_values(self):
        rng = np.random.default_rng(34)
        n = 30
        d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
        count, want, _, _, info = scipy.linalg.lapack.dstebz(d, e, 1, -0.5, 1.0, 0, 0, 0.0, "E")
        vals, work, iwork = np.empty(n), np.empty(4 * n), np.empty(5 * n, dtype=np.int64)
        *_, m, _, got_info = ha._lapack("dstebz", b"V", b"E", n, -0.5, 1.0, 0, 0, 0.0, d, e, 0,
                                        0, vals, iwork, iwork[n:], work, iwork[2 * n:], 0)()
        assert info == got_info == 0 and 0 < count == m < n
        _assert_close(vals[:count], want[:count])

    @pytest.mark.parametrize("vectors", [0, 1])
    def test_windowed_eigensolve(self, vectors):
        rng = np.random.default_rng(35)
        n = 14
        A = rng.standard_normal((n, n))
        A = np.asfortranarray(A + A.T)
        want, zw, count, _, info = scipy.linalg.lapack.dsyevx(A, compute_v=vectors, range="V",
                                                              lower=1, vl=-1.5, vu=2.0)
        vals, z, iwork = np.empty(n), np.empty((n, n), order="F"), np.empty(6 * n, dtype=np.int64)
        *_, m, _, _, got_info = ha._lapack("dsyevx", b"V" if vectors else b"N", b"V", b"L", n,
                                           A.copy(order="F"), n, -1.5, 2.0, 1, n, 0.0, 0, vals, z,
                                           n, np.empty(8 * n), 8 * n, iwork, iwork[5 * n:], 0)()
        assert info == got_info == 0 and 0 < count == m < n
        _assert_close(vals[:count], want[:count])
        if vectors:  # each vector up to its sign
            z, zw = z[:, :count], zw[:, :count]
            _assert_close(z * np.sign(np.sum(z * zw, axis=0)), zw)

    def test_binding_takes_only_writable_fortran_float64_or_int64_arrays(self):
        x, y = np.ones(3), np.zeros(3)
        for A in (np.ones((3, 2)), np.ones((2, 3), dtype=np.float32).T):
            with pytest.raises(TypeError):
                ha._lapack("dsbmv", b"L", 3, 1, 1.0, A, 2, x, 1, 0.0, y, 1)
        with pytest.raises(TypeError):
            ha._lapack("dsbmv", b"L", 3, 0, 1.0, np.broadcast_to(1.0, (1, 3)), 1, x, 1, 0.0, y, 1)

    def test_a_missing_symbol_names_the_numpy_build(self):
        with pytest.raises(ImportError, match=r"scipy_dsbgst_64_.*numpy >= 2\.0"):
            ha._lapack_function("dsbgst", SimpleNamespace())


class TestBandSolve:
    @pytest.mark.parametrize("fam,kd", [(lambda: sech_family(1, amplitude=2.0), 3),
                                        (lambda: sech_family(2, amplitude=2.0), 6)],
                             ids=["sech-n1", "sech-n2"])
    def test_band_values_match_eigh(self, fam, kd):
        # the band holds the frame-reduced forms, and the reduction's
        # tridiagonal has their generalized eigenvalues
        fam = fam()
        for lam in (0.3, 0.75):
            op = assemble_A0_operator(fam, lam, 3.0, 24)
            ref = _dense_a0_pencil(fam, lam, 3.0, 24)
            F0, F1 = (F.columns[None] for F in op.frames)
            K, M = (ha._reduced_band(*form, F0, F1)[0] for form in op.blocks[:2])
            m = op.size
            for band, dense in zip((K, M), ref.reduced):
                rows, cols = np.tril_indices(m)
                inside = rows - cols < band.shape[1]
                assert np.allclose(band[cols[inside], rows[inside] - cols[inside]],
                                   dense[rows[inside], cols[inside]], rtol=1e-14, atol=1e-14)
                assert np.all(dense[rows[~inside], cols[~inside]] == 0.0)
            widths = [np.flatnonzero(X.any(axis=0))[-1] for X in (K, M)]
            assert widths[0] == kd and widths[1] < kd
            diag, off = ha._band_tridiagonal(K[:, :kd + 1].copy(), M[:, :widths[1] + 1].copy())
            got = scipy.linalg.eigvalsh_tridiagonal(diag, off)
            want = scipy.linalg.eigh(*ref.reduced[:2], eigvals_only=True)
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_an_indefinite_mass_is_rejected(self):
        # a reversed interval has a negative mass
        fam = sech_family(1, amplitude=2.0)
        for lam in (0.4, (0.3, 0.4)):
            op = assemble_A0_operator(fam, lam, -2.0, 8)
            assert op.interval == (2.0, -2.0)
            with pytest.raises(ValueError, match="not positive definite"):
                op.eigenvalues(window=1.0)

    def test_an_order_2048_solve_holds_no_dense_matrix(self):
        # one dense 2048 x 2048 matrix is 32 MiB; the band solve and its
        # vectors stay under a quarter of one
        op = assemble_A0_operator(sech_family(1, amplitude=2.0), 0.75, 9.0, 1024)
        assert op.size == 2048
        op.eigenvalues(window=0.5)
        tracemalloc.start()
        try:
            vals = op.eigenvalues(window=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(vals) > 0
        assert peak < 8 << 20


class TestInteriorBasisSolve:
    @pytest.mark.parametrize("name", sorted(BATCH_FAMILIES))
    @pytest.mark.parametrize("N", [4, 32, 96])
    @pytest.mark.parametrize("scheme", ["galerkin", "central"])
    def test_a0_pencils_match_eigh(self, name, N, scheme):
        fam = BATCH_FAMILIES[name]()
        op = assemble_A0_operator(fam, 0.4, 3.0, N, scheme=scheme)
        ref = _dense_a0_pencil(fam, 0.4, 3.0, N, scheme=scheme)
        for window in (2.0, 1e4):  # the near-kernel window and the whole spectrum
            _assert_matches_eigh(op, ref.reduced, window)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("stabilization", [None, 0.0])
    def test_q_pencils_match_eigh(self, n, stabilization):
        rng = np.random.default_rng(60 + n)
        sp = standard_space(n)
        for _ in range(3):
            L0, L1 = _random_lagrangian(rng, sp), _random_lagrangian(rng, sp)
            op = assemble_Q_operator(L0, L1, 0.0, 1.0, 24, sp, stabilization=stabilization)
            ref = _dense_pencil(sp, L0.columns, L1.columns, 0.0, 1.0, 24,
                                stabilization=stabilization)
            for window in (1.5 * pencil_window(0.0, 1.0), 1e4):
                _assert_matches_eigh(op, ref.reduced, window)

    def test_a_q_stack_factors_its_interior_once(self, monkeypatch):
        rng = np.random.default_rng(8)
        sp = standard_space(2)
        frames = [[_random_lagrangian(rng, sp) for _ in range(5)] for _ in range(2)]
        stack = assemble_Q_operator(*([f.columns for f in fs] for fs in frames),
                                    0.0, 1.0, 24, sp)
        ones = [assemble_Q_operator(L0, L1, 0.0, 1.0, 20, sp) for L0, L1 in zip(*frames)]
        cholesky = _counting(monkeypatch, "dpbtrf")
        window = 1.5 * pencil_window(0.0, 1.0)
        stack.eigenvalues(window)
        assert cholesky == [23 * 4]  # one factor for its five pencils
        stack.eigenvalues(window)  # the stack keeps no factor between solves
        assert cholesky == [23 * 4] * 2
        for op in ones:  # a pencil assembled alone is a stack of its own
            op.eigenvalues(window)
        assert cholesky == [23 * 4] * 2 + [19 * 4] * 5

    def test_an_a0_stack_factors_no_interior(self, monkeypatch):
        # each pencil's split Cholesky of its whole band mass replaces the
        # stack's interior factor
        stack = assemble_A0_operator(sech_family(1, amplitude=2.0), (0.2, 0.5, 0.8), 2.0, 32)
        cholesky, reductions = _counting(monkeypatch, "dpbtrf"), _band_reductions(monkeypatch)
        stack.eigenvalues(0.5)
        assert cholesky == []
        assert reductions == [(stack.size, 4, 3)] * 3

    def test_theorem_b_factors_once_per_round(self, monkeypatch):
        path, W, sp = gamma_nor_path()
        const = LagrangianPath.from_callable(sp, lambda lam: W, grid=17)
        rounds = []
        assemble = ha.assemble_Q_operator

        def counting_assemble(L0, L1, *args, **kwargs):
            rounds.append(len(L0))
            return assemble(L0, L1, *args, **kwargs)

        monkeypatch.setattr(ha, "assemble_Q_operator", counting_assemble)
        cholesky = _counting(monkeypatch, "dpbtrf")
        rep = theorem_B_report(path, const, 0.0, 1.0, 64)
        assert rep.sfl == rep.maslov == 1
        assert len(rounds) > 1 and sum(rounds) == len(rep.sfl_certificate.nodes)
        assert cholesky == [63 * 2] * len(rounds)

    def test_theorem_b_round_spectra_match_per_pencil(self, monkeypatch):
        path, W, sp = gamma_nor_path()
        const = LagrangianPath.from_callable(sp, lambda lam: W, grid=17)
        rounds = []
        assemble = ha.assemble_Q_operator

        def recording_assemble(L0, L1, *args, **kwargs):
            rounds.append((L0, L1, assemble(L0, L1, *args, **kwargs)))
            return rounds[-1][2]

        monkeypatch.setattr(ha, "assemble_Q_operator", recording_assemble)
        theorem_B_report(path, const, 0.0, 1.0, 64)
        window = 1.5 * pencil_window(0.0, 1.0)
        for L0s, L1s, stack in rounds:
            for F0, F1, vals in zip(L0s, L1s, stack.eigenvalues(window)):
                op = assemble(LagrangianFrame(F0), LagrangianFrame(F1), 0.0, 1.0, 64, sp)
                assert np.array_equal(vals, op.eigenvalues(window))

    def test_threads_sharing_the_interior_get_their_own_spectra(self):
        rng = np.random.default_rng(9)
        sp = standard_space(2)
        pencils = [assemble_Q_operator(_random_lagrangian(rng, sp), _random_lagrangian(rng, sp),
                                       0.0, 1.0, N, sp) for N in (16, 20, 16, 20)]
        window = 1.5 * pencil_window(0.0, 1.0)
        want = [op.eigenvalues(window) for op in pencils]
        mismatches = []

        def work(shift):
            for i in range(40):
                j = (i + shift) % len(pencils)
                if not np.array_equal(pencils[j].eigenvalues(window), want[j]):
                    mismatches.append(j)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []


    def test_threads_racing_to_factor_a_stack_get_its_spectra(self):
        rng = np.random.default_rng(10)
        sp = standard_space(2)
        frames = [np.stack([_random_lagrangian(rng, sp).columns for _ in range(4)])
                  for _ in range(2)]
        fam, lams = sech_family(1, amplitude=2.0), (0.2, 0.5, 0.75)
        builds = [lambda: assemble_Q_operator(*frames, 0.0, 1.0, 16, sp),
                  lambda: assemble_A0_operator(fam, lams, 2.0, 16)]
        want = [build().eigenvalues(0.5) for build in builds]
        mismatches = []

        def work(op, k):
            if not all(np.array_equal(g, w) for g, w in zip(op.eigenvalues(0.5), want[k])):
                mismatches.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                ops = [build() for build in builds]  # unfactored
                threads = [threading.Thread(target=work, args=(ops[k % 2], k % 2))
                           for k in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert mismatches == []


class TestRoundWork:
    """Work counts of a stack solve and of a refinement round."""

    @pytest.mark.parametrize("count", [1, 5])
    def test_a_stack_takes_one_border_solve_and_one_dsyevx_per_pencil(self, count, monkeypatch):
        # a shared interior: one banded solve for every border column, two
        # for C_II and one back-transform, however many pencils
        rng = np.random.default_rng(11)
        sp = standard_space(2)
        frames = [np.stack([_random_lagrangian(rng, sp).columns for _ in range(count)])
                  for _ in range(2)]
        stack = assemble_Q_operator(*frames, 0.0, 1.0, 24, sp)
        solves, dsyevx = _counting(monkeypatch, "dtbtrs"), _counting(monkeypatch, "dsyevx")
        stack.eigenvalues(1.5 * pencil_window(0.0, 1.0))
        assert solves == [23 * 4] * 4
        assert dsyevx == [stack.size] * count
        solves.clear()
        stack.eigenvalues(1.5 * pencil_window(0.0, 1.0), drop_rough=False)
        assert solves == [23 * 4] * 3  # each solve forms C_II; no vectors, no back-transform

    def test_an_a0_stack_takes_one_band_reduction_per_pencil(self, monkeypatch):
        # with a potential each pencil is reduced in band storage, with and
        # without vectors; nothing of the shared-interior solve runs
        stack = assemble_A0_operator(sech_family(1, amplitude=2.0), (0.2, 0.5, 0.8), 2.0, 32)
        solves, dsyevx = _counting(monkeypatch, "dtbtrs"), _counting(monkeypatch, "dsyevx")
        cholesky, reductions = _counting(monkeypatch, "dpbtrf"), _band_reductions(monkeypatch)
        for drop_rough in (True, False):
            reductions.clear()
            stack.eigenvalues(0.5, drop_rough=drop_rough)
            assert reductions == [(stack.size, 4, 3)] * 3
        assert solves == dsyevx == cholesky == []

    def test_theorem_b_makes_one_souriau_call_per_round(self, monkeypatch):
        path, W, sp = gamma_nor_path()
        const = LagrangianPath.from_callable(sp, lambda lam: W, grid=17)
        rounds, souriau = [], []
        assemble, souriau_map = ha.assemble_Q_operator, ha.souriau_map

        def counting_assemble(L0, L1, *args, **kwargs):
            rounds.append(len(L0))
            return assemble(L0, L1, *args, **kwargs)

        def counting_souriau(W, L, space):
            souriau.append(len(rounds))
            return souriau_map(W, L, space)

        monkeypatch.setattr(ha, "assemble_Q_operator", counting_assemble)
        monkeypatch.setattr(ha, "souriau_map", counting_souriau)
        rep = theorem_B_report(path, const, 0.0, 1.0, 64)
        assert rep.sfl == rep.maslov == 1
        assert len(rounds) > 1
        assert souriau == list(range(1, len(rounds) + 1))  # one after each round's pencils


class TestGhostFilterWarning:
    # With cut 32, roughness blocks diag(rough, 0) at a node give the nodal
    # eigenvector e_0 there, of mu = 0.1, roughness rough, inside the warning
    # band (16, 48) for 24, 32 and 40 (0.75, 1 and 1.25 x cut); e_1 of
    # mu = 0.5 has roughness 0.
    VALS = np.array([0.1, 0.5])

    @staticmethod
    def _filter(roughs):
        """The solve's filter on one pencil per roughness, mesh N = len(roughs):
        pencil j's eigenvectors e_0, e_1 sit at node j."""
        N = len(roughs)
        diag = np.zeros((1, N + 1, 2, 2))
        diag[0, :N, 0, 0] = roughs
        off = np.zeros((1, N, 2, 2))
        u = np.zeros((N + 1, 2, 2 * N))
        for j in range(N):
            u[j, :, 2 * j:2 * j + 2] = np.eye(2)
        return ha._ghost_filter([TestGhostFilterWarning.VALS] * N, u, (diag, off, off), 32.0)

    def test_cut(self):
        # on (0, 1) with mesh 4 the cut is 2 / h^2 = 32
        sp = standard_space(1)
        W = line_frame(sp, 0.0)
        assert assemble_Q_operator(W, W, 0.0, 1.0, 4, sp).rough_cut == 32.0

    @pytest.mark.parametrize("rough, kept", [(24.0, True), (32.0, False), (40.0, False)])
    def test_single_pencil(self, rough, kept):
        with pytest.warns(RuntimeWarning, match="ghost-filter cut"):
            [vals] = self._filter([rough])
        assert vals.tolist() == ([0.1, 0.5] if kept else [0.5])

    def test_stack(self):
        with pytest.warns(RuntimeWarning, match="ghost-filter cut"):
            vals = self._filter([24.0, 40.0])
        assert [v.tolist() for v in vals] == [[0.1, 0.5], [0.5]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert [v.tolist() for v in self._filter([0.0])] == [[0.1, 0.5]]

    def test_one_warning_per_pencil_near_the_cut(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self._filter([24.0, 0.0, 40.0, 32.0])
        assert len(caught) == 3


class TestTheoremB:
    def test_gamma_nor_pair(self):
        path, W, sp = gamma_nor_path()
        const = LagrangianPath.from_callable(sp, lambda lam: W, grid=17)
        rep = theorem_B_report(path, const, 0.0, 1.0, 64)
        assert rep.sfl == rep.maslov == 1
        assert rep.agree

    def test_constant_transversal(self):
        sp = standard_space(1)
        p1 = LagrangianPath.from_callable(sp, lambda lam: line_frame(sp, 0.0), grid=5)
        p2 = LagrangianPath.from_callable(sp, lambda lam: line_frame(sp, 90.0), grid=5)
        rep = theorem_B_report(p1, p2, 0.0, 1.0, 32)
        assert rep.sfl == rep.maslov == 0

    def test_inadmissible_endpoints_rejected(self):
        path, W, sp = gamma_nor_path()
        # shift so the path starts at the reference: not transversal at 0
        shifted = LagrangianPath.from_callable(
            sp, lambda lam: path.frame(0.5 * lam + 0.5 - 1e-12), grid=9)
        const = LagrangianPath.from_callable(sp, lambda lam: W, grid=9)
        from hamflow.symplectic import SymplecticError
        with pytest.raises(SymplecticError):
            theorem_B_report(shifted, const, 0.0, 1.0, 32)

    def test_an_empty_or_reversed_interval_is_rejected(self):
        path, W, sp = gamma_nor_path()
        const = LagrangianPath.from_callable(sp, lambda lam: W, grid=17)
        for a, b in ((0.0, 0.0), (1.0, 0.0), (0.0, np.inf), (np.nan, 1.0)):
            with pytest.raises(ValueError, match="a < b"):
                theorem_B_report(path, const, a, b, 8)


def _nine_node_shift_correction(family, lam, t0, T, delta):
    """Reference shift correction: the pair paths of S_lam + s delta I sampled at
    nine nodes s of [-1, 1], one shifted family per node, and the right partial
    Maslov index at s = 0."""
    def side(space_at):
        return LagrangianPath.from_callable(
            family.space, lambda s: space_at(family.shifted(s * delta), lam, t0, T),
            grid=9, lo=-1.0, hi=1.0)

    product, diag = pair_to_product_path(side(unstable_space), side(stable_space))
    return partial_maslov_index(product, diag, 0.0, "right")


class TestTheoremA:
    def test_autonomous(self):
        rep = theorem_A_report(autonomous_family(1), lam_grid=np.linspace(0, 1, 9),
                               T=6.0, N=64)
        assert rep.sfl == rep.maslov == 0
        assert rep.crossings == []

    def test_sech_crossing(self):
        rep = theorem_A_report(sech_family(1, amplitude=2.0),
                               lam_grid=np.linspace(0, 1, 17), T=9.0, N=128)
        assert rep.sfl == rep.maslov == 1
        assert len(rep.crossings) == 1
        assert rep.crossings[0].lam == pytest.approx(0.75, abs=1e-3)

    def test_gamma_nor_embedding(self):
        rep = theorem_A_report(gamma_nor_embedding_family(1),
                               lam_grid=np.linspace(0, 1, 17), T=6.0, N=96)
        assert rep.sfl == rep.maslov == 1

    @pytest.mark.xfail(reason="the winding certificate accepts the cell [0.5, 1] with a unitary "
                              "step of 0.124 while four crossings lie inside it, so maslov reads "
                              "1; grid 9 gives 7", strict=True)
    def test_coarse_grid_counts_every_eigenphase_turn(self):
        rep = theorem_A_report(sech_family(1, amplitude=8.0), lam_grid=np.linspace(0, 1, 3),
                               T=6.0, N=96)
        assert rep.maslov == rep.sfl == 7

    def test_third_opinion(self):
        rep = theorem_A_report(sech_family(1, amplitude=2.0),
                               lam_grid=np.linspace(0, 1, 17), T=8.0, N=96,
                               third_opinion=True, locate_crossings=False)
        assert rep.chern == rep.sfl == 1
        assert rep.agree

    # more eigenvalues leave the window on one side than two pad slots absorb:
    # sfl = maslov = 2 and 9, where a packing capped at two pads read 1 and 1
    @pytest.mark.parametrize("n,amplitude", [(1, 3.0), (2, 6.0)])
    def test_third_opinion_counts_past_two_pads(self, n, amplitude):
        rep = theorem_A_report(sech_family(n, amplitude=amplitude), lam_grid=np.linspace(0, 1, 9),
                               T=4.0, N=96, third_opinion=True, locate_crossings=False)
        assert rep.chern == rep.sfl == rep.maslov > 1
        assert rep.agree

    def test_end_pencils_are_solved_with_the_grid(self, monkeypatch):
        # the endpoint gaps are read from the grid's stack, not a stack of the two ends
        stacks, assemble = [], ha.assemble_A0_operator

        def recording_assemble(family, lam, T, N, **kwargs):
            stacks.append(sorted(float(x) for x in np.atleast_1d(lam)))
            return assemble(family, lam, T, N, **kwargs)

        monkeypatch.setattr(ha, "assemble_A0_operator", recording_assemble)
        grid = np.linspace(0, 1, 9)
        rep = theorem_A_report(sech_family(1, amplitude=2.0), lam_grid=grid, T=1.0, N=32,
                               third_opinion=True)
        assert rep.chern == rep.sfl == 1
        assert stacks[0] == grid.tolist()
        assert [0.0, 1.0] not in stacks

    def test_third_opinion_solves_no_pencil_of_its_own(self, monkeypatch):
        # the chern reads the spectra at the sfl certificate's nodes, which the flow solved
        assembled, assemble = [], ha.assemble_A0_operator

        def recording_assemble(family, lam, T, N, **kwargs):
            assembled.extend(float(x) for x in np.atleast_1d(lam))
            return assemble(family, lam, T, N, **kwargs)

        monkeypatch.setattr(ha, "assemble_A0_operator", recording_assemble)
        rep = theorem_A_report(sech_family(1, amplitude=2.0), lam_grid=np.linspace(0, 1, 9),
                               T=1.0, N=32, third_opinion=True)
        assert rep.chern == rep.sfl == 1
        assert set(assembled) == set(rep.sfl_certificate.nodes)
        assert len(set(assembled)) == 14

    @pytest.mark.parametrize("make,grid,T,N", [
        (lambda: sech_family(1, amplitude=2.0), 9, 1.0, 32),
        (lambda: sech_family(1, amplitude=2.0), 17, 9.0, 128),
        (lambda: gamma_nor_embedding_family(1), 17, 6.0, 96),
        (lambda: rotating_asymptotics_family(1), 9, 0.5, 32),
    ] + [(lambda seed=seed: random_family(np.random.default_rng(seed)), 9, 4.0, 64)
         for seed in (1010, 1020, 1031)],
        ids=["bench-sech", "sech", "gamma-nor", "rotating", "random-1010", "random-1020",
             "random-1031"])
    def test_third_opinion_matches_a_dense_node_reference(self, make, grid, T, N):
        # reference: the same packing on the certificate nodes joined with 65 grid nodes
        fam, lam_grid = make(), np.linspace(0, 1, grid)
        rep = theorem_A_report(fam, lam_grid=lam_grid, T=T, N=N, third_opinion=True,
                               locate_crossings=False)
        node_fn, band, _ = ha._a0_flow_setup(fam, lam_grid, T, N)
        dense = np.union1d(rep.sfl_certificate.nodes, np.linspace(0, 1, 65))
        reference = chern_winding(ha._compressed_diagonal_path(node_fn, dense, pad=1.1 * band),
                                  half_height=1.2 * band + 1.0)
        assert rep.chern == reference == rep.sfl

    def test_third_opinion_contour_rounds(self, monkeypatch):
        # bench sech: each contour round checks and diagonalizes its new lam in one
        # stack and takes one batched norm, and the contour starts from its corners
        calls = {"eigh": 0, "check": 0, "norm": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        rounds, certs = [], []

        def recorded(values, drift, window, nodes, *args):
            def per_round(fn, log):
                def wrapper(arg):
                    before = dict(calls)
                    out = fn(arg)
                    log.append({k: calls[k] - before[k] for k in calls} | {"size": len(arg)})
                    return out
                return wrapper

            value_rounds, drift_rounds = [], []
            rounds.append((value_rounds, drift_rounds))
            total, cert = certified_count(per_round(values, value_rounds),
                                          per_round(drift, drift_rounds), window, nodes, *args)
            certs.append(cert)
            return total, cert

        def chern(*args, **kwargs):
            with monkeypatch.context() as m:
                m.setattr(spectral, "certified_count", recorded)
                m.setattr(spectral.SymmetricMatrixPath, "evaluate_many",
                          counted("check", spectral.SymmetricMatrixPath.evaluate_many))
                m.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
                m.setattr(np.linalg, "norm", counted("norm", np.linalg.norm))
                return chern_winding(*args, **kwargs)

        certified_count = spectral.certified_count
        monkeypatch.setattr(ha, "chern_winding", chern)
        rep = theorem_A_report(sech_family(1, amplitude=2.0), lam_grid=np.linspace(0, 1, 9),
                               T=1.0, N=32, third_opinion=True)
        assert rep.chern == rep.sfl == 1
        [(value_rounds, drift_rounds)], [cert] = rounds, certs
        # the endpoint check is the one stack outside the rounds
        assert calls["eigh"] == calls["check"] == 1 + sum(r["eigh"] for r in value_rounds)
        for r in value_rounds:
            assert r["eigh"] == r["check"] <= 1 and r["norm"] == 0
        assert max(r["size"] for r in value_rounds if r["eigh"]) > 1
        for r in drift_rounds:
            assert r["norm"] <= 1 and r["eigh"] == r["check"] == 0
        assert len(cert.eps) <= 30  # 66 from 64 arc-length steps
        assert {0.0, 1.0, 2.0, 3.0, 4.0} <= set(cert.nodes.tolist())

    def test_oracle_triangle(self):
        # crossing location agrees between the kernel scan, the pencil zero
        # and the Souriau phase zero within 1e-4 (the pencil bias is O(h^2),
        # so the mesh must be fine enough here)
        fam = sech_family(1, amplitude=2.0)
        T, N = 10.0, 320
        recs = kernel_crossings(fam, np.linspace(0, 1, 33), T=T)
        lam_scan = recs[0].lam

        def pencil_smallest(lam):
            return assemble_A0_operator(fam, lam, T, N).eigenvalues(window=0.1)

        a, b = lam_scan - 0.02, lam_scan + 0.02
        fa = pencil_smallest(a)[0]
        for _ in range(40):
            m = 0.5 * (a + b)
            fm = pencil_smallest(m)[0]
            if np.sign(fm) == np.sign(fa):
                a, fa = m, fm
            else:
                b = m
        lam_pencil = 0.5 * (a + b)
        assert lam_pencil == pytest.approx(lam_scan, abs=1e-4)

    def test_singular_endpoint_general_case(self):
        # amplitude 1.5 puts the crossing exactly at lam = 1
        fam = sech_family(1, amplitude=1.5)
        rep = theorem_A_report(fam, lam_grid=np.linspace(0, 1, 17), T=9.0, N=128,
                               locate_crossings=False, endpoint_kernel_tol=1e-3)
        assert "delta" in rep.extras
        assert rep.extras["sfl_shifted"] == rep.sfl
        assert rep.sfl == rep.maslov

    def test_the_agreement_follows_the_shift_recipe(self):
        # amplitude 1.499 leaves a kernel eigenvalue of -2.8e-4 at lam = 1: the
        # raw integers differ, and sfl_shifted = maslov + c1 - c0 balances
        rep = theorem_A_report(sech_family(1, amplitude=1.499), lam_grid=np.linspace(0, 1, 17),
                               T=9.0, N=128, locate_crossings=False, endpoint_kernel_tol=1e-3)
        assert (rep.sfl, rep.maslov, rep.extras["sfl_shifted"]) == (1, 0, 1)
        assert rep.extras["shift_corrections"] == (0, 1)
        assert rep.extras["agreement_rule"] == ha.SHIFT_RECIPE
        assert rep.agreement == {"shift_recipe": True} and rep.agree

    def test_the_reflected_family_pins_the_sign_of_c0(self):
        # lam -> 1 - lam moves the kernel to lam = 0, so c0 carries the
        # correction: -1 = 0 + 0 - 1 holds, and -1 = 0 + 0 + 1 would not
        base = sech_family(1, amplitude=1.499)
        fam = HamiltonianFamily(n=1, B=lambda lam: base.B(1.0 - np.asarray(lam)),
                                K=lambda lam, t: base.K(1.0 - np.asarray(lam), t),
                                K_limits=lambda lam: base.K_limits(1.0 - np.asarray(lam)),
                                decay_scale=base.decay_scale, name="reflected")
        rep = theorem_A_report(fam, lam_grid=np.linspace(0, 1, 17), T=9.0, N=128,
                               locate_crossings=False, endpoint_kernel_tol=1e-3)
        assert (rep.sfl, rep.maslov, rep.extras["sfl_shifted"]) == (-1, 0, -1)
        assert rep.extras["shift_corrections"] == (1, 0)
        assert rep.agree
        unbalanced = ha.IndexReport(sfl=-1, maslov=0, extras=dict(rep.extras, sfl_shifted=1))
        assert unbalanced.agreement == {"shift_recipe": False}

    # a pencil kernel eigenvalue of +5.0e-4 (amplitude 1.5) and of -2.8e-4 (1.499) at lam = 1
    @pytest.mark.parametrize("amplitude,corrections", [(1.5, (0, 0)), (1.499, (0, 1))])
    def test_shift_corrections_match_the_nine_node_reference(self, monkeypatch, amplitude,
                                                             corrections):
        fam = sech_family(1, amplitude=amplitude)
        transport, segment_calls = ha.propagate_subspace, []

        def recording_transport(frames, family, lams, t_from, *args):
            if family is not fam:
                segment_calls.append((np.size(lams), t_from))
            return transport(frames, family, lams, t_from, *args)

        monkeypatch.setattr(ha, "propagate_subspace", recording_transport)
        rep = theorem_A_report(fam, lam_grid=np.linspace(0, 1, 17), T=9.0, N=128,
                               locate_crossings=False, endpoint_kernel_tol=1e-3)
        monkeypatch.undo()
        reference = tuple(_nine_node_shift_correction(fam, lam, 0.0, 9.0, rep.extras["delta"])
                          for lam in (0.0, 1.0))
        assert rep.extras["shift_corrections"] == reference == corrections
        # per end, each side's five segment nodes s in [0, 1] are transported in one call
        assert [call for call in segment_calls if call[0] > 1] == [(5, -9.0), (5, 9.0)] * 2


class TestCorollaryA:
    def test_rotating_family_settings(self):
        for kwargs in ({"turns": 1.0}, {"turns": -1.0}, {"turns": 1.0, "rates": np.array([2.0])}):
            fam = rotating_asymptotics_family(1, **kwargs)
            rep = corollary_A_report(fam, lam_grid=np.linspace(0, 1, 17), T=7.0, N=96)
            assert rep.agree
            assert abs(rep.sfl) == 1

    def test_constant_asymptotics_zero(self):
        rep = corollary_A_report(autonomous_family(1), lam_grid=np.linspace(0, 1, 9),
                                 T=6.0, N=64)
        assert rep.sfl == rep.maslov == 0

    def test_reparametrization_invariance(self):
        fam = rotating_asymptotics_family(1)
        grid_a = np.linspace(0, 1, 17)
        grid_b = np.linspace(0, 1, 33) ** 1.3  # endpoint-fixing reparametrization
        grid_b[-1] = 1.0
        rep_a = corollary_A_report(fam, lam_grid=grid_a, T=7.0, N=96)
        rep_b = corollary_A_report(fam, lam_grid=np.sort(grid_b), T=7.0, N=96)
        assert rep_a.maslov == rep_b.maslov

    def test_nonperiodic_rejected(self):
        with pytest.raises(AssumptionError):
            corollary_A_report(sech_family(1, amplitude=2.0), T=6.0, N=48)


@pytest.mark.parametrize("report", [theorem_A_report, corollary_A_report, kernel_crossings])
@pytest.mark.parametrize("key, value", [
    ("T", 0.0), ("T", -3.0), ("T", np.inf), ("T", np.nan), ("lam_grid", [0.0]), ("lam_grid", []),
], ids=["T-zero", "T-negative", "T-inf", "T-nan", "grid-one-point", "grid-empty"])
def test_report_inputs_fail_fast(report, key, value):
    fam = (rotating_asymptotics_family(1) if report is corollary_A_report
           else sech_family(1, amplitude=2.0))
    kwargs = {"lam_grid": np.linspace(0, 1, 5), "T": 6.0, key: value}
    if report is not kernel_crossings:
        kwargs["N"] = 32
    with pytest.raises(ValueError, match=f"^{key} must"):
        report(fam, **kwargs)


def _certificate_bytes(cert):
    return [np.asarray(x, dtype=float).tobytes()
            for x in (cert.nodes, cert.eps, cert.counts, cert.drifts, cert.endpoint_gaps)]


class TestSplittingMemo:
    @pytest.mark.parametrize("scenario,calls", [("sech", 2), ("rotating", 7)])
    def test_each_distinct_matrix_is_split_once(self, scenario, calls, tmp_path, monkeypatch):
        # a benchmark scenario run; per-lambda memos alone split 20 and 12 times
        from hamflow import cli
        matrices, families = [], []
        split, make = ha.stable_unstable_splitting, cli.fam.make_family

        def counting_split(M):
            matrices.append(len(M))
            return split(M)

        def recording_make(*args, **kwargs):
            families.append(make(*args, **kwargs))
            return families[-1]

        monkeypatch.setattr(ha, "stable_unstable_splitting", counting_split)
        monkeypatch.setattr(cli.fam, "make_family", recording_make)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        cli.run_scenario(os.path.join(root, "bench", "scenarios", f"{scenario}.json"),
                         {"out": str(tmp_path)})
        monkeypatch.undo()
        assert len(matrices) == calls
        [fam] = families
        seen = set()
        for sign in (-1, +1):
            for lam, frame in fam._memo[("frame", sign)].items():
                M = fam.space.J @ fam.S_limit(lam, sign)
                seen.add((sign, M.tobytes()))
                alone = stable_unstable_splitting(M[None])[1 if sign < 0 else 0][0]
                assert np.array_equal(frame.columns, alone)
        assert sum(matrices) == len(seen)


class TestSharedMemo:
    def test_reports_on_one_family_match_fresh_families(self):
        kwargs = dict(lam_grid=np.linspace(0, 1, 9), T=0.5, N=32)
        fam = rotating_asymptotics_family(1)
        shared = [theorem_A_report(fam, **kwargs), corollary_A_report(fam, **kwargs)]
        fresh = [theorem_A_report(rotating_asymptotics_family(1), **kwargs),
                 corollary_A_report(rotating_asymptotics_family(1), **kwargs)]
        for a, b in zip(shared, fresh):
            assert (a.sfl, a.maslov) == (b.sfl, b.maslov)
            assert _certificate_bytes(a.sfl_certificate) == _certificate_bytes(b.sfl_certificate)
            assert [c.lam for c in a.crossings] == [c.lam for c in b.crossings]

    def test_shifted_family_does_not_share(self):
        fam = sech_family(1, amplitude=2.0)
        eu = unstable_space(fam, 0.5, 0.0, 4.0)
        assert unstable_space(fam, 0.5, 0.0, 4.0) is eu
        assert gap_distance(unstable_space(fam.shifted(0.3), 0.5, 0.0, 4.0), eu) > 1e-3


class TestFamilyValidation:
    def test_builtin_families_validate(self):
        for fam in (autonomous_family(2), sech_family(1, amplitude=2.0),
                    rotating_asymptotics_family(1), gamma_nor_embedding_family(1)):
            info = fam.validate()
            assert info["hyperbolicity_margin"] > 0

    def test_nonhyperbolic_rejected(self):
        zero = np.zeros((2, 2))
        bad = autonomous_family(1)
        broken = type(bad)(n=1, B=lambda lam: np.eye(2), K=lambda lam, t: zero,
                           K_limits=lambda lam: (zero, zero))
        with pytest.raises(AssumptionError):
            broken.validate()

    def test_negative_ramp_scale_rejected(self):
        # a negative scale swaps validate()'s envelope probes at t = +-10 decay
        # scales, which then pass a ramp that runs backwards
        with pytest.raises(AssumptionError, match="decay_scale"):
            make_family("rotating-asymptotics", ramp_scale=-2.0)

    @pytest.mark.parametrize("width", [-0.25, 0.0])
    def test_non_positive_bump_width_rejected(self, width):
        # decay_scale = max(bump_width, 0.5) stays positive, so the family
        # checks the width itself: -0.25 would run the rotation backwards
        with pytest.raises(AssumptionError, match="bump_width"):
            make_family("gamma-nor-embedding", bump_width=width)

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.inf, np.nan])
    def test_decay_scale_must_be_finite_and_positive(self, scale):
        zero = np.zeros((2, 2))
        with pytest.raises(AssumptionError, match="decay_scale"):
            HamiltonianFamily(n=1, B=lambda lam: B_HYP, K=lambda lam, t: zero,
                              K_limits=lambda lam: (zero, zero), decay_scale=scale)

    @pytest.mark.parametrize("profile,message", [
        (lambda t: 1.0 / math.cosh(t), "failed"),             # scalar-only
        (lambda t: np.exp(-np.linalg.norm(t)), "differs"),     # reduces over all of t
    ], ids=["scalar-only", "reduces-over-t"])
    def test_family_breaking_the_broadcast_contract_fails_fast(self, profile, message):
        zero = np.zeros((2, 2))
        fam = HamiltonianFamily(
            n=1, B=lambda lam: B_HYP,
            K=lambda lam, t: np.asarray(lam * profile(t))[..., None, None] * np.eye(2),
            K_limits=lambda lam: (zero, zero))
        assert fam.S(0.5, 0.3).shape == (2, 2)
        with pytest.raises(AssumptionError, match=f"broadcast call {message}"):
            fam.validate()
        with pytest.raises(AssumptionError, match=f"broadcast call {message}"):
            theorem_A_report(fam, lam_grid=np.linspace(0.0, 1.0, 5), T=2.0, N=16)
        with pytest.raises(AssumptionError, match=f"broadcast call {message}"):
            corollary_A_report(fam, T=2.0, N=16)

    def test_unlifted_family_fails_fast_where_its_batch_would_broadcast(self):
        # written for a scalar contract, K scales the columns of M by lam when
        # two lam nodes (L == d) are transported together, so every entry point
        # that evaluates a stack checks the contract first
        M = np.array([[0.0, 1.0], [1.0, 0.0]])
        zero = np.zeros((2, 2))
        fam = HamiltonianFamily(n=1, B=lambda lam: B_HYP,
                                K=lambda lam, t: lam * np.exp(-t ** 2) * M,
                                K_limits=lambda lam: (zero, zero))
        assert fam.S(np.array([0.2, 0.8]), 0.0).shape == (2, 2)
        with pytest.raises(AssumptionError, match="broadcast call failed"):
            stable_unstable_pair_path(fam, [0.2, 0.8], 0.0, 2.0)
        for op in (lambda: fam.lambda_lipschitz(),
                   lambda: assemble_A0_operator(fam, 0.5, 2.0, 16)):
            with pytest.raises(AssumptionError, match="broadcast call failed"):
                op()

    def test_catalog_roundtrip(self):
        fam = make_family("sech-perturbation", amplitude=1.0)
        assert fam.name == "sech-perturbation"
        with pytest.raises(KeyError):
            make_family("no-such-family")
