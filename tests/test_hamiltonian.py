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
    TruncationError,
    assemble_A0_operator,
    assemble_Q_operator,
    corollary_A_report,
    fundamental_solution,
    hyperbolicity_margin,
    is_hyperbolic,
    kernel_crossings,
    pencil_window,
    propagate_subspace,
    propagate_subspaces,
    relative_dimension,
    stable_space,
    stable_unstable_pair_path,
    stable_unstable_splitting,
    theorem_A_report,
    theorem_B_report,
    unstable_space,
)
from hamflow import maslov
from hamflow.maslov import LagrangianPath, find_crossings, maslov_index_pair, pair_to_product_path
from hamflow.symplectic import (
    LagrangianFrame,
    gap_distance,
    intersection_dimension_rank,
    lagrangian_from_matrix,
    standard_space,
)
from helpers import gamma_nor_path, line_frame


SP1 = standard_space(1)
B_HYP = np.diag([1.0, -1.0])


class TestHyperbolicity:
    def test_examples(self):
        assert is_hyperbolic(SP1.J @ B_HYP)           # eigenvalues +-1
        assert not is_hyperbolic(SP1.J)               # eigenvalues +-i
        assert is_hyperbolic(np.diag([2.0, -3.0]))

    def test_margin(self):
        assert hyperbolicity_margin(np.diag([2.0, -3.0])) == pytest.approx(2.0)


class TestSplitting:
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
            fm, fp = stable_unstable_splitting(sp.J @ fam.S_limit(0.5, +1), space=sp)
            assert fm.dim + fp.dim == sp.dim

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
        fs = fundamental_solution(free, 0.0, 2.0, steps=32)
        assert np.allclose(fs.at(2.0), np.eye(2), atol=1e-12)
        assert np.allclose(fs.at(-2.0), np.eye(2), atol=1e-12)

    def test_constant_coefficients_vs_expm(self):
        fam = autonomous_family(1)
        fs = fundamental_solution(fam, 0.7, 1.0, steps=128)
        oracle = scipy.linalg.expm(SP1.J @ B_HYP)
        assert np.linalg.norm(fs.at(1.0) - oracle, 2) <= 1e-8

    def test_symplectic_residual_builtin_families(self):
        for fam in (autonomous_family(1), sech_family(1, amplitude=2.0),
                    rotating_asymptotics_family(1), gamma_nor_embedding_family(1)):
            fs = fundamental_solution(fam, 0.6, 5.0, steps=512)
            assert fs.symplectic_residual <= 1e-8

    def test_inverse_via_symplectic_identity(self):
        fam = sech_family(1, amplitude=1.0)
        fs = fundamental_solution(fam, 0.5, 3.0, steps=256)
        assert np.allclose(fs.inverse_at(3.0) @ fs.at(3.0), np.eye(2), atol=1e-8)


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
            _, fp = stable_unstable_splitting(sp.J @ fam.S_limit(0.2, -1), space=sp)
            out = propagate_subspace(fp, fam, 0.2, -4.0, 2.0)
            assert np.linalg.norm(out.columns.T @ sp.J @ out.columns, 2) <= 1e-8

    def test_truncation_self_convergence(self):
        fam = sech_family(1, amplitude=2.0)
        a = propagate_subspace(LagrangianFrame(
            stable_unstable_splitting(SP1.J @ B_HYP)[0]), fam, 0.9, 8.0, 0.0)
        b = propagate_subspace(LagrangianFrame(
            stable_unstable_splitting(SP1.J @ B_HYP)[0]), fam, 0.9, 12.0, 0.0)
        assert gap_distance(a, b) <= 1e-6


def _loop_transport(frame, family, lam, t_from, t_to, steps_per_unit=64):
    """Reference: one lam, one RK4 step and one QR at a time."""
    F = np.asarray(frame, dtype=float)
    if t_to == t_from:
        return np.linalg.qr(F)[0]
    J = family.space.J
    nsteps = max(16, int(np.ceil(abs(t_to - t_from) * steps_per_unit)))
    h = (t_to - t_from) / nsteps
    t = t_from
    for _ in range(nsteps):
        k1 = J @ family.S(lam, t) @ F
        k2 = J @ family.S(lam, t + 0.5 * h) @ (F + 0.5 * h * k1)
        k3 = J @ family.S(lam, t + 0.5 * h) @ (F + 0.5 * h * k2)
        k4 = J @ family.S(lam, t + h) @ (F + h * k3)
        F = F + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        F, r = np.linalg.qr(F)
        F = F * np.sign(np.sign(np.diag(r)) + 0.5)
        t += h
    return F


BATCH_FAMILIES = {
    "sech": lambda: sech_family(1, amplitude=2.0),
    "rotating": lambda: rotating_asymptotics_family(1),
    "gamma-nor": lambda: gamma_nor_embedding_family(1),
    "random-n2": lambda: random_family(np.random.default_rng(11), n=2, kind="tanh"),
}


class TestBatchedTransport:
    @pytest.mark.parametrize("name", sorted(BATCH_FAMILIES))
    @pytest.mark.parametrize("t_from,t_to", [(-2.0, 0.5), (2.0, 0.0), (0.3, 0.3)])
    def test_matches_per_lambda_loop(self, name, t_from, t_to):
        fam = BATCH_FAMILIES[name]()
        lams = np.linspace(0.0, 1.0, 5)
        starts = np.stack([stable_unstable_splitting(fam.space.J @ fam.S_limit(lam, -1))[1]
                           for lam in lams])
        batch = propagate_subspaces(starts, fam, lams, t_from, t_to)
        assert batch.shape == starts.shape
        for lam, F0, F in zip(lams, starts, batch):
            ref = _loop_transport(F0, fam, lam, t_from, t_to)
            single = propagate_subspace(LagrangianFrame(F0), fam, lam, t_from, t_to)
            assert np.abs(F - ref).max() <= 1e-13
            assert np.abs(single.columns - ref).max() <= 1e-13

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

    def test_certificate(self):
        fam = sech_family(1, amplitude=2.0)
        frame, gap = unstable_space(fam, 0.3, 0.0, 10.0, certify=True)
        assert gap <= 1e-6

    def test_insufficient_truncation_raises(self):
        fam = sech_family(1, amplitude=2.0)
        with pytest.raises(TruncationError):
            unstable_space(fam, 0.75, 0.0, 1.0, certify=True, cert_tol=1e-10)

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
        nearest = maslov._nearest_phase
        calls = []

        def counting(path, W, lam):
            calls.append(lam)
            return nearest(path, W, lam)

        monkeypatch.setattr(maslov, "_nearest_phase", counting)
        recs = kernel_crossings(sech_family(1, amplitude=5.0), np.linspace(0, 1, 9), T=4.0)
        assert [r.lam for r in recs] == pytest.approx([0.3, 0.5, 0.7, 0.9], abs=1e-3)
        assert len(calls) - 65 <= 30  # beyond one call per coarse node


class TestCrossingRefinement:
    @pytest.mark.parametrize("fam,T", [(sech_family(1, amplitude=2.0), 1.0),
                                       (gamma_nor_embedding_family(1), 5.0)])
    def test_secant_is_cheap_and_matches_bisection(self, fam, T, monkeypatch):
        coarse, tol = 64, 1e-10
        path_u, path_s = stable_unstable_pair_path(fam, np.linspace(0.0, 1.0, coarse + 1), 0.0, T)
        product, diag = pair_to_product_path(path_u, path_s)
        nearest = maslov._nearest_phase
        phase = lambda lam: nearest(product, diag, lam)
        calls = []

        def counting(path, W, lam):
            calls.append(lam)
            return nearest(path, W, lam)

        monkeypatch.setattr(maslov, "_nearest_phase", counting)
        recs = find_crossings(product, diag, coarse=coarse, tol_lambda=tol)
        monkeypatch.undo()
        assert len(recs) == 1
        assert 0 < len(calls) - (coarse + 1) <= 10
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
        K = op.stiffness
        assert np.linalg.norm(K - K.T, 2) <= 1e-12 * max(1.0, np.linalg.norm(K, 2))
        scipy.linalg.cholesky(op.mass)

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
        smallest = [assemble_A0_operator(fam, 0.5, 6.0, N).smallest_magnitude(window=1.0)
                    for N in (40, 80, 160)]
        assert min(smallest) > 0.05

    def test_kernel_approach_at_crossing(self):
        fam = sech_family(1, amplitude=2.0)
        lam_star = 0.75
        vals = [abs(assemble_A0_operator(fam, lam_star, 10.0, N).smallest_magnitude(window=0.2))
                for N in (40, 80, 160)]
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

    def test_third_opinion(self):
        rep = theorem_A_report(sech_family(1, amplitude=2.0),
                               lam_grid=np.linspace(0, 1, 17), T=8.0, N=96,
                               third_opinion=True, locate_crossings=False)
        assert rep.chern == rep.sfl == 1
        assert rep.agree

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


def _certificate_bytes(cert):
    return [np.asarray(x, dtype=float).tobytes()
            for x in (cert.nodes, cert.eps, cert.counts, cert.drifts, cert.endpoint_gaps)]


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

    def test_catalog_roundtrip(self):
        fam = make_family("sech-perturbation", amplitude=1.0)
        assert fam.name == "sech-perturbation"
        with pytest.raises(KeyError):
            make_family("no-such-family")
