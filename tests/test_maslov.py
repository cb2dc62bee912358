import numpy as np
import pytest

from hamflow import maslov
from hamflow.maslov import (
    CrossingRecord,
    LagrangianPath,
    RefinementError,
    UnitaryPath,
    crossing_form_index,
    find_crossings,
    maslov_index,
    maslov_index_pair,
    partial_maslov_index,
    winding_number,
)
from hamflow.spectral import FlowRefinementError, SymmetricMatrixPath, chern_winding
from hamflow.symplectic import (
    LagrangianFrame,
    intersection_dimension_rank,
    lagrangian_from_matrix,
    souriau_map,
    standard_space,
)
from helpers import (
    frame_from_unitary,
    gamma_nor_path,
    line_frame,
    phase_block_path,
    random_hermitian,
    random_lagrangian_path,
    souriau_intersection_count,
    unitary_from_hermitian,
)


def scalar_path(sign, grid=9):
    ev = lambda lam: np.array([[np.exp(sign * 2j * np.pi * lam)]])
    return UnitaryPath.from_callable(ev, grid=grid)


class TestWindingNumber:
    def test_constant_path(self):
        U0 = unitary_from_hermitian(random_hermitian(np.random.default_rng(0), 3))
        path = UnitaryPath.from_callable(lambda lam: U0, grid=2)
        assert winding_number(path) == 0

    def test_scalar_loops(self):
        assert winding_number(scalar_path(+1)) == 1
        assert winding_number(scalar_path(-1)) == -1

    def test_partition_independence(self):
        for grid in (9, 17, 33):  # 2x and 4x refinements of the same sampling
            assert winding_number(scalar_path(+1, grid)) == 1

    def test_multiple_turns(self):
        ev = lambda lam: np.array([[np.exp(4j * np.pi * lam)]])
        path = UnitaryPath.from_callable(ev, grid=17)
        assert winding_number(path) == 2

    def test_refinement_exhaustion_reported(self):
        # unrefinable two-sample path with a large step
        U0 = np.eye(1)
        U1 = np.array([[np.exp(2.5j)]])
        path = UnitaryPath([(0.0, U0), (1.0, U1)])
        with pytest.raises(RefinementError):
            winding_number(path)
        # one refinement failure type for both counting routes
        assert RefinementError is FlowRefinementError

    def test_discontinuous_path_fails_fast(self):
        rng = np.random.default_rng(4)
        calls = []

        def random_phase(lam):
            calls.append(lam)
            return np.array([[np.exp(2j * np.pi * rng.random())]])

        with pytest.raises(RefinementError,
                           match=r"^refinement exhausted on \[[^,]+, [^\]]+\] \(drift "):
            winding_number(UnitaryPath.from_callable(random_phase, grid=2))
        assert len(calls) <= 100

    def test_discontinuous_contour_fails_fast(self):
        # det(A + isI) jumps from -1 + is to 1 + is at lam = 1/2: on the
        # edges s = -2 and s = 2 an argument step 2 atan(1/2) below pi/2
        calls = []

        def jump(lam):
            calls.append(lam)
            return np.array([[-1.0 if lam < 0.5 else 1.0]])

        with pytest.raises(FlowRefinementError,
                           match=r"^refinement exhausted on \[[^,]+, [^\]]+\] \(drift "):
            chern_winding(SymmetricMatrixPath(jump))
        assert len(calls) <= 200

    def test_evaluator_maps_a_sequence(self):
        asked = []

        def evaluator(lams):
            asked.append(len(lams))
            return [np.array([[np.exp(2j * np.pi * (lam + 0.1))]]) for lam in lams]

        path = UnitaryPath([(l, evaluator([l])[0]) for l in (0.0, 0.5, 1.0)], evaluator)
        asked.clear()
        assert winding_number(path) == 1
        assert asked and min(asked) > 1  # each refinement round is one call
        broken = UnitaryPath([(0.0, np.eye(1)), (1.0, np.eye(1))], lambda lams: [])
        with pytest.raises(ValueError, match="sequence of lam"):
            broken.evaluate(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            UnitaryPath([(0.0, np.eye(1))])
        with pytest.raises(ValueError):
            UnitaryPath([(0.0, np.eye(1)), (0.0, np.eye(1))])
        with pytest.raises(ValueError):
            UnitaryPath([(0.0, np.eye(1)), (1.0, np.array([[2.0]]))])


class TestMaslovIndex:
    def test_gamma_nor(self):
        path, W, _ = gamma_nor_path()
        assert maslov_index(path, W) == 1

    def test_reverse(self):
        path, W, _ = gamma_nor_path()
        assert maslov_index(path.reverse(), W) == -1

    def test_transversal_path_is_zero(self):
        sp = standard_space(1)
        W = line_frame(sp, 0.0)

        def frame(lam):
            return line_frame(sp, 40.0 + 30.0 * np.sin(np.pi * lam))

        path = LagrangianPath.from_callable(sp, frame, grid=9)
        for lam, F in path.samples:
            assert souriau_intersection_count(F, W, sp) == 0
        assert maslov_index(path, W) == 0

    def test_concatenation_additivity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            path = random_lagrangian_path(rng, n, speed=2.0)
            W = frame_from_unitary(unitary_from_hermitian(random_hermitian(rng, n)))
            split = float(rng.uniform(0.2, 0.8))
            total = maslov_index(path, W)
            left = maslov_index(path.restrict(0.0, split), W)
            right = maslov_index(path.restrict(split, 1.0), W)
            assert left + right == total

    def test_homotopy_robustness_under_endpoint_fixed_perturbations(self):
        rng = np.random.default_rng(8)
        base, W, sp = gamma_nor_path()
        for _ in range(100):
            H = random_hermitian(rng, 1, scale=0.15)

            def frame(lam, H=H):
                F = base.frame(lam)
                U = unitary_from_hermitian(H * np.sin(np.pi * lam))
                cols = np.vstack([
                    U.real @ F.columns[:1] - U.imag @ F.columns[1:],
                    U.imag @ F.columns[:1] + U.real @ F.columns[1:],
                ])
                return LagrangianFrame(np.linalg.qr(cols)[0])

            path = LagrangianPath.from_callable(sp, frame, grid=17)
            assert maslov_index(path, W) == 1

    def test_refinement_stability(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            path_coarse = random_lagrangian_path(rng, 2, speed=2.0, grid=9)
            W = frame_from_unitary(unitary_from_hermitian(random_hermitian(rng, 2)))
            fine = LagrangianPath(path_coarse.space,
                                  [(l, path_coarse.frame(l)) for l in np.linspace(0, 1, 33)],
                                  path_coarse.evaluator)
            assert maslov_index(path_coarse, W) == maslov_index(fine, W)


class TestMaslovPair:
    def test_pair_with_constant_reduces_to_single(self):
        path, W, sp = gamma_nor_path()
        const = LagrangianPath.from_callable(sp, lambda lam: W, grid=17)
        assert maslov_index_pair(path, const) == maslov_index(path, W) == 1

    def test_constant_transversal_pair(self):
        sp = standard_space(1)
        p1 = LagrangianPath.from_callable(sp, lambda lam: line_frame(sp, 0.0), grid=5)
        p2 = LagrangianPath.from_callable(sp, lambda lam: line_frame(sp, 90.0), grid=5)
        assert maslov_index_pair(p1, p2) == 0

    def test_common_rotation_with_offset_is_zero(self):
        sp = standard_space(1)
        p1 = LagrangianPath.from_callable(sp, lambda lam: line_frame(sp, 180.0 * lam), grid=17)
        p2 = LagrangianPath.from_callable(sp, lambda lam: line_frame(sp, 60.0 + 180.0 * lam), grid=17)
        for lam in np.linspace(0, 1, 9):
            assert souriau_intersection_count(p1.frame(lam), p2.frame(lam), sp) == 0
        assert maslov_index_pair(p1, p2) == 0

    def test_second_slot_orientation(self):
        sp = standard_space(1)
        const = LagrangianPath.from_callable(sp, lambda lam: line_frame(sp, 0.0), grid=17)
        ccw = LagrangianPath.from_callable(sp, lambda lam: line_frame(sp, 90 + 180 * lam), grid=17)
        assert maslov_index_pair(ccw, const) == 1
        assert maslov_index_pair(const, ccw) == -1

    def test_random_pair_equals_relative_winding_of_lines(self):
        rng = np.random.default_rng(10)
        sp = standard_space(1)
        for _ in range(20):
            a0 = rng.uniform(10, 80)
            s1, s2 = rng.choice([-1.0, 1.0], 2)
            k1, k2 = rng.integers(0, 3, 2)

            def ang1(lam):
                return a0 + s1 * 180.0 * k1 * lam

            def ang2(lam):
                return a0 + 90.0 + s2 * 180.0 * k2 * lam

            p1 = LagrangianPath.from_callable(sp, lambda l: line_frame(sp, ang1(l)), grid=33)
            p2 = LagrangianPath.from_callable(sp, lambda l: line_frame(sp, ang2(l)), grid=33)
            # relative angle starts at 90 deg and advances linearly
            rel_turns = (s1 * k1 - s2 * k2)
            assert maslov_index_pair(p1, p2) == rel_turns


class TestPartialIndex:
    def test_gamma_nor_midpoint(self):
        path, W, _ = gamma_nor_path()
        assert partial_maslov_index(path, W, 0.5, "left") == 1
        assert partial_maslov_index(path, W, 0.5, "right") == 0

    def test_reverse_identities(self):
        path, W, _ = gamma_nor_path()
        rev = path.reverse()
        assert partial_maslov_index(rev, W, 0.5, "left") == 0
        assert partial_maslov_index(rev, W, 0.5, "right") == -1

    def test_left_plus_right_equals_total(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            path = random_lagrangian_path(rng, 2, speed=2.0)
            W = frame_from_unitary(unitary_from_hermitian(random_hermitian(rng, 2)))
            lam0 = float(rng.uniform(0.15, 0.85))
            left = partial_maslov_index(path, W, lam0, "left")
            right = partial_maslov_index(path, W, lam0, "right")
            assert left + right == maslov_index(path, W)

    def test_lam0_out_of_range(self):
        path, W, _ = gamma_nor_path()
        with pytest.raises(ValueError):
            partial_maslov_index(path, W, 0.0, "left")
        with pytest.raises(ValueError):
            partial_maslov_index(path, W, 1.5, "right")


class TestMaslovMidpointDichotomy:
    def test_rising_multidimensional_crossings(self):
        for signs in ((+1,), (+1, +1), (+1, +1, +1)):
            path, W, _ = phase_block_path(signs, fixed_phases=(1.0,))
            k = len(signs)
            assert maslov_index(path, W) == k
            assert partial_maslov_index(path, W, 0.5, "left") == k
            assert partial_maslov_index(path, W, 0.5, "right") == 0

    def test_falling_multidimensional_crossings(self):
        for signs in ((-1,), (-1, -1)):
            path, W, _ = phase_block_path(signs, fixed_phases=(1.2, 2.0))
            k = len(signs)
            assert maslov_index(path, W) == -k
            assert partial_maslov_index(path, W, 0.5, "left") == 0
            assert partial_maslov_index(path, W, 0.5, "right") == -k


class TestCrossingForm:
    def test_gamma_nor_signature_and_value(self):
        path, W, _ = gamma_nor_path()
        rec = crossing_form_index(path, W, 0.5)
        assert rec.intersection_dim == 1
        assert rec.regular
        assert rec.signature == 1
        assert rec.form[0, 0] == pytest.approx(np.pi, abs=1e-3)

    def test_reverse_signature(self):
        path, W, _ = gamma_nor_path()
        rec = crossing_form_index(path.reverse(), W, 0.5)
        assert rec.signature == -1
        assert rec.form[0, 0] == pytest.approx(-np.pi, abs=1e-3)

    def test_reparametrization_invariance_of_sign(self):
        _, W, sp = gamma_nor_path()

        def doubled(lam):
            t = min(max(2 * lam, 1e-9), 1 - 1e-9)
            return lagrangian_from_matrix(
                np.array([[-np.sin(np.pi * t)], [np.cos(np.pi * t)]]), sp)

        path = LagrangianPath.from_callable(sp, doubled, grid=17)
        rec = crossing_form_index(path, W, 0.25)
        assert rec.signature == 1

    def test_not_a_crossing(self):
        path, W, _ = gamma_nor_path()
        from hamflow.symplectic import SymplecticError
        with pytest.raises(SymplecticError):
            crossing_form_index(path, W, 0.2)

    def test_local_index_matches_signature(self):
        path, W, _ = gamma_nor_path()
        rec = crossing_form_index(path, W, 0.5)
        local = maslov_index(path.restrict(0.4, 0.6), W)
        assert local == rec.signature

    def test_signature_bounds(self):
        with pytest.raises(ValueError):
            CrossingRecord(lam=0.5, intersection_dim=1, signature=2, regular=True)


class TestShrinkBracket:
    @pytest.mark.parametrize("f,a,b,root", [
        (lambda x: x - 0.3, 0.0, 1.0, 0.3),
        (lambda x: 2.0 - 4.0 * x, 0.0, 1.0, 0.5),
        # a secant never lands on the root of a polynomial quadratic, so the
        # quadratic is odd about its root: the first secant point is the root
        (lambda x: (x - 0.25) * abs(x - 0.25), 0.0, 0.5, 0.25),
    ], ids=["linear", "linear-falling", "quadratic"])
    def test_exact_zero_ends_the_search(self, f, a, b, root):
        calls = []

        def counting(x):
            calls.append(x)
            return f(x)

        lam = maslov._shrink_bracket(counting, a, b, f(a), f(b), 1e-10)
        assert len(calls) <= 3
        assert abs(lam - root) <= 1e-10


class TestFindCrossings:
    def test_gamma_nor(self):
        path, W, _ = gamma_nor_path()
        recs = find_crossings(path, W)
        assert len(recs) == 1
        assert recs[0].lam == pytest.approx(0.5, abs=1e-9)
        assert recs[0].intersection_dim == 1

    def test_transversal_has_none(self):
        sp = standard_space(1)
        path = LagrangianPath.from_callable(sp, lambda lam: line_frame(sp, 40 + 20 * lam), grid=9)
        assert find_crossings(path, line_frame(sp, 0.0)) == []

    def test_souriau_count_matches_intersection_at_crossing(self):
        path, W, sp = phase_block_path((+1, +1), fixed_phases=(1.0,))
        U = souriau_map(W, path.frame(0.5), sp)
        phases = np.angle(-np.linalg.eigvals(U))
        assert np.count_nonzero(np.abs(phases) < 1e-9) == 2
        assert souriau_intersection_count(W, path.frame(0.5), sp) == 2
        assert intersection_dimension_rank(W, path.frame(0.5)) == 2
