import numpy as np
import pytest

from hamflow.symplectic import (
    SymplecticError,
    SymplecticSpace,
    gap_distance,
    intersection_basis,
    intersection_dimension_rank,
    lagrangian_from_matrix,
    souriau_map,
    standard_space,
)
from helpers import (
    frame_from_unitary,
    random_hermitian,
    random_lagrangian_frame,
    souriau_intersection_count,
    unitary_from_hermitian,
)


def test_standard_space_blocks():
    sp = standard_space(1)
    assert np.array_equal(sp.J, np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert np.allclose(sp.J @ sp.J, -np.eye(2))


def test_standard_space_omega():
    # the symplectic form is w(x, y) = <Jx, y>
    sp = standard_space(2)
    e = np.eye(4)
    assert (sp.J @ e[:, 0]) @ e[:, 2] == pytest.approx(1.0)


def test_standard_space_rejects_zero():
    with pytest.raises(SymplecticError):
        standard_space(0)


def test_space_rejects_bad_structure():
    with pytest.raises(SymplecticError):
        SymplecticSpace(np.eye(2))
    with pytest.raises(SymplecticError):
        SymplecticSpace(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_adapted_basis_standardizes_any_compatible_J():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        q, _ = np.linalg.qr(rng.standard_normal((2 * n, 2 * n)))
        J = q @ standard_space(n).J @ q.T
        sp = SymplecticSpace(J)
        C = sp.adapted_basis
        assert np.allclose(C.T @ C, np.eye(2 * n), atol=1e-12)
        assert np.allclose(C.T @ J @ C, standard_space(n).J, atol=1e-10)


def test_lagrangian_from_matrix_axis_and_scaling():
    sp = standard_space(1)
    f = lagrangian_from_matrix(np.array([[1.0], [0.0]]), sp)
    assert np.allclose(np.abs(f.columns), [[1.0], [0.0]])
    g = lagrangian_from_matrix(np.array([[2.0], [0.0]]), sp)
    assert np.allclose(f.projection(), g.projection())


def test_lagrangian_from_matrix_isotropy_check():
    sp = standard_space(2)
    # <J e1, e2> = 0 so span{e1, e2} is Lagrangian; span{e1, e3} is not
    lagrangian_from_matrix(np.eye(4)[:, [0, 1]], sp)
    with pytest.raises(SymplecticError):
        lagrangian_from_matrix(np.eye(4)[:, [0, 2]], sp)


def test_lagrangian_from_matrix_rank_check():
    sp = standard_space(2)
    raw = np.column_stack([np.eye(4)[:, 0], 2 * np.eye(4)[:, 0]])
    with pytest.raises(SymplecticError):
        lagrangian_from_matrix(raw, sp)


def test_orthogonal_projection_examples():
    sp = standard_space(1)
    f = lagrangian_from_matrix(np.array([[1.0], [0.0]]), sp)
    assert np.allclose(f.projection(), np.diag([1.0, 0.0]))
    th = 0.7
    g = lagrangian_from_matrix(np.array([[np.cos(th)], [np.sin(th)]]), sp)
    expected = np.array([[np.cos(th) ** 2, np.cos(th) * np.sin(th)],
                         [np.cos(th) * np.sin(th), np.sin(th) ** 2]])
    assert np.allclose(g.projection(), expected)
    P = g.projection()
    assert np.allclose(P @ P, P)
    assert np.trace(P) == pytest.approx(1.0)


def test_gap_distance_lines():
    sp = standard_space(1)
    e1 = lagrangian_from_matrix(np.array([[1.0], [0.0]]), sp)
    e2 = lagrangian_from_matrix(np.array([[0.0], [1.0]]), sp)
    assert gap_distance(e1, e1) == 0.0
    assert gap_distance(e1, e2) == pytest.approx(1.0)
    for th in (0.1, 0.4, 1.2):
        g = lagrangian_from_matrix(np.array([[np.cos(th)], [np.sin(th)]]), sp)
        assert gap_distance(e1, g) == pytest.approx(abs(np.sin(th)), abs=1e-12)


def test_gap_metric_axioms_random():
    rng = np.random.default_rng(1)
    n = 2
    frames = [random_lagrangian_frame(rng, n) for _ in range(40)]
    for i in range(0, 39, 3):
        a, b, c = frames[i], frames[i + 1], frames[i + 2]
        dab, dba = gap_distance(a, b), gap_distance(b, a)
        assert dab == dba  # symmetric exactly (same float expression)
        assert gap_distance(a, c) <= dab + gap_distance(b, c) + 1e-10
        assert dab <= 1.0 + 1e-12
    # identity of indiscernibles against a subspace-equality oracle
    f = frames[0]
    recombined = np.linalg.qr(f.columns @ _random_orthogonal(rng, n))[0]
    from hamflow.symplectic import LagrangianFrame
    g = LagrangianFrame(recombined)
    assert gap_distance(f, g) < 1e-12


def _random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def test_souriau_special_values():
    sp = standard_space(2)
    W = lagrangian_from_matrix(np.eye(4)[:, :2], sp)
    assert np.allclose(souriau_map(W, W, sp), -np.eye(2), atol=1e-12)
    JW = lagrangian_from_matrix(sp.J @ W.columns, sp)
    assert np.allclose(souriau_map(W, JW, sp), np.eye(2), atol=1e-12)


def test_souriau_rotation_line():
    sp = standard_space(1)
    W = lagrangian_from_matrix(np.array([[1.0], [0.0]]), sp)
    for lam in np.linspace(0.05, 0.95, 7):
        L = lagrangian_from_matrix(
            np.array([[-np.sin(np.pi * lam)], [np.cos(np.pi * lam)]]), sp)
        assert np.allclose(souriau_map(W, L, sp), np.exp(2j * np.pi * lam), atol=1e-12)


def test_souriau_unitarity_random():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        sp = standard_space(n)
        W = random_lagrangian_frame(rng, n)
        L = random_lagrangian_frame(rng, n)
        U = souriau_map(W, L, sp)
        assert np.linalg.norm(U @ U.conj().T - np.eye(n), 2) <= 1e-10


def _complexify_commuting_operator(M, space):
    """Matrix of a J-commuting real operator as a C-linear map on C^n.

    M must commute with J to 1e-8 of max(1, ||M||).  In the adapted basis a
    commuting M has the block form [[A, B], [-B, A]] and acts on z = x + iy
    as A - iB.
    """
    M = np.asarray(M, dtype=float)
    comm = np.linalg.norm(M @ space.J - space.J @ M, 2)
    if comm > 1e-8 * max(1.0, np.linalg.norm(M, 2)):
        raise SymplecticError(f"operator does not commute with J: residual {comm:.3e}")
    C = space.adapted_basis
    Mc = C.T @ M @ C
    n = space.n
    A = 0.5 * (Mc[:n, :n] + Mc[n:, n:])
    B = 0.5 * (Mc[:n, n:] - Mc[n:, :n])
    return A - 1j * B


def _souriau_by_reflections(W, L, space):
    """Reference: the 2n x 2n reflection product, complexified."""
    eye = np.eye(space.dim)
    S = -(eye - 2.0 * L.projection()) @ (eye - 2.0 * W.projection())
    return _complexify_commuting_operator(S, space)


def test_souriau_closed_form_matches_reflection_product():
    from hamflow.maslov import _diagonal_frame, _product_frame
    from hamflow.symplectic import LagrangianFrame

    rng = np.random.default_rng(8)
    for n in (1, 2, 3, 4):
        sp = standard_space(n)
        q = _random_orthogonal(rng, 2 * n)
        rotated = SymplecticSpace(q @ sp.J @ q.T)
        product = sp.product(sp)
        for _ in range(40):
            W, L = random_lagrangian_frame(rng, n), random_lagrangian_frame(rng, n)
            Wq, Lq = LagrangianFrame(q @ W.columns), LagrangianFrame(q @ L.columns)
            P, D = _product_frame(W, L), _diagonal_frame(2 * n)
            for A, B, space in ((W, L, sp), (Wq, Lq, rotated), (D, P, product)):
                assert np.abs(souriau_map(A, B, space)
                              - _souriau_by_reflections(A, B, space)).max() <= 1e-14


def test_souriau_rejects_non_lagrangian_frames():
    from hamflow.symplectic import LagrangianFrame

    sp = standard_space(2)
    W = lagrangian_from_matrix(np.eye(4)[:, :2], sp)
    not_isotropic = LagrangianFrame(np.eye(4)[:, [0, 2]])
    not_orthonormal = LagrangianFrame(1.001 * np.eye(4)[:, :2])
    for bad in (not_isotropic, not_orthonormal):
        for args in ((W, bad), (bad, W)):
            with pytest.raises(SymplecticError):
                souriau_map(*args, sp)


def test_intersection_dimension_special():
    for n in (1, 2, 3):
        sp = standard_space(n)
        W = lagrangian_from_matrix(np.vstack([np.eye(n), np.zeros((n, n))]), sp)
        assert souriau_intersection_count(W, W, sp) == n
        JW = lagrangian_from_matrix(sp.J @ W.columns, sp)
        assert souriau_intersection_count(W, JW, sp) == 0


def test_intersection_dimension_one_shared_axis():
    sp = standard_space(2)
    W = lagrangian_from_matrix(np.eye(4)[:, [0, 1]], sp)
    # shares e1 with W, second direction rotated into the symplectic partner plane
    other = np.column_stack([np.eye(4)[:, 0],
                             (np.eye(4)[:, 1] + np.eye(4)[:, 3]) / np.sqrt(2)])
    L = lagrangian_from_matrix(other, sp)
    assert souriau_intersection_count(W, L, sp) == 1
    assert intersection_dimension_rank(W, L) == 1


def test_intersection_dimension_engineered_and_random():
    rng = np.random.default_rng(4)
    trials = 0
    while trials < 1000:
        n = int(rng.integers(1, 5))
        k = int(rng.integers(0, n + 1))
        sp = standard_space(n)
        Q = unitary_from_hermitian(random_hermitian(rng, n))
        W = frame_from_unitary(Q)
        O = _random_orthogonal(rng, n)
        phases = np.concatenate([np.zeros(k), rng.uniform(0.3, np.pi - 0.3, n - k)])
        L = frame_from_unitary(Q @ O @ np.diag(np.exp(1j * phases)) @ O.T)
        dim_s = souriau_intersection_count(W, L, sp)
        dim_r = intersection_dimension_rank(W, L)
        assert dim_s == dim_r == k
        trials += 1


def test_intersection_basis_spans_intersection():
    sp = standard_space(2)
    W = lagrangian_from_matrix(np.eye(4)[:, [0, 1]], sp)
    B = intersection_basis(W, W)
    assert B.shape == (4, 2)
    assert np.allclose(B.T @ B, np.eye(2), atol=1e-10)
    assert np.allclose(W.projection() @ B, B, atol=1e-10)


def test_complexify_examples():
    sp = standard_space(3)
    assert np.allclose(_complexify_commuting_operator(np.eye(6), sp), np.eye(3))
    assert np.allclose(_complexify_commuting_operator(sp.J, sp), 1j * np.eye(3))
    a = 1.1
    M = np.cos(a) * np.eye(6) + np.sin(a) * sp.J
    assert np.allclose(_complexify_commuting_operator(M, sp), np.exp(1j * a) * np.eye(3))


def test_complexify_product_and_adjoint():
    rng = np.random.default_rng(5)
    sp = standard_space(3)
    n = 3
    for _ in range(100):
        def rand_commuting():
            A = rng.standard_normal((n, n))
            B = rng.standard_normal((n, n))
            return np.block([[A, B], [-B, A]])

        M1, M2 = rand_commuting(), rand_commuting()
        z1 = _complexify_commuting_operator(M1, sp)
        z2 = _complexify_commuting_operator(M2, sp)
        z12 = _complexify_commuting_operator(M1 @ M2, sp)
        assert np.linalg.norm(z12 - z1 @ z2, 2) <= 1e-10 * max(1, np.linalg.norm(z1) * np.linalg.norm(z2))
        zt = _complexify_commuting_operator(M1.T, sp)
        assert np.linalg.norm(zt - z1.conj().T, 2) <= 1e-10 * max(1, np.linalg.norm(z1))


def test_complexify_rejects_noncommuting():
    sp = standard_space(1)
    with pytest.raises(SymplecticError):
        _complexify_commuting_operator(np.diag([1.0, 2.0]), sp)
