import numpy as np
import pytest

from hamflow import maslov, spectral
from hamflow.families import rotating_asymptotics_family
from hamflow.hamiltonian import theorem_A_report
from hamflow.maslov import UnitaryPath, winding_number
from hamflow.spectral import (
    MAX_FLOW_DEPTH,
    EndpointKernelError,
    FlowCertificate,
    FlowRefinementError,
    SymmetricMatrixPath,
    chern_winding,
    flow_from_spectra,
    normalization_path,
    spectral_flow,
)
from helpers import (
    frame_from_unitary,
    random_hermitian,
    random_lagrangian_path,
    unitary_from_hermitian,
)


def linear_path(slope, offset):
    return SymmetricMatrixPath(lambda lam: np.array([[slope * lam + offset]]),
                               lipschitz=abs(slope))


def random_piecewise_linear(rng, N, nodes=4, min_end_gap=0.05, scale=1.5):
    """Piecewise-linear symmetric path with invertible endpoints."""
    while True:
        mats = []
        for _ in range(nodes):
            A = rng.standard_normal((N, N))
            mats.append(0.5 * (A + A.T) * scale)
        g0 = np.abs(np.linalg.eigvalsh(mats[0])).min()
        g1 = np.abs(np.linalg.eigvalsh(mats[-1])).min()
        if min(g0, g1) > min_end_gap:
            break

    def evaluate(lam, mats=mats):
        x = lam * (len(mats) - 1)
        i = min(int(np.floor(x)), len(mats) - 2)
        t = x - i
        return (1 - t) * mats[i] + t * mats[i + 1]

    return SymmetricMatrixPath(evaluate)


class TestSpectralFlow:
    def test_single_upward_crossing(self):
        flow, cert = spectral_flow(linear_path(2.0, -1.0))
        assert flow == 1
        assert cert.total == 1
        assert min(cert.endpoint_gaps) == pytest.approx(1.0)

    def test_single_downward_crossing(self):
        flow, _ = spectral_flow(linear_path(-2.0, 1.0))
        assert flow == -1

    def test_opposite_crossings_cancel(self):
        path = SymmetricMatrixPath(lambda lam: np.diag([2 * lam - 1.0, 1.0 - 2 * lam]))
        flow, _ = spectral_flow(path)
        assert flow == 0

    def test_invertible_path_is_zero(self):
        rng = np.random.default_rng(0)
        base = rng.standard_normal((5, 5))
        base = 0.5 * (base + base.T) + 6.0 * np.eye(5)
        path = SymmetricMatrixPath(lambda lam: base + lam * np.eye(5))
        flow, cert = spectral_flow(path)
        assert flow == 0
        # certificate eps values are positive and clear of node spectra
        assert np.all(cert.eps > 0)

    def test_endpoint_kernel_detected(self):
        with pytest.raises(EndpointKernelError):
            spectral_flow(SymmetricMatrixPath(lambda lam: np.array([[lam]])))

    def test_concatenation_additivity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p1 = random_piecewise_linear(rng, 5)
            p2 = random_piecewise_linear(rng, 5)
            end = p1.evaluator(1.0)

            def glue(lam, p1=p1, p2=p2, end=end):
                # concatenate p1 with (p2 shifted to start at p1's endpoint)
                if lam <= 0.5:
                    return p1.evaluator(2 * lam)
                return p2.evaluator(2 * lam - 1) - p2.evaluator(0.0) + end

            total, _ = spectral_flow(SymmetricMatrixPath(glue), initial_nodes=33)
            a, _ = spectral_flow(p1, initial_nodes=17)
            mid_shift = SymmetricMatrixPath(lambda lam: glue(0.5 + 0.5 * lam))
            b, _ = spectral_flow(mid_shift, initial_nodes=17,
                                 check_endpoints=False)
            assert total == a + b

    def test_matches_cayley_winding_random(self):
        # A crosses 0 upward exactly when (A - i)(A + i)^-1 crosses -1
        # counterclockwise, so the two counting routes must agree
        rng = np.random.default_rng(11)
        flows = set()
        for _ in range(100):
            path = random_piecewise_linear(rng, int(rng.integers(1, 5)))

            def cayley(lam, path=path):
                A = path(lam)
                eye = np.eye(A.shape[0])
                return np.linalg.solve(A + 1j * eye, A - 1j * eye)

            flow, _ = spectral_flow(path)
            lams = np.linspace(0.0, 1.0, 17)
            assert winding_number(UnitaryPath.from_callable(cayley, grid=lams)) == flow
            flows.add(flow)
        assert len(flows) >= 3

    def test_rejects_fewer_than_two_initial_nodes(self):
        for nodes in (1, 0, -2, 2.5):
            with pytest.raises(ValueError, match="initial_nodes"):
                spectral_flow(linear_path(2.0, -1.0), initial_nodes=nodes)

    @pytest.mark.parametrize("nodes", [[0.0, 0.5, 1.5], [-0.1, 0.5, 1.0], [0.0, np.nan, 1.0],
                                       [0.0, np.inf]])
    def test_rejects_initial_nodes_outside_the_interval(self, nodes):
        # a node beyond [0, 1] once widened the counted interval: the branch
        # (lam - 0.5)(lam - 1.2) gave 0 with a node at 1.5, not its flow -1
        path = SymmetricMatrixPath(lambda lam: np.array([[(lam - 0.5) * (lam - 1.2)]]))
        assert spectral_flow(path, initial_nodes=[0.0, 0.5, 1.0])[0] == -1
        with pytest.raises(ValueError, match="initial_nodes"):
            spectral_flow(path, initial_nodes=nodes)
        with pytest.raises(ValueError, match="initial_nodes"):
            flow_from_spectra(lambda lams: [np.array([1.0]) for _ in lams],
                              lambda pairs: [0.0] * len(pairs), initial_nodes=nodes)

    def test_matches_a_per_lam_eigvalsh_reference(self):
        # the batched node spectra and drifts give the certificate of a per-lam loop
        rng = np.random.default_rng(8)
        paths = [random_piecewise_linear(rng, int(rng.integers(1, 7))) for _ in range(12)]
        base = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        paths.append(SymmetricMatrixPath(
            lambda lam: (lam - 0.4) * (base + base.conj().T) + np.diag([0.3, -0.2, 0.1])))
        for path in paths:
            flow, cert = spectral_flow(path)
            ref_flow, ref = flow_from_spectra(
                lambda lams: [np.linalg.eigvalsh(path.evaluate(lam)) for lam in lams],
                lambda pairs: [float(np.linalg.norm(path.evaluate(b) - path.evaluate(a), 2))
                               for a, b in pairs])
            assert flow == ref_flow == cert.total
            for field in ("nodes", "eps", "counts", "drifts"):
                assert getattr(cert, field).tobytes() == getattr(ref, field).tobytes(), field
            assert cert.endpoint_gaps == ref.endpoint_gaps

    def test_refinement_stability(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            path = random_piecewise_linear(rng, 6)
            f1, _ = spectral_flow(path, initial_nodes=9)
            f2, _ = spectral_flow(path, initial_nodes=17)
            f3, _ = spectral_flow(path, initial_nodes=65)
            assert f1 == f2 == f3


class TestNormalizationPath:
    def test_flow_is_one(self):
        for dims in ((1, 1), (3, 3), (2, 5)):
            flow, _ = spectral_flow(normalization_path(*dims))
            assert flow == 1

    def test_reversed_flow(self):
        flow, _ = spectral_flow(normalization_path(1, 1).reverse())
        assert flow == -1

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            normalization_path(0, 1)


def shifted_path(path, delta):
    """lam -> A(lam) + delta I."""
    fn = path.evaluator

    def shifted(lam):
        A = np.asarray(fn(lam))
        return A + delta * np.eye(A.shape[0])

    return SymmetricMatrixPath(shifted, path.lipschitz)


def complexified_path(path):
    """The same path viewed as complex Hermitian matrices."""
    fn = path.evaluator
    return SymmetricMatrixPath(lambda lam: np.asarray(fn(lam)).astype(complex), path.lipschitz)


class TestShiftedFlow:
    def test_small_positive_shift(self):
        assert spectral_flow(shifted_path(linear_path(2.0, -1.0), 0.1))[0] == 1
        assert spectral_flow(shifted_path(linear_path(2.0, -1.0), 0.0))[0] == 1

    def test_delta_invariance_random(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            path = random_piecewise_linear(rng, 4)
            gap = min(np.abs(np.linalg.eigvalsh(path.evaluate(lam))).min()
                      for lam in (0.0, 1.0))
            base, _ = spectral_flow(path)
            assert spectral_flow(shifted_path(path, 1e-3 * gap))[0] == base

    def test_negative_shift_counts_endpoint_kernel(self):
        # engineered singular endpoint: A(1) = diag(0, 1), kernel dim 1
        path = SymmetricMatrixPath(lambda lam: np.diag([lam - 1.0, 1.0]))
        up, _ = spectral_flow(shifted_path(path, 0.05))
        down, _ = spectral_flow(shifted_path(path, -0.05))
        assert up - down == 1


class TestComplexification:
    def test_scalar(self):
        flow_r, _ = spectral_flow(linear_path(2.0, -1.0))
        flow_c, _ = spectral_flow(complexified_path(linear_path(2.0, -1.0)))
        assert flow_r == flow_c == 1

    def test_normalization(self):
        flow_c, _ = spectral_flow(complexified_path(normalization_path(2, 2)))
        assert flow_c == 1

    def test_random_paths(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            path = random_piecewise_linear(rng, 6)
            fr, _ = spectral_flow(path)
            fc, _ = spectral_flow(complexified_path(path))
            assert fr == fc


class TestChernWinding:
    def test_kappa_example(self):
        # det(A + isI) for A = [2 lam - 1] is 2 lam - 1 + i s: one turn
        assert chern_winding(linear_path(2.0, -1.0)) == 1

    def test_constant_invertible(self):
        assert chern_winding(SymmetricMatrixPath(lambda lam: np.diag([1.0, -2.0]))) == 0

    def test_requires_invertible_endpoints(self):
        with pytest.raises(EndpointKernelError):
            chern_winding(SymmetricMatrixPath(lambda lam: np.array([[lam]])))

    def test_matches_spectral_flow_random(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            N = int(rng.integers(2, 9))
            path = random_piecewise_linear(rng, N)
            flow, _ = spectral_flow(path, initial_nodes=13)
            assert chern_winding(path) == flow

    def test_hermitian_path(self):
        rng = np.random.default_rng(6)
        base = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        base = 0.5 * (base + base.conj().T)
        drift = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        drift = 0.5 * (drift + drift.conj().T)

        def ev(lam):
            return base + lam * drift + 0.1 * np.eye(4)

        path = SymmetricMatrixPath(ev)
        gaps = [np.abs(np.linalg.eigvalsh(ev(lam))).min() for lam in (0, 1)]
        if min(gaps) > 1e-3:
            flow, _ = spectral_flow(path)
            assert chern_winding(path) == flow

    def test_small_endpoint_eigenvalues(self):
        # eigenvalues 0.005-0.2 at lam = 0 turn det(A + isI) fast near s = 0:
        # summed over them, one step can turn the product a whole extra turn
        rng = np.random.default_rng(0)
        for _ in range(50):
            d0 = rng.uniform(0.005, 0.2, 8) * rng.choice([-1, 1], 8)
            d1 = rng.uniform(1.0, 2.0, 8) * rng.choice([-1, 1], 8)
            path = SymmetricMatrixPath(lambda lam, d0=d0, d1=d1: np.diag(d0 + lam * (d1 - d0)))
            assert chern_winding(path) == np.count_nonzero(d0 < 0) - np.count_nonzero(d1 < 0)

    def test_matches_reference_contour(self, monkeypatch):
        refined = []

        def recorded(values, drift, window, nodes, *args):
            total, cert = certified_count(values, drift, window, nodes, *args)
            refined.append(len(cert.nodes) > len(nodes))
            return total, cert

        certified_count = spectral.certified_count
        monkeypatch.setattr(spectral, "certified_count", recorded)
        rng = np.random.default_rng(31)
        for _ in range(100):
            path = random_piecewise_linear(rng, int(rng.integers(2, 9)))
            ref = _reference_chern_winding(path)
            assert chern_winding(path, samples=16) == ref
            assert chern_winding(path) == ref
        assert len(refined) == 200
        assert all(refined[::2])  # 16 initial steps are always refined

    def test_matches_reference_contour_at_every_sample_count(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            path = random_piecewise_linear(rng, int(rng.integers(2, 9)))
            ref = _reference_chern_winding(path)
            for samples in (1, 4, 16, 64):
                assert chern_winding(path, samples=samples) == ref

    def test_one_sample_counts_the_flow(self):
        # a single step once joined the contour's start to itself, with norm 0
        assert chern_winding(linear_path(2.0, -1.0), samples=1) == 1

    @pytest.mark.parametrize("samples", [0, -3, 2.5, 16.0, "16"])
    def test_rejects_a_bad_sample_count(self, samples):
        with pytest.raises(ValueError, match="samples"):
            chern_winding(linear_path(2.0, -1.0), samples=samples)

    @pytest.mark.parametrize("half_height", [-1.0, 0.0, np.nan, np.inf])
    def test_rejects_a_bad_half_height(self, half_height):
        # a negative height once ran the contour clockwise and counted -1
        with pytest.raises(ValueError, match="half_height"):
            chern_winding(linear_path(2.0, -1.0), half_height=half_height)

    def test_an_asymmetric_contour_value_names_its_lam(self):
        def ev(lam):
            return np.array([[2 * lam - 1.0, 0.0], [1e-3 if 0.45 < lam < 0.55 else 0.0, 1.0]])

        path = SymmetricMatrixPath(ev)
        with pytest.raises(ValueError, match="is not symmetric") as raised:
            chern_winding(path, half_height=3.0)
        lam = float(str(raised.value).split("lam=")[1].split()[0])
        assert 0.45 < lam < 0.55
        with pytest.raises(ValueError) as single:
            path.evaluate(lam)
        assert str(raised.value) == str(single.value)
        # a batch names its first bad lam, as a loop of evaluate would
        with pytest.raises(ValueError) as batch:
            path.evaluate_many([0.1, 0.5, 0.4, 0.9])
        with pytest.raises(ValueError) as first:
            path.evaluate(0.5)
        assert str(batch.value) == str(first.value)
        # a residual within 1e-9 of max(1, ||A||) passes and is symmetrized
        tiny = SymmetricMatrixPath(lambda lam: np.array([[4.0, 1.0], [1.0 + 3e-9, -4.0]]))
        assert np.array_equal(tiny.evaluate_many([0.2])[0], tiny.evaluate(0.2))
        assert np.array_equal(tiny.evaluate(0.2), tiny.evaluate(0.2).T)


def _rectangle_points(margin, half_height, samples):
    """Reference: the sampled counterclockwise rectangle of the pi/2-step contour."""
    corners = [(-margin, -half_height), (1.0 + margin, -half_height),
               (1.0 + margin, half_height), (-margin, half_height)]
    lengths = []
    for i in range(4):
        x0, y0 = corners[i]
        x1, y1 = corners[(i + 1) % 4]
        lengths.append(abs(x1 - x0) + abs(y1 - y0))
    per_edge = [max(2, int(round(samples * L / sum(lengths)))) for L in lengths]
    pts = []
    for i in range(4):
        x0, y0 = corners[i]
        x1, y1 = corners[(i + 1) % 4]
        ts = np.linspace(0.0, 1.0, per_edge[i], endpoint=False)
        pts.extend((x0 + t * (x1 - x0), y0 + t * (y1 - y0)) for t in ts)
    pts.append(pts[0])
    return pts


def winding_of_function(f, points):
    """Reference: argument steps split below pi/2 in at most 18 rounds, and the
    total turns rounded when within 0.05 of an integer."""
    pts = list(points)
    vals = [f(p) for p in pts]

    def arg_inc(z0, z1):
        return float(np.angle(z1 * np.conj(z0)))

    for _ in range(18):
        incs = [arg_inc(vals[i], vals[i + 1]) for i in range(len(vals) - 1)]
        bad = [i for i, inc in enumerate(incs) if abs(inc) >= 0.5 * np.pi]
        if not bad:
            break
        for i in reversed(bad):
            mid = (0.5 * (pts[i][0] + pts[i + 1][0]), 0.5 * (pts[i][1] + pts[i + 1][1]))
            pts.insert(i + 1, mid)
            vals.insert(i + 1, f(mid))
    else:
        raise FlowRefinementError("contour argument steps did not settle under refinement")

    total = sum(arg_inc(vals[i], vals[i + 1]) for i in range(len(vals) - 1))
    wind = total / (2.0 * np.pi)
    if abs(wind - round(wind)) > 0.05:
        raise FlowRefinementError(f"accumulated argument {wind:.4f} turns is not near an integer")
    return int(round(wind))


def _reference_chern_winding(path):
    """Reference: the contour winding of det(A + isI) by ``winding_of_function``."""
    norms = [np.linalg.norm(path.evaluate(lam), 2) for lam in np.linspace(0, 1, 9)]
    half_height = float(max(norms)) + 1.0

    cache = {}

    def f(point):
        lam, s = point
        lam = float(np.clip(lam, 0.0, 1.0))
        if lam not in cache:
            cache[lam] = path.evaluate(lam).astype(complex)
        A = cache[lam]
        return np.linalg.slogdet(A + 1j * s * np.eye(A.shape[0]))[0]

    return winding_of_function(f, _rectangle_points(0.05, half_height, 256))


class TestFlowFromSpectra:
    def test_windowed_counting(self):
        # one branch crossing zero inside a window, a ladder outside
        def node_fn(lams):
            vals = [np.array([2 * lam - 1.0, 5.0, -5.0, 7.0]) for lam in lams]
            return [v[np.abs(v) <= 2.0] for v in vals]

        # the branch 2 lam - 1 moves at speed 2
        flow, cert = flow_from_spectra(node_fn, drift_fn=lambda pairs: [2.0 * (b - a)
                                                                        for a, b in pairs],
                                       window=2.0, initial_nodes=17)
        assert flow == 1

    def test_node_function_maps_a_list(self):
        with pytest.raises(ValueError, match="asked for 2, it returned 1"):
            flow_from_spectra(lambda lams: [np.array([0.5])],
                              drift_fn=lambda pairs: [0.0] * len(pairs),
                              window=1.0, initial_nodes=5)

    def test_refinement_exhaustion(self, monkeypatch):
        # the depth limit is module policy; at 40 halvings the drift bound
        # 1e3 (b - a) gets small enough to pass this garbage, at 6 it does not
        monkeypatch.setattr(spectral, "MAX_FLOW_DEPTH", 6)
        rng = np.random.default_rng(7)

        def node_fn(lams):
            return [rng.standard_normal(3) for _ in lams]  # discontinuous garbage

        with pytest.raises((FlowRefinementError, EndpointKernelError)):
            flow_from_spectra(node_fn, drift_fn=lambda pairs: [1e3 * (b - a) for a, b in pairs],
                              window=1.0, initial_nodes=5)

    def test_failing_count_stops_at_the_width_cap(self):
        # every subinterval fails, so rounds must not widen with the tree
        calls = []

        def node_fn(lams):
            calls.extend(lams)
            return [np.array([0.5]) for _ in lams]

        with pytest.raises(FlowRefinementError,
                           match=r"^refinement exhausted on \[[^,]+, [^\]]+\] \(drift 10\)$"):
            flow_from_spectra(node_fn, drift_fn=lambda pairs: [10.0] * len(pairs), window=1.0,
                              initial_nodes=17)
        assert len(calls) <= 16 * (MAX_FLOW_DEPTH + 1) + 17


    def test_drift_is_asked_once_per_round(self):
        asked, drifts = [], []

        def node_fn(lams):
            asked.append(len(lams))
            return [np.array([2 * lam - 1.0]) for lam in lams]

        def drift_fn(pairs):
            drifts.append(len(pairs))
            return [2.0 * (b - a) for a, b in pairs]

        flow, cert = flow_from_spectra(node_fn, drift_fn, window=0.3, initial_nodes=5)
        assert flow == 1 and len(cert.eps) > 4
        # the endpoints, the other initial nodes, then each round's midpoints;
        # every round but the last has midpoints
        assert len(drifts) == len(asked) - 1 > 1
        assert drifts[0] == 4

    def test_drift_function_maps_a_list(self):
        with pytest.raises(ValueError, match="asked for 4, it returned 1"):
            flow_from_spectra(lambda lams: [np.array([0.5]) for _ in lams],
                              drift_fn=lambda pairs: [0.0], window=1.0, initial_nodes=5)


def _recursive_certified_count(values, drift, window, nodes, zero_snap, max_depth):
    """Reference: the depth-first bisection, one scalar ``values(lam)`` and one
    subinterval's ``drift([(a, b)])`` at a time."""
    intervals = []

    def process(a, b, depth):
        va, vb = values(a), values(b)
        [m] = drift([(a, b)])
        eps = None if m is None else window(va, vb, m)
        if eps is None:
            mid = 0.5 * (a + b)
            if depth >= max_depth or mid <= a or mid >= b:
                detail = "over budget" if m is None else f"{m:.3g}"
                raise FlowRefinementError(
                    f"refinement exhausted on [{a:.6g}, {b:.6g}] (drift {detail})")
            process(a, mid, depth + 1)
            process(mid, b, depth + 1)
            return
        kL = int(np.count_nonzero((va >= -zero_snap) & (va <= eps)))
        kR = int(np.count_nonzero((vb >= -zero_snap) & (vb <= eps)))
        intervals.append((a, b, eps, kL, kR, m))

    for a, b in zip(nodes, nodes[1:]):
        process(a, b, 0)

    total = int(sum(kR - kL for (_, _, _, kL, kR, _) in intervals))
    cert = FlowCertificate(
        nodes=np.array([iv[0] for iv in intervals] + [intervals[-1][1]]),
        eps=np.array([iv[2] for iv in intervals]),
        counts=np.array([(iv[3], iv[4]) for iv in intervals]),
        drifts=np.array([iv[5] for iv in intervals]),
        endpoint_gaps=(spectral._min_abs(values(nodes[0])),
                       spectral._min_abs(values(nodes[-1]))),
        total=total,
    )
    return total, cert


def _random_flows():
    rng = np.random.default_rng(21)
    for _ in range(12):
        path = random_piecewise_linear(rng, int(rng.integers(1, 5)))
        spectral_flow(path)
        # a window below the spectrum's spread makes the count refine
        flow_from_spectra(lambda lams: [np.linalg.eigvalsh(path(lam)) for lam in lams],
                          lambda pairs: [float(np.linalg.norm(path(b) - path(a), 2))
                                         for a, b in pairs],
                          window=0.5, initial_nodes=5)


def _random_windings():
    rng = np.random.default_rng(22)
    for _ in range(12):
        n = int(rng.integers(1, 3))
        path = random_lagrangian_path(rng, n, speed=2.0, grid=9)
        maslov.maslov_index(path, frame_from_unitary(unitary_from_hermitian(
            random_hermitian(rng, n))))


def _rotating_theorem_A():
    theorem_A_report(rotating_asymptotics_family(1), np.linspace(0.0, 1.0, 9), T=0.5, N=32,
                     locate_crossings=False)


class TestRoundsMatchRecursion:
    @pytest.mark.parametrize("case", [_random_flows, _random_windings, _rotating_theorem_A],
                             ids=["spectral-flow-random", "winding-random-lagrangian",
                                  "theorem-A-rotating"])
    def test_total_and_certificate_bitwise(self, case, monkeypatch):
        def recorded(engine, log):
            def count(values, drift, window, nodes, zero_snap, max_depth):
                total, cert = engine(values, drift, window, nodes, zero_snap, max_depth)
                log.append((total, cert, len(nodes)))
                return total, cert
            return count

        def recursion(values, *args):
            return _recursive_certified_count(lambda lam: values([lam])[0], *args)

        runs = []
        for engine in (spectral.certified_count, recursion):
            log = []
            monkeypatch.setattr(spectral, "certified_count", recorded(engine, log))
            case()
            runs.append(log)
        rounds, recursive = runs
        assert len(rounds) == len(recursive) > 0
        assert any(len(cert.nodes) > initial for _, cert, initial in rounds)
        for (total, cert, _), (ref_total, ref, _) in zip(rounds, recursive):
            assert total == ref_total == cert.total == ref.total
            for field in ("nodes", "eps", "counts", "drifts"):
                a, b = getattr(cert, field), getattr(ref, field)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
            assert cert.endpoint_gaps == ref.endpoint_gaps
