"""The parameters of the report, transport and counting entry points.

Tolerances, budgets and scan resolutions are module policy, not per-call
options.  This pins each entry point's parameter names, so a new keyword
shows up as a diff of this file.  The benchmark's tracer (``bench/tracer.py``)
patches these entry points by name, so the last test installs it here.
"""

import importlib.util
import inspect
import os

import numpy as np
import pytest

from hamflow import cli
from hamflow import hamiltonian as ha
from hamflow import maslov as ma
from hamflow import spectral as sf
from hamflow.families import sech_family
from hamflow.symplectic import lagrangian_from_matrix, standard_space

SIGNATURES = {
    ha.theorem_A_report: ("family", "lam_grid", "T", "N", "t0", "third_opinion",
                          "locate_crossings", "endpoint_kernel_tol"),
    ha.theorem_B_report: ("path0", "path1", "a", "b", "N"),
    ha.corollary_A_report: ("family", "lam_grid", "T", "N"),
    ha.kernel_crossings: ("family", "lam_grid", "t0", "T"),
    ha.stable_unstable_pair_path: ("family", "lam_grid", "t0", "T"),
    ha.unstable_space: ("family", "lam", "t0", "T"),
    ha.stable_space: ("family", "lam", "t0", "T"),
    # the benchmark's tracer binds propagate_subspace's arguments by name
    ha.propagate_subspace: ("frame", "family", "lam", "t_from", "t_to", "steps_per_unit"),
    # the benchmark's tracer binds the pencil assemblers' arguments by name
    ha.assemble_A0_operator: ("family", "lam", "T", "N", "stabilization", "scheme"),
    ha.assemble_Q_operator: ("L0", "L1", "a", "b", "N", "space", "stabilization", "scheme"),
    ha.stable_unstable_splitting: ("M",),
    ma.winding_number: ("d", "endpoint_kernel_dims"),
    ma.maslov_index: ("path", "W"),
    ma.maslov_index_pair: ("path1", "path2"),
    ma.partial_maslov_index: ("path", "W", "lam0", "side"),
    ma.find_crossings: ("path", "W"),
    sf.spectral_flow: ("path", "initial_nodes", "check_endpoints"),
    sf.flow_from_spectra: ("node_fn", "drift_fn", "lo", "hi", "initial_nodes", "window",
                           "zero_snap", "check_endpoints", "report_window"),
    sf.chern_winding: ("path", "half_height", "samples"),
}


@pytest.mark.parametrize("fn", list(SIGNATURES), ids=lambda fn: fn.__name__)
def test_entry_point_parameters(fn):
    assert tuple(inspect.signature(fn).parameters) == SIGNATURES[fn]


def _bench_tracer():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_tracer_finds_every_name_it_patches():
    tracer = _bench_tracer()
    for _, module, path, _ in tracer.ENTRY_POINTS:
        owner, attr = tracer._resolve(module, path)
        assert callable(getattr(owner, attr)), (module, path)
    # install also replaces the tracks pool and the warnings module it counts ghosts by
    assert inspect.isclass(cli.ThreadPoolExecutor) and callable(ha.warnings.warn)
    # the pencil probes read each assembled operator's order
    sp = standard_space(1)
    W = lagrangian_from_matrix(np.array([[1.0], [0.0]]), sp)
    assemble, trace = ha.assemble_Q_operator, tracer.Tracer()
    trace.install()
    try:
        op = ha.assemble_Q_operator(W, W, 0.0, 1.0, 8, sp)
        op.eigenvalues(1.0)
    finally:
        trace.uninstall()
    metrics = trace.metrics()
    assert metrics["hamiltonian.pencil.calls"] == metrics["hamiltonian.eigensolve.calls"] == 1
    assert metrics["hamiltonian.pencil.rows"] == op.size == 16
    assert ha.assemble_Q_operator is assemble
    # the transport and A0 probes put the memo's batch of lam into their work keys,
    # so the memo must hand it over hashable
    trace = tracer.Tracer()
    trace.install()
    try:
        ha.stable_unstable_pair_path(sech_family(), 3, 0.0, 1.0)
        ha._a0_node_fn(sech_family(), 1.0, 8, 1.0)([0.0, 1.0])
    finally:
        trace.uninstall()
    metrics = trace.metrics()
    assert metrics["hamiltonian.transport.calls"] == 2 and metrics["hamiltonian.pencil.calls"] == 1
    for layer in ("hamiltonian.transport", "hamiltonian.pencil"):
        assert metrics[f"{layer}.unique_ratio"] == 1.0
