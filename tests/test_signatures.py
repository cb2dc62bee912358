"""The parameters of the report, transport and counting entry points.

Tolerances, budgets and scan resolutions are module policy, not per-call
options.  This pins each entry point's parameter names, so a new keyword
shows up as a diff of this file.
"""

import inspect

import pytest

from hamflow import hamiltonian as ha
from hamflow import maslov as ma
from hamflow import spectral as sf

SIGNATURES = {
    ha.theorem_A_report: ("family", "lam_grid", "T", "N", "t0", "third_opinion",
                          "locate_crossings", "endpoint_kernel_tol"),
    ha.theorem_B_report: ("path0", "path1", "a", "b", "N"),
    ha.corollary_A_report: ("family", "lam_grid", "T", "N"),
    ha.kernel_crossings: ("family", "lam_grid", "t0", "T"),
    ha.stable_unstable_pair_path: ("family", "lam_grid", "t0", "T"),
    ha.unstable_space: ("family", "lam", "t0", "T", "certify", "cert_tol"),
    ha.stable_space: ("family", "lam", "t0", "T"),
    # the benchmark's tracer binds propagate_subspace's arguments by name
    ha.propagate_subspace: ("frame", "family", "lam", "t_from", "t_to", "steps_per_unit"),
    # the benchmark's tracer binds the pencil assemblers' arguments by name
    ha.assemble_A0_operator: ("family", "lam", "T", "N", "stabilization", "scheme"),
    ha.assemble_Q_operator: ("L0", "L1", "a", "b", "N", "space", "stabilization", "scheme"),
    ha.stable_unstable_splitting: ("M",),
    ma.winding_number: ("d", "endpoint_kernel_dims"),
    ma.maslov_index: ("path", "W"),
    ma.maslov_index_pair: ("path1", "path2", "endpoint_kernel_dims"),
    ma.partial_maslov_index: ("path", "W", "lam0", "side"),
    ma.find_crossings: ("path", "W", "coarse"),
    sf.spectral_flow: ("path", "initial_nodes", "check_endpoints"),
    sf.flow_from_spectra: ("node_fn", "drift_fn", "lo", "hi", "initial_nodes", "window",
                           "zero_snap", "max_depth", "check_endpoints", "report_window"),
    sf.chern_winding: ("path", "half_height", "samples"),
}


@pytest.mark.parametrize("fn", list(SIGNATURES), ids=lambda fn: fn.__name__)
def test_entry_point_parameters(fn):
    assert tuple(inspect.signature(fn).parameters) == SIGNATURES[fn]
