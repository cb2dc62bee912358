"""Inputs, operations and expected integers of the benchmark workloads.

A workload is prepared once into a list of operations: callables that return
one ``Outcome`` per scenario report or pair they hold.  The benchmark process
runs them back to back, one at a time (a closed loop with one client), in
whole passes over the list until its time is up.  Every operation checks its own
integers against ``spec.json``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(BENCH_DIR, "spec.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


@dataclass
class Outcome:
    """Result of one operation: one scenario report or one pair."""

    label: str
    integers: dict
    ok: bool
    error: str | None = None


# ---------------------------------------------------------------------------
# scenario workloads


def _scenario_operation(scenario_path, table):
    """One ``hamflow run``: tracks table, reports and every artifact written.

    Each report the scenario lists is checked against the expected table.
    """
    from hamflow import cli
    from hamflow.families import make_family

    cfg = cli.load_config(scenario_path)
    expected = {rep: table[rep] for rep in cfg.reports}
    make_family(cfg.family_id, **cfg.family_params)   # build the family as a run does
    out = os.path.join(os.path.dirname(BENCH_DIR), cfg.out)

    def run():
        try:
            art = cli.run_scenario(scenario_path, {"out": out})
        except Exception as exc:  # a failed run fails every report it holds
            err = f"{type(exc).__name__}: {exc}"
            return [Outcome(rep, {}, False, err) for rep in expected]
        artifacts_ok = all(os.path.isfile(p) for p in
                           (art.report_path, art.tracks_path, art.crossings_path,
                            art.convergence_path))
        outcomes = []
        for rep, want in expected.items():
            got = art.integers.get(rep, {})
            ok = got == want and art.all_agree and artifacts_ok
            outcomes.append(Outcome(rep, got, ok))
        return outcomes

    return [run]


# ---------------------------------------------------------------------------
# boundary-pairs: the random admissible pairs of acceptance criterion 4


def _random_hermitian(rng, n, scale=1.0):
    H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (H + H.conj().T) * scale


def _unitary_from_hermitian(H):
    vals, vecs = np.linalg.eigh(H)
    return (vecs * np.exp(1j * vals)) @ vecs.conj().T


def _random_lagrangian_path(rng, n, speed, grid):
    from hamflow.maslov import LagrangianPath
    from hamflow.symplectic import LagrangianFrame, standard_space

    H0 = _random_hermitian(rng, n)
    H1 = _random_hermitian(rng, n, scale=speed)
    H2 = _random_hermitian(rng, n, scale=0.5 * speed)

    def frame(lam):
        U = _unitary_from_hermitian(H0 + lam * H1 + np.sin(np.pi * lam) * H2)
        return LagrangianFrame(np.vstack([U.real, U.imag]))

    return LagrangianPath.from_callable(standard_space(n), frame, grid=grid)


def _random_admissible_pair(rng, n, grid, margin):
    """Pair of random Lagrangian paths transversal at both endpoints."""
    from hamflow.maslov import pair_to_product_path
    from hamflow.symplectic import souriau_map

    while True:
        p1 = _random_lagrangian_path(rng, n, float(rng.uniform(1.0, 2.2)), grid)
        p2 = _random_lagrangian_path(rng, n, float(rng.uniform(0.5, 1.5)), grid)
        product, diag = pair_to_product_path(p1, p2)
        psi = [np.angle(-np.linalg.eigvals(souriau_map(diag, product.frame(lam), product.space)))
               for lam in (0.0, 1.0)]
        if min(np.abs(p).min() for p in psi) >= margin:
            return p1, p2


def _pair_operations(spec, seed, smoke):
    """Pairs drawn group by group from one generator, then interleaved so that
    any prefix of the list mixes the dimensions."""
    from hamflow.hamiltonian import theorem_B_report

    rng = np.random.default_rng(seed)
    groups = []
    for g in spec["groups"]:
        count = g["smoke_count"] if smoke else g["count"]
        groups.append([(g["n"], g["mesh"], *_random_admissible_pair(
            rng, g["n"], spec["path_grid"], spec["endpoint_margin"])) for _ in range(count)])

    def make(i, n, mesh, p0, p1):
        label = f"pair-{i}-R{2 * n}"

        def run():
            try:
                rep = theorem_B_report(p0, p1, 0.0, 1.0, mesh)
            except Exception as exc:
                return [Outcome(label, {}, False, f"{type(exc).__name__}: {exc}")]
            ints = {"sfl": rep.sfl, "maslov": rep.maslov}
            return [Outcome(label, ints, rep.sfl == rep.maslov)]

        return run

    ops = []
    for k in range(max(len(g) for g in groups)):
        for g in groups:
            if k < len(g):
                ops.append(make(len(ops), *g[k]))
    return ops


# ---------------------------------------------------------------------------


def names() -> list:
    return list(SPEC["workloads"])


def prepare(name: str, seed: int, smoke: bool = False) -> list:
    """Build the workload's inputs and return its operations.

    Scenario workloads read the benchmark's own scenario files; the seed only
    drives the random pairs.
    """
    spec = SPEC["workloads"][name]
    if spec["kind"] == "scenario":
        rel = spec["smoke_scenario"] if smoke else spec["scenario"]
        return _scenario_operation(os.path.join(BENCH_DIR, rel), spec["expected"])
    return _pair_operations(spec, seed, smoke)


def trace_unit(name: str, ops: list) -> list:
    """The fixed operations a traced run measures, so that counts repeat."""
    spec = SPEC["workloads"][name]
    return ops[:spec.get("trace_pairs", 1)]


def warmup_ops(name: str) -> int:
    """How many operations a timed run does, checked but untimed, before timing."""
    return SPEC["workloads"][name].get("warmup_ops", 0)
