"""Tests of the benchmark itself, on its smoke inputs.

    python3 -m pytest -q bench/test_bench.py

Each smoke run is a fresh benchmark process, as the benchmark is run for real.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
SEED = 7
COUNT_SUFFIXES = (".calls", ".rk4_steps", ".rows", ".nodes", ".crossings", ".unique_ratio",
                  ".ghost_warnings")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    DECLARED = json.load(_fh)
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def _run(workload, trace, cwd=ROOT, run=RUN):
    proc = subprocess.run([sys.executable, run, "--workload", workload, "--seed", str(SEED),
                           "--seconds", "1", "--trace", str(trace), "--smoke"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _result_file(workload, trace):
    path = os.path.join(BENCH_DIR, "out", "results",
                        f"{workload}-seed{SEED}-smoke-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def runs():
    """workload -> {"plain": (proc, record), "traced": [(proc, record), (proc, record)]}"""
    out = {}
    for w in WORKLOADS:
        plain = _run(w, 0)
        plain_record = _result_file(w, 0)
        traced = []
        for _ in range(2):
            proc = _run(w, 1)
            traced.append((proc, _result_file(w, 1)))
        out[w] = {"plain": (plain, plain_record), "traced": traced}
    return out


def _last_json(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_printed_with_its_unit(runs, workload):
    for trace, key, proc in ((0, "end_to_end", runs[workload]["plain"][0]),
                             (1, "per_layer", runs[workload]["traced"][0][0])):
        result = _last_json(proc)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in DECLARED[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        for name, unit in declared.items():
            assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                       for line in proc.stdout.splitlines()), (trace, name)
        assert "fail_frac = 0 ratio" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(runs, workload):
    first, second = (_last_json(proc)["metrics"] for proc, _ in runs[workload]["traced"])
    counts = [name for name in first if name.endswith(COUNT_SUFFIXES)]
    assert counts
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_integers_equal_untraced(runs, workload):
    plain = runs[workload]["plain"][1]["outcomes"]
    for _, record in runs[workload]["traced"]:
        traced = record["traced_outcomes"]
        assert [o["integers"] for o in traced] == [o["integers"] for o in record["untraced_outcomes"]]
        assert [o["integers"] for o in traced] == [o["integers"] for o in plain[:len(traced)]]
        assert all(o["ok"] for o in traced)


def test_boundary_pairs_touch_no_family_and_no_transport(runs):
    metrics = _last_json(runs["boundary-pairs"]["traced"][0][0])["metrics"]
    assert metrics["families.S.calls"]["value"] == 0
    assert metrics["hamiltonian.transport.calls"]["value"] == 0
    assert metrics["hamiltonian.pencil.calls"]["value"] > 0


def test_scenario_workloads_reach_their_layers(runs):
    sech = _last_json(runs["sech-homoclinic"]["traced"][0][0])["metrics"]
    assert sech["spectral.chern.calls"]["value"] == 1
    assert sech["maslov.scan.crossings"]["value"] == 1
    assert sech["hamiltonian.transport.rk4_steps"]["value"] > 0
    assert sech["families.S.calls"]["value"] > 0
    assert sech["cli.run.self_s"]["value"] > 0
    rot = _last_json(runs["rotating-periodic"]["traced"][0][0])["metrics"]
    assert rot["families.S.calls"]["value"] > 0
    assert rot["cli.run.self_s"]["value"] > 0


def test_result_files_record_the_environment(runs):
    env = runs["boundary-pairs"]["plain"][1]["environment"]
    assert set(env["thread_vars"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                       "HAMFLOW_THREADS"}
    for key in ("cpu_count", "blas", "python", "numpy", "scipy", "commit"):
        assert key in env


def test_fails_without_the_sources():
    bare = os.path.join(BENCH_DIR, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "bench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(BENCH_DIR):
        path = os.path.join(BENCH_DIR, name)
        if os.path.isfile(path):
            shutil.copy(path, os.path.join(bare, "bench"))
    shutil.copytree(os.path.join(BENCH_DIR, "scenarios"), os.path.join(bare, "bench", "scenarios"))
    try:
        proc = _run("boundary-pairs", 0, cwd=bare, run=os.path.join(bare, "bench", "run.py"))
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
