import glob
import json
import os

import numpy as np
import pytest

from hamflow import cli
from hamflow import hamiltonian as ha


def write_config(tmp_path, name="scenario.json", **overrides):
    cfg = {
        "family": {"id": "autonomous", "n": 1},
        "numeric": {"grid": 9, "mesh": 48, "trunc": 6.0},
        "reports": ["theorem-a"],
        "out": str(tmp_path / "results"),
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_families_listing(capsys):
    assert cli.main(["families"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    for fid in ("autonomous", "sech-perturbation", "rotating-asymptotics",
                "gamma-nor-embedding"):
        assert fid in out
    assert out.count("assumptions:") == 4
    assert "A3" in out  # periodic family marked


def test_selftest(capsys):
    assert cli.main(["selftest"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "passed" in out


def test_run_autonomous_agrees(tmp_path, capsys):
    cfgp = write_config(tmp_path)
    assert cli.main(["run", cfgp]) == cli.EXIT_OK
    report = (tmp_path / "results" / "report.txt").read_text()
    assert "theorem-a.sfl = 0" in report
    assert "theorem-a.maslov = 0" in report
    assert "all_agree = true" in report
    for table in ("tracks.csv", "crossings.csv", "convergence.csv"):
        assert (tmp_path / "results" / table).exists()


def test_run_gamma_nor_scenario(tmp_path):
    cfgp = write_config(tmp_path, **{
        "family": {"id": "gamma-nor-embedding", "n": 1},
        "numeric": {"grid": 17, "mesh": 96, "trunc": 6.0},
        "reports": ["theorem-b"],
    })
    assert cli.main(["run", cfgp]) == cli.EXIT_OK
    report = (tmp_path / "results" / "report.txt").read_text()
    assert "theorem-b.sfl = 1" in report
    assert "theorem-b.maslov = 1" in report


def test_run_sech_scenario_lists_crossing(tmp_path):
    cfgp = write_config(tmp_path, **{
        "family": {"id": "sech-perturbation", "amplitude": 2.0},
        "numeric": {"grid": 17, "mesh": 96, "trunc": 8.0},
    })
    assert cli.main(["run", cfgp]) == cli.EXIT_OK
    rows = (tmp_path / "results" / "crossings.csv").read_text().strip().splitlines()
    assert rows[0] == "lambda,dim,report"
    assert len(rows) == 2
    lam = float(rows[1].split(",")[0])
    assert lam == pytest.approx(0.75, abs=1e-3)


def test_tracks_columns_and_sorting(tmp_path):
    cfgp = write_config(tmp_path, **{
        "family": {"id": "sech-perturbation", "amplitude": 2.0},
        "numeric": {"grid": 9, "mesh": 64, "trunc": 8.0},
    })
    assert cli.main(["tracks", cfgp]) == cli.EXIT_OK
    lines = (tmp_path / "results" / "tracks.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["lambda", "eig_1", "eig_2", "eig_3", "eig_4",
                      "phase_1", "phase_2", "intersection_dim"]
    lams = [float(l.split(",")[0]) for l in lines[1:]]
    assert lams == sorted(lams)
    # the eigenvalue column changes sign across the crossing and the phase
    # column passes zero in the same region
    rows = [l.split(",") for l in lines[1:]]
    eig = {float(r[0]): (float(r[1]) if r[1] else np.nan) for r in rows}
    phase = {float(r[0]): float(r[5]) for r in rows}
    assert np.sign(eig[0.625]) != np.sign(eig[0.875])
    assert np.sign(phase[0.625]) != np.sign(phase[0.875])


def test_schema_violations(tmp_path):
    bad1 = tmp_path / "bad1.json"
    bad1.write_text(json.dumps({"family": {"id": "autonomous"}, "numerics": {}}))
    assert cli.main(["run", str(bad1)]) == cli.EXIT_SCHEMA
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"family": {"id": "unknown-family"}}))
    assert cli.main(["run", str(bad2)]) == cli.EXIT_SCHEMA
    bad3 = tmp_path / "bad3.json"
    bad3.write_text(json.dumps({"family": {"id": "autonomous", "warp": 2}}))
    assert cli.main(["run", str(bad3)]) == cli.EXIT_SCHEMA
    bad4 = tmp_path / "bad4.json"
    bad4.write_text(json.dumps({"family": {"id": "autonomous"},
                                "numeric": {"mesh": 2}}))
    assert cli.main(["run", str(bad4)]) == cli.EXIT_SCHEMA
    bad5 = tmp_path / "bad5.json"
    bad5.write_text("not json {")
    assert cli.main(["run", str(bad5)]) == cli.EXIT_SCHEMA
    assert cli.main(["run", str(tmp_path / "missing.json")]) == cli.EXIT_SCHEMA


@pytest.mark.parametrize("overrides", [
    {"numeric": {"grid": "abc"}},
    {"family": {"id": "sech-perturbation", "n": "two"}},
    {"numeric": {"grid": 5.7}},
    {"reports": []},
    {"numeric": {"doubling": True}},
], ids=["grid-not-a-number", "n-not-a-number", "grid-not-an-integer", "no-reports",
        "doubling-unknown"])
def test_schema_type_violations(tmp_path, overrides):
    cfgp = write_config(tmp_path, **overrides)
    assert cli.main(["run", cfgp]) == cli.EXIT_SCHEMA
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("family", [
    {"id": "rotating-asymptotics", "ramp_scale": -2},
    {"id": "rotating-asymptotics", "ramp_scale": 0},
    {"id": "sech-perturbation", "width": -1},
    {"id": "sech-perturbation", "width": 0},
    {"id": "gamma-nor-embedding", "bump_width": -0.25},
    {"id": "gamma-nor-embedding", "bump_width": 0},
], ids=["ramp-negative", "ramp-zero", "width-negative", "width-zero", "bump-negative",
        "bump-zero"])
def test_non_positive_time_scale_rejected(tmp_path, family):
    cfgp = write_config(tmp_path, family=family)
    key = next(k for k in family if k != "id")
    with pytest.raises(cli.ConfigError, match=f"'{key}' must be positive"):
        cli.load_config(cfgp)
    assert cli.main(["run", cfgp]) == cli.EXIT_SCHEMA
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("overrides", [
    {"numeric": {"mesh": 2049}},
    {"family": {"id": "autonomous", "n": 2}, "numeric": {"mesh": 1024}},
    {"numeric": {"mesh": 20000}},
], ids=["n1", "n2", "old-limit"])
def test_pencil_order_limit(tmp_path, overrides):
    cfgp = write_config(tmp_path, **overrides)
    with pytest.raises(cli.ConfigError, match="order"):
        cli.load_config(cfgp)
    assert cli.main(["run", cfgp]) == cli.EXIT_SCHEMA
    assert not (tmp_path / "results").exists()


def test_pencil_order_limit_on_flag(tmp_path):
    cfgp = write_config(tmp_path)
    assert cli.main(["run", cfgp, "--mesh", "5000"]) == cli.EXIT_SCHEMA
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("overrides", [
    {"numeric": {"mesh": 2048}},
    {"family": {"id": "autonomous", "n": 2}, "numeric": {"mesh": 1023}},
], ids=["n1", "n2"])
def test_pencil_order_limit_accepts_edge(tmp_path, overrides):
    cli.load_config(write_config(tmp_path, **overrides))


def test_shipped_scenarios_accepted():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = glob.glob(os.path.join(root, "scenarios", "*.json"))
    paths += glob.glob(os.path.join(root, "bench", "scenarios", "*.json"))
    assert len(paths) >= 4
    for path in paths:
        cli.load_config(path)


def test_numeric_failure_exit_code(tmp_path):
    cfgp = write_config(tmp_path, **{
        "family": {"id": "sech-perturbation", "amplitude": 2.0},
        "numeric": {"grid": 5, "mesh": 32, "trunc": 5.0},
        "reports": ["corollary-a"],   # sech family is not lambda-periodic
    })
    assert cli.main(["run", cfgp]) == cli.EXIT_NUMERIC


def test_programming_error_propagates(tmp_path, monkeypatch):
    cfgp = write_config(tmp_path)

    def broken_report(*args, **kwargs):
        raise AttributeError("not a numeric failure")

    monkeypatch.setattr(ha, "theorem_A_report", broken_report)
    with pytest.raises(AttributeError, match="not a numeric failure"):
        cli.main(["run", cfgp])


def test_unwritable_output_exit_code(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file where the output directory should go")
    cfgp = write_config(tmp_path)
    assert cli.main(["run", cfgp, "--out", str(blocker / "results")]) == cli.EXIT_SCHEMA


def test_disagreement_exit_code(tmp_path, monkeypatch):
    cfgp = write_config(tmp_path)

    def fake_report(*args, **kwargs):
        return ha.IndexReport(sfl=1, maslov=0)

    monkeypatch.setattr(ha, "theorem_A_report", fake_report)
    monkeypatch.setattr(cli.ha, "theorem_A_report", fake_report)
    assert cli.main(["run", cfgp]) == cli.EXIT_DISAGREE


def test_a_balanced_endpoint_kernel_scenario_agrees(tmp_path, capsys):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    scenario = os.path.join(root, "scenarios", "sech_endpoint_kernel.json")
    assert cli.main(["run", scenario, "--out", str(tmp_path / "results")]) == cli.EXIT_OK
    report = (tmp_path / "results" / "report.txt").read_text()
    for line in ("theorem-a.sfl = 1", "theorem-a.maslov = 0", "theorem-a.sfl_shifted = 1",
                 "theorem-a.shift_corrections = (0, 1)",
                 "theorem-a.agreement_rule = shift recipe", "all_agree = true"):
        assert line in report.splitlines()
    assert "DISAGREEMENT" not in capsys.readouterr().err


def test_flag_overrides(tmp_path):
    cfgp = write_config(tmp_path)
    outdir = str(tmp_path / "other")
    assert cli.main(["run", cfgp, "--out", outdir, "--grid", "5",
                     "--mesh", "32", "--trunc", "5.0"]) == cli.EXIT_OK
    report = open(os.path.join(outdir, "report.txt")).read()
    assert "mesh = 32" in report
    assert "grid = 5" in report
    assert "trunc = 5" in report


def test_determinism(tmp_path):
    cfg1 = write_config(tmp_path, name="a.json", out=str(tmp_path / "o1"))
    cfg2 = write_config(tmp_path, name="b.json", out=str(tmp_path / "o2"))
    assert cli.main(["run", cfg1]) == cli.EXIT_OK
    assert cli.main(["run", cfg2]) == cli.EXIT_OK
    r1 = (tmp_path / "o1" / "report.txt").read_text()
    r2 = (tmp_path / "o2" / "report.txt").read_text()
    assert r1 == r2
    t1 = (tmp_path / "o1" / "tracks.csv").read_text()
    t2 = (tmp_path / "o2" / "tracks.csv").read_text()
    assert t1 == t2


def test_no_stray_tmp_files(tmp_path):
    cfgp = write_config(tmp_path)
    assert cli.main(["run", cfgp]) == cli.EXIT_OK
    leftovers = [p for p in (tmp_path / "results").iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


ROTATING_SCENARIO = {"family": {"id": "rotating-asymptotics", "n": 1},
                     "numeric": {"grid": 9, "mesh": 32, "trunc": 0.5},
                     "reports": ["theorem-a", "corollary-a"]}


@pytest.mark.parametrize("scenario", [
    {"family": {"id": "sech-perturbation", "amplitude": 2.0},
     "numeric": {"grid": 9, "mesh": 32, "trunc": 1.0, "third_opinion": True}},
    ROTATING_SCENARIO,
], ids=["sech", "rotating"])
def test_run_computes_each_pencil_and_transport_once(tmp_path, monkeypatch, scenario):
    pencils, frames = [], []
    assemble, transport = ha.assemble_A0_operator, ha.propagate_subspace

    def counting_assemble(family, lam, T, N, **kwargs):
        pencils.extend((id(family), float(x), T, N) for x in np.atleast_1d(lam))
        return assemble(family, lam, T, N, **kwargs)

    def counting_transport(F, family, lams, t_from, t_to, *args):
        frames.extend((id(family), float(lam), t_from, t_to) for lam in np.atleast_1d(lams))
        return transport(F, family, lams, t_from, t_to, *args)

    monkeypatch.setattr(ha, "assemble_A0_operator", counting_assemble)
    monkeypatch.setattr(ha, "propagate_subspace", counting_transport)
    assert cli.main(["run", write_config(tmp_path, **scenario)]) == cli.EXIT_OK
    assert pencils and frames
    assert len(set(pencils)) == len(pencils)
    assert len(set(frames)) == len(frames)


def test_run_computes_a0_bounds_once(tmp_path, monkeypatch):
    # the tracks table, theorem A and corollary A share one A0 flow setup
    calls = []
    lipschitz = ha.HamiltonianFamily.lambda_lipschitz

    def counting_lipschitz(self, *args, **kwargs):
        calls.append(id(self))
        return lipschitz(self, *args, **kwargs)

    monkeypatch.setattr(ha.HamiltonianFamily, "lambda_lipschitz", counting_lipschitz)
    assert cli.main(["run", write_config(tmp_path, **ROTATING_SCENARIO)]) == cli.EXIT_OK
    assert len(calls) == 1


def test_tracks_command_matches_run(tmp_path):
    cfgp = write_config(tmp_path, **{
        "family": {"id": "sech-perturbation", "amplitude": 2.0},
        "numeric": {"grid": 9, "mesh": 32, "trunc": 1.0},
    })
    assert cli.main(["tracks", cfgp, "--out", str(tmp_path / "t")]) == cli.EXIT_OK
    assert cli.main(["run", cfgp, "--out", str(tmp_path / "r")]) == cli.EXIT_OK
    tracks = [(tmp_path / d / "tracks.csv").read_bytes() for d in ("t", "r")]
    assert tracks[0] == tracks[1]
