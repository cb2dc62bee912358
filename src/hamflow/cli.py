"""Configuration-driven command line front end.

Scenarios are JSON files naming a builtin family, numeric knobs and a report
selection; runs write a key-value report plus CSV tables (eigenvalue tracks,
crossings, convergence) suitable for external plotting.  Exit codes: 0 all
agreement flags true, 1 disagreement, 2 config/schema violation or an
unwritable output path, 3 numeric failure (any ``ValueError`` or
``RuntimeError`` a pipeline raises).  Other exceptions are programming errors
and propagate, so Python exits with status 1 after the traceback; a
disagreement instead prints ``DISAGREEMENT:`` and the integers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
# Nothing here runs a pool; the benchmark tracer patches this name, so it stays
# bound until the tracer drops that patch.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field

import numpy as np

from . import families as fam
from . import hamiltonian as ha
from . import maslov as ma
from . import spectral as sf
from .symplectic import souriau_map, intersection_dimension_rank, standard_space, lagrangian_from_matrix

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_SCHEMA = 2
EXIT_NUMERIC = 3

KNOWN_REPORTS = ("theorem-a", "theorem-b", "corollary-a", "self-tests")

# A0 pencils are solved in band storage, O(m kd) memory, but theorem B's Q
# pencils are solved dense: one windowed Q solve of order mesh * 2n peaks at
# 3.0 dense matrices under tracemalloc, 403 MB at order 4096.  The limit
# bounds (mesh + 1) * 2n, the unknowns before frame reduction, for every
# report; 4098 is mesh 2048 at n = 1.
MAX_PENCIL_ORDER = 4098

_INT_KEYS = ("grid", "mesh")
_REAL_KEYS = ("trunc", "tol")
_BOOL_KEYS = ("doubling", "third_opinion")
_NUMERIC_KEYS = set(_INT_KEYS + _REAL_KEYS + _BOOL_KEYS)


class ConfigError(ValueError):
    """Scenario file violates the schema."""


@dataclass
class ScenarioConfig:
    family_id: str
    family_params: dict
    grid: int = 17
    trunc: float | None = None
    mesh: int = 160
    tol: float = 1e-6
    doubling: bool = False
    third_opinion: bool = False
    reports: tuple = ("theorem-a",)
    out: str = "results"


@dataclass
class RunArtifacts:
    report_path: str
    tracks_path: str | None
    crossings_path: str | None
    convergence_path: str | None
    integers: dict = field(default_factory=dict)
    all_agree: bool = True
    agreement: dict = field(default_factory=dict)  # each report's flags, as IndexReport.agreement


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("scenario must be a JSON object")
    unknown = set(raw) - {"family", "numeric", "reports", "out"}
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")

    family = raw.get("family")
    if not isinstance(family, dict) or "id" not in family:
        raise ConfigError("scenario needs a 'family' object with an 'id'")
    fid = family["id"]
    if fid not in fam.family_catalog():
        raise ConfigError(f"unknown family id '{fid}'")
    params = {k: v for k, v in family.items() if k != "id"}
    allowed = set(fam.family_catalog()[fid]["params"])
    bad = set(params) - allowed
    if bad:
        raise ConfigError(f"unknown parameters for family '{fid}': {sorted(bad)}")
    _check_family_params(params)

    numeric = raw.get("numeric", {})
    if not isinstance(numeric, dict):
        raise ConfigError("'numeric' must be an object")
    bad = set(numeric) - _NUMERIC_KEYS
    if bad:
        raise ConfigError(f"unknown numeric keys: {sorted(bad)}")

    reports = raw.get("reports", ["theorem-a"])
    if not (isinstance(reports, list) and reports and all(isinstance(r, str) for r in reports)):
        raise ConfigError("'reports' must be a non-empty list of report names")
    reports = tuple(reports)
    bad = set(reports) - set(KNOWN_REPORTS)
    if bad:
        raise ConfigError(f"unknown reports: {sorted(bad)}; known: {KNOWN_REPORTS}")

    out = raw.get("out", "results")
    if not isinstance(out, str):
        raise ConfigError("'out' must be a path string")
    cfg = ScenarioConfig(family_id=fid, family_params=params, reports=reports, out=out)
    for key in _NUMERIC_KEYS:
        if key in numeric:
            setattr(cfg, key, numeric[key])
    _validate_ranges(cfg)
    return cfg


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _check_family_params(params: dict) -> None:
    """Every family takes an integer n >= 1, an optional list of n real rates
    and otherwise real numbers; its time scales (width, bump_width,
    ramp_scale) are positive."""
    for key, val in params.items():
        if key == "n":
            if not (_is_int(val) and val >= 1):
                raise ConfigError("family parameter 'n' must be an integer >= 1")
        elif key == "rates":
            if val is not None and not (isinstance(val, list)
                                        and len(val) == params.get("n", 1)
                                        and all(_is_real(r) for r in val)):
                raise ConfigError("family parameter 'rates' must be a list of n real numbers")
        elif not _is_real(val):
            raise ConfigError(f"family parameter '{key}' must be a real number")
        elif key in ("width", "bump_width", "ramp_scale") and val <= 0:
            raise ConfigError(f"family parameter '{key}' must be positive")


def _validate_ranges(cfg: ScenarioConfig) -> None:
    for key in _INT_KEYS:
        if not _is_int(getattr(cfg, key)):
            raise ConfigError(f"{key} must be an integer")
    for key in _REAL_KEYS:
        val = getattr(cfg, key)
        if not (_is_real(val) or (key == "trunc" and val is None)):
            raise ConfigError(f"{key} must be a real number")
    for key in _BOOL_KEYS:
        if not isinstance(getattr(cfg, key), bool):
            raise ConfigError(f"{key} must be true or false")
    if not (3 <= int(cfg.grid) <= 4097):
        raise ConfigError("grid must be between 3 and 4097")
    if cfg.mesh < 4:
        raise ConfigError("mesh must be at least 4")
    largest_mesh = 2 * cfg.mesh if cfg.doubling else cfg.mesh
    order = (largest_mesh + 1) * 2 * cfg.family_params.get("n", 1)
    if order > MAX_PENCIL_ORDER:
        raise ConfigError(f"mesh {largest_mesh} gives {order} = (mesh + 1) * 2n unknowns before "
                          f"frame reduction (pencils of order mesh * 2n), above the dense "
                          f"limit {MAX_PENCIL_ORDER}")
    if cfg.trunc is not None and not (0.5 <= float(cfg.trunc) <= 200.0):
        raise ConfigError("trunc must be between 0.5 and 200")
    if not (0 < float(cfg.tol) <= 1e-2):
        raise ConfigError("tol must be in (0, 1e-2]")


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file.  An OS failure is
    a ``ConfigError``: the output directory comes from the scenario or
    ``--out``."""
    directory = os.path.dirname(path) or "."
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _trunc(cfg, family) -> float:
    return float(cfg.trunc) if cfg.trunc is not None else 10.0 * family.decay_scale


def _run_reports(cfg: ScenarioConfig, family, T, grid):
    results = {}
    for name in cfg.reports:
        if name == "theorem-a":
            results[name] = ha.theorem_A_report(family, lam_grid=grid, T=T, N=int(cfg.mesh),
                                                third_opinion=bool(cfg.third_opinion),
                                                endpoint_kernel_tol=float(cfg.tol))
        elif name == "theorem-b":
            path_u, path_s = ha.stable_unstable_pair_path(family, grid, 0.0, T)
            results[name] = ha.theorem_B_report(path_u, path_s, -1.0, 1.0, int(cfg.mesh))
        elif name == "corollary-a":
            results[name] = ha.corollary_A_report(family, lam_grid=grid, T=T, N=int(cfg.mesh))
        elif name == "self-tests":
            results[name] = _self_test_report()
    return results


def _self_test_report():
    """Normalization identities as a miniature report."""
    sp = standard_space(1)
    W = lagrangian_from_matrix(np.array([[1.0], [0.0]]), sp)
    gnor = ma.LagrangianPath.from_callable(
        sp, lambda lam: lagrangian_from_matrix(
            np.array([[-np.sin(np.pi * lam)], [np.cos(np.pi * lam)]]), sp), grid=17)
    mas = ma.maslov_index(gnor, W)
    flow, _ = sf.spectral_flow(sf.normalization_path(1, 1))
    kappa = sf.chern_winding(sf.SymmetricMatrixPath(lambda lam: np.array([[2 * lam - 1.0]])))
    return ha.IndexReport(sfl=flow, maslov=mas, chern=kappa)


def _report_lines(cfg, T, results) -> list:
    lines = [
        f"family = {cfg.family_id}",
        f"params = {json.dumps(cfg.family_params, sort_keys=True)}",
        f"trunc = {T:g}",
        f"mesh = {cfg.mesh}",
        f"grid = {cfg.grid}",
    ]
    for name in sorted(results):
        rep = results[name]
        lines.append(f"{name}.sfl = {rep.sfl}")
        lines.append(f"{name}.maslov = {rep.maslov}")
        if rep.chern is not None:
            lines.append(f"{name}.chern = {rep.chern}")
        lines.append(f"{name}.agree = {str(rep.agree).lower()}")
        for i, c in enumerate(rep.crossings):
            lines.append(f"{name}.crossing.{i} = {c.lam:.10f} dim {c.intersection_dim}")
        for key, val in sorted(rep.extras.items()):
            lines.append(f"{name}.{key} = {val}")
    return lines


def _tracks_rows(cfg, family, T, grid):
    """Per-lambda diagnostics: the pencil eigenvalues nearest zero in the band
    the spectral flow is counted on, Souriau phases and intersections.

    The spectra and E^u/E^s are the family's memoized ones, which the reports
    then reuse.
    """
    n_eigs = 4
    node_fn, _, _ = ha._a0_flow_setup(family, grid, T, int(cfg.mesh))
    path_u, path_s = ha.stable_unstable_pair_path(family, grid, 0.0, T)
    rows = []
    spectra = node_fn([lam for lam, _ in path_u.samples])
    Us = souriau_map(*(np.stack([F.columns for _, F in p.samples]) for p in (path_u, path_s)),
                     family.space)
    for (lam, eu), (_, es), vals, psi in zip(path_u.samples, path_s.samples, spectra,
                                             ma._eigenphases(Us)):
        vals = np.sort(vals)
        vals = vals[np.argsort(np.abs(vals))[:n_eigs]]
        eigs = list(vals) + [np.nan] * (n_eigs - len(vals))
        psi = psi[np.argsort(np.abs(psi))][:2]
        phases = list(psi) + [np.nan] * (2 - len(psi))
        dim = intersection_dimension_rank(eu, es)
        rows.append([float(lam)] + [float(x) for x in eigs] + [float(p) for p in phases] + [dim])
    header = (["lambda"] + [f"eig_{i + 1}" for i in range(n_eigs)]
              + ["phase_1", "phase_2", "intersection_dim"])
    return header, rows


def _csv(header, rows) -> str:
    def cell(v):
        if isinstance(v, (float, np.floating)):
            return "" if np.isnan(v) else f"{v:.12g}"
        return str(v)

    out = [",".join(header)]
    out.extend(",".join(cell(v) for v in r) for r in rows)
    return "\n".join(out) + "\n"


def run_scenario(config_path: str, overrides: dict | None = None,
                 tracks_only: bool = False) -> RunArtifacts:
    cfg = load_config(config_path)
    for key, val in (overrides or {}).items():
        if val is not None:
            setattr(cfg, key, val)
    _validate_ranges(cfg)

    family = fam.make_family(cfg.family_id, **cfg.family_params)
    T = _trunc(cfg, family)
    grid = np.linspace(0.0, 1.0, int(cfg.grid))
    out = cfg.out

    tracks_path = os.path.join(out, "tracks.csv")
    header, rows = _tracks_rows(cfg, family, T, grid)
    _atomic_write(tracks_path, _csv(header, rows))

    if tracks_only:
        return RunArtifacts(report_path="", tracks_path=tracks_path,
                            crossings_path=None, convergence_path=None)

    results = _run_reports(cfg, family, T, grid)

    crossings_path = os.path.join(out, "crossings.csv")
    cross_rows = []
    for name, rep in results.items():
        for c in rep.crossings:
            cross_rows.append([c.lam, c.intersection_dim, name])
    cross_rows.sort(key=lambda r: r[0])
    _atomic_write(crossings_path, _csv(["lambda", "dim", "report"], cross_rows))

    convergence_path = os.path.join(out, "convergence.csv")
    if cfg.doubling and "theorem-a" in results:
        base = results["theorem-a"]
        rep2 = ha.theorem_A_report(family, lam_grid=grid, T=1.5 * T, N=int(cfg.mesh),
                                   locate_crossings=False)
        rep3 = ha.theorem_A_report(family, lam_grid=grid, T=T, N=2 * int(cfg.mesh),
                                   locate_crossings=False)
        conv_rows = [
            ["base", f"{T:g}", str(cfg.mesh), str(base.sfl), str(base.maslov)],
            ["trunc-x1.5", f"{1.5 * T:g}", str(cfg.mesh), str(rep2.sfl), str(rep2.maslov)],
            ["mesh-x2", f"{T:g}", str(2 * int(cfg.mesh)), str(rep3.sfl), str(rep3.maslov)],
        ]
        _atomic_write(convergence_path,
                      _csv(["setting", "trunc", "mesh", "sfl", "maslov"], conv_rows))
    else:
        _atomic_write(convergence_path,
                      _csv(["setting", "trunc", "mesh"], [["base", f"{T:g}", str(cfg.mesh)]]))

    report_path = os.path.join(out, "report.txt")
    lines = _report_lines(cfg, T, results)
    all_agree = all(rep.agree for rep in results.values())
    lines.append(f"all_agree = {str(all_agree).lower()}")
    _atomic_write(report_path, "\n".join(lines) + "\n")

    integers = {name: {"sfl": rep.sfl, "maslov": rep.maslov, "chern": rep.chern}
                for name, rep in results.items()}
    return RunArtifacts(report_path=report_path, tracks_path=tracks_path,
                        crossings_path=crossings_path, convergence_path=convergence_path,
                        integers=integers, all_agree=all_agree,
                        agreement={name: rep.agreement for name, rep in results.items()})


def _cmd_families() -> int:
    catalog = fam.family_catalog()
    for fid in sorted(catalog):
        entry = catalog[fid]
        print(f"{fid}")
        print(f"  assumptions: {entry['assumptions']}")
        for pname, pdesc in entry["params"].items():
            print(f"  param {pname}: {pdesc}")
        print(f"  notes: {entry['notes']}")
    return EXIT_OK


def _cmd_selftest() -> int:
    rep = _self_test_report()
    ok = rep.sfl == 1 and rep.maslov == 1 and rep.chern == 1
    print(f"normalization maslov = {rep.maslov} (want 1)")
    print(f"normalization spectral flow = {rep.sfl} (want 1)")
    print(f"kappa winding = {rep.chern} (want 1)")
    print("selftest " + ("passed" if ok else "FAILED"))
    return EXIT_OK if ok else EXIT_DISAGREE


def _overrides_from_args(args) -> dict:
    return {
        "out": args.out,
        "grid": args.grid,
        "trunc": args.trunc,
        "mesh": args.mesh,
        "tol": args.tol,
        "third_opinion": True if args.third_opinion else None,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamflow",
        description="spectral flow / Maslov index / Chern winding scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("config", help="scenario JSON file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--grid", type=int, default=None, help="lambda grid size")
        p.add_argument("--trunc", type=float, default=None, help="time truncation T")
        p.add_argument("--mesh", type=int, default=None, help="Galerkin mesh intervals")
        p.add_argument("--tol", type=float, default=None, help="endpoint-kernel tolerance")
        p.add_argument("--third-opinion", action="store_true", dest="third_opinion",
                       help="also compute the determinant-winding Chern number")

    add_common(sub.add_parser("run", help="run the scenario reports and write artifacts"))
    sub.add_parser("families", help="list builtin family ids and parameters")
    add_common(sub.add_parser("tracks", help="write only the eigenvalue-track table"))
    sub.add_parser("selftest", help="run the builtin normalization checks")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "families":
        return _cmd_families()
    if args.command == "selftest":
        return _cmd_selftest()
    try:
        artifacts = run_scenario(args.config, _overrides_from_args(args),
                                 tracks_only=(args.command == "tracks"))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (ValueError, RuntimeError) as exc:
        # every numeric failure type subclasses one of these (TruncationError,
        # AssumptionError, FlowRefinementError, EndpointKernelError,
        # SymplecticError, LinAlgError)
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    if args.command == "tracks":
        print(f"tracks written to {artifacts.tracks_path}")
        return EXIT_OK
    print(f"report written to {artifacts.report_path}")
    for name, ints in sorted(artifacts.integers.items()):
        chern = "" if ints["chern"] is None else f" chern={ints['chern']}"
        print(f"  {name}: sfl={ints['sfl']} maslov={ints['maslov']}{chern}")
    if not artifacts.all_agree:
        diffs = [f"{name}: sfl={i['sfl']} maslov={i['maslov']} chern={i['chern']} (failed: "
                 + ", ".join(flag for flag, ok in artifacts.agreement[name].items() if not ok)
                 + ")"
                 for name, i in artifacts.integers.items()
                 if not all(artifacts.agreement[name].values())]
        print("DISAGREEMENT:\n  " + "\n  ".join(diffs), file=sys.stderr)
        return EXIT_DISAGREE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
