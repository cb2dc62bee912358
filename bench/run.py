"""hamflow benchmark: one workload per invocation, one JSON result line.

    python3 bench/run.py --workload sech-homoclinic --seed 1 --seconds 20 --trace 0

Run from the repository root.  The library is imported from ``src/`` as it
stands; nothing is installed.  Workloads, expected integers and the layer
prediction table live in ``bench/spec.json``; metric names, units and bounds
in ``BENCHMARK.json``.

``--trace 0`` runs the workload's untimed warm-up operations, then whole
passes over its operations, back to back, until ``--seconds`` have passed,
and reports the end-to-end metrics.  ``--trace 1`` runs the
workload's fixed trace unit once untraced and once with spans around the
public entry points, and reports the per-layer metrics.  Both check every
integer.  ``--smoke`` swaps in small inputs for the benchmark's own tests.

Every run writes a result file under ``bench/out/results`` (and a traced run
a span file under ``bench/out/traces``) that records the thread variables,
core count, BLAS build, interpreter and library versions and git commit.
The thread variables are recorded, never set.  The last line of standard
output is the result object; the lines before it restate it for a reader.
A run that prints a result exits 0, and its ``correct`` field says whether
every integer matched; without ``src/hamflow`` the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "HAMFLOW_THREADS")
SETUP_PROBES = 5
SMOKE_SETUP_PROBES = 2


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="small inputs for the benchmark's tests")
    p.add_argument("--probe", action="store_true",
                   help="set up the workload, print 'ready' and exit (times setup_s)")
    return p.parse_args(argv)


def _git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
    }


def _timed(op):
    w0, c0 = time.perf_counter(), time.process_time()
    outcomes = op()
    return time.perf_counter() - w0, time.process_time() - c0, outcomes


def _setup_times(args, count):
    """Process start to ready, in fresh interpreters, one at a time."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code})")
        times.append(elapsed)
    return times


def _tail(values):
    """Highest of p90, p75 with at least ten samples beyond it, else None."""
    n = len(values)
    for p in (90, 75):
        if n * (100 - p) / 100.0 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _write_json(directory, name, doc):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, default=str)
        fh.write("\n")


def _outcome_rows(outcomes):
    return [{"label": o.label, "integers": o.integers, "ok": o.ok, "error": o.error}
            for o in outcomes]


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "hamflow", "__init__.py")):
        print(f"benchmark: no hamflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import hamflow.cli  # noqa: F401  -- what `hamflow run` imports
    import workloads

    if args.workload not in workloads.names():
        print(f"benchmark: unknown workload {args.workload!r}; known: {workloads.names()}",
              file=sys.stderr)
        return 2
    ops = workloads.prepare(args.workload, args.seed, smoke=args.smoke)
    if args.probe:
        print("ready", flush=True)
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)

    tag = f"{args.workload}-seed{args.seed}" + ("-smoke" if args.smoke else "")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "environment": environment()}
    lines = []

    if args.trace:
        from tracer import Tracer

        unit = workloads.trace_unit(args.workload, ops)
        plain = [_timed(op) for op in unit]
        tracer = Tracer()
        tracer.install()
        try:
            traced = [_timed(op) for op in unit]
        finally:
            tracer.uninstall()
        layer = tracer.metrics()
        layer["trace.overhead_s"] = (sum(t[0] for t in traced) - sum(t[0] for t in plain)) / len(unit)
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        tracer.write(os.path.join(OUT, "traces", tag + ".json"),
                     {"workload": args.workload, "seed": args.seed,
                      "environment": record["environment"]})
        runs = plain + traced
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                   for m in declared["per_layer"]}
        record["untraced_outcomes"] = _outcome_rows(o for r in plain for o in r[2])
        record["traced_outcomes"] = _outcome_rows(o for r in traced for o in r[2])
        lines.append(f"traced unit: {len(unit)} operation(s), run once untraced and once traced")
    else:
        setup = _setup_times(args, SMOKE_SETUP_PROBES if args.smoke else SETUP_PROBES)
        warmup = [op() for op in ops[:workloads.warmup_ops(args.workload)]]
        runs = []
        deadline = time.perf_counter() + args.seconds
        while True:  # whole passes, so that every input weighs the same
            runs.extend(_timed(op) for op in ops)
            if time.perf_counter() >= deadline:
                break
        samples = {"run_s": [r[0] for r in runs], "cpu_s": [r[1] for r in runs],
                   "setup_s": setup}
        values = {name: statistics.median(v) for name, v in samples.items()}
        values["peak_rss_mb"] = _peak_rss_mb()
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in declared["end_to_end"]}
        record["samples"] = samples
        record["outcomes"] = _outcome_rows(o for r in runs for o in r[2])
        record["warmup_outcomes"] = _outcome_rows(o for r in warmup for o in r)
        for name, v in samples.items():
            tail = _tail(v)
            tail_text = f"p{tail[0]} = {tail[1]:.4f} s" if tail else "no percentile has 10 beyond it"
            lines.append(f"  {name}: median of {len(v)} = {values[name]:.4f} s; {tail_text}")
        if args.workload == "boundary-pairs":
            lines.append("  pair_s = run_s: one theorem_B_report call")

    outcomes = [o for r in runs for o in r[2]]
    if not args.trace:
        outcomes += [o for r in warmup for o in r]
    attempted = len(outcomes)
    failed = sum(not o.ok for o in outcomes)
    correct = failed == 0 and attempted >= 1
    record.update(metrics=metrics, attempted=attempted, failed=failed, correct=correct)
    _write_json(os.path.join(OUT, "results"), f"{tag}-trace{args.trace}.json", record)

    for o in outcomes:
        if not o.ok:
            print(f"FAILED {o.label}: {o.integers} {o.error or ''}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace} attempted={attempted} "
          f"failed={failed} fail_frac = {failed / attempted:.4g} ratio")
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
