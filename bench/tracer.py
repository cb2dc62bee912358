"""Spans around hamflow's public entry points, patched in from outside.

``Tracer.install()`` replaces each entry point in every ``hamflow`` namespace
that bound it (``hamiltonian`` imports ``flow_from_spectra`` by name,
``maslov`` and ``cli`` both bind ``souriau_map``, and so on) with a wrapper
that records a span: layer, start, end, thread and the id of the span that
caused it.  Each thread keeps its own span stack; work submitted to the
tracks pool of ``cli`` inherits the submitting span as its parent.  Spans stay
in memory until ``write()``.

A layer's self time is its spans' durations minus the part of each interval
that its child spans cover.
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor


def _frame_bytes(frame) -> bytes:
    import numpy as np
    cols = frame.columns if hasattr(frame, "columns") else frame
    return np.ascontiguousarray(cols, dtype=float).tobytes()


def _transport_probe(a, result):
    span = abs(a["t_to"] - a["t_from"])
    steps = 0 if span == 0.0 else max(16, int(math.ceil(span * a["steps_per_unit"])))
    key = (a["family"].name, a["lam"], a["t_from"], a["t_to"], a["steps_per_unit"],
           _frame_bytes(a["frame"]))
    return key, {"rk4_steps": steps}


def _a0_probe(a, result):
    key = ("A0", a["family"].name, a["lam"], a["T"], a["N"], a["stabilization"], a["scheme"])
    return key, {"rows": result.size}


def _q_probe(a, result):
    key = ("Q", _frame_bytes(a["L0"]), _frame_bytes(a["L1"]), a["a"], a["b"], a["N"],
           a["stabilization"], a["scheme"])
    return key, {"rows": result.size}


def _count_probe(a, result):
    return None, {"nodes": len(result[1].nodes)}


def _scan_probe(a, result):
    return None, {"crossings": len(result)}


# (layer, module, attribute path, probe).  A probe sees the bound arguments and
# the result and returns (work key or None, {counter: amount}); the work keys
# give the layer's unique_ratio, distinct keys over calls.
ENTRY_POINTS = [
    ("families.S", "hamflow.hamiltonian", "HamiltonianFamily.S", None),
    ("hamiltonian.transport", "hamflow.hamiltonian", "propagate_subspace", _transport_probe),
    ("hamiltonian.splitting", "hamflow.hamiltonian", "stable_unstable_splitting", None),
    ("hamiltonian.pencil", "hamflow.hamiltonian", "assemble_A0_operator", _a0_probe),
    ("hamiltonian.pencil", "hamflow.hamiltonian", "assemble_Q_operator", _q_probe),
    ("hamiltonian.eigensolve", "hamflow.hamiltonian", "BoundaryValueOperator.eigenvalues", None),
    ("spectral.count", "hamflow.spectral", "flow_from_spectra", _count_probe),
    ("spectral.chern", "hamflow.spectral", "chern_winding", None),
    ("maslov.winding", "hamflow.maslov", "winding_number", None),
    ("maslov.scan", "hamflow.maslov", "find_crossings", _scan_probe),
    ("symplectic.souriau", "hamflow.symplectic", "souriau_map", None),
    ("cli.run", "hamflow.cli", "run_scenario", None),
]

LAYERS = list(dict.fromkeys(layer for layer, *_ in ENTRY_POINTS))
GHOST_LAYER = "hamiltonian.eigensolve"
COUNTERS = ("hamiltonian.transport.rk4_steps", "hamiltonian.pencil.rows",
            "spectral.count.nodes", "maslov.scan.crossings", GHOST_LAYER + ".ghost_warnings")


def _resolve(module, path):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class _WarningsProxy:
    """Stands in for the ``warnings`` module inside ``hamflow.hamiltonian`` and
    counts warnings issued while an eigensolve span is innermost."""

    def __init__(self, real, tracer):
        self._real, self._tracer = real, tracer

    def __getattr__(self, name):
        return getattr(self._real, name)

    def warn(self, message, category=None, stacklevel=1, **kwargs):
        self._tracer.note_warning()
        return self._real.warn(message, category, stacklevel + 1, **kwargs)


class Tracer:
    def __init__(self):
        self.spans = []                    # (id, parent, layer, thread, t0, t1)
        self.counters = defaultdict(int)   # "layer.counter" -> amount
        self.keys = defaultdict(list)      # layer -> work keys, one per call
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []                 # (owner, attr, original)
        self.origin = time.perf_counter()

    # -- span stack ---------------------------------------------------------

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def current(self):
        st = self._stack()
        return st[-1][0] if st else getattr(self._local, "inherited", None)

    def _adopt(self, parent, fn, *args, **kwargs):
        self._local.inherited = parent
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.inherited = None

    def note_warning(self):
        st = self._stack()
        if st and st[-1][1] == GHOST_LAYER:
            with self._lock:
                self.counters[GHOST_LAYER + ".ghost_warnings"] += 1

    # -- patching -----------------------------------------------------------

    def _wrap(self, layer, original, probe):
        sig = inspect.signature(original) if probe else None
        tracer = self

        def traced(*args, **kwargs):
            sid = next(tracer._ids)
            parent = tracer.current()
            stack = tracer._stack()
            stack.append((sid, layer))
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, layer, threading.get_ident(), t0, t1))
            if probe:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                key, counts = probe(bound.arguments, result)
                with tracer._lock:
                    if key is not None:
                        tracer.keys[layer].append(key)
                    for name, amount in counts.items():
                        tracer.counters[f"{layer}.{name}"] += amount
            return result

        traced.__wrapped__ = original
        return traced

    def install(self):
        targets = [(layer, *_resolve(module, path), probe)
                   for layer, module, path, probe in ENTRY_POINTS]
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == "hamflow" or name.startswith("hamflow.")]
        for layer, owner, attr, probe in targets:
            original = getattr(owner, attr)
            wrapper = self._wrap(layer, original, probe)
            self._patch(owner, attr, wrapper)
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is original and not (ns is owner and name == attr):
                        self._patch(ns, name, wrapper)

        tracer = self

        class AdoptingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer._adopt, tracer.current(), fn, *args, **kwargs)

        cli = sys.modules["hamflow.cli"]
        self._patch(cli, "ThreadPoolExecutor", AdoptingPool)
        ham = sys.modules["hamflow.hamiltonian"]
        self._patch(ham, "warnings", _WarningsProxy(ham.warnings, self))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict:
        """Self time per layer, and total time of outermost spans per layer."""
        children = defaultdict(list)
        for sid, parent, _, _, t0, t1 in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        by_id = {s[0]: s for s in self.spans}
        self_s = dict.fromkeys(LAYERS, 0.0)
        total_s = dict.fromkeys(LAYERS, 0.0)
        for sid, parent, layer, _, t0, t1 in self.spans:
            covered, end = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            self_s[layer] += (t1 - t0) - covered
            if not self._has_ancestor(by_id, parent, layer):
                total_s[layer] += t1 - t0
        return {"self_s": self_s, "total_s": total_s}

    @staticmethod
    def _has_ancestor(by_id, parent, layer):
        while parent is not None and parent in by_id:
            span = by_id[parent]
            if span[2] == layer:
                return True
            parent = span[1]
        return False

    def metrics(self) -> dict:
        """Per-layer values named as in BENCHMARK.json, without units."""
        times = self.self_times()
        calls = dict.fromkeys(LAYERS, 0)
        for span in self.spans:
            calls[span[2]] += 1
        out = dict.fromkeys(COUNTERS, 0)
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = times["self_s"][layer]
            out[f"{layer}.total_s"] = times["total_s"][layer]
            keys = self.keys.get(layer)
            out[f"{layer}.unique_ratio"] = len(set(keys)) / len(keys) if keys else 1.0
        out.update(self.counters)
        return out

    def write(self, path, extra):
        """Write every span, with times relative to the tracer's creation."""
        threads = {}
        rows = [[sid, parent, LAYERS.index(layer), threads.setdefault(tid, len(threads)),
                 round(t0 - self.origin, 7), round(t1 - self.origin, 7)]
                for sid, parent, layer, tid, t0, t1 in sorted(self.spans)]
        doc = dict(extra, layers=LAYERS, columns=["id", "parent", "layer", "thread", "t0", "t1"],
                   spans=rows)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
