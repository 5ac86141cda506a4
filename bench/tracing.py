"""The traced run: per-layer counts and times from wrappers around the
library's public functions and methods.

The wrappers are installed from here, on the imported modules, and removed
again after each traced round; the library itself is not changed.  Each
layer's time is the inclusive time of its outermost calls (a call made
while the same layer is already being timed is not counted twice).  Spans
of the coarse layers are kept in memory with their parent span and the
benchmark operation that caused them, and written out when the run ends.

Traced and untraced rounds alternate, so the run also measures the tracing
overhead against untraced rounds of the same operations.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import sys
import time
from collections import defaultdict
from pathlib import Path

import harness as H

OUT_DIR = Path(__file__).resolve().parent / "out"

# metric -> (what is recorded, [(module, attribute path), ...]).
# "time" records calls and seconds, "count" only calls; "span" also keeps spans.
LAYERS = {
    "ffield.elem_op": ("time", [("ffield", f"FieldElem.{m}") for m in
                                ("__add__", "__sub__", "__neg__", "__mul__",
                                 "__truediv__", "__pow__")]),
    "polyring.mul": ("time", [("polyring", "Poly.__mul__")]),
    "polyring.divmod": ("time", [("polyring", f"Poly.{m}") for m in
                                 ("__divmod__", "__floordiv__", "__mod__")]),
    "polyring.addsub": ("time", [("polyring", "Poly.__add__"), ("polyring", "Poly.__sub__")]),
    "matgroup.mul": ("time", [("matgroup", "Mat2.__mul__")]),
    "nagao.decompose": ("span", [("nagao", "decompose")]),
    "nagao.normalize": ("span", [("nagao", "normalize")]),
    "nagao.evaluate": ("span", [("nagao", "evaluate")]),
    "reiner.apply": ("span", [("reiner", "reiner_apply")]),
    "words.auto_apply": ("span", [("words", "ComposedAuto.apply")]),
    "cosets.context": ("span", [("cosets", "quotient_context")]),
    "cosets.count": ("span", [("cosets", "cusp_count")]),
    "cosets.conj_check": ("span", [("cosets", "conj_invariance_check")]),
    "cosets.mat_mul": ("count", [("cosets", "mat_mul_r")]),
    "curves.enumerate": ("span", [("curves", "enumerate_points")]),
    "curves.contains": ("count", [("curves", "WeierstrassCurve.contains")]),
    "curves.class_data": ("span", [("curves", "class_data")]),
    "curves.group_structure": ("span", [("curves", "group_structure")]),
    "graphs.build": ("span", [("graphs", "graph_by_name"), ("graphs", "build_graph_ex1"),
                              ("graphs", "build_graph_ex3")]),
    "graphs.export": ("span", [("graphs", "export_dot"), ("graphs", "export_json")]),
    "cli.handler": ("span", [("cli", "cmd_*")]),
}

# reported per-layer metrics: name -> (layer, "calls" | "seconds"); cli.import_s,
# cli.process_s and trace.overhead_pct are worked out in traced_run
REPORT = {
    "ffield.elem_ops": ("ffield.elem_op", "calls"),
    "ffield.elem_op_s": ("ffield.elem_op", "seconds"),
    "polyring.mul_calls": ("polyring.mul", "calls"),
    "polyring.mul_s": ("polyring.mul", "seconds"),
    "polyring.divmod_calls": ("polyring.divmod", "calls"),
    "polyring.divmod_s": ("polyring.divmod", "seconds"),
    "polyring.addsub_calls": ("polyring.addsub", "calls"),
    "polyring.addsub_s": ("polyring.addsub", "seconds"),
    "matgroup.mul_calls": ("matgroup.mul", "calls"),
    "matgroup.mul_s": ("matgroup.mul", "seconds"),
    "nagao.decompose_s": ("nagao.decompose", "seconds"),
    "nagao.normalize_s": ("nagao.normalize", "seconds"),
    "nagao.evaluate_s": ("nagao.evaluate", "seconds"),
    "reiner.apply_s": ("reiner.apply", "seconds"),
    "words.auto_apply_s": ("words.auto_apply", "seconds"),
    "cosets.context_s": ("cosets.context", "seconds"),
    "cosets.count_s": ("cosets.count", "seconds"),
    "cosets.conj_check_s": ("cosets.conj_check", "seconds"),
    "cosets.mat_mul_calls": ("cosets.mat_mul", "calls"),
    "curves.enumerate_s": ("curves.enumerate", "seconds"),
    "curves.contains_calls": ("curves.contains", "calls"),
    "curves.class_data_s": ("curves.class_data", "seconds"),
    "curves.group_structure_s": ("curves.group_structure", "seconds"),
    "graphs.build_s": ("graphs.build", "seconds"),
    "graphs.export_s": ("graphs.export", "seconds"),
    "cli.handler_s": ("cli.handler", "seconds"),
}


class Tracer:
    """Counters, timers and spans around the library's public calls."""

    def __init__(self):
        self.calls: dict = defaultdict(int)
        self.seconds: dict = defaultdict(float)
        self.spans: list = []          # (layer, start, end, parent index, op)
        self.op = None
        self._stack: list = []
        self._active: dict = defaultdict(bool)
        self._undo: list = []

    def install(self) -> None:
        mods = [m for n, m in sys.modules.items() if n.startswith("gl2aut.")]
        for layer, (kind, targets) in LAYERS.items():
            for mod_name, path in targets:
                mod = sys.modules.get(f"gl2aut.{mod_name}")
                if mod is None:
                    continue
                if path.endswith("*"):
                    names = [n for n in vars(mod) if n.startswith(path[:-1])]
                    for n in names:
                        self._patch_function(mods, mod, n, layer, kind)
                elif "." in path:
                    cls_name, meth = path.split(".")
                    cls = getattr(mod, cls_name, None)
                    if cls is not None and meth in vars(cls):
                        orig = vars(cls)[meth]
                        setattr(cls, meth, self._wrap(orig, layer, kind))
                        self._undo.append((cls, meth, orig))
                else:
                    self._patch_function(mods, mod, path, layer, kind)

    def _patch_function(self, mods, mod, name, layer, kind) -> None:
        orig = getattr(mod, name, None)
        if orig is None:
            return
        wrapper = self._wrap(orig, layer, kind)
        # rebind every module-level reference, so calls between modules count
        for m in mods:
            for attr, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, attr, wrapper)
                    self._undo.append((m, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _wrap(self, fn, layer, kind):
        calls, seconds, active = self.calls, self.seconds, self._active
        clock = time.perf_counter
        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[layer] += 1
                return fn(*args, **kwargs)
            return counted
        spans, stack, keep = self.spans, self._stack, kind == "span"

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if active[layer]:
                return fn(*args, **kwargs)
            active[layer] = True
            if keep:
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                active[layer] = False
                calls[layer] += 1
                seconds[layer] += t1 - t0
                if keep:
                    stack.pop()
                    spans[idx] = (layer, t0, t1, parent, self.op)
        return timed

    def op_run(self, label, run):
        """Wrap a benchmark operation so its spans carry its label."""
        def traced():
            self.op = label
            return run()
        return traced

    def state(self) -> dict:
        return {"calls": dict(self.calls), "seconds": dict(self.seconds),
                "spans": self.spans}


def traced_run(name, wl, ops, meter: H.Meter, seconds: float, imports):
    """Alternate untraced and traced rounds for ``seconds``; returns the
    per-layer metrics (per traced round, at reference speed), the detail
    record and the tally of every round.  ``imports`` are the set-up's
    import times at reference speed, used unless CLI processes give their own."""
    tracer = Tracer()
    child_dir = OUT_DIR / f"children-{os.getpid()}"
    children = getattr(wl, "launcher", None) is not None
    if children:
        child_dir.mkdir(parents=True, exist_ok=True)
        plain_launcher = wl.launcher
        traced_launcher = [sys.executable, str(Path(__file__).with_name("traced_cli.py")),
                           str(child_dir)]
    traced_ops = [H.Op(op.label, tracer.op_run(op.label, op.run), op.check, op.before)
                  for op in ops]
    tally = H.Tally()
    kind_of = []                       # traced or not, per sample
    rounds = {False: 0, True: 0}
    child_imports = []
    start = time.perf_counter()
    while True:
        for traced in (False, True):
            if traced and children:
                wl.launcher = traced_launcher
            elif traced:
                tracer.install()
            try:
                H.run_round(traced_ops if traced else ops, meter, tally)
                kind_of += [traced] * (len(tally.samples) - len(kind_of))
            finally:
                if children:
                    wl.launcher = plain_launcher
                else:
                    tracer.uninstall()
            rounds[traced] += 1
            if traced and children:
                child_imports += _merge_children(tracer, child_dir)
        if time.perf_counter() - start >= seconds:
            break
    meter.slice()
    if children:
        shutil.rmtree(child_dir, ignore_errors=True)

    f = meter.factor()
    n = rounds[True]
    busy = {False: 0.0, True: 0.0}
    for traced, dt in zip(kind_of, meter.scaled(tally.samples)):
        busy[traced] += dt
    metrics = {}
    for metric, (layer, what) in REPORT.items():
        if what == "calls":
            metrics[metric] = {"value": tracer.calls.get(layer, 0) / n, "unit": "count"}
        else:
            metrics[metric] = {"value": tracer.seconds.get(layer, 0.0) * f / n, "unit": "s"}
    imports = [dt * f for dt in child_imports] or imports
    metrics["cli.import_s"] = {"value": H.median(imports), "unit": "s"}
    # the wall time of the CLI processes of a traced round, spawn to exit
    metrics["cli.process_s"] = {"value": busy[True] / n if children else 0.0, "unit": "s"}
    overhead = 100.0 * (busy[True] / rounds[True]) / (busy[False] / rounds[False]) - 100.0
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"trace-{name}-{os.getpid()}.json"
    with open(path, "w") as fh:
        json.dump(dict(tracer.state(), rounds=rounds, speed_factor=f), fh)
    detail = {"rounds": rounds, "busy_s": busy, "speed_factor": f,
              "spans": len(tracer.spans), "trace_file": str(path.relative_to(OUT_DIR.parent.parent))}
    return metrics, detail, tally


def _merge_children(tracer: Tracer, child_dir: Path) -> list:
    """Fold the records of the traced CLI processes into the tracer."""
    imports = []
    for path in sorted(child_dir.glob("*.json")):
        with open(path) as fh:
            rec = json.load(fh)
        path.unlink()
        imports.append(rec["import_s"])
        for layer, c in rec["calls"].items():
            tracer.calls[layer] += c
        for layer, s in rec["seconds"].items():
            tracer.seconds[layer] += s
        base = len(tracer.spans)
        tracer.spans.extend((layer, t0, t1, parent + base if parent >= 0 else -1,
                             " ".join(rec["argv"][:3]))
                            for layer, t0, t1, parent, _op in rec["spans"])
    return imports
