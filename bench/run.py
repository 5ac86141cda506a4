#!/usr/bin/env python3
"""gl2aut benchmark: one workload per run, timed at reference speed.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The library is imported from ./src; no
install is needed.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.  The line
before it holds the raw (unscaled) figures and sample counts.  See
bench/README.md for the workloads, the metrics and the method.
"""

from __future__ import annotations

import argparse
import compileall
import importlib
import json
import os
import sys
import time
from pathlib import Path

import harness as H
import oracle
import tracing
import wl_cli
import wl_curves
import wl_cusp
import wl_normal_form

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = {w.NAME: w for w in (wl_normal_form, wl_cusp, wl_curves, wl_cli)}
SETUP_REPEATS = 5
MODULES = ("ffield", "polyring", "matgroup", "nagao", "reiner", "cosets",
           "curves", "words", "graphs", "cli")


class Lib:
    """The gl2aut modules of one fresh import."""

    def __init__(self):
        for name in [n for n in sys.modules if n == "gl2aut" or n.startswith("gl2aut.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        importlib.import_module("gl2aut.cli")
        self.import_s = time.perf_counter() - t0
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"gl2aut.{name}"))


def set_up(wl):
    """Import the library and build every input SETUP_REPEATS times from
    scratch; the operations of the last repeat are the ones measured.  The
    set-up is in-process work, so it is scaled by in-process slices whatever
    the workload's own reference.  Returns the operations, the raw and scaled
    set-up times and the scaled import times."""
    meter = H.Meter()
    samples, imports = [], []
    for _ in range(SETUP_REPEATS):
        meter.slice()
        t0 = time.perf_counter()
        lib = Lib()
        ops = wl.build(lib)
        samples.append((t0, time.perf_counter() - t0))
        imports.append((t0, lib.import_s))
    meter.slice()
    return ops, [dt for _t0, dt in samples], meter.scaled(samples), meter.scaled(imports)


def end_to_end(mod, tally: H.Tally, meter: H.Meter, setup_raw, setup_scaled):
    def summary(all_ops, setup_s):
        lat = [all_ops[i] for i in tally.done]
        return {"throughput_ops_s": len(lat) / sum(all_ops),
                "latency_p50_ms": 1000 * H.median(lat),
                "latency_tail_ms": 1000 * H.nearest_rank(lat, mod.TAIL_PCT),
                "setup_s": H.median(setup_s)}

    raw = summary([dt for _t0, dt in tally.samples], setup_raw)
    scaled = summary(meter.scaled(tally.samples), setup_scaled)
    scaled["peak_rss_mb"] = H.peak_rss_mb(children=mod.CHILD_PROCESSES)
    units = {"throughput_ops_s": "1/s", "latency_p50_ms": "ms",
             "latency_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
    detail = {"raw": raw, "samples": len(tally.done), "rounds": tally.rounds,
              "tail_pct": mod.TAIL_PCT, "ref_slices": len(meter.slices),
              "ref_mean_ms": 1000 * sum(meter.slices) / len(meter.slices),
              "speed_factor": meter.factor()}
    return {k: {"value": v, "unit": units[k]} for k, v in scaled.items()}, detail


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "gl2aut" / "cli.py").is_file():
        H.log(f"error: no gl2aut sources under {SRC}; run from a checkout")
        return 2
    compileall.compile_dir(str(SRC), quiet=2)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    oracle.self_test()

    mod = WORKLOADS[args.workload]
    wl = mod.Workload(args.seed)
    ops, setup_raw, setup_scaled, imports = set_up(wl)
    meter = H.Meter(*getattr(mod, "REFERENCE", ()))

    if args.trace:
        metrics, detail, tally = tracing.traced_run(
            args.workload, wl, ops, meter, args.seconds, imports)
    else:
        tally = H.measure(ops, meter, args.seconds)
        metrics, detail = end_to_end(mod, tally, meter, setup_raw, setup_scaled)
    for line in tally.problems:
        H.log(f"wrong output: {line}")
    detail.update(workload=args.workload, seed=args.seed,
                  python=sys.version.split()[0])
    print(json.dumps(detail))
    print(json.dumps({"correct": not tally.problems, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
