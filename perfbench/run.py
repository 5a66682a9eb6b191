"""End-to-end query benchmark of the StandOff XQuery engine.

Run from the root of a checkout::

    python3 perfbench/run.py --workload figure6_standoff --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
wraps the engine's layer boundaries (``perfbench/layers.py``) and
reports per-layer metrics instead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Lines before it are the human-readable report.  A wrong answer prints
``"correct": false`` and exits 1.

The engine is imported from ``src/`` of the same checkout; without it
the benchmark exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("figure6_standoff", "serve_xmark", "annotation_updates")

#: End-to-end metrics every workload reports (name -> unit).
END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}

#: Per-layer metrics the workloads measure beside the traced layers.
WORKLOAD_LAYERS = {
    "serve.exec_p50_ms": "ms",
    "serve.exec_p90_ms": "ms",
    "serve.admission_p90_ms": "ms",
    "serve.heavy_share": "ratio",
    "serve.max_in_flight": "count",
    "serve.timeouts": "count",
    "trace.overhead_ms": "ms",
    "error_rate": "ratio",
}


def per_layer_units() -> dict[str, str]:
    from perfbench.layers import LAYER_METRICS

    return {**LAYER_METRICS, **WORKLOAD_LAYERS}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns its :class:`~perfbench.common.Outcome`."""
    if name == "serve_xmark":
        from perfbench import wl_serve

        return wl_serve.run(seed, seconds, trace=trace, root=ROOT)
    from perfbench import layers, wl_annotation, wl_figure6
    from perfbench.common import work_dir

    workload = wl_figure6 if name == "figure6_standoff" else wl_annotation
    if not trace:
        return workload.run(seed, seconds)
    tracer = layers.install(layers.Tracer())
    try:
        outcome = workload.run(seed, seconds, tracer=tracer)
    finally:
        tracer.uninstall()
    outcome.layers.update(layers.layer_metrics(
        tracer.totals("run"), tracer.totals("setup"), outcome.ops,
        layers.shred_cache_delta(tracer)))
    tracer.dump(os.path.join(work_dir(ROOT), f"spans-{name}.json"))
    return outcome


def report(outcome, trace: bool) -> dict:
    """The result record, and the human-readable lines on stdout."""
    error_rate = outcome.failed / max(outcome.attempted, 1)
    for line in outcome.lines:
        print(line)
    print(f"error_rate = {error_rate:.6f} ratio "
          f"({outcome.failed} of {outcome.attempted})")
    if trace:
        values = dict(outcome.layers)
        values["trace.overhead_ms"] = outcome.overhead_ms or 0.0
        values["error_rate"] = error_rate
        units = per_layer_units()
    else:
        values = dict(outcome.e2e)
        values["success_ratio"] = 1.0 - error_rate
        units = END_TO_END
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": float(values.get(name, 0.0)),
                         "unit": unit}
        print(f"{name} = {metrics[name]['value']:.6g} {unit}")
    return {"correct": True, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the engine sources ({SRC}/repro) are missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    from perfbench.common import VerificationError

    try:
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except VerificationError as error:
        print(f"verification failed: {error}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    record = report(outcome, bool(args.trace))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
