"""The benchmark's own checks.

    python3 perfbench/selfcheck.py

1. A smoke-sized run of every workload, untraced and traced, prints
   every metric by name with its unit, and the traced runs isolate the
   layers each workload claims (StandOff joins, rebuilds, plan-cache
   misses; see ``workloads.json``).
2. Perturbing one result makes each workload's verifier fail.
3. Without the engine sources the benchmark exits non-zero and prints
   no result.

Exits 0 when every check passes.  Takes a few minutes.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE_SECONDS = 2
SEED = 7


def run_bench(workload: str, trace: int, cwd: str = ROOT
              ) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SMOKE_SECONDS), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def smoke(failures: list[str]) -> None:
    from perfbench.run import END_TO_END, WORKLOADS, per_layer_units

    traced = {}
    for workload in WORKLOADS:
        for trace, units in ((0, END_TO_END), (1, per_layer_units())):
            proc = run_bench(workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}\n"
                                f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                continue
            record = json.loads(proc.stdout.strip().splitlines()[-1])
            if not record["correct"] or record["failed"]:
                failures.append(f"{label}: {record['failed']} failed")
            if set(record["metrics"]) != set(units):
                failures.append(f"{label}: metrics differ: "
                                f"{sorted(set(record['metrics']) ^ set(units))}")
            for name, unit in units.items():
                if not re.search(rf"^{re.escape(name)} = \S+ "
                                 rf"{re.escape(unit)}$", proc.stdout, re.M):
                    failures.append(f"{label}: {name} not printed "
                                    f"with unit {unit}")
            if trace:
                traced[workload] = {k: v["value"]
                                    for k, v in record["metrics"].items()}
            else:
                for name, value in record["metrics"].items():
                    if value["value"] <= 0:
                        failures.append(f"{label}: {name} is "
                                        f"{value['value']}")
            print(f"ok  {label}", flush=True)
    if len(traced) != len(WORKLOADS):
        return
    fig, srv, ann = (traced[w] for w in WORKLOADS)
    claims = [
        ("standoff_join.calls > 0 on figure6_standoff",
         fig["standoff_join.calls"] > 0),
        ("standoff_join.calls > 0 on annotation_updates",
         ann["standoff_join.calls"] > 0),
        ("standoff_join.calls == 0 on serve_xmark",
         srv["standoff_join.calls"] == 0),
        ("build.invalidations > 0 only on annotation_updates",
         ann["build.invalidations"] > 0
         and fig["build.invalidations"] == 0
         and srv["build.invalidations"] == 0),
        ("plan_cache.hit_ratio lower on serve_xmark than figure6_standoff",
         srv["plan_cache.hit_ratio"] < fig["plan_cache.hit_ratio"]),
    ]
    for claim, holds in claims:
        print(f"{'ok ' if holds else 'FAIL'} {claim}", flush=True)
        if not holds:
            failures.append(claim)


def perturbation(failures: list[str]) -> None:
    """Each verifier must reject one wrong answer."""
    from perfbench import wl_annotation, wl_figure6, wl_serve
    from perfbench.common import VerificationError
    from repro.xquery import engine

    original_query = engine.Database.query
    calls = [0, 0]                      # calls with defaults, the one to spoil

    def wrong_query(self, text, **kwargs):
        result = original_query(self, text, **kwargs)
        if "strategy" not in kwargs:
            calls[0] += 1
            if calls[0] == calls[1]:
                return engine.QueryResult(list(result)[:-1] + ["perturbed"])
        return result

    original_oracle = wl_serve.oracle

    def wrong_oracle(xml):
        return {text: "0" * 64 for text in original_oracle(xml)}

    # The library workloads' set-up makes one default query per repeat;
    # the third query of the measured loop gets the wrong result.
    cases = (
        ("figure6_standoff", wl_figure6.SETUP_REPEATS + 3,
         lambda: wl_figure6.run(SEED, SMOKE_SECONDS)),
        ("annotation_updates", wl_annotation.SETUP_REPEATS + 3,
         lambda: wl_annotation.run(SEED, SMOKE_SECONDS)),
        ("serve_xmark", 0,
         lambda: wl_serve.run(SEED, SMOKE_SECONDS, trace=False,
                              root=ROOT)),
    )
    for workload, spoil, thunk in cases:
        engine.Database.query = wrong_query
        wl_serve.oracle = wrong_oracle
        calls[:] = [0, spoil]
        try:
            thunk()
        except VerificationError as error:
            print(f"ok  {workload} rejects a perturbed result "
                  f"({str(error)[:60]}...)", flush=True)
        else:
            failures.append(f"{workload}: perturbed result accepted")
        finally:
            engine.Database.query = original_query
            wl_serve.oracle = original_oracle


def without_sources(failures: list[str]) -> None:
    """A directory with only BENCHMARK.json and perfbench/ must fail."""
    from perfbench.common import work_dir

    with tempfile.TemporaryDirectory(dir=work_dir(ROOT)) as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("figure6_standoff", 0, cwd=tmp)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        failures.append("runs without the engine sources")
    else:
        print(f"ok  exits {proc.returncode} without the engine sources",
              flush=True)


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    failures: list[str] = []
    without_sources(failures)
    perturbation(failures)
    smoke(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selfcheck", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
