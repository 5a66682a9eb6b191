"""Workload ``figure6_standoff``: the paper's Figure-6 experiment.

One client calls ``Database.query(text)`` with the shipped defaults in a
closed loop over StandOff XMark Q1/Q2/Q6/Q7 plus the StandOff extras
Q5/Q13/Q17 on a permuted, standoffized XMark document.  Each round runs
every query once, in a seeded shuffle: the paper times each query on its
own, so no query is weighted above another.  Query texts repeat, so the
plan cache always hits; there are no writes.

For the same reason ``p50_ms`` is the geometric mean of the seven
queries' own medians, each taken per CPU
(:func:`~perfbench.common.group_p50`); ``p90_ms`` is pooled, because a
query's own p90 would need ten times the run's rounds.
"""

from __future__ import annotations

import random
from statistics import median

from perfbench import inputs, layers
from perfbench.common import (TAIL_SAMPLES, ClosedLoop, Outcome, check,
                              digest, group_p50, latency_lines,
                              load_database, peak_rss_mb, percentile,
                              repeated_setup, reset_peak_rss, setup_lines)

SCALE = 1.0
#: Set-ups before the closed loop, and again after it (untraced runs),
#: so that ``setup_s`` samples the host at both ends of the run; it is
#: the geometric mean of each CPU's median.
SETUP_REPEATS = 6
ROUND = ("q1", "q2", "q6", "q7", "q5", "q13", "q17")
FIGURE6 = ROUND[:4]


def queries() -> dict[str, str]:
    from repro.xmark import extended_query_text, query_text

    return {q: (query_text(q, inputs.XMARK_URI) if q in FIGURE6 else
                extended_query_text(q, inputs.XMARK_URI, standoff=True))
            for q in ROUND}


def run(seed: int, seconds: float, tracer=None) -> Outcome:
    xml, blob = inputs.xmark_standoff(SCALE, seed)
    texts = queries()
    reset_peak_rss()

    def build():
        return load_database(inputs.XMARK_URI, xml, blob, texts["q1"])

    setups: dict[int, list[float]] = {}
    db = repeated_setup(build, SETUP_REPEATS, setups)

    # The oracle: explicit strategy and kernel, outside the timed loop.
    expected = {q: digest(db.query(text, strategy="basic",
                                   kernel="ll").serialize())
                for q, text in texts.items()}

    def read(qid: str):
        return lambda: db.query(texts[qid]).serialize()

    overhead = None
    if tracer is not None:
        overhead = layers.calibrate(tracer,
                                    lambda: [read(q)() for q in ROUND],
                                    len(ROUND))
        layers.start_run(tracer)
    rng = random.Random(seed)
    loop = ClosedLoop(seconds, tracer)
    rounds = 0
    # Every query's median gets TAIL_SAMPLES samples beyond it.
    while not loop.clock.done(rounds, 2 * TAIL_SAMPLES):
        order = list(ROUND)
        rng.shuffle(order)
        for qid in order:
            ok, result = loop.measure(qid, read(qid))
            if ok:
                check(expected[qid], result, qid)
        rounds += 1
    qps = loop.finish()
    rss = peak_rss_mb()
    if tracer is None:
        repeated_setup(build, SETUP_REPEATS, setups)

    latencies = [x for samples in loop.samples.values() for x in samples]
    p50 = group_p50(loop.by_cpu)
    size_mb = len(xml.encode("utf-8")) / 1e6
    nodes = db.document(inputs.XMARK_URI).document.node_count
    lines = [f"document: {size_mb:.2f} MB, {nodes} nodes, scale {SCALE}",
             f"setup samples by CPU (s): {setup_lines(setups)}",
             f"rounds: {rounds}",
             "query p50 by query (ms): " + ", ".join(
                 f"{q} {median(loop.samples[q]):.1f}"
                 for q in ROUND if q in loop.samples),
             f"query_p50_ms = {p50:.3f} ms (geometric mean of the "
             f"{len(loop.by_cpu)} medians by query and CPU)",
             *latency_lines("pooled query", latencies),
             f"query_qps = {qps:.4f} 1/s ({loop.completed()} queries in "
             f"{loop.seconds:.2f} s)"]
    return Outcome(
        attempted=loop.attempted, failed=loop.failed, ops=len(latencies),
        e2e={"setup_s": group_p50(setups),
             "p50_ms": p50,
             "p90_ms": percentile(latencies, 90),
             "throughput_per_s": qps,
             "peak_rss_mb": rss},
        lines=lines, overhead_ms=overhead)
