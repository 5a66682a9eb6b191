"""Workload ``annotation_updates``: annotation writes beside reads.

One client runs a closed loop with the library defaults over a
multi-layer annotation corpus (tokens, sentences, entities, chunks over
one BLOB offset space).  Each round is a write (``insert_nodes`` of a
new entity, alternating with ``delete_nodes`` of a live one), the first
read after it (which pays the shred and region-index rebuild the write
invalidated) and one warm read.  Reads rotate over ``select-narrow``
(FLWOR-nested: one join per entity under the per-iteration strategy),
``select-wide`` and ``reject-wide``.  Every read is checked against the
corpus model, which tracks the writes.

The gated percentiles are those of the read after a write, the
operation this workload exists for; write and warm-read percentiles are
printed beside them.  ``p50_ms`` is the geometric mean of the three read
kinds' own medians, each taken per CPU
(:func:`~perfbench.common.group_p50`), ``p90_ms`` the p90 of all reads
after a write.
"""

from __future__ import annotations

import random
from statistics import median

from perfbench import inputs, layers
from perfbench.common import (ClosedLoop, Outcome, VerificationError,
                              group_p50, latency_lines, load_database,
                              peak_rss_mb, percentile, repeated_setup,
                              reset_peak_rss, setup_lines)

N_TOKENS = 3000
N_ENTITIES = 150
#: Set-ups before the closed loop, and again after it (untraced runs),
#: so that ``setup_s`` samples the host at both ends of the run; it is
#: the geometric mean of each CPU's median.
SETUP_REPEATS = 8
READ_ORDER = ("select-narrow", "select-wide", "reject-wide")
#: Rounds per cycle: every (write kind, read-after-write kind, warm read
#: kind) combination once; the loop stops only after whole cycles, so
#: every run has the same operation mix.
CYCLE = 6
CLASSES = ("update", "read_after_write", "query")

ENTITIES_PATH = f'doc("{inputs.CORPUS_URI}")/corpus/entities'


def run(seed: int, seconds: float, tracer=None) -> Outcome:
    model = inputs.corpus(N_TOKENS, N_ENTITIES, seed)
    xml = model.xml()
    annotations = model.annotation_count
    reset_peak_rss()

    def build():
        return load_database(inputs.CORPUS_URI, xml, model.blob,
                             inputs.READS["select-wide"])

    setups: dict[int, list[float]] = {}
    db = repeated_setup(build, SETUP_REPEATS, setups)
    nodes = db.document(inputs.CORPUS_URI).document.node_count

    overhead = None
    if tracer is not None:
        overhead = layers.calibrate(
            tracer, lambda: [_Read(db, kind)() for kind in READ_ORDER],
            len(READ_ORDER))
        layers.start_run(tracer)
    rng = random.Random(seed)
    loop = ClosedLoop(seconds, tracer)
    rounds = 0
    while not (rounds % CYCLE == 0 and loop.clock.done(rounds)):
        for cls, op in _round(db, model, rng, rounds):
            read = cls != "update"
            ok, result = loop.measure(f"{cls} {op.kind}" if read else cls,
                                      op)
            if ok and read and result != model.expected(op.kind):
                raise VerificationError(
                    f"{op.kind} after {len(model.entities)} entities: "
                    f"{result[:120]!r}")
        rounds += 1
    ops_per_s = loop.finish()
    rss = peak_rss_mb()
    if tracer is None:
        repeated_setup(build, SETUP_REPEATS, setups)

    by_class = {cls: [x for key, samples in loop.samples.items()
                      if key.split()[0] == cls for x in samples]
                for cls in CLASSES}
    raw_kinds = {key: samples for key, samples in loop.samples.items()
                 if key.split()[0] == "read_after_write"}
    raw = by_class["read_after_write"]
    p50 = group_p50({key: samples for key, samples in loop.by_cpu.items()
                     if key[0] in raw_kinds})
    lines = [f"corpus: {len(xml.encode('utf-8')) / 1e6:.2f} MB, {nodes} "
             f"nodes, {annotations} annotations ({N_TOKENS} tokens, "
             f"{N_ENTITIES} entities)",
             f"setup samples by CPU (s): {setup_lines(setups)}",
             f"rounds: {rounds}, live entities at end: "
             f"{len(model.entities)}"]
    for cls in CLASSES:
        lines.extend(latency_lines(cls, by_class[cls]))
    lines.append("read_after_write p50 by kind (ms): " + ", ".join(
        f"{key.split()[1]} {median(samples):.1f}"
        for key, samples in sorted(raw_kinds.items())))
    lines.append(f"read_after_write_p50_ms = {p50:.3f} ms (geometric mean "
                 "of the medians by read kind and CPU)")
    lines.append(f"ops_per_s = {ops_per_s:.4f} 1/s ({loop.completed()} "
                 f"operations in {loop.seconds:.2f} s)")
    return Outcome(
        attempted=loop.attempted, failed=loop.failed, ops=loop.completed(),
        e2e={"setup_s": group_p50(setups),
             "p50_ms": p50,
             "p90_ms": percentile(raw, 90),
             "throughput_per_s": ops_per_s,
             "peak_rss_mb": rss},
        lines=lines, overhead_ms=overhead)


class _Read:
    """A read operation; ``kind`` names its expected answer."""

    def __init__(self, db, kind: str):
        self.db = db
        self.kind = kind

    def __call__(self) -> str:
        return self.db.query(inputs.READS[self.kind]).serialize()


def _round(db, model: inputs.Corpus, rng: random.Random, n: int):
    """The three operations of round *n*: ``(class, operation)``.

    A write applies the same change to the model once the engine has
    made it, so a failed write leaves both unchanged.
    """
    if n % 2 == 0:
        eid, span = model.new_entity(rng)

        def write():
            count = db.insert_nodes(inputs.CORPUS_URI, ENTITIES_PATH,
                                    model.entity_xml(eid, span))
            _expect(count, "insert_nodes")
            model.entities[eid] = span
    else:
        victim = rng.choice(list(model.entities))

        def write():
            count = db.delete_nodes(
                inputs.CORPUS_URI,
                f'doc("{inputs.CORPUS_URI}")//entity[@id="{victim}"]')
            _expect(count, "delete_nodes")
            del model.entities[victim]
    yield "update", write
    yield "read_after_write", _Read(db, READ_ORDER[n % 3])
    yield "query", _Read(db, READ_ORDER[(n + 1) % 3])


def _expect(count: int, what: str) -> None:
    if count != 1:
        raise VerificationError(f"{what} touched {count} nodes, "
                                "expected 1")
