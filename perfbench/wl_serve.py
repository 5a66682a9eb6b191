"""Workload ``serve_xmark``: JSON-lines TCP serving at an offered rate.

The server is a child process started as users start it, ``python -m
repro.cli --load xmark.xml --serve --port 0`` with the shipped flags.
One asyncio client drives it in an open loop over up to ``nproc``
pipelined connections with a seeded mix of point lookups (literals drawn
from more distinct texts than the plan cache holds), XMark queries
(Q4 among them, whose ``<<`` the loop-lifted strategy rejects) and
``//open_auction`` scans that admission control sends to the heavy lane.

Each request is timed from when it was *due*, so a stall also charges
the requests queued behind it.  The run first offers a fixed rate
(``serve p50/p90``), then steps the rate up to find the highest one
whose p90 stays within the latency limit without a growing backlog.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import sys
import time
from dataclasses import dataclass
from statistics import median

from perfbench import inputs
from perfbench.common import (Outcome, check, digest, group_p50,
                              latency_lines, peak_rss_mb, percentile,
                              work_dir)

SCALE = 0.5
#: Server starts before the run, and again after it: ``setup_s`` is
#: their median, so it samples the host at both ends of the run.
SETUP_REPEATS = 4
#: Offered rate of the fixed-rate phase (requests per second): about
#: 15% of the server's capacity for this mix (the rate search finds
#: 30-45 requests/s at the shipped defaults on a 2-CPU x86-64 host).
#: Heavy requests then keep the server busy about 15% of the time, so
#: well over half of the requests run alone and the median is a
#: request's own latency; from about 8 requests/s on, the median moves
#: onto requests slowed by a concurrent heavy one and follows the
#: host's speed.
FIXED_RATE = 6.0
#: Latency limit on the p90 for ``serve_max_qps`` (ms).
LIMIT_MS = 500.0
#: Requests per rate step of the search and of the fixed-rate phase:
#: at least 100, so the p90 has 10 samples beyond it.
MIN_REQUESTS = 100
#: Share of ``--seconds`` spent at the fixed rate; the rest searches.
FIXED_SHARE = 0.5
#: Least length of one rate step of the search (s).
STEP_SECONDS = 3.0
#: First step's rate as a multiple of the measured service rate, the
#: factor between steps on the way up, and on the way down.  A bracket
#: of 1.2 bisected once is 10% wide, finer than the metric's bound.
LADDER_START, LADDER_UP, LADDER_DOWN = 0.8, 1.2, 1 / 1.2
MAX_STEPS = 10
#: Calibration requests (traced runs): sent one at a time.
CALIBRATION = 24
REPLY_TIMEOUT = 60.0
STARTUP_TIMEOUT = 120.0
STOP_TIMEOUT = 20.0

XMARK_QUERIES = ("q2", "q3", "q4", "q5", "q13", "q17")
#: Slots of six point lookups and one other request: the 6:1
#: point:scan shape of the repository's serving benchmark
#: (``scenario_serving`` in ``benchmarks/run_all.py``, repeated runs of
#: six lookups and a scan), the shape admission control is built for.
#: Every distinct lookup text is equally likely (a uniform key
#: popularity, which also makes the plan cache's working set as large
#: as it can be), so a slot's lookups split between the two templates
#: as the document's persons and open auctions do.  The slots' other
#: requests cycle through the XMark queries and the scan in shuffled
#: order, and each slot is shuffled, so every stretch of a run offers
#: the same mix.
OTHERS = XMARK_QUERIES + ("scan",)
#: The kinds ``p50_ms`` combines (:func:`~perfbench.common.group_p50`):
#: the two lookup templates, six of every seven requests.  A person
#: lookup answers in a few milliseconds, an auction lookup (a
#: descendant scan) in tens, so the median of all latencies pooled sits
#: on the person lookups' tail where it meets the cheap XMark queries.
#: The other kinds have too few requests at the fixed rate for a median
#: of their own; ``p90_ms`` and ``throughput_per_s`` cover them.
LOOKUPS = ("person", "auction")
POINTS_PER_SLOT = 6
SLOT_SIZE = POINTS_PER_SLOT + 1
SCAN_THRESHOLDS = (1, 2, 3, 4)

PERSON = ('doc("{uri}")/site/people/person[@id="person{n}"]'
          '/name/text()')
AUCTION = 'doc("{uri}")//open_auction[@id="open_auction{n}"]/bidder[1]'
SCAN = 'count(doc("{uri}")//open_auction[count(.//bidder) >= {k}])'
#: Batched oracle queries: one reply per key holds the lookup's answer.
PERSON_ORACLE = ('for $p in doc("{uri}")/site/people/person '
                 'return <r k="{{$p/@id}}">{{$p/name/text()}}</r>')
AUCTION_ORACLE = ('for $a in doc("{uri}")//open_auction '
                  'return <r k="{{$a/@id}}">{{$a/bidder[1]}}</r>')


def xmark_texts() -> dict[str, str]:
    from repro.xmark import extended_query_text

    texts = {q: extended_query_text(q, inputs.XMARK_URI)
             for q in XMARK_QUERIES if q != "q2"}
    texts["q2"] = (f'for $b in doc("{inputs.XMARK_URI}")/site/open_auctions'
                   '/open_auction return <increase>'
                   '{$b/bidder[1]/increase/text()}</increase>')
    return texts


class Mix:
    """The seeded request generator: shuffled decks of request kinds,
    lookup literals drawn uniformly from every person and auction."""

    def __init__(self, seed: int, persons: int, auctions: int):
        self.rng = random.Random(seed)
        self.persons = persons
        self.auctions = auctions
        self.xmark = xmark_texts()
        n_person = round(POINTS_PER_SLOT * persons / (persons + auctions))
        self.points = (("person",) * n_person
                       + ("auction",) * (POINTS_PER_SLOT - n_person))
        self.others: list[str] = []
        self.slot: list[str] = []

    def kinds(self, n: int) -> list[str]:
        out = []
        for _ in range(n):
            if not self.slot:
                if not self.others:
                    self.others = list(OTHERS)
                    self.rng.shuffle(self.others)
                self.slot = [*self.points, self.others.pop()]
                self.rng.shuffle(self.slot)
            out.append(self.slot.pop())
        return out

    def take(self, n: int, kinds: list[str] | None = None
             ) -> list[tuple[str, str]]:
        """*n* requests; *kinds* fixes their kinds (literals are still
        drawn fresh)."""
        out = []
        uri = inputs.XMARK_URI
        for kind in kinds[:n] if kinds is not None else self.kinds(n):
            if kind == "person":
                text = PERSON.format(uri=uri,
                                     n=self.rng.randrange(self.persons))
            elif kind == "auction":
                text = AUCTION.format(uri=uri,
                                      n=self.rng.randrange(self.auctions))
            elif kind == "scan":
                text = SCAN.format(uri=uri,
                                   k=self.rng.choice(SCAN_THRESHOLDS))
            else:
                text = self.xmark[kind]
            out.append((kind, text))
        return out


def oracle(xml: str) -> dict[str, str]:
    """Digest of every request text's answer, from the explicit oracle
    (``strategy="basic", kernel="ll"``); lookups come from one batched
    query per template."""
    from repro.xquery import Database
    from repro.xquery.engine import QueryResult

    db = Database()
    db.add_document(inputs.XMARK_URI, xml)

    def ask(text):
        return db.query(text, strategy="basic", kernel="ll")

    uri = inputs.XMARK_URI
    expected = {text: digest(ask(text).serialize())
                for text in xmark_texts().values()}
    for k in SCAN_THRESHOLDS:
        text = SCAN.format(uri=uri, k=k)
        expected[text] = digest(ask(text).serialize())
    for template, batch, prefix in (
            (PERSON, PERSON_ORACLE, "person"),
            (AUCTION, AUCTION_ORACLE, "open_auction")):
        for row in ask(batch.format(uri=uri)):
            n = row.get_attribute("k")[len(prefix):]
            expected[template.format(uri=uri, n=n)] = digest(
                QueryResult(row.children).serialize())
    return expected


# ----------------------------------------------------------------------
# the server process and the client connections
# ----------------------------------------------------------------------

class Server:
    """One ``repro.cli --serve`` child process."""

    def __init__(self, proc, host: str, port: int, setup_s: float):
        self.proc = proc
        self.host = host
        self.port = port
        self.setup_s = setup_s

    @classmethod
    async def start(cls, root: str, path: str, warm_text: str,
                    spans_path: str | None = None) -> "Server":
        """Spawn the server; returns once the warm-up query answered."""
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        cli = ["--load", path, "--serve", "--port", "0"]
        if spans_path is None:
            argv = [sys.executable, "-m", "repro.cli", *cli]
        else:
            launcher = os.path.join(root, "perfbench", "serve_launcher.py")
            argv = [sys.executable, launcher, spans_path, "--", *cli]
        start = time.perf_counter()
        proc = await asyncio.create_subprocess_exec(
            *argv, env=env, cwd=root, stdout=asyncio.subprocess.PIPE,
            stdin=asyncio.subprocess.DEVNULL)
        try:
            host, port = await asyncio.wait_for(_bound_address(proc),
                                                STARTUP_TIMEOUT)
            conn = await Connection.open(host, port)
            try:
                reply = await conn.request(warm_text)
            finally:
                await conn.close()
            if not reply[0].get("ok"):
                raise RuntimeError(f"warm-up query failed: {reply[0]}")
        except BaseException:
            await _stop(proc)
            raise
        return cls(proc, host, port, time.perf_counter() - start)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def mark_run(self) -> None:
        """Tell a traced server that the measured phase starts."""
        self.proc.send_signal(signal.SIGUSR1)

    async def stop(self) -> None:
        await _stop(self.proc)


async def _bound_address(proc) -> tuple[str, int]:
    while True:
        line = await proc.stdout.readline()
        if not line:
            raise RuntimeError("server exited before serving")
        text = line.decode().strip()
        if text.startswith("serving on "):
            host, _sep, port = text[len("serving on "):].rpartition(":")
            return host, int(port)


async def _stop(proc) -> None:
    """SIGINT (the CLI shuts down cleanly on it), then wait; kill if
    it does not exit."""
    if proc.returncode is None:
        proc.send_signal(signal.SIGINT)
        try:
            await asyncio.wait_for(proc.wait(), STOP_TIMEOUT)
        except asyncio.TimeoutError:
            proc.kill()
            await proc.wait()
    if proc.stdout is not None:
        await proc.stdout.read()


class Connection:
    """One pipelined JSON-lines connection; replies may come out of
    order and are matched by request id."""

    _ids = iter(range(1, sys.maxsize))

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.pending: dict[int, asyncio.Future] = {}
        self.reading = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port,
                                                       limit=1 << 26)
        return cls(reader, writer)

    def send(self, payload: dict) -> asyncio.Future:
        rid = next(self._ids)
        future = asyncio.get_running_loop().create_future()
        self.pending[rid] = future
        self.writer.write(json.dumps({**payload, "id": rid}).encode()
                          + b"\n")
        return future

    async def request(self, text: str) -> tuple[dict, float]:
        sent = time.perf_counter()
        reply, received = await asyncio.wait_for(
            self.send({"op": "query", "query": text}), REPLY_TIMEOUT)
        return reply, received - sent

    async def _read_loop(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                break
            received = time.perf_counter()
            reply = json.loads(line)
            future = self.pending.pop(reply.get("id"), None)
            if future is not None and not future.done():
                future.set_result((reply, received))
        for future in self.pending.values():
            if not future.done():
                future.set_exception(ConnectionError("server closed"))

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass
        self.reading.cancel()
        try:
            await self.reading
        except asyncio.CancelledError:
            pass
        for future in self.pending.values():
            if not future.done():
                future.cancel()
            elif not future.cancelled():
                future.exception()      # retrieved: nobody awaits it now


# ----------------------------------------------------------------------
# offered load
# ----------------------------------------------------------------------

@dataclass(slots=True)
class Sample:
    """One request of an offered load (latency from its due time)."""

    kind: str
    due: float
    sent: float
    latency_ms: float | None
    exec_ms: float | None
    lane: str | None
    ok: bool


async def offer(conns: list[Connection], requests, rate: float,
                expected: dict[str, str]) -> list[Sample]:
    """Send *requests* at *rate* per second (open loop); wait for every
    reply and check it.  Latency runs from each request's due time."""
    start = time.perf_counter()
    inflight = []
    for i, (kind, text) in enumerate(requests):
        due = start + i / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        sent = time.perf_counter()
        future = conns[i % len(conns)].send({"op": "query", "query": text})
        inflight.append((kind, text, due, sent, future))
    samples = []
    for kind, text, due, sent, future in inflight:
        try:
            reply, received = await asyncio.wait_for(
                future, max(1.0, sent + REPLY_TIMEOUT - time.perf_counter()))
        except (asyncio.TimeoutError, ConnectionError):
            samples.append(Sample(kind, due, sent, None, None, None, False))
            continue
        ok = bool(reply.get("ok"))
        if ok:
            check(expected[text], reply["result"], text)
        samples.append(Sample(kind, due, sent,
                              (received - due) * 1000.0,
                              reply.get("elapsed_ms"), reply.get("lane"),
                              ok))
    return samples


def fixed_count(seconds: float) -> int:
    """Requests of the fixed-rate phase: whole slots, at least
    ``MIN_REQUESTS``."""
    n = max(MIN_REQUESTS, FIXED_RATE * seconds * FIXED_SHARE)
    return SLOT_SIZE * -(-int(n) // SLOT_SIZE)


def _score(samples: list[Sample]) -> float:
    """A step's p90 latency, or the median of its last third when that
    is higher (a growing backlog); failures count as missing the limit.
    The step passes when the score is within the limit."""
    latencies = [s.latency_ms if s.ok else float("inf") for s in samples]
    return max(percentile(latencies, 90),
               percentile(latencies[-max(1, len(latencies) // 3):], 50))


@dataclass
class SearchResult:
    """The rate search's answer and its bookkeeping."""

    rate: float
    #: False when no step met the limit (``rate`` is then the lowest
    #: rate tried)
    passed: bool
    attempted: int
    failed: int
    lines: list[str]


async def search(conns, mix: Mix, base_rate: float, expected,
                 budget: float) -> SearchResult:
    """The highest offered rate meeting the limit.

    Steps the rate from ``LADDER_START * base_rate`` up or down until
    one step passes and a higher one fails, then bisects that bracket,
    for as long as *budget* seconds last (checked before every step
    after the first); interpolates the p90 linearly inside the final
    bracket.  Each step offers at least ``MIN_REQUESTS`` requests.
    """
    deadline = time.perf_counter() + budget
    lines = []
    lo = hi = None                      # (rate, score) pass / fail
    rate = base_rate * LADDER_START
    attempted = failed = 0
    # Every step offers the same sequence of request kinds, so steps
    # differ in rate, not in the order heavy requests arrive.
    kinds: list[str] = []
    for step in range(MAX_STEPS):
        if step and time.perf_counter() >= deadline:
            break
        n = max(MIN_REQUESTS, round(rate * STEP_SECONDS))
        kinds += mix.kinds(max(0, n - len(kinds)))
        samples = await offer(conns, mix.take(n, kinds), rate, expected)
        attempted += len(samples)
        failed += sum(not s.ok for s in samples)
        score = _score(samples)
        lines.append(f"search step: {rate:.3f} 1/s, {n} requests -> "
                     f"p90 {score:.1f} ms")
        if score <= LIMIT_MS:
            lo = max(lo or (0.0, 0.0), (rate, score))
        else:
            hi = min(hi or (float("inf"), 0.0), (rate, score))
        if lo is None:
            rate *= LADDER_DOWN
        elif hi is None:
            rate *= LADDER_UP
        else:
            rate = (lo[0] * hi[0]) ** 0.5
    if lo is None:
        lines.append("search: no step met the limit")
        return SearchResult(hi[0], False, attempted, failed, lines)
    if hi is None:
        lines.append("search: every step met the limit; the rate is a "
                     "lower bound")
        return SearchResult(lo[0], True, attempted, failed, lines)
    # A step with a failed request scores infinite: then the limit is
    # taken as crossed half-way through the bracket.
    frac = 0.5 if hi[1] == float("inf") \
        else (LIMIT_MS - lo[1]) / (hi[1] - lo[1])
    return SearchResult(lo[0] + (hi[0] - lo[0]) * frac, True, attempted,
                        failed, lines)


async def closed_loop(conn: Connection, requests) -> float:
    """Send *requests* one at a time; returns the total seconds."""
    start = time.perf_counter()
    for _kind, text in requests:
        await conn.request(text)
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------

def run(seed: int, seconds: float, *, trace: bool, root: str) -> Outcome:
    # A shell starts background jobs with SIGINT ignored, and children
    # inherit an ignored signal, which would leave the server deaf to
    # the SIGINT that stops it cleanly.  A handled signal is reset to
    # the default in the child, where Python turns it into
    # KeyboardInterrupt again.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    return asyncio.run(_run(seed, seconds, trace, root))


async def _run(seed: int, seconds: float, trace: bool, root: str
               ) -> Outcome:
    xml = inputs.xmark_inline(SCALE, seed)
    work = work_dir(root)
    path = os.path.join(work, inputs.XMARK_URI)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(xml)
    from repro.xmldb.parser import parse_document

    document = parse_document(xml)
    persons = sum(1 for node in document.descendants()
                  if getattr(node, "tag", None) == "person")
    auctions = sum(1 for node in document.descendants()
                   if getattr(node, "tag", None) == "open_auction")
    nodes = document.node_count
    del document
    expected = oracle(xml)
    mix = Mix(seed, persons, auctions)
    warm = mix.take(1)[0][1]
    lines = [f"document: {len(xml.encode('utf-8')) / 1e6:.2f} MB, "
             f"{nodes} nodes, scale {SCALE}; {persons} persons, "
             f"{auctions} open auctions"]
    n_conns = max(1, min(2, os.cpu_count() or 1))

    if trace:
        return await _traced(root, path, warm, mix, expected, seconds,
                             n_conns, lines)

    setups = await _setup_times(root, path, warm, SETUP_REPEATS - 1)
    server = await Server.start(root, path, warm)
    setups.append(server.setup_s)
    conns = []
    try:
        conns = [await Connection.open(server.host, server.port)
                 for _ in range(n_conns)]
        start = time.perf_counter()
        fixed = await offer(conns, mix.take(fixed_count(seconds)),
                            FIXED_RATE, expected)
        done = [s for s in fixed if s.ok]
        mean_exec = sum(s.exec_ms for s in done) / max(1, len(done))
        found = await search(
            conns, mix, 1000.0 / max(mean_exec, 1e-3), expected,
            seconds - (time.perf_counter() - start))
        rss = server.peak_rss_mb()
    finally:
        for conn in conns:
            await conn.close()
        await server.stop()
    setups += await _setup_times(root, path, warm, SETUP_REPEATS)

    latencies = [s.latency_ms for s in done]
    p50 = group_p50({kind: [s.latency_ms for s in done if s.kind == kind]
                     for kind in LOOKUPS})
    lateness = [(s.sent - s.due) * 1000.0 for s in fixed]
    kinds = sorted({s.kind for s in done})
    lines.append("server exec p50 by kind (ms): " + ", ".join(
        f"{kind} {median([s.exec_ms for s in done if s.kind == kind]):.1f}"
        for kind in kinds))
    lines += [f"setup samples (s): {[round(s, 4) for s in setups]}",
              f"offered rate {FIXED_RATE} 1/s over {n_conns} connections, "
              f"latency limit {LIMIT_MS} ms",
              *latency_lines("serve", latencies),
              f"serve_lookup_p50_ms = {p50:.3f} ms (geometric mean of the "
              f"{' and '.join(LOOKUPS)} lookups' medians)",
              *latency_lines("generator_lateness", lateness),
              f"service rate estimate {1000.0 / max(mean_exec, 1e-3):.3f}"
              " 1/s", *found.lines,
              f"serve_max_qps = {found.rate:.4f} 1/s"]
    # Every request counts, and the search as one more operation that
    # fails when no rate met the limit.
    return Outcome(
        attempted=len(fixed) + found.attempted + 1,
        failed=len(fixed) - len(done) + found.failed + (not found.passed),
        ops=len(done),
        e2e={"setup_s": median(setups),
             "p50_ms": p50,
             "p90_ms": percentile(latencies, 90),
             "throughput_per_s": found.rate,
             "peak_rss_mb": rss},
        lines=lines)


async def _setup_times(root, path, warm, n: int) -> list[float]:
    """Start and stop the server *n* times; returns each ``setup_s``."""
    seconds = []
    for _ in range(n):
        server = await Server.start(root, path, warm)
        try:
            seconds.append(server.setup_s)
        finally:
            await server.stop()
    return seconds


async def _traced(root, path, warm, mix, expected, seconds, n_conns,
                  lines) -> Outcome:
    """Traced run: tracing overhead from the same closed-loop requests
    against an untraced and a traced server, then the fixed-rate phase
    against the traced server, whose spans are read back."""
    from perfbench import layers

    calibration = mix.take(CALIBRATION)
    server = await Server.start(root, path, warm)
    try:
        conn = await Connection.open(server.host, server.port)
        await closed_loop(conn, calibration)
        untraced = await closed_loop(conn, calibration)
        await conn.close()
    finally:
        await server.stop()

    spans_path = os.path.join(work_dir(root), "spans-serve_xmark.json")
    server = await Server.start(root, path, warm, spans_path=spans_path)
    conns = []
    try:
        conns = [await Connection.open(server.host, server.port)]
        await closed_loop(conns[0], calibration)
        traced = await closed_loop(conns[0], calibration)
        conns += [await Connection.open(server.host, server.port)
                  for _ in range(n_conns - 1)]
        server.mark_run()
        n_fixed = fixed_count(seconds)
        fixed = await offer(conns, mix.take(n_fixed), FIXED_RATE, expected)
        stats, _received = await asyncio.wait_for(
            conns[0].send({"op": "stats"}), REPLY_TIMEOUT)
    finally:
        for conn in conns:
            await conn.close()
        await server.stop()

    with open(spans_path, encoding="utf-8") as handle:
        dumped = json.load(handle)
    done = [s for s in fixed if s.ok]
    totals = dumped["totals"]

    def phase(name):
        got = totals.get(name, {"agg": {}, "counters": {}})
        return got["agg"], got["counters"]

    layer = layers.layer_metrics(phase("run"), phase("setup"), len(done),
                                 tuple(dumped["shred_cache"]))
    exec_ms = [s.exec_ms for s in done]
    layer.update({
        "serve.exec_p50_ms": percentile(exec_ms, 50),
        "serve.exec_p90_ms": percentile(exec_ms, 90),
        "serve.admission_p90_ms": percentile(
            [s.latency_ms - (s.sent - s.due) * 1000.0 - s.exec_ms
             for s in done], 90),
        "serve.heavy_share": sum(s.lane == "heavy" for s in done)
        / max(1, len(done)),
        "serve.max_in_flight": stats["stats"]["max_in_flight"],
        "serve.timeouts": stats["stats"]["timeouts"],
    })
    lines += [*latency_lines("serve_traced", [s.latency_ms for s in done]),
              f"calibration: {CALIBRATION} requests, untraced "
              f"{untraced:.3f} s, traced {traced:.3f} s",
              f"spans: {len(dumped['spans'])} kept, {dumped['dropped']} "
              "dropped"]
    return Outcome(attempted=len(fixed), failed=len(fixed) - len(done),
                   ops=len(done), e2e={}, lines=lines,
                   overhead_ms=(traced - untraced) * 1000.0 / CALIBRATION,
                   layers=layer)
