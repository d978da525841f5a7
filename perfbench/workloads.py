"""The three benchmark workloads, driven through the public serving APIs.

Every workload runs in one process, inline (``workers=0``), and follows
the same shape: inputs and their oracle answers are made from the seed
first; set-up (catalog build, advise, materialize, warm-up, replica
bootstrap) is timed as ``setup_s``; then the timed phase runs for the
requested seconds over a frozen heap (:func:`timed_phase`).  Each served
answer is compared with the oracle, and a mismatch is a failed request,
reported by name.

* ``warm-zipf`` -- closed loop, windows of 16 requests through
  ``CatalogServer.serve_requests``; every timed request hits the answer
  cache (parse and routing dominate).
* ``cold-distinct`` -- closed loop, one request per call against a fresh
  catalog with cold process-wide containment caches; every request is
  a query never seen before (planning dominates).
* ``replica-churn`` -- closed loop, windows of 16 requests through
  ``CatalogServer.serve(replica_set=ReplicaSet(replicas=2))`` after the
  replicas rejoin from the writer's log, with a
  ``ReplicaSet.define_views`` write every 0.1 s after the first pass.

Throughput, the median latency, writes and set-up are wall durations
(``time.perf_counter``) of the calls that carried them, so I/O and
collector pauses are in them.  The p99 is the process's CPU time
(``time.process_time``) of those calls: on a shared virtual machine
about one call in fifty loses from half a millisecond to five while the
host runs another guest, so the wall-time tail measures the host's other tenants, not the
program (the wall-time p99 is printed beside the result).  Every timing
is scaled to the reference host speed measured while it was taken
(:mod:`speed`); the unscaled figures are printed beside the result.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import math
import random
import resource
import shutil
import statistics
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.catalog import CatalogServer, ReplicaSet, build_catalog
from repro.core.containment import STATS as CONTAINMENT_STATS
from repro.patterns.ast import reset_memo_interning
from repro.patterns.parse import parse_pattern

import fleet as F
from speed import TAIL_ELASTICITY, HostSpeed, block_scales, scale_of

#: Documents of the fixed fleet every workload serves.  The fleet
#: (documents, advised templates, curated half-views) is the same for
#: every seed, so set-up cost is comparable across runs; the seed draws
#: every request and every never-seen query.
FLEET_SEED = 50
DOCUMENTS = 4

#: The front end's batch size, used as the closed-loop window as well.
WINDOW = 16
#: Distinct queries per document in the warm pools (under the 512-entry
#: answer cache).  Replica-churn reads a smaller pool: every distinct
#: query is planned cold on each replica right after it rejoins.
POOL_PER_DOC = 64
REPLICA_POOL_PER_DOC = 32
#: Requests per warm-zipf pass; the timed phase runs whole passes.
PASS_REQUESTS = 4_096
#: Documents and distinct queries per document in one cold round: more
#: distinct queries per document than the answer cache holds.
COLD_DOCUMENTS = 2
COLD_PER_DOC = 560
#: Replica-churn defines one new view every this many seconds, between
#: windows (about one per thousand reads), from the end of the first
#: pass on.  Every write re-reads the writer's whole log to ship its
#: tail, so a write costs more the more writes came before it; a rate in
#: time keeps the number of writes in a run, and so the cost of each,
#: the same whatever the read speed.
WRITE_INTERVAL = 0.1
#: Calls per latency block: the p99 of a block has ten calls above.
BLOCK = 1_000
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5
#: Reference slices timed on each side of a set-up (see :mod:`speed`).
SPEED_SAMPLES = 15
#: Most views a closed-loop run defines between its timed requests
#: (one per :data:`PROBE_INTERVAL` seconds); their latencies give
#: ``write_p50_ms`` there.
WRITE_PROBES = 512
PROBE_INTERVAL = 0.1
#: Seed of the warm pools: the distinct queries a warm workload repeats
#: are part of the fixed fleet; the run's seed draws their order.
POOL_SEED = 7
#: Seed of the views the workloads write, in order.  The views differ
#: widely in size (some select every node), and each replica-churn write
#: re-reads the log of all earlier ones, so a per-run draw would move
#: ``write_p50_ms`` with the seed; like the pools, they are fixed.
VIEW_SEED = 11


@dataclass
class Outcome:
    """What one workload run measured."""

    workload: str
    #: Write latencies as measured, and the calls made before each.
    writes: list[float] = field(default_factory=list)
    write_calls: list[int] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    raw_setups: list[float] = field(default_factory=list)
    answered: int = 0
    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    kinds: Counter = field(default_factory=Counter)
    units: int = 0
    properties: dict = field(default_factory=dict)
    layer_counters: dict = field(default_factory=dict)
    #: Wall time of the timed phases (``tracing_overhead`` compares it).
    timed_s: float = 0.0
    #: Replica-churn: the window count at each write, so that a traced
    #: run can write at the same points as the untraced one.
    write_windows: list[int] = field(default_factory=list)
    gc_pause_s: float = 0.0
    speed: HostSpeed = field(default_factory=HostSpeed)
    #: Per serving call, in order, as measured: its wall seconds, the
    #: process's CPU seconds during it, and the requests it carried.
    #: Every request of a call has the call's latency.
    wall: list[float] = field(default_factory=list)
    cpu: list[float] = field(default_factory=list)
    requests: list[int] = field(default_factory=list)
    #: ``(calls recorded so far, slice CPU seconds)`` for each reference
    #: slice run in the timed phase.
    marks: list[tuple[int, float]] = field(default_factory=list)

    def tick(self) -> None:
        """Sample the host's speed if a slice is due (between calls)."""
        took = self.speed.tick()
        if took is not None:
            self.marks.append((len(self.wall), took))

    def record(self, wall: float, cpu: float, requests: int) -> None:
        """One serving call carried ``requests`` requests."""
        self.wall.append(wall)
        self.cpu.append(cpu)
        self.requests.append(requests)
        self.attempted += requests

    def record_write(self, seconds: float) -> None:
        """One write, made between calls, took ``seconds``."""
        self.writes.append(seconds)
        self.write_calls.append(len(self.wall))

    def start_setup(self) -> float:
        """Sample the host's speed and start timing a set-up."""
        self._before = self.speed.slices(SPEED_SAMPLES)
        return time.perf_counter()

    def record_setup(self, started: float) -> None:
        """The set-up timed from ``started`` just ended: scale it by the
        host's speed on both sides of it."""
        elapsed = time.perf_counter() - started
        around = self._before + self.speed.slices(SPEED_SAMPLES)
        self.raw_setups.append(elapsed)
        self.setups.append(elapsed * scale_of(around))

    def check(self, where: str, got, expected) -> bool:
        if got == expected:
            return True
        if len(self.mismatches) < 20:
            self.mismatches.append(where)
        return False

    def block_scales(self, **elasticity) -> list[float]:
        """Each block's factor to reference speed (see :mod:`speed`)."""
        return block_scales(self.marks, len(self.wall), BLOCK, **elasticity)

    def metrics(self) -> dict:
        scales = self.block_scales()
        view = self.kinds["view"] + self.kinds["intersection"]
        total = sum(self.kinds.values())
        busy = sum(
            wall * scales[index // BLOCK]
            for index, wall in enumerate(self.wall)
        )
        writes = [
            seconds * scales[min(calls // BLOCK, len(scales) - 1)]
            for seconds, calls in zip(self.writes, self.write_calls)
        ]
        return {
            "setup_s": statistics.median(self.setups),
            "throughput_qps": self.answered / busy,
            "latency_p50_ms": block_percentiles(self.wall, scales)[0] * 1e3,
            "latency_p99_ms": block_percentiles(
                self.cpu, self.block_scales(elasticity=TAIL_ELASTICITY)
            )[1] * 1e3,
            "write_p50_ms": statistics.median(writes) * 1e3,
            "view_plan_ratio": view / total,
            "answered_share": 1.0 - self.failed / self.attempted,
            "peak_rss_mb": peak_rss_mb(),
        }

    def sample_counts(self) -> dict:
        """Sample counts, and the figures as measured, for the record."""
        ones = [1.0] * len(self.block_scales())
        wall_p50, wall_tail, blocks = block_percentiles(self.wall, ones)
        _, cpu_tail, _ = block_percentiles(self.cpu, ones)
        return {
            "latency_samples": sum(self.requests),
            "latency_calls": len(self.wall),
            "latency_blocks": blocks,
            "requests_per_call": max(self.requests),
            "write_samples": len(self.writes),
            "setup_samples": len(self.setups),
            "speed": self.speed.summary(),
            "unscaled": {
                "throughput_qps": self.answered / sum(self.wall),
                "latency_p50_ms": wall_p50 * 1e3,
                "latency_p99_ms": cpu_tail * 1e3,
                "wall_p99_ms": wall_tail * 1e3,
                "write_p50_ms": statistics.median(self.writes) * 1e3,
                "setup_s": statistics.median(self.raw_setups),
            },
        }


def block_percentiles(
    samples: list[float], scales: list[float]
) -> tuple[float, float, int]:
    """Latency median and p99 over consecutive blocks of :data:`BLOCK`
    calls, each block's taken at its scale.

    In each block the median and the 99th percentile (with ten calls
    above it) are taken.  The reported median is the mean of the block
    medians, and the reported p99 the median of the block p99s: each
    rests on its block's top ten calls, so a mean would follow the one
    block a burst of slow calls fell on.  Returns ``(p50, p99,
    blocks)``.  A last partial block is left out; fewer calls than one
    block form one block.
    """
    blocks = [
        samples[i:i + BLOCK]
        for i in range(0, len(samples) - BLOCK + 1, BLOCK)
    ] or [samples]
    medians, tails = [], []
    for chunk, scale in zip(blocks, scales):
        p50, tail, _ = percentiles(chunk)
        medians.append(p50 * scale)
        tails.append(tail * scale)
    return statistics.fmean(medians), statistics.median(tails), len(blocks)


def percentiles(samples: list[float]) -> tuple[float, float, float]:
    """Median, and the highest percentile (at most 99) with at least ten
    samples above it, with that percentile: ``(p50, tail, pct)``."""
    ordered = sorted(samples)
    n = len(ordered)
    index = min(math.ceil(0.99 * n) - 1, n - 11)
    if index < 0:
        raise ValueError(f"{n} samples cannot give a tail percentile")
    return statistics.median(ordered), ordered[index], 100.0 * (index + 1) / n


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Collector:
    """Times every pause of Python's cyclic collector in the timed phase.

    The pauses stay in the latencies and the throughput; their total,
    ``pause_s``, is reported as ``gc.pause_s`` so that a change which
    allocates more shows where its time went.
    """

    def __init__(self) -> None:
        self.pause_s = 0.0
        self._started = 0.0

    def __enter__(self) -> "Collector":
        gc.callbacks.append(self._on_collect)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._on_collect)

    def _on_collect(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._started


@contextlib.contextmanager
def timed_phase(tracer, outcome):
    """The timed phase: traced as ``"timed"``, over a frozen heap.

    Everything allocated before it (inputs, oracle answers, the catalogs
    set-up built) is frozen, so collections during the phase scan only
    what serving allocates, as in a server that froze its heap after
    warm-up.
    """
    gc.collect()
    gc.freeze()
    if tracer is not None:
        tracer.phase("timed")
    collector = Collector()
    started = time.perf_counter()
    try:
        with collector:
            yield
    finally:
        outcome.timed_s += time.perf_counter() - started
        if tracer is not None:
            tracer.close_phase()
        gc.unfreeze()
        outcome.gc_pause_s += collector.pause_s


def _cold_process() -> None:
    """Drop the process-wide interning table and every cache keyed by it
    (containment results, engines, pruned forms): a fresh process."""
    reset_memo_interning()


def _engine_totals(counters: dict) -> Counter:
    """Sum the per-document ``EngineStats`` snapshots of ``counters()``."""
    total: Counter = Counter()
    for doc in counters.values():
        total.update(doc["engine"])
    return total


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def engine_layer_counters(before: Counter, after: Counter) -> dict:
    delta = after - before
    executions = (
        delta["direct_answers"] + delta["view_answers"]
        + delta["intersection_answers"]
    )
    return {
        "engine.answer_cache_hit_ratio": _ratio(
            delta["answer_cache_hits"],
            delta["answer_cache_hits"] + executions,
        ),
        "engine.decision_cache_hit_ratio": _ratio(
            delta["decision_cache_hits"],
            delta["decision_cache_hits"] + delta["rewrites_attempted"],
        ),
        "intersect.yield": _ratio(
            delta["intersection_plans"], delta["intersection_attempts"]
        ),
        "rewrite.found_ratio": _ratio(
            delta["rewrites_found"], delta["rewrites_attempted"]
        ),
    }


def containment_counters(before: dict, after: dict) -> dict:
    hits = after["cache_hits"] - before["cache_hits"]
    return {
        "_containment.cache_hits": hits,
        "containment.models_checked": (
            after["canonical_models_checked"]
            - before["canonical_models_checked"]
        ),
    }


class WriteProbe:
    """Times ``Catalog.define_views`` of new views, spread over a run.

    The closed-loop workloads have no writes of their own, so one view
    is defined on a catalog built from the same spec between timed
    requests every so often; spreading the probes over the whole timed
    phase makes their median see the same machine as the reads.
    """

    def __init__(self, spec, outcome: Outcome) -> None:
        self.due = 0.0
        self.catalog = build_catalog(spec)
        self.doc_ids = self.catalog.documents()
        self.views = F.view_stream(VIEW_SEED)
        self.outcome = outcome

    def maybe_write(self) -> None:
        """Define the next view if a probe is due."""
        done = len(self.outcome.writes)
        now = time.perf_counter()
        if now < self.due or done >= WRITE_PROBES:
            return
        self.due = now + PROBE_INTERVAL
        doc_id = self.doc_ids[done % len(self.doc_ids)]
        pattern = parse_pattern(next(self.views))
        t0 = time.perf_counter()
        self.catalog.define_views(doc_id, [pattern])
        self.outcome.record_write(time.perf_counter() - t0)

    def close(self) -> None:
        self.catalog.close()


# ----------------------------------------------------------------------
# warm-zipf
# ----------------------------------------------------------------------

def warm_zipf(
    seed, seconds, *, tracer=None, units=None, setups=None, probe=True
):
    # Requests in a window share one latency: a block is 1000 windows.
    outcome = Outcome("warm-zipf")
    setups = setups or SETUPS
    fleet = F.make_fleet(FLEET_SEED, DOCUMENTS)
    pools = F.zipf_pool(fleet, POOL_SEED, POOL_PER_DOC)
    warmup = [(doc_id, xpath) for doc_id in pools for xpath in pools[doc_id]]
    stream = F.zipf_requests(pools, seed * 1_000, PASS_REQUESTS)
    warm_expected = [fleet.expected(d, x) for d, x in warmup]
    outcome.properties = _stream_properties(stream)

    server = None
    for _ in range(setups):
        if server is not None:
            server.close()
        _cold_process()
        if tracer is not None:
            tracer.phase("setup")
        t0 = outcome.start_setup()
        server = CatalogServer(fleet.spec, workers=0)
        served = server.serve_requests(warmup, batch_size=WINDOW)
        outcome.record_setup(t0)
        # A wrong set-up answer is reported (and fails the run) but is
        # not a timed request.
        for (doc_id, xpath), got, want in zip(
            warmup, served.answer_ids, warm_expected
        ):
            outcome.check(f"warm-up {doc_id} {xpath}", got, want)
    engine_before = _engine_totals(server.counters())
    containment_before = CONTAINMENT_STATS.snapshot()

    probe = WriteProbe(fleet.spec, outcome) if probe else None
    with timed_phase(tracer, outcome):
        deadline = time.perf_counter() + seconds
        clock, cpu = time.perf_counter, time.process_time
        while (outcome.units < units) if units else (clock() < deadline):
            # Every pass draws a new stream from the same pools, so the
            # timed windows are not one seed's few hundred windows
            # repeated.  The oracle answers are cached per pool entry.
            if outcome.units:
                stream = F.zipf_requests(
                    pools, seed * 1_000 + outcome.units, PASS_REQUESTS
                )
            expected = [fleet.expected(d, x) for d, x in stream]
            for start in range(0, len(stream), WINDOW):
                outcome.tick()
                if probe is not None:
                    probe.maybe_write()
                window = stream[start:start + WINDOW]
                t0, c0 = clock(), cpu()
                served = server.serve_requests(window, batch_size=WINDOW)
                outcome.record(clock() - t0, cpu() - c0, len(window))
                for offset, got in enumerate(served.answer_ids):
                    doc_id, xpath = window[offset]
                    if outcome.check(
                        f"{doc_id} {xpath}", got, expected[start + offset]
                    ):
                        outcome.answered += 1
                    else:
                        outcome.failed += 1
                if not outcome.units:
                    # The plan mix of the first pass: fixed by the seed.
                    outcome.kinds.update(served.plan_kinds)
            outcome.units += 1
    outcome.layer_counters = engine_layer_counters(
        engine_before, _engine_totals(server.counters())
    ) | containment_counters(containment_before, CONTAINMENT_STATS.snapshot())
    server.close()
    if probe is not None:
        probe.close()
    return outcome


# ----------------------------------------------------------------------
# cold-distinct
# ----------------------------------------------------------------------

def cold_distinct(
    seed, seconds, *, tracer=None, units=None, setups=None, probe=True
):
    outcome = Outcome("cold-distinct")
    setups = setups or SETUPS
    fleet = F.make_fleet(FLEET_SEED, COLD_DOCUMENTS)
    clock, cpu = time.perf_counter, time.process_time
    probe = WriteProbe(fleet.spec, outcome) if probe else None
    engine_delta: Counter = Counter()
    containment_hits = models = 0
    round_index = 0
    while (round_index < units) if units else (
        outcome.timed_s < seconds or round_index == 0
    ):
        queries = F.distinct_queries(
            fleet, seed * 1_000 + round_index, COLD_PER_DOC
        )
        requests = [
            (doc_id, queries[doc_id][i])
            for i in range(COLD_PER_DOC)
            for doc_id in fleet.doc_ids
        ]
        fleet.forget_answers()
        expected = [fleet.expected(d, x) for d, x in requests]
        if round_index == 0:
            outcome.properties = _stream_properties(requests)
        # Each round needs a fresh catalog; the first round builds
        # ``setups`` times so that ``setup_s`` is a median.
        for attempt in range(setups if round_index == 0 else 1):
            if attempt:
                server.close()
            _cold_process()
            if tracer is not None:
                tracer.phase("setup")
            t0 = outcome.start_setup()
            server = CatalogServer(fleet.spec, workers=0)
            outcome.record_setup(t0)
            if tracer is not None:
                tracer.close_phase()
        engine_before = _engine_totals(server.counters())
        containment_before = CONTAINMENT_STATS.snapshot()
        with timed_phase(tracer, outcome):
            round_kinds: Counter = Counter()
            for index, request in enumerate(requests):
                outcome.tick()
                if probe is not None:
                    probe.maybe_write()
                t0, c0 = clock(), cpu()
                served = server.serve_requests([request], batch_size=1)
                outcome.record(clock() - t0, cpu() - c0, 1)
                if outcome.check(
                    f"{request[0]} {request[1]}",
                    served.answer_ids[0],
                    expected[index],
                ):
                    outcome.answered += 1
                else:
                    outcome.failed += 1
                round_kinds.update(served.plan_kinds)
        if round_index == 0:
            # The plan mix is reported for the first round only, so it
            # depends on the seed and not on how many rounds fit.
            outcome.kinds = round_kinds
            outcome.properties["containment_entries"] = (
                _containment_entries()
            )
        engine_delta += _engine_totals(server.counters()) - engine_before
        after = CONTAINMENT_STATS.snapshot()
        containment_hits += after["cache_hits"] - containment_before["cache_hits"]
        models += (
            after["canonical_models_checked"]
            - containment_before["canonical_models_checked"]
        )
        server.close()
        round_index += 1
    outcome.units = round_index
    outcome.layer_counters = engine_layer_counters(Counter(), engine_delta) | {
        "_containment.cache_hits": containment_hits,
        "containment.models_checked": models,
    }
    if probe is not None:
        probe.close()
    return outcome


def _containment_entries() -> int:
    """Entries in the process-wide containment result cache.

    Its size has no public accessor, so this reads the module's private
    ``_CACHE``; if that name moves, the run fails here rather than
    reporting an empty cache.
    """
    from repro.core import containment

    cache = getattr(containment, "_CACHE", None)
    if cache is None:
        raise RuntimeError(
            "repro.core.containment._CACHE is gone: the benchmark can no "
            "longer measure the containment cache's fill"
        )
    return len(cache)


# ----------------------------------------------------------------------
# replica-churn
# ----------------------------------------------------------------------

def replica_churn(
    seed, seconds, *, tracer=None, units=None, setups=None, workdir,
    write_at=None,
):
    outcome = Outcome("replica-churn")
    setups = setups or SETUPS
    fleet = F.make_fleet(FLEET_SEED, DOCUMENTS)
    pools = F.zipf_pool(fleet, POOL_SEED, REPLICA_POOL_PER_DOC)
    distinct = [(doc_id, xpath) for doc_id in pools for xpath in pools[doc_id]]
    first_pass = F.zipf_requests(pools, seed * 1_000, PASS_REQUESTS)
    views = F.view_stream(VIEW_SEED)
    outcome.properties = _stream_properties(first_pass)

    server = replicas = None
    for attempt in range(setups):
        if server is not None:
            replicas.close()
            server.close()
        root = Path(workdir) / f"replicas-{attempt}"
        shutil.rmtree(root, ignore_errors=True)
        _cold_process()
        if tracer is not None:
            tracer.phase("setup")
        t0 = outcome.start_setup()
        server = CatalogServer(fleet.spec, workers=0)
        replicas = ReplicaSet(fleet.spec, replicas=2, root=root)
        _writer_pass(replicas, distinct)
        for index in range(len(replicas.replicas())):
            replicas.restart(index)
        outcome.record_setup(t0)
    if tracer is not None:
        tracer.close_phase()

    stats_before = replicas.stats_snapshot()
    engine_before = _replica_engine_totals(replicas)
    containment_before = CONTAINMENT_STATS.snapshot()
    probe = _QueueProbe() if tracer is not None else None
    if probe is not None:
        probe.install()
    try:
        with timed_phase(tracer, outcome):
            front_counters = asyncio.run(
                _closed_loop(
                    server, replicas, fleet, pools, seed, seconds, units,
                    views, outcome, probe, write_at,
                )
            )
    finally:
        if probe is not None:
            probe.uninstall()
    outcome.properties["write_share"] = len(outcome.writes) / (
        len(outcome.writes) + outcome.attempted
    )
    stats_after = replicas.stats_snapshot()
    answers = stats_after["replica_answers"] + stats_after["writer_answers"] - (
        stats_before["replica_answers"] + stats_before["writer_answers"]
    )
    outcome.layer_counters = (
        engine_layer_counters(engine_before, _replica_engine_totals(replicas))
        | containment_counters(containment_before, CONTAINMENT_STATS.snapshot())
        | {
            "replica.writer_fallback_ratio": _ratio(
                stats_after["writer_answers"] - stats_before["writer_answers"],
                answers,
            ),
            "replica.records_shipped": (
                stats_after["records_shipped"]
                - stats_before["records_shipped"]
            ),
            "max_queue_depth": front_counters["max_queue_depth"],
        }
    )
    if probe is not None:
        p50, tail, _ = percentiles(probe.waits)
        outcome.layer_counters["queue_wait_p50_ms"] = p50 * 1e3
        outcome.layer_counters["queue_wait_p99_ms"] = tail * 1e3
    replicas.close()
    server.close()
    return outcome


def _replica_engine_totals(replicas: ReplicaSet) -> Counter:
    return sum(
        (_engine_totals(r.catalog.counters()) for r in replicas.replicas()),
        Counter(),
    )


def _writer_pass(replicas: ReplicaSet, requests) -> None:
    """The writer answers every distinct read once."""
    for doc_id, xpath in requests:
        replicas.writer.answer_many(doc_id, [parse_pattern(xpath)])


class _QueueProbe:
    """Times each read from its submission to the start of the
    ``ReplicaSet.execute`` call that carries it.

    The front end keeps one FIFO per document and dispatches batches in
    that order (no deadlines are set, so nothing is shed), so the k-th
    read submitted for a document is the k-th query that document's
    ``execute`` calls carry.
    """

    def __init__(self) -> None:
        self.pending: dict[str, deque[float]] = {}
        self.waits: list[float] = []

    def submitted(self, doc_id: str) -> None:
        self.pending.setdefault(doc_id, deque()).append(time.perf_counter())

    def install(self) -> None:
        self._original = ReplicaSet.execute
        original = self._original

        def execute(replica_set, doc_id, xpaths):
            now = time.perf_counter()
            queue = self.pending[doc_id]
            for _ in xpaths:
                self.waits.append(now - queue.popleft())
            return original(replica_set, doc_id, xpaths)

        ReplicaSet.execute = execute

    def uninstall(self) -> None:
        ReplicaSet.execute = self._original


async def _closed_loop(
    server, replicas, fleet, pools, seed, seconds, units, views, outcome,
    probe, write_at,
):
    """Windows of reads through the replica tier, with writes between.

    Each window's 16 reads are submitted together and awaited.  From the
    end of the first pass, one new view is defined through
    ``ReplicaSet.define_views`` (which ships it to the replicas) every
    :data:`WRITE_INTERVAL` seconds, or after exactly the windows counted
    in ``write_at`` when it is given.  The plan mix is the replicas' own
    executions over the first pass (the front end returns answers
    only), which no write precedes, so it is fixed by the seed.
    """
    clock, cpu = time.perf_counter, time.process_time
    deadline = clock() + seconds
    next_write = math.inf
    windows = 0
    engine_start = _replica_engine_totals(replicas)
    async with server.serve(batch_size=WINDOW, replica_set=replicas) as front:
        while (outcome.units < units) if units else (clock() < deadline):
            stream = F.zipf_requests(
                pools, seed * 1_000 + outcome.units, PASS_REQUESTS
            )
            expected = [fleet.expected(d, x) for d, x in stream]
            for start in range(0, len(stream), WINDOW):
                outcome.tick()
                window = stream[start:start + WINDOW]
                t0, c0 = clock(), cpu()
                futures = []
                for doc_id, xpath in window:
                    if probe is not None:
                        probe.submitted(doc_id)
                    futures.append(await front.submit(doc_id, xpath))
                answers = await asyncio.gather(*futures, return_exceptions=True)
                outcome.record(clock() - t0, cpu() - c0, len(window))
                for offset, got in enumerate(answers):
                    doc_id, xpath = window[offset]
                    if outcome.check(
                        f"{doc_id} {xpath}", got, expected[start + offset]
                    ):
                        outcome.answered += 1
                    else:
                        outcome.failed += 1
                windows += 1
                if (
                    clock() >= next_write if write_at is None
                    else windows in write_at
                ):
                    next_write += WRITE_INTERVAL
                    outcome.write_windows.append(windows)
                    doc_id = fleet.doc_ids[len(outcome.writes) % DOCUMENTS]
                    pattern = parse_pattern(next(views))
                    w0 = clock()
                    replicas.define_views(doc_id, [pattern])
                    outcome.record_write(clock() - w0)
            if not outcome.units:
                delta = _replica_engine_totals(replicas) - engine_start
                outcome.kinds = Counter(
                    view=delta["view_answers"],
                    intersection=delta["intersection_answers"],
                    direct=delta["direct_answers"],
                )
                next_write = clock() + WRITE_INTERVAL
            outcome.units += 1
        return front.counters()


def _stream_properties(requests) -> dict:
    """Repetition and working-set figures of a request stream."""
    per_doc: dict[str, set[str]] = {}
    for doc_id, xpath in requests:
        per_doc.setdefault(doc_id, set()).add(xpath)
    distinct = sum(len(v) for v in per_doc.values())
    largest = max(len(v) for v in per_doc.values())
    return {
        "requests": len(requests),
        "repeat_share": 1.0 - distinct / len(requests),
        "distinct_per_doc": largest,
        "distinct_over_answer_cache": largest / F.ANSWER_CACHE,
        "write_share": 0.0,
    }
