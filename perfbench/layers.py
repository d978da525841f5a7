"""Per-layer tracing from outside the program: wrap public calls, time spans.

Each layer of the serving stack is reached through a handful of public
functions and methods.  :class:`LayerTracer` replaces those bindings
(the module attribute a caller resolves at call time, or the class
attribute a method call resolves) with a wrapper that records one span
per call: layer name, start, end and the enclosing span.  Nothing under
``src/`` is modified or asked to trace itself, and with the tracer
uninstalled the bindings are the originals again.

Spans are kept in flat arrays while the run lasts and written out when
it ends.  A layer's self time is the sum over its spans of the span's
duration minus the durations of its direct children; because every
wrapped call is synchronous on one thread, children nest strictly, so
the self times of all spans plus the time covered by no span add up to
the wall time of the traced interval (see :meth:`LayerTracer.account`).
"""

from __future__ import annotations

import gzip
import importlib
import time
from array import array
from dataclasses import dataclass

#: Relative tolerance of the accounting identity
#: ``sum(self times) + uncovered time == wall time``.
ACCOUNTING_TOLERANCE = 1e-3


@dataclass(frozen=True)
class Binding:
    """One wrapped name: ``module.attr`` or ``module.Class.attr``."""

    layer: str
    target: str
    #: Workloads on which this binding must fire at least once.
    required_on: tuple[str, ...]


ALL = ("warm-zipf", "cold-distinct", "replica-churn")
COLD = ("cold-distinct",)
WARM = ("warm-zipf",)
CHURN = ("replica-churn",)

#: Every wrapped binding, in layer order.  ``parse_pattern`` and the
#: containment entry points are wrapped where their callers imported
#: them, since that is the name those callers resolve.
BINDINGS: tuple[Binding, ...] = (
    Binding("parse", "repro.catalog.server.parse_pattern", ALL),
    Binding("parse", "repro.catalog.replication.parse_pattern", CHURN),
    Binding("server", "repro.catalog.server.CatalogServer.serve_requests",
            WARM + COLD),
    Binding("route", "repro.catalog.catalog.Catalog.answer_many", ALL),
    Binding("node_ids", "repro.catalog.catalog.Catalog.node_ids", ALL),
    Binding("plan", "repro.views.engine.QueryEngine.plan", ALL),
    Binding("intersect", "repro.views.engine.QueryEngine.plan_intersection",
            COLD),
    Binding("rewrite", "repro.core.rewrite.RewriteSolver.solve", ALL),
    Binding("containment", "repro.views.engine.contains", COLD),
    Binding("containment", "repro.views.engine.contains_all", ALL),
    Binding("containment", "repro.core.rewrite.contains", COLD),
    Binding("containment",
            "repro.core.containment.ContainmentBatch.contains", ALL),
    Binding("containment", "repro.views.advisor.contains", ()),
    Binding("execute", "repro.views.engine.QueryEngine.answer_with_view",
            ALL),
    Binding("execute",
            "repro.views.engine.QueryEngine.answer_with_intersection", COLD),
    Binding("execute", "repro.views.engine.QueryEngine.answer_direct", ALL),
    Binding("materialize", "repro.views.store.ViewStore.define_view", ALL),
    Binding("advise", "repro.catalog.catalog.advise_views", ALL),
    Binding("replica.execute",
            "repro.catalog.replication.ReplicaSet.execute", CHURN),
    Binding("replica.define_views",
            "repro.catalog.replication.ReplicaSet.define_views", CHURN),
    Binding("replica.sync", "repro.catalog.replication.ReplicaSet.sync",
            CHURN),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(b.layer for b in BINDINGS))


def _resolve(target: str):
    """``(owner object, attribute name)`` for a dotted binding path."""
    parts = target.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for name in parts[split:-1]:
            owner = getattr(owner, name)
        return owner, parts[-1]
    raise LookupError(f"cannot resolve binding {target!r}")


class LayerTracer:
    """Wraps :data:`BINDINGS` and records one span per wrapped call.

    ``phase(name)`` marks the start of a named interval (set-up, timed
    phase); spans are attributed to the phase open when they started.
    """

    def __init__(self, bindings: tuple[Binding, ...] = BINDINGS) -> None:
        self.bindings = bindings
        self._binding_ids = {b.target: i for i, b in enumerate(bindings)}
        self._layer_of = [LAYERS.index(b.layer) for b in bindings]
        self.calls = [0] * len(bindings)
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.binding = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.phases: list[tuple[str, float, float | None]] = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        for binding in self.bindings:
            owner, attr = _resolve(binding.target)
            original = owner.__dict__[attr] if isinstance(owner, type) else (
                getattr(owner, attr)
            )
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(binding, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close_phase()
        self.uninstall()

    def _wrap(self, binding: Binding, fn):
        binding_id = self._binding_ids[binding.target]
        calls = self.calls
        stack = self._stack
        ids, parents, starts, ends = (
            self.binding, self.parent, self.start, self.end
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[binding_id] += 1
            index = len(starts)
            ids.append(binding_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- phases -----------------------------------------------------------
    def phase(self, name: str) -> None:
        self.close_phase()
        self.phases.append((name, time.perf_counter(), None))

    def close_phase(self) -> None:
        if self.phases and self.phases[-1][2] is None:
            name, begin, _ = self.phases[-1]
            self.phases[-1] = (name, begin, time.perf_counter())

    # -- analysis ---------------------------------------------------------
    def layer_times(self, phase: str) -> dict:
        """Self and outermost-inclusive time per layer within ``phase``.

        A phase may have been entered several times (one set-up per
        round); its wall time is the sum of those intervals.

        Returns ``{"wall": s, "covered": s, "self": {layer: s},
        "inclusive": {layer: s}, "spans": {binding target: n}}`` where
        ``covered`` is the time spent inside any top-level span.
        """
        windows = self._phase_windows(phase)
        count = len(self.start)
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_s = dict.fromkeys(LAYERS, 0.0)
        inclusive = dict.fromkeys(LAYERS, 0.0)
        spans = [0] * len(self.bindings)
        covered = 0.0
        for i in range(count):
            if not any(b <= self.start[i] < f for b, f in windows):
                continue
            layer_id = self._layer_of[self.binding[i]]
            duration = self.end[i] - self.start[i]
            self_s[LAYERS[layer_id]] += duration - child[i]
            spans[self.binding[i]] += 1
            if not self._has_ancestor_in(i, layer_id):
                inclusive[LAYERS[layer_id]] += duration
            if self.parent[i] < 0:
                covered += duration
        return {
            "wall": sum(f - b for b, f in windows),
            "covered": covered,
            "self": self_s,
            "inclusive": inclusive,
            "spans": {
                binding.target: n for binding, n in zip(self.bindings, spans)
            },
        }

    def _has_ancestor_in(self, index: int, layer_id: int) -> bool:
        p = self.parent[index]
        while p >= 0:
            if self._layer_of[self.binding[p]] == layer_id:
                return True
            p = self.parent[p]
        return False

    def _phase_windows(self, phase: str) -> list[tuple[float, float]]:
        windows = [
            (begin, finish)
            for name, begin, finish in self.phases
            if name == phase and finish is not None
        ]
        if not windows:
            raise KeyError(f"no closed {phase!r} phase")
        return windows

    def account(self, phase: str) -> dict:
        """The accounting identity for one phase, checked.

        ``unattributed`` is the part of the phase's wall time covered by
        no span.  Self times must add up to the covered time, so
        ``sum(self) + unattributed`` must equal the wall time within
        :data:`ACCOUNTING_TOLERANCE`; a span that escaped its parent, or
        overlapping spans, would break it.
        """
        times = self.layer_times(phase)
        wall = times["wall"]
        unattributed = wall - times["covered"]
        total = sum(times["self"].values()) + unattributed
        error = abs(total - wall) / wall if wall > 0 else 0.0
        return {
            "wall_s": wall,
            "unattributed_s": unattributed,
            "relative_error": error,
            # Top-level spans overlapping would cover more than the wall.
            "ok": error <= ACCOUNTING_TOLERANCE
            and unattributed >= -ACCOUNTING_TOLERANCE * wall,
        }

    def silent_bindings(self, workload: str) -> list[str]:
        """Bindings required on ``workload`` that never fired."""
        return [
            binding.target
            for binding, calls in zip(self.bindings, self.calls)
            if workload in binding.required_on and calls == 0
        ]

    def write(self, path) -> None:
        """Write every span as ``binding,start,end,parent`` lines (gzip)."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index,layer,binding,start,end,parent\n")
            for i in range(len(self.start)):
                binding = self.bindings[self.binding[i]]
                out.write(
                    f"{i},{binding.layer},{binding.target},"
                    f"{self.start[i]:.9f},{self.end[i]:.9f},"
                    f"{self.parent[i]}\n"
                )
