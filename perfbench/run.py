"""Serving benchmark: warm, cold and replica-with-writes workloads.

Run from the repository root::

    python3 perfbench/run.py --workload warm-zipf --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same workload once untraced and once with every
layer's public entry points wrapped (:mod:`layers`), and reports the
per-layer metrics.  The metric names and units are read from
``BENCHMARK.json`` at the repository root.  Human-readable detail goes
to the lines before the last; the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The program is imported from ``src/`` of the same checkout; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("warm-zipf", "cold-distinct", "replica-churn")
REPLICA_ONLY = (
    "replica.writer_fallback_ratio",
    "replica.records_shipped",
    "max_queue_depth",
    "queue_wait_p50_ms",
    "queue_wait_p99_ms",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(
    name: str, seed: int, seconds: float, *, probe=True, **kwargs
):
    """Run one workload; ``probe`` turns the closed-loop workloads' write
    probes on (replica-churn times its own writes)."""
    import workloads

    if name == "warm-zipf":
        return workloads.warm_zipf(seed, seconds, probe=probe, **kwargs)
    if name == "cold-distinct":
        return workloads.cold_distinct(seed, seconds, probe=probe, **kwargs)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        return workloads.replica_churn(seed, seconds, workdir=workdir, **kwargs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def layer_metrics(tracer, outcome, untraced) -> tuple[dict, str]:
    """Per-layer metrics of one traced run (see ``BENCHMARK.json``)."""
    from fleet import CONTAINMENT_CACHE
    from layers import LAYERS

    timed = tracer.layer_times("timed")
    setup = tracer.layer_times("setup")
    wall = timed["wall"]
    own = timed["self"]
    spans = timed["spans"]
    counters = outcome.layer_counters

    def calls(layer: str, *skip: str) -> int:
        return sum(
            spans[binding.target]
            for binding in tracer.bindings
            if binding.layer == layer and binding.target not in skip
        )

    lookups = calls("containment", "repro.views.engine.contains_all")
    top = max(LAYERS, key=lambda layer: own[layer])
    engine = "repro.views.engine.QueryEngine."
    metrics = {
        "parse.calls": calls("parse"),
        "parse.self_s": own["parse"],
        "parse.share": own["parse"] / wall,
        "server.self_s": own["server"],
        "server.share": own["server"] / wall,
        "route.self_s": own["route"],
        "node_ids.self_s": own["node_ids"],
        "plan.calls": calls("plan"),
        "plan.self_s": own["plan"],
        "plan.share": own["plan"] / wall,
        "intersect.calls": calls("intersect"),
        "intersect.self_s": own["intersect"],
        "intersect.share_of_plan": (
            timed["inclusive"]["intersect"] / timed["inclusive"]["plan"]
            if timed["inclusive"]["plan"]
            else 0.0
        ),
        "rewrite.calls": calls("rewrite"),
        "rewrite.self_s": own["rewrite"],
        "containment.calls": calls("containment"),
        "containment.self_s": own["containment"],
        "containment.share": own["containment"] / wall,
        "containment.cache_hit_ratio": (
            counters["_containment.cache_hits"] / lookups if lookups else 0.0
        ),
        "execute.self_s": own["execute"],
        "execute.calls.view": spans[engine + "answer_with_view"],
        "execute.calls.intersection": spans[engine + "answer_with_intersection"],
        "execute.calls.direct": spans[engine + "answer_direct"],
        "materialize.self_s": setup["self"]["materialize"],
        "advise.self_s": setup["self"]["advise"],
        "replica.execute.self_s": own["replica.execute"],
        "replica.define_views.self_s": own["replica.define_views"],
        "replica.sync.self_s": own["replica.sync"],
        "gc.pause_s": outcome.gc_pause_s,
        "unattributed.share": (wall - timed["covered"]) / wall,
        "tracing_overhead": outcome.timed_s / untraced.timed_s,
        "top_layer.share": own[top] / wall,
    }
    for key, value in counters.items():
        if not key.startswith("_"):
            metrics[key] = value
    # Figures only one workload has (queue wait, replication, cache
    # fill) read 0 on the others.
    for key in REPLICA_ONLY:
        metrics.setdefault(key, 0.0)
    for key, value in outcome.properties.items():
        metrics[f"workload.{key}"] = value
    metrics.setdefault("workload.containment_entries", 0)
    metrics["workload.containment_over_cache"] = (
        metrics["workload.containment_entries"] / CONTAINMENT_CACHE
    )
    for kind in ("view", "intersection", "direct"):
        metrics[f"workload.plan_mix.{kind}"] = (
            outcome.kinds[kind] / sum(outcome.kinds.values())
        )
    return metrics, top


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"perfbench: {spec_path} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }
    if not args.trace:
        outcome = run_workload(args.workload, args.seed, args.seconds)
        values = outcome.metrics()
        correct = outcome.failed == 0 and not outcome.mismatches
        info.update(outcome.sample_counts(), gc_pause_s=outcome.gc_pause_s)
    else:
        from layers import LayerTracer

        # Both runs do the same work: the same units of requests, one
        # set-up each and no write probes.
        half = args.seconds / 2
        untraced = run_workload(
            args.workload, args.seed, half, setups=1, probe=False
        )
        same_writes = (
            {"write_at": set(untraced.write_windows)}
            if args.workload == "replica-churn"
            else {}
        )
        tracer = LayerTracer()
        with tracer:
            outcome = run_workload(
                args.workload, args.seed, half, setups=1, probe=False,
                tracer=tracer, units=untraced.units, **same_writes,
            )
        values, top = layer_metrics(tracer, outcome, untraced)
        accounting = {
            phase: tracer.account(phase) for phase in ("setup", "timed")
        }
        silent = tracer.silent_bindings(args.workload)
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.csv.gz"
        tracer.write(trace_path)
        info.update(
            top_layer=top,
            writes={
                "untraced": len(untraced.writes),
                "traced": len(outcome.writes),
            },
            accounting=accounting,
            silent_bindings=silent,
            trace_file=str(trace_path.relative_to(ROOT)),
        )
        correct = (
            outcome.failed == 0
            and not outcome.mismatches
            and not untraced.mismatches
            and not silent
            and all(check["ok"] for check in accounting.values())
        )
    info.update(
        properties=outcome.properties,
        plan_kinds=dict(outcome.kinds),
        mismatches=outcome.mismatches,
    )
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 3
    print(json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
