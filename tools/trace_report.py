"""Offline analysis of JSONL trace exports (PR 10).

Reads the span records emitted by
:func:`repro.obs.export.export_traces_jsonl` and renders two views:

* a **per-layer breakdown** — for every span name (``serve.request``,
  ``catalog.route``, ``engine.answer``, ...) the call count, total
  wall time, and *self* time (duration minus the duration of direct
  children), so a hot layer is visible even when its children account
  for most of the clock;
* the **slowest requests** — the top-N root spans by duration, each
  with its own per-layer breakdown, for drilling into tail latency.

The loader is deliberately dumb: each line is one JSON object with at
least ``trace_id``, ``span_id``, ``parent_id``, ``name``; ``start`` /
``end`` are optional (structure-only exports get zero durations but
still count spans).  Nothing here imports the live tracer — the report
works on any file matching the schema, including exports from another
machine.

Run with:

    python tools/trace_report.py traces.jsonl [--top N]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import defaultdict
from pathlib import Path

__all__ = [
    "load_records",
    "layer_breakdown",
    "slowest_roots",
    "render_report",
]


def load_records(path: Path | str) -> list[dict]:
    """Parse one span dict per non-blank line of a JSONL export."""
    records: list[dict] = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{number}: not JSON: {exc}") from exc
            if not isinstance(record, dict) or "span_id" not in record:
                raise ValueError(f"{path}:{number}: not a span record")
            records.append(record)
    return records


def _duration(record: dict) -> float:
    start = record.get("start")
    end = record.get("end")
    if start is None or end is None:
        return 0.0
    return max(0.0, float(end) - float(start))


def _children_by_parent(records: list[dict]) -> dict[tuple, list[dict]]:
    """Direct children keyed by ``(trace_id, parent_span_id)``."""
    children: dict[tuple, list[dict]] = defaultdict(list)
    for record in records:
        parent = record.get("parent_id")
        if parent is not None:
            children[(record.get("trace_id"), parent)].append(record)
    return children


def layer_breakdown(records: list[dict]) -> list[dict]:
    """Per-span-name totals, sorted by total time descending.

    ``self`` is the span's duration minus its *direct* children's
    durations (clamped at zero: overlapping batch spans can make the
    children sum exceed the parent when requests share a batch).
    """
    children = _children_by_parent(records)
    layers: dict[str, dict] = {}
    for record in records:
        duration = _duration(record)
        child_time = sum(
            _duration(child)
            for child in children.get(
                (record.get("trace_id"), record.get("span_id")), ()
            )
        )
        entry = layers.setdefault(
            record.get("name", "?"),
            {"name": record.get("name", "?"), "count": 0,
             "total": 0.0, "self": 0.0},
        )
        entry["count"] += 1
        entry["total"] += duration
        entry["self"] += max(0.0, duration - child_time)
    return sorted(
        layers.values(), key=lambda e: (-e["total"], e["name"])
    )


def slowest_roots(records: list[dict], n: int = 10) -> list[dict]:
    """Top-N root spans by duration, each with its subtree breakdown."""
    by_trace: dict = defaultdict(list)
    for record in records:
        by_trace[record.get("trace_id")].append(record)
    roots = [r for r in records if r.get("parent_id") is None]
    roots.sort(key=lambda r: (-_duration(r), r.get("trace_id", "")))
    top: list[dict] = []
    for root in roots[:n]:
        subtree = by_trace[root.get("trace_id")]
        top.append(
            {
                "trace_id": root.get("trace_id"),
                "name": root.get("name"),
                "duration": _duration(root),
                "attrs": root.get("attrs", {}),
                "spans": len(subtree),
                "layers": layer_breakdown(subtree),
            }
        )
    return top


def _fmt_seconds(value: float) -> str:
    return f"{value * 1000:9.3f}ms"


def render_report(records: list[dict], top: int = 10) -> str:
    """Human-readable report text for a batch of span records."""
    lines: list[str] = []
    roots = sum(1 for r in records if r.get("parent_id") is None)
    lines.append(
        f"{len(records)} spans, {roots} request trees"
    )
    lines.append("")
    lines.append("per-layer breakdown")
    lines.append(
        f"  {'layer':<24} {'count':>7} {'total':>11} {'self':>11}"
    )
    for entry in layer_breakdown(records):
        lines.append(
            f"  {entry['name']:<24} {entry['count']:>7} "
            f"{_fmt_seconds(entry['total'])} {_fmt_seconds(entry['self'])}"
        )
    slow = slowest_roots(records, top)
    if slow:
        lines.append("")
        lines.append(f"slowest {len(slow)} requests")
        for rank, root in enumerate(slow, start=1):
            attrs = " ".join(
                f"{key}={value}"
                for key, value in sorted(root["attrs"].items())
            )
            lines.append(
                f"  #{rank} {root['name']} "
                f"{_fmt_seconds(root['duration'])} "
                f"spans={root['spans']}"
                + (f" {attrs}" if attrs else "")
            )
            for entry in root["layers"]:
                lines.append(
                    f"      {entry['name']:<22} {entry['count']:>5} "
                    f"{_fmt_seconds(entry['total'])}"
                )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Summarise a JSONL trace export per layer and "
        "per slow request."
    )
    parser.add_argument("path", type=Path, help="JSONL trace export")
    parser.add_argument(
        "--top", type=int, default=10,
        help="how many slow requests to detail (default 10)",
    )
    args = parser.parse_args(argv)
    try:
        records = load_records(args.path)
    except (OSError, ValueError) as exc:
        print(f"trace_report: {exc}", file=sys.stderr)
        return 1
    if not records:
        print("trace_report: no spans in export", file=sys.stderr)
        return 1
    try:
        print(render_report(records, top=args.top))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``| head``).  Point stdout at devnull so
        # the interpreter's exit-time flush cannot raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
