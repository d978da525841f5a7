"""The repo's stdlib tooling: ``tools/lint_exceptions.py`` and
``tools/trace_report.py``."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_lint():
    spec = importlib.util.spec_from_file_location(
        "lint_exceptions", REPO_ROOT / "tools" / "lint_exceptions.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestLintExceptions:
    def test_repository_is_clean(self):
        lint = _load_lint()
        assert lint.run_lint(lint.default_paths()) == []

    def test_flags_bare_except(self, tmp_path):
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text("try:\n    pass\nexcept:\n    pass\n")
        problems = lint.run_lint([bad])
        assert len(problems) == 1 and ":3:" in problems[0]

    def test_flags_swallowed_base_exception(self, tmp_path):
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text(
            "try:\n    pass\nexcept BaseException:\n    result = None\n"
        )
        assert len(lint.run_lint([bad])) == 1

    def test_reraising_handler_allowed(self, tmp_path):
        lint = _load_lint()
        ok = tmp_path / "ok.py"
        ok.write_text(
            "try:\n    pass\n"
            "except BaseException:\n    cleanup = True\n    raise\n"
        )
        assert lint.run_lint([ok]) == []

    def test_conditional_reraise_not_enough(self, tmp_path):
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text(
            "try:\n    pass\n"
            "except BaseException:\n"
            "    if True:\n        raise\n"
        )
        assert len(lint.run_lint([bad])) == 1

    def test_noqa_suppresses(self, tmp_path):
        lint = _load_lint()
        ok = tmp_path / "ok.py"
        ok.write_text(
            "try:\n    pass\n"
            "except BaseException:  # noqa: BLE001 - deliberate\n"
            "    pass\n"
            "try:\n    pass\n"
            "except:  # noqa\n    pass\n"
        )
        assert lint.run_lint([ok]) == []

    def test_unrelated_noqa_code_does_not_suppress(self, tmp_path):
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text(
            "try:\n    pass\nexcept:  # noqa: F401\n    pass\n"
        )
        assert len(lint.run_lint([bad])) == 1

    def test_tuple_containing_base_exception_flagged(self, tmp_path):
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text(
            "try:\n    pass\n"
            "except (ValueError, BaseException):\n    pass\n"
        )
        assert len(lint.run_lint([bad])) == 1

    def test_plain_exception_handler_allowed(self, tmp_path):
        lint = _load_lint()
        ok = tmp_path / "ok.py"
        ok.write_text(
            "try:\n    pass\nexcept Exception:\n    pass\n"
        )
        assert lint.run_lint([ok]) == []

    def test_syntax_error_reported_not_raised(self, tmp_path):
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        problems = lint.run_lint([bad])
        assert len(problems) == 1 and "syntax error" in problems[0]


class TestCancelledErrorRule:
    """PR 8: handlers must never swallow ``asyncio.CancelledError``."""

    def test_flags_swallowed_cancellation(self, tmp_path):
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import asyncio\n"
            "try:\n    pass\n"
            "except asyncio.CancelledError:\n    result = None\n"
        )
        problems = lint.run_lint([bad])
        assert len(problems) == 1 and "CancelledError" in problems[0]

    def test_flags_bare_imported_name(self, tmp_path):
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text(
            "from asyncio import CancelledError\n"
            "try:\n    pass\n"
            "except CancelledError:\n    pass\n"
        )
        assert len(lint.run_lint([bad])) == 1

    def test_flags_tuple_spelling(self, tmp_path):
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import asyncio\n"
            "try:\n    pass\n"
            "except (ValueError, asyncio.CancelledError):\n    pass\n"
        )
        assert len(lint.run_lint([bad])) == 1

    def test_cleanup_then_reraise_allowed(self, tmp_path):
        lint = _load_lint()
        ok = tmp_path / "ok.py"
        ok.write_text(
            "import asyncio\n"
            "try:\n    pass\n"
            "except asyncio.CancelledError:\n"
            "    cleanup = True\n    raise\n"
        )
        assert lint.run_lint([ok]) == []

    def test_conditional_reraise_not_enough(self, tmp_path):
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import asyncio\n"
            "try:\n    pass\n"
            "except asyncio.CancelledError:\n"
            "    if True:\n        raise\n"
        )
        assert len(lint.run_lint([bad])) == 1

    def test_asy_noqa_suppresses(self, tmp_path):
        lint = _load_lint()
        ok = tmp_path / "ok.py"
        ok.write_text(
            "import asyncio\n"
            "try:\n    pass\n"
            "except asyncio.CancelledError:  # noqa: ASY001 - on purpose\n"
            "    pass\n"
        )
        assert lint.run_lint([ok]) == []

    def test_unrelated_cancelled_error_class_untouched(self, tmp_path):
        """Only the name matters — but that is the point: any
        ``CancelledError`` (asyncio's or concurrent.futures') breaks
        cancellation when swallowed, so both spellings are flagged."""
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text(
            "from concurrent.futures import CancelledError\n"
            "try:\n    pass\n"
            "except CancelledError:\n    pass\n"
        )
        assert len(lint.run_lint([bad])) == 1


class TestReplicaUnavailableRule:
    """PR 9 (REP001): a caught ``ReplicaUnavailableError`` must be
    routed — retried on a sibling or re-raised — never dropped."""

    def test_flags_silent_swallow(self, tmp_path):
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text(
            "from repro.errors import ReplicaUnavailableError\n"
            "try:\n    pass\n"
            "except ReplicaUnavailableError:\n    result = None\n"
        )
        problems = lint.run_lint([bad])
        assert len(problems) == 1 and "REP001" in problems[0]

    def test_flags_tuple_spelling(self, tmp_path):
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import repro.errors\n"
            "try:\n    pass\n"
            "except (ValueError, repro.errors.ReplicaUnavailableError):\n"
            "    pass\n"
        )
        assert len(lint.run_lint([bad])) == 1

    def test_retry_call_allowed(self, tmp_path):
        lint = _load_lint()
        ok = tmp_path / "ok.py"
        ok.write_text(
            "try:\n    pass\n"
            "except ReplicaUnavailableError:\n"
            "    self._evict_and_retry(replica)\n"
        )
        assert lint.run_lint([ok]) == []

    def test_reraise_allowed_even_conditionally(self, tmp_path):
        """Unlike the interrupt rules, a *conditional* raise satisfies
        REP001 — availability decisions legitimately branch (last
        healthy replica → escalate, otherwise → writer fallback)."""
        lint = _load_lint()
        ok = tmp_path / "ok.py"
        ok.write_text(
            "try:\n    pass\n"
            "except ReplicaUnavailableError as exc:\n"
            "    if last:\n"
            "        raise WorkloadError('down') from exc\n"
        )
        assert lint.run_lint([ok]) == []

    def test_noqa_suppresses(self, tmp_path):
        lint = _load_lint()
        ok = tmp_path / "ok.py"
        ok.write_text(
            "try:\n    pass\n"
            "except ReplicaUnavailableError:  # noqa: REP001 - parked\n"
            "    healthy = False\n"
        )
        assert lint.run_lint([ok]) == []

    def test_noqa_must_be_on_except_line(self, tmp_path):
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text(
            "try:\n    pass\n"
            "except ReplicaUnavailableError:\n"
            "    healthy = False  # noqa: REP001\n"
        )
        assert len(lint.run_lint([bad])) == 1

    def test_retry_in_method_name_counts(self, tmp_path):
        lint = _load_lint()
        ok = tmp_path / "ok.py"
        ok.write_text(
            "try:\n    pass\n"
            "except ReplicaUnavailableError:\n"
            "    retry_on_sibling()\n"
        )
        assert lint.run_lint([ok]) == []


class TestObservabilityClockRule:
    """PR 10 (OBS001): wall clocks are injected, never read inline —
    a direct ``time.time()``/``time.monotonic()`` call outside the
    clock seams breaks virtual-time replay determinism."""

    def test_flags_time_time_call(self, tmp_path):
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nstamp = time.time()\n")
        problems = lint.run_lint([bad])
        assert len(problems) == 1 and "OBS001" in problems[0]

    def test_flags_time_monotonic_call(self, tmp_path):
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nstamp = time.monotonic()\n")
        assert len(lint.run_lint([bad])) == 1

    def test_flags_bare_imported_name(self, tmp_path):
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text("from time import monotonic\nstamp = monotonic()\n")
        assert len(lint.run_lint([bad])) == 1

    def test_flags_aliased_import(self, tmp_path):
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text("from time import time as now\nstamp = now()\n")
        assert len(lint.run_lint([bad])) == 1

    def test_perf_counter_allowed(self, tmp_path):
        """Measurement, not scheduling — replay is indifferent to it."""
        lint = _load_lint()
        ok = tmp_path / "ok.py"
        ok.write_text("import time\nstamp = time.perf_counter()\n")
        assert lint.run_lint([ok]) == []

    def test_uncalled_reference_allowed(self, tmp_path):
        """``clock=time.monotonic`` as a default *is* the seam."""
        lint = _load_lint()
        ok = tmp_path / "ok.py"
        ok.write_text(
            "import time\n"
            "def run(clock=None):\n"
            "    clock = clock if clock is not None else time.monotonic\n"
            "    return clock()\n"
        )
        assert lint.run_lint([ok]) == []

    def test_unrelated_name_not_flagged(self, tmp_path):
        """A local ``monotonic`` that is not time's is out of scope."""
        lint = _load_lint()
        ok = tmp_path / "ok.py"
        ok.write_text(
            "def monotonic():\n    return 0.0\n"
            "stamp = monotonic()\n"
        )
        assert lint.run_lint([ok]) == []

    def test_faults_module_exempt(self, tmp_path):
        lint = _load_lint()
        seam = tmp_path / "faults.py"
        seam.write_text("import time\nstamp = time.monotonic()\n")
        assert lint.run_lint([seam]) == []

    def test_obs_package_exempt(self, tmp_path):
        lint = _load_lint()
        package = tmp_path / "obs"
        package.mkdir()
        seam = package / "tracing.py"
        seam.write_text("import time\nstamp = time.monotonic()\n")
        assert lint.run_lint([package]) == []

    def test_noqa_suppresses(self, tmp_path):
        lint = _load_lint()
        ok = tmp_path / "ok.py"
        ok.write_text(
            "import time\n"
            "stamp = time.time()  # noqa: OBS001 - log timestamps\n"
        )
        assert lint.run_lint([ok]) == []

    def test_noqa_must_be_on_call_line(self, tmp_path):
        lint = _load_lint()
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import time  # noqa: OBS001\n"
            "stamp = time.time()\n"
        )
        assert len(lint.run_lint([bad])) == 1


class TestTraceReportPipe:
    def test_closed_reader_exits_quietly(self, tmp_path):
        """``trace_report.py ... | head`` exits 0 with no traceback."""
        export = tmp_path / "traces.jsonl"
        with open(export, "w", encoding="utf-8") as handle:
            for i in range(3000):
                handle.write(json.dumps({
                    "trace_id": f"t{i}", "span_id": "s0", "parent_id": None,
                    "name": "serve.request", "start": 0.0, "end": i * 1e-6,
                }) + "\n")
        proc = subprocess.Popen(
            [sys.executable, str(REPO_ROOT / "tools" / "trace_report.py"),
             str(export), "--top", "3000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        # The report is far larger than a pipe buffer, so the writer is
        # still blocked mid-report when the reader closes.
        proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0, stderr
        assert "Traceback" not in stderr
