#!/usr/bin/env python3
"""Line coverage of ``src/repro`` over the tier-1 suite, stdlib-only.

CI runs the real thing — ``pytest --cov=repro`` via ``pytest-cov`` (see the
``coverage`` job in ``.github/workflows/ci.yml``) — with a hard
``--cov-fail-under`` floor.  This script exists for environments without
``coverage`` installed: it measures the same line coverage with a
``sys.settrace`` tracer so the floor can be (re)calibrated anywhere::

    python tools/coverage_gate.py                  # measure, print report
    python tools/coverage_gate.py --fail-under 80  # gate (exit 1 below floor)
    python tools/coverage_gate.py -- -k ingest     # extra pytest args

The universe of measurable lines is derived from the compiled code objects
(``co_lines``), the same definition ``coverage.py`` uses, so the two
numbers track each other closely.

Output: a per-file table on stdout plus ``coverage-gate.json`` next to the
repo root (total percentage, per-file detail) for artifact upload.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = SRC / "repro"


def executable_lines(path: Path) -> set[int]:
    """All line numbers the compiler emits for a file (coverage's universe)."""
    try:
        code = compile(path.read_text(), str(path), "exec")
    except SyntaxError:
        return set()
    lines: set[int] = set()
    stack = [code]
    while stack:
        obj = stack.pop()
        for _, _, line in obj.co_lines():
            if line is not None:
                lines.add(line)
        for const in obj.co_consts:
            if hasattr(const, "co_lines"):
                stack.append(const)
    # the compiler emits a synthetic line-0 entry for some module objects
    lines.discard(0)
    return lines


class LineTracer:
    """Collect executed (filename, lineno) pairs for files under one root."""

    def __init__(self, root: Path):
        self.prefix = str(root)
        self.hits: dict[str, set[int]] = {}

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits[frame.f_code.co_filename].add(frame.f_lineno)
        return self._local

    def global_trace(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self.prefix):
            return None  # skip local tracing entirely for foreign frames
        self.hits.setdefault(filename, set())
        return self._local

    def install(self):
        threading.settrace(self.global_trace)
        sys.settrace(self.global_trace)

    def uninstall(self):
        sys.settrace(None)
        threading.settrace(None)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fail-under",
        type=float,
        default=None,
        help="exit 1 if total line coverage is below this percentage",
    )
    parser.add_argument(
        "--report",
        type=Path,
        default=REPO / "coverage-gate.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "pytest_args",
        nargs="*",
        help="extra arguments forwarded to pytest (after --)",
    )
    args = parser.parse_args(argv)

    # mirror a repo-root pytest invocation: src for the package, the root
    # for the `tests.*` cross-imports some integration modules use
    sys.path.insert(0, str(REPO))
    sys.path.insert(0, str(SRC))
    import pytest  # deferred: sys.path must carry src first

    tracer = LineTracer(PACKAGE)
    tracer.install()
    try:
        exit_code = pytest.main(["-q", *args.pytest_args])
    finally:
        tracer.uninstall()
    if exit_code not in (0, pytest.ExitCode.NO_TESTS_COLLECTED):
        # still report: the tracer slows wall-clock-budgeted tests enough
        # to flip search-truncation A/B comparisons, which says nothing
        # about which lines ran
        print(
            f"WARNING: pytest exited {exit_code} under the tracer; the "
            f"coverage numbers below are still measured, but verify the "
            f"failures are tracer-induced (time budgets) before trusting them"
        )

    total_lines = 0
    total_hit = 0
    files = []
    for path in sorted(PACKAGE.rglob("*.py")):
        universe = executable_lines(path)
        hit = tracer.hits.get(str(path), set()) & universe
        total_lines += len(universe)
        total_hit += len(hit)
        percent = 100.0 * len(hit) / len(universe) if universe else 100.0
        files.append(
            {
                "file": str(path.relative_to(REPO)),
                "lines": len(universe),
                "covered": len(hit),
                "percent": round(percent, 1),
            }
        )

    total_percent = 100.0 * total_hit / total_lines if total_lines else 100.0
    width = max(len(f["file"]) for f in files)
    for entry in files:
        print(f"{entry['file']:<{width}}  {entry['covered']:>5}/{entry['lines']:<5} {entry['percent']:>6.1f}%")
    print(f"{'TOTAL':<{width}}  {total_hit:>5}/{total_lines:<5} {total_percent:>6.1f}%")

    args.report.write_text(
        json.dumps(
            {"total_percent": round(total_percent, 2), "files": files}, indent=2
        )
        + "\n"
    )
    print(f"report written to {args.report}")

    if args.fail_under is not None and total_percent < args.fail_under:
        print(
            f"FAIL: total line coverage {total_percent:.1f}% is below the "
            f"floor {args.fail_under:.1f}%"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
