#!/usr/bin/env python3
"""The repository's benchmark: four workloads, end to end and layer by layer.

    python3 bench/run.py                       # every workload, both runs
    python3 bench/run.py --workload xmark_warm --seed 7 --seconds 18 --trace 0

One run = one workload in a fresh interpreter.  ``--trace 0`` is the
end-to-end run (tracing off); ``--trace 1`` is the separate traced run that
yields the per-layer metrics and writes ``bench/out/trace_<workload>.jsonl``.
Every metric is printed by name with its unit, every answer is checked, and
the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A wrong answer, a non-2xx
reply, an exception or a block that does not repeat the first block's rows,
plans and search counts is a failed operation and a non-zero exit.

See ``bench/README.md`` for the workloads, the metric tables and the rules.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import regimes  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import DATASETS, WORKLOADS, Session, block_count  # noqa: E402

SETUPS = 3


@dataclasses.dataclass(frozen=True)
class Sizes:
    """How much one run measures; ``--smoke`` shrinks all of it."""

    blocks: int
    """Measured blocks of the end-to-end run (the traced run does half)."""
    trace_blocks: int = 3
    """Blocks the traced run records (and as many again with recording off)."""
    smoke: bool = False


SMOKE = Sizes(blocks=4, trace_blocks=2, smoke=True)


class Tally:
    """Operations attempted and failed; a failure is printed when it happens."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def fail(self, message: str) -> None:
        """One already counted operation failed."""
        print(f"FAILED: {message}", file=sys.stderr)
        self.failed += 1


def repeated_setup(build, release) -> tuple[object, float]:
    """``SETUPS`` complete set-ups; keep the last, report the median time.

    A single 1.5 s timing moved 14 % between two runs of the same code; the
    median of complete set-ups (build, drop, collect, rebuild) does not.
    """
    seconds = []
    for _ in range(SETUPS - 1):
        dropped = build()
        seconds.append(dropped.setup_seconds)
        release(dropped)
        del dropped  # or two set-ups would be alive at once and double the peak RSS
        gc.collect()
    kept = build()
    seconds.append(kept.setup_seconds)
    return kept, statistics.median(seconds)


class Guard:
    """Every block must repeat the first block's rows, plans and counts."""

    def __init__(self, tally: Tally):
        self.tally = tally
        self.first = None

    def check(self, record: dict) -> None:
        self.tally.add(1)
        if self.first is None:
            self.first = record
        elif record != self.first:
            changed = sorted(name for name in record if record[name] != self.first.get(name))
            self.tally.fail(f"block does not repeat the first block: {changed}")


# --------------------------------------------------------------------------- #
# the end-to-end run
# --------------------------------------------------------------------------- #
def in_process_phase(workload, session, count, tally):
    """Oracle, warm-up and measured blocks of a cold / warm / live workload."""
    query = session.db.query
    live = workload.regime == "live"
    oracle = regimes.live_oracle_failures if live else regimes.oracle_failures
    checks = len(session.classes) * (2 if live else 1)
    tally.add(checks, oracle(session, query))
    gc.collect()
    gc.freeze()
    for _ in range(workload.warmup_blocks):
        regimes.in_process_block(workload, session, query)
    guard = Guard(tally)
    blocks = []
    for _ in range(count):
        blocks.append(regimes.in_process_block(workload, session, query))
        guard.check(regimes.guard_record(session, blocks[-1].samples))
    if live:
        tally.add(checks, oracle(session, query))
    tally.add(sum(len(block.samples) for block in blocks))
    return blocks, guard.first


def service_phase(workload, child, count, tally):
    """Warm-up and measured blocks against the server child."""
    names = child.boot["classes"]
    tally.add(len(names), child.boot["oracle_failures"])
    for _ in range(workload.warmup_blocks):
        regimes.service_block(workload, child)
    guard = Guard(tally)
    blocks = []
    for _ in range(count):
        block, failed = regimes.service_block(workload, child)
        blocks.append(block)
        tally.add(len(block.samples), failed)
        guard.check({
            name: sorted(s[3] for s in block.samples if s[1] == name) for name in names
        })
    record = {
        name: dict(entry, rows=guard.first[name]) for name, entry in child.boot["guard"].items()
    }
    return blocks, record


def end_to_end(workload, seed, sizes, scratch, tally) -> tuple[dict, dict]:
    dataset = DATASETS[workload.dataset]
    extras = {}
    if workload.regime == "service":
        child, setup_s = repeated_setup(
            lambda: regimes.ServerChild(seed, sizes.smoke), lambda child: child.stop()
        )
        try:
            blocks, guard = service_phase(workload, child, sizes.blocks, tally)
        finally:
            rss = child.stop()["peak_rss_mb"]
    else:
        log_path = str(scratch / "session.log") if workload.regime == "live" else None

        def build():
            if log_path is not None and os.path.exists(log_path):
                os.unlink(log_path)
            return Session(dataset, seed, sizes.smoke, log_path)

        session, setup_s = repeated_setup(build, lambda session: session.close())
        try:
            blocks, guard = in_process_phase(workload, session, sizes.blocks, tally)
            rss = measure.peak_rss_mb()  # before recovery builds a second database
            if workload.regime == "live":
                extras["recover_s"] = regimes.timed_recovery(session, tally)
        finally:
            session.close()
    quiet = measure.quiet_pool(blocks)
    metrics = measure.query_metrics(quiet)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = rss
    extras.update(
        setups=SETUPS,
        blocks=len(blocks),
        quiet_blocks=len(quiet),
        quiet_query_samples=len(measure.seconds_of(quiet, "query")),
        guard=guard,
    )
    return metrics, extras


# --------------------------------------------------------------------------- #
# the traced run
# --------------------------------------------------------------------------- #
def traced(workload, seed, sizes, scratch, tally) -> tuple[dict, dict]:
    import layers  # only here: the end-to-end run must not depend on layer entry points

    dataset = DATASETS[workload.dataset]
    service = workload.regime == "service"
    unavailable = []
    metrics = {}
    if service:
        child = regimes.ServerChild(seed, sizes.smoke)
        try:
            blocks, guard = service_phase(workload, child, sizes.blocks // 2, tally)
        finally:
            child.stop()
    session = Session(dataset, seed, sizes.smoke, str(scratch / "session.log"))
    try:
        if not service:
            blocks, guard = in_process_phase(workload, session, sizes.blocks // 2, tally)
        else:
            gc.collect()
            gc.freeze()
        metrics.update(measure.query_metrics(blocks, "_all"))
        metrics.update(measure.query_metrics(blocks, "_raw", raw=True))
        metrics["bench.noise_share"] = measure.noise_share(blocks)
        metrics["bench.speed_factor"] = statistics.median(block.speed for block in blocks)
        metrics["bench.gc_share"] = (
            sum(measure.seconds_of(blocks, "gc")) / sum(block.wall for block in blocks))
        metrics.update(session.stages)
        metrics["views.extent_rows"] = session.extent_rows

        recorder = Recorder()
        update_samples = [
            (s[1], s[2] / block.speed)
            for block in blocks for s in block.samples if s[0] == "update"
        ]
        for probe, *arguments in (
            (layers.composed_phase, workload, session, recorder, sizes.trace_blocks, tally),
            (layers.probe_parse, session),
            (layers.probe_fingerprint, session),
            (layers.probe_canonical_model, session),
            (layers.probe_self_containment, session),
            (layers.probe_planning, session),
            (layers.probe_algebra, session),
            (layers.probe_service, session),
            (layers.probe_updates, session, update_samples, scratch),
            (layers.probe_recover, session, tally),  # reopens the log: last
        ):
            metrics.update(layers.guarded(unavailable, probe, *arguments))
        recorder.write(OUT_DIR / f"trace_{workload.name}.jsonl")
    finally:
        session.close()
    extras = {
        "blocks": len(blocks),
        "trace_blocks": sizes.trace_blocks,
        "spans": len(recorder.spans),
        "self_time_over_root_time": sum(recorder.self_times().values()) / recorder.root_time()
        if recorder.spans else None,
        "layers_unavailable": unavailable,
        "guard": guard,
        "change_log_flush_policy": "one fsync per record (the shipped policy)",
    }
    return metrics, extras


# --------------------------------------------------------------------------- #
# command line
# --------------------------------------------------------------------------- #
def baseline_mismatches(workload_name: str, seed: int, guard: dict) -> int | None:
    """Classes whose guard record differs from the committed baseline's.

    Only meaningful at the baseline's own seed; reported as a count, never a
    failure — a later change may legitimately choose another plan.
    """
    baselines = sorted((BENCH_DIR / "baselines").glob("BENCH_*.json"))
    if not baselines:
        return None
    with open(baselines[-1], encoding="utf-8") as handle:
        entry = json.load(handle)["workloads"].get(workload_name)
    if entry is None or entry["seed"] != seed:
        return None
    return sum(1 for name, record in entry["guard"].items() if guard.get(name) != record)


def run_one(options, contract) -> dict:
    workload = WORKLOADS[options.workload]
    seed = options.seed if options.seed is not None else DATASETS[workload.dataset].default_seed
    sizes = SMOKE if options.smoke else Sizes(block_count(workload, options.seconds))
    tally = Tally()
    scratch = OUT_DIR / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        phase = traced if options.trace else end_to_end
        metrics, extras = phase(workload, seed, sizes, scratch, tally)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if not options.smoke:
        extras["baseline_guard_mismatches"] = baseline_mismatches(
            workload.name, seed, extras["guard"])
    declared = contract["per_layer" if options.trace else "end_to_end"]
    missing = {entry["name"] for entry in declared} - set(metrics)
    if missing or len(metrics) != len(declared):
        raise SystemExit(f"metrics do not match BENCHMARK.json: {sorted(missing)}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in declared
        },
    }
    print(f"# {workload.name} seed={seed} seconds={options.seconds} trace={options.trace}"
          f" smoke={int(options.smoke)}")
    for key, value in extras.items():
        if key != "guard":
            print(f"# {key}: {json.dumps(value)}")
    for name, entry in result["metrics"].items():
        value = "null" if entry["value"] is None else f"{entry['value']:.6g}"
        print(f"{name:36s} {value:>14s} {entry['unit']}")
    print(f"{'ops_attempted':36s} {tally.attempted:>14d} count")
    print(f"{'ops_failed':36s} {tally.failed:>14d} count")
    if options.out:
        document = dict(result, workload=workload.name, seed=seed, seconds=options.seconds,
                        trace=options.trace, smoke=options.smoke, **extras)
        Path(options.out).write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return result


def git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def run_all(options, contract) -> int:
    """Every workload, end to end and traced, each in a fresh interpreter."""
    scratch = OUT_DIR / f"tmp-all-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    document = {
        "benchmark": "BENCH_14", "claim": None, "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "git_sha": git_sha(),
        "run_seconds": options.seconds,
        "smoke": options.smoke, "workloads": {},
    }
    status = 0
    try:
        for entry in contract["workloads"]:
            merged = {}
            for trace in (0, 1):
                out = scratch / f"{entry['name']}_{trace}.json"
                command = [
                    sys.executable, str(Path(__file__).resolve()), "--workload", entry["name"],
                    "--seconds", str(options.seconds), "--trace", str(trace), "--out", str(out),
                ]
                if options.seed is not None:
                    command += ["--seed", str(options.seed)]
                if options.smoke:
                    command.append("--smoke")
                status |= subprocess.run(command).returncode
                if not out.exists():
                    continue
                part = json.loads(out.read_text(encoding="utf-8"))
                kind = "per_layer" if trace else "end_to_end"
                merged["seed"] = part["seed"]
                merged[kind] = {name: m["value"] for name, m in part["metrics"].items()}
                merged[f"{kind}_run"] = {
                    key: part[key] for key in part
                    if key not in ("metrics", "guard", "workload", "seed", "smoke", "trace")
                }
                if not trace:
                    merged["guard"] = part["guard"]
            document["workloads"][entry["name"]] = merged
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if options.out:
        Path(options.out).write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return status


def main(argv=None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [entry["name"] for entry in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="default: all, each in a fresh process")
    parser.add_argument("--seed", type=int, help="default: 548 (XMark), 5 (DBLP)")
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]),
                        help="nominal length of the measured phase: fixes the number of blocks")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run (per-layer metrics) instead of the end-to-end run")
    parser.add_argument("--smoke", action="store_true", help="tiny documents, 4 blocks")
    parser.add_argument("--out", help="also write the result as a JSON document")
    options = parser.parse_args(argv)
    if options.workload is None:
        return run_all(options, contract)
    result = run_one(options, contract)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
