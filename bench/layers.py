"""Per-layer probes: every layer is timed from outside, around a public call.

Each probe returns ``{metric name: value}``.  A timing is the median over
the seven classes of each class's median (see ``measure.class_median_ms``),
so it compares directly with ``query_p50_ms``; counts are summed over the
classes.

Later changes may delete a layer's entry point and may not edit this
directory, and that must never fail a run.  So this module imports nothing of
the program when it is loaded: every probe resolves the entry points it times
inside its own body, and :func:`guarded` turns the ``ImportError`` /
``AttributeError`` of one that is gone into ``None`` values plus a
``layers_unavailable`` entry.  Only the traced run loads this module.
"""

from __future__ import annotations

import json
import os
import statistics
from pathlib import Path

import regimes
from measure import class_median_ms, percentile, timed
from spans import Recorder

FAST_BATCH = 50  # microsecond-scale calls are timed this many at a time
REPS = 7         # millisecond-scale calls
COLD_REPS = 3    # calls that need the memos cleared first (0.01 .. 0.5 s each)
UPDATE_CYCLES = 5


def guarded(unavailable, probe, *args) -> dict:
    """``probe(*args)``, or each of its names → ``None`` if an entry point is gone."""
    names = NAMES[probe]
    try:
        values = probe(*args)
    except (AttributeError, ImportError, TypeError) as error:
        unavailable.append({"metrics": list(names), "error": f"{type(error).__name__}: {error}"})
        return dict.fromkeys(names)
    assert set(values) == set(names), (sorted(values), sorted(names))
    return values


def _times(call, reps, before=None) -> list[float]:
    """Reference-normalised seconds of ``reps`` calls (``before`` is untimed)."""
    samples = []
    for _ in range(reps):
        if before is not None:
            before()
        _, seconds, speed = timed(call)
        samples.append(seconds / speed)
    return samples


def _per_class(session, make_call, reps, before=None) -> dict:
    return {
        name: _times(make_call(name, text), reps, before)
        for name, text in session.classes.items()
    }


# --------------------------------------------------------------------------- #
# the query path, composed from its public parts (traced run)
# --------------------------------------------------------------------------- #
def composed_query(session, encode: bool):
    """``Database.query`` rebuilt from public calls, one span per layer.

    Returns ``query(recorder, text)``; the entry points are resolved here,
    once, so that a missing one is reported before any block runs.
    """
    from repro import PlanChoice, parse_pattern
    from repro.algebra import PlanExecutor
    from repro.canonical import pattern_key

    if encode:
        from repro.service import QueryRequest, relation_to_payload

    db = session.db

    def query(recorder, text):
        recorder.query_id += 1
        with recorder.span("query"):
            with recorder.span("session.plan_query"):
                with recorder.span("patterns.parse"):
                    if encode:
                        text = QueryRequest.from_payload({"query": text}).query
                    pattern = parse_pattern(text, name="query")
                with recorder.span("canonical.fingerprint"):
                    fingerprint = pattern_key(pattern)
                version = db.views.version
                with recorder.span("planning.plan_cache"):
                    choice = db.plan_cache.lookup(fingerprint, version)
                if choice is None:
                    with recorder.span("rewriting.search"):
                        outcome = db.rewriter.rewrite(pattern)
                    with recorder.span("planning.rank"):
                        ranked = db.planner.rank(outcome)
                    choice = PlanChoice(pattern, ranked, outcome.statistics)
                    db.plan_cache.store(fingerprint, version, choice)
            with recorder.span("algebra.execute"):
                executor = PlanExecutor(db.views, executor=db.executor)
                result = executor.execute(choice.best.plan_operator)
            if encode:
                with recorder.span("service.encode"):
                    json.dumps(relation_to_payload(result))
        return result

    return query


TRACE_LAYERS = ("patterns", "canonical", "rewriting", "planning", "algebra", "service", "session")


def composed_phase(workload, session, recorder, trace_blocks, tally) -> dict:
    """The workload's own blocks again, composed from public calls.

    The recorder is on for half of the blocks (on, off, off, on, ... so
    that neither a drift nor an every-other-block pattern favours a side):
    the difference between the halves is the tracing overhead, and the spans
    give every layer's self time in this workload's regime.
    """
    from repro import containment_cache

    query = composed_query(session, workload.regime == "service")
    silent = Recorder(enabled=False)
    for name, text in session.classes.items():
        tally.add(1)
        if query(silent, text).rows != session.db.query(text).rows:
            tally.fail(f"{name}: composed answer differs from Database.query")
    walls = {True: [], False: []}
    speeds = []
    hits = misses = 0
    for index in range(2 * trace_blocks):
        active = recorder if index % 4 in (0, 3) else silent
        block = regimes.in_process_block(
            workload, session, lambda text: query(active, text), active)
        walls[active.enabled].append(block.wall)
        if active.enabled:
            speeds.append(block.speed)
        hits += block.cache_hits
        misses += block.cache_misses
    on, off = (sum(sorted(walls[flag])[: (trace_blocks + 1) // 2]) for flag in (True, False))
    memo = containment_cache().info()
    asked = memo["hits"] + memo["misses"]

    # spans hold stopwatch times: ``speed`` brings them to reference speed
    speed = statistics.median(speeds)
    root = recorder.root_time()
    shares = dict.fromkeys(TRACE_LAYERS, 0.0)
    for name, seconds in recorder.self_times().items():
        layer = "session" if name == "query" else name.split(".")[0]
        shares[layer] += seconds / root
    values = {f"trace.{layer}_self_share": share for layer, share in shares.items()}
    for metric, span in (
        ("session.plan_query_ms", "session.plan_query"),
        ("session.execute_choice_ms", "algebra.execute"),
    ):
        values[metric] = percentile(recorder.durations(span), 0.5) / speed * 1e3
    values.update({
        "bench.trace_overhead_share": (on - off) / off,
        "planning.plan_cache_hit_rate": hits / (hits + misses),
        "containment.memo_hit_rate": memo["hits"] / asked if asked else 0.0,
        "containment.memo_entries": memo["size"],
    })
    return values


# --------------------------------------------------------------------------- #
# read-path probes
# --------------------------------------------------------------------------- #
BATCH = range(FAST_BATCH)


def probe_parse(session) -> dict:
    from repro import parse_pattern

    return {"patterns.parse_ms": class_median_ms(_per_class(
        session, lambda name, text: lambda: [parse_pattern(text, name=name) for _ in BATCH],
        REPS)) / FAST_BATCH}


def probe_fingerprint(session) -> dict:
    from repro.canonical import pattern_key

    patterns = session.patterns
    return {"canonical.fingerprint_ms": class_median_ms(_per_class(
        session, lambda name, text: lambda: [pattern_key(patterns[name]) for _ in BATCH],
        REPS)) / FAST_BATCH}


def probe_canonical_model(session) -> dict:
    from repro import canonical_model, clear_containment_cache

    summary = session.db.summary
    patterns = session.patterns
    return {
        "canonical.model_ms": class_median_ms(_per_class(
            session, lambda name, text: lambda: canonical_model(patterns[name], summary),
            COLD_REPS, clear_containment_cache)),
        "canonical.model_trees": sum(
            len(canonical_model(pattern, summary)) for pattern in patterns.values()),
    }


def probe_self_containment(session) -> dict:
    """``q ⊆ q`` with the memos cleared: Fig. 13 (top)."""
    from repro import clear_containment_cache, is_contained

    summary = session.db.summary
    patterns = session.patterns
    return {"containment.self_decide_ms": class_median_ms(_per_class(
        session, lambda name, text: lambda: is_contained(patterns[name], patterns[name], summary),
        COLD_REPS, clear_containment_cache))}


def probe_planning(session) -> dict:
    """The rewriting search with cold and warm memos, and plan ranking."""
    from repro import clear_containment_cache

    db = session.db
    cold, memo, rank = {}, {}, {}
    counts = dict.fromkeys(("candidates_explored", "joins_attempted", "views_after_pruning"), 0)
    for name, pattern in session.patterns.items():
        cold[name] = _times(
            lambda: db.rewriter.rewrite(pattern), COLD_REPS, clear_containment_cache)
        memo[name] = _times(lambda: db.rewriter.rewrite(pattern), COLD_REPS)
        outcome = db.rewriter.rewrite(pattern)
        rank[name] = _times(lambda: db.planner.rank(outcome), REPS)
        for key in counts:
            counts[key] += getattr(outcome.statistics, key)
    values = {f"rewriting.{key}": value for key, value in counts.items()}
    values["rewriting.search_cold_ms"] = class_median_ms(cold)
    values["rewriting.search_memo_ms"] = class_median_ms(memo)
    values["planning.rank_ms"] = class_median_ms(rank)
    return values


def probe_algebra(session) -> dict:
    """Plan execution, and its split by operator kind from a profiled run."""
    from repro.algebra import PlanExecutor

    db = session.db
    execute = {}
    kinds = {"scan": {}, "join": {}, "other": {}}
    rows_in = rows_out = 0
    for name, text in session.classes.items():
        choice = db.plan_query(text)
        operator = choice.best.plan_operator
        execute[name] = _times(
            lambda: PlanExecutor(db.views, executor=db.executor).execute(operator), REPS)
        (result, executor), elapsed, speed = timed(lambda: db.execute_choice(choice, profile=True))
        report = db.explain_choice(choice, executor, elapsed)
        seconds = dict.fromkeys(kinds, 0.0)
        for entry in report.operators:
            if entry.shared or entry.actual_seconds is None:
                continue
            if entry.access_path is not None:
                kind = "scan"
                rows_in += entry.actual_rows
            else:
                kind = "join" if "Join" in entry.description.split("(")[0] else "other"
            seconds[kind] += entry.actual_seconds / speed
        for kind in kinds:
            kinds[kind][name] = [seconds[kind]]
        rows_out += len(result)
    values = {f"algebra.{kind}_ms": class_median_ms(per_class) for kind, per_class in kinds.items()}
    values["algebra.execute_ms"] = class_median_ms(execute)
    values["algebra.rows_out"] = rows_out
    values["algebra.rows_in_per_row_out"] = rows_in / rows_out
    return values


def probe_service(session) -> dict:
    """The service tier without a socket, its encoder alone, and HTTP on top."""
    from repro import QueryService, ServiceApp, ServiceClient
    from repro.service import relation_to_payload

    db = session.db
    app = ServiceApp(db)
    handle = _per_class(
        session, lambda name, text: lambda: app.handle("POST", "/query", {"query": text}), REPS)
    results = {name: db.query(text) for name, text in session.classes.items()}
    encode = _per_class(
        session, lambda name, text: lambda: json.dumps(relation_to_payload(results[name])), REPS)
    response_bytes = sum(
        len(json.dumps(app.handle("POST", "/query", {"query": text}).body))
        for text in session.classes.values()
    )
    with QueryService(app) as service:
        client = ServiceClient(service.url)
        http = _per_class(
            session, lambda name, text: lambda: client.post("/query", {"query": text}), REPS)
    overhead = {
        name: [statistics.median(http[name]) - statistics.median(handle[name])] for name in http
    }
    return {
        "service.handle_ms": class_median_ms(handle),
        "service.encode_ms": class_median_ms(encode),
        "service.response_bytes": response_bytes,
        "service.http_overhead_ms": class_median_ms(overhead),
    }


# --------------------------------------------------------------------------- #
# write-path probes
# --------------------------------------------------------------------------- #
def probe_updates(session, update_samples, scratch_dir: Path) -> dict:
    """Insert/delete through the session, one view's delta, one log append.

    ``update_samples`` are the live regime's own ``(name, seconds)`` samples;
    the other regimes run ``UPDATE_CYCLES`` insert/delete pairs here instead.
    The scratch view and the scratch log receive the same changes, so their
    time is one view's / the log's share of the session-level update.
    """
    from repro import ChangeLog, MaterializedView, SubtreeChange, encode_subtree
    from repro.workloads import seed_tag_views

    db = session.db
    label = session.dataset.update_label
    pattern = next(v for v in seed_tag_views(db.summary) if v.root.children[0].label == label)
    scratch_view = MaterializedView(pattern, session.document, name="bench_scratch")
    scratch_log = ChangeLog(scratch_dir / "scratch.log")
    before = dict(db.maintenance_stats)
    own, delta, append = [], [], []
    try:
        for _ in range(UPDATE_CYCLES):
            subtree = session.update_subtree()
            parent = session.update_parent
            node, seconds, speed = timed(lambda: db.insert_subtree(parent, subtree))
            own.append(("insert", seconds / speed))
            change = SubtreeChange("insert", node.dewey, parent.dewey)
            delta += _times(lambda: scratch_view.apply_delta(session.document, change), 1)
            payload = {
                "parent": str(parent.dewey), "subtree": encode_subtree(node),
                "dewey": str(node.dewey),
            }
            append += _times(lambda: scratch_log.append("insert", payload), 1)
            _, seconds, speed = timed(lambda: db.delete_subtree(node))
            own.append(("delete", seconds / speed))
            change = SubtreeChange("delete", node.dewey, parent.dewey)
            delta += _times(lambda: scratch_view.apply_delta(session.document, change), 1)
            append += _times(lambda: scratch_log.append("delete", {"dewey": str(node.dewey)}), 1)
        log_bytes = os.path.getsize(scratch_log.path)
    finally:
        scratch_log.close()
    after = db.maintenance_stats
    spliced = after["delta_applied"] - before["delta_applied"]
    rebuilt = after["rematerialized"] - before["rematerialized"]
    samples = update_samples or own
    seconds = [s for _, s in samples]
    return {
        "session.insert_ms": statistics.median(s for n, s in samples if n == "insert") * 1e3,
        "session.delete_ms": statistics.median(s for n, s in samples if n == "delete") * 1e3,
        "session.update_p50_ms": percentile(seconds, 0.5) * 1e3,
        "session.update_max_ms": max(seconds) * 1e3,
        "views.apply_delta_ms": statistics.median(delta) * 1e3,
        "views.rematerialized_share": rebuilt / (spliced + rebuilt),
        "ingest.append_ms": statistics.median(append) * 1e3,
        "ingest.log_bytes_per_update": log_bytes / len(append),
    }


def probe_recover(session, tally) -> dict:
    return {"ingest.recover_s": regimes.timed_recovery(session, tally)}


NAMES = {
    composed_phase: tuple(f"trace.{layer}_self_share" for layer in TRACE_LAYERS) + (
        "session.plan_query_ms", "session.execute_choice_ms", "bench.trace_overhead_share",
        "planning.plan_cache_hit_rate", "containment.memo_hit_rate", "containment.memo_entries",
    ),
    probe_parse: ("patterns.parse_ms",),
    probe_fingerprint: ("canonical.fingerprint_ms",),
    probe_canonical_model: ("canonical.model_ms", "canonical.model_trees"),
    probe_self_containment: ("containment.self_decide_ms",),
    probe_planning: (
        "rewriting.search_cold_ms", "rewriting.search_memo_ms", "rewriting.candidates_explored",
        "rewriting.joins_attempted", "rewriting.views_after_pruning", "planning.rank_ms",
    ),
    probe_algebra: (
        "algebra.execute_ms", "algebra.scan_ms", "algebra.join_ms", "algebra.other_ms",
        "algebra.rows_out", "algebra.rows_in_per_row_out",
    ),
    probe_service: (
        "service.handle_ms", "service.encode_ms", "service.response_bytes",
        "service.http_overhead_ms",
    ),
    probe_updates: (
        "session.insert_ms", "session.delete_ms", "session.update_p50_ms",
        "session.update_max_ms", "views.apply_delta_ms", "views.rematerialized_share",
        "ingest.append_ms", "ingest.log_bytes_per_update",
    ),
    probe_recover: ("ingest.recover_s",),
}
"""The metrics each probe yields: what :func:`guarded` reports as ``None``
when one of the probe's entry points is gone."""
