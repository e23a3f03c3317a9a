"""What one block does in each regime, and the answer checks around it.

A block is a fixed operation list (same operations, same order, every time),
and a run is a fixed number of blocks (``workloads.block_count``).  All loops are
closed: the next operation is sent when the previous one has returned.  The
in-process regimes have one caller; the service regime has two client threads
(the box has two cores, one of which runs the server child).
"""

from __future__ import annotations

import gc
import json
import re
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

from repro import Database, ServiceClient, clear_containment_cache, evaluate_pattern

from measure import Block, reference_slice, speed_factor, timed
from workloads import CONFIG

SERVICE_CLIENTS = 2
EDGE_SLICES = 4  # reference slices on either side of a service block


# --------------------------------------------------------------------------- #
# in-process regimes
# --------------------------------------------------------------------------- #
def in_process_block(workload, session, query, recorder=None) -> Block:
    """One cold / warm / live block; ``query(text)`` answers one query.

    A reference slice precedes every operation and follows the last one.
    ``recorder`` (traced run only) gets a span around each update.

    The cyclic collector is off while the operations run and does one timed
    full collection at the end of the block (kind ``"gc"``; it counts towards
    the block's time, hence towards throughput, not towards any latency).
    With it on, a 40 ms pass fell into whichever query came after the two big
    searches — Q6 on ``xmark_cold`` read 37 or 80 ms, block by block — and the
    p50 rank sits in that class.  ``timeit`` switches it off for the same
    reason.
    """
    db = session.db
    samples = []
    slices = []

    def reads():
        for name, text in session.classes.items():
            slices.append(reference_slice())
            started = time.perf_counter()
            result = query(text)
            samples.append(("query", name, time.perf_counter() - started, len(result)))

    def update(name, call):
        span = recorder.span(f"session.{name}_subtree") if recorder else nullcontext()
        slices.append(reference_slice())
        started = time.perf_counter()
        with span:
            result = call()
        samples.append(("update", name, time.perf_counter() - started, 1))
        return result

    subtree = session.update_subtree() if workload.regime == "live" else None
    if workload.regime == "cold":
        clear_containment_cache()
        db.plan_cache.clear()
    before = db.plan_cache.info()
    gc.disable()
    try:
        if workload.regime == "live":
            node = update("insert", lambda: db.insert_subtree(session.update_parent, subtree))
            reads()
            update("delete", lambda: db.delete_subtree(node))
            reads()
        else:
            for _ in range(workload.repeats):
                reads()
    finally:
        gc.enable()
    slices.append(reference_slice())
    started = time.perf_counter()
    gc.collect()
    samples.append(("gc", "collect", time.perf_counter() - started, 0))
    slices.append(reference_slice())
    after = db.plan_cache.info()
    return Block(
        sum(sample[2] for sample in samples), speed_factor(slices), samples,
        after["hits"] - before["hits"], after["misses"] - before["misses"],
    )


def plan_shape(choice) -> str:
    """The chosen plan without generated alias numbers and row/cost estimates."""
    text = re.sub(r"@\d+", "", choice.best.describe())
    return re.sub(r"\s*\[rows≈[^\]]*\]", "", text)


def guard_record(session, samples) -> dict:
    """Per class: row counts among ``samples``, plan shape and search counts.

    Everything here must repeat exactly from block to block: a difference
    means the program (or the benchmark) is not deterministic, and then no
    two timings compare.
    """
    record = {}
    for name, text in session.classes.items():
        choice = session.db.plan_query(text)
        statistics = choice.statistics
        record[name] = {
            "rows": [s[3] for s in samples if s[0] == "query" and s[1] == name],
            "plan": plan_shape(choice),
            "candidates_explored": statistics.candidates_explored,
            "joins_attempted": statistics.joins_attempted,
            "views_after_pruning": statistics.views_after_pruning,
        }
    return record


def oracle_failures(session, query) -> int:
    """Classes whose answer differs from direct evaluation over the document."""
    failures = 0
    for name, text in session.classes.items():
        expected = evaluate_pattern(session.patterns[name], session.document)
        if not query(text).same_contents(expected):
            print(f"WRONG ANSWER: {name} differs from evaluate_pattern", file=sys.stderr)
            failures += 1
    return failures


def live_oracle_failures(session, query) -> int:
    """The oracle with the seeded subtree in, then out again.

    While it is in, every ``grows_by_one`` class must hold exactly one more
    row than after it is gone.
    """
    db = session.db
    node = db.insert_subtree(session.update_parent, session.update_subtree())
    failures = oracle_failures(session, query)
    grows = [name for name in session.dataset.grows_by_one if name in session.classes]
    with_subtree = {name: len(query(session.classes[name])) for name in grows}
    db.delete_subtree(node)
    failures += oracle_failures(session, query)
    for name, rows in with_subtree.items():
        if rows != len(query(session.classes[name])) + 1:
            print(f"WRONG ANSWER: {name} did not gain/lose the inserted row", file=sys.stderr)
            failures += 1
    return failures


def timed_recovery(session, tally) -> float:
    """``Database.recover`` from the session's log; answers must be identical.

    Returns the recovery's reference-normalised seconds.
    """
    recovered, seconds, speed = timed(lambda: Database.recover(session.log_path))
    try:
        # the log does not carry the rewriting configuration
        recovered.rewriter.config = CONFIG
        for name, text in session.classes.items():
            tally.add(1)
            if not recovered.query(text).same_contents(session.db.query(text)):
                tally.fail(f"{name}: recovered database answers differently")
    finally:
        recovered.close()
    return seconds / speed


# --------------------------------------------------------------------------- #
# service regime: the server is a child process
# --------------------------------------------------------------------------- #
class ServerChild:
    """``bench/serve.py`` as a child: spawn → ready line → first 200 on /healthz."""

    def __init__(self, seed: int, smoke: bool):
        command = [sys.executable, str(Path(__file__).with_name("serve.py")), "--seed", str(seed)]
        if smoke:
            command.append("--smoke")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError("the server child exited before it was ready")
            self.boot = json.loads(line)
            self.url = self.boot["url"]
            status, _ = ServiceClient(self.url).get("/healthz")
            if status != 200:
                raise RuntimeError(f"/healthz answered {status}")
        except BaseException:
            self.process.kill()
            self.process.wait()
            raise
        # normalised by the slices the child took between its own set-up
        # stages: this process only waits meanwhile, on an idle core
        self.setup_seconds = (time.perf_counter() - started) / self.boot["speed"]

    def stop(self) -> dict:
        """Ask the child to stop; returns its exit report (peak RSS)."""
        try:
            output, _ = self.process.communicate("stop\n", timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise
        if self.process.returncode != 0:
            raise RuntimeError(f"the server child exited with {self.process.returncode}")
        return json.loads(output.strip().splitlines()[-1])


def service_block(workload, child: ServerChild) -> tuple[Block, int]:
    """Each client thread sends each class ``repeats`` times; returns failures too.

    The reference slices are taken by this (main) thread right before the
    client threads start and right after they are joined, while clients and
    server idle.  Slices taken by the clients between their requests would
    share the core pair with the busy server and the GIL with the other
    client: they read 1.7 where idle ones read 1.0, so a change that cut the
    server's CPU time would lower the factor and cancel part of its own gain.
    Taken here, the factor follows the box and not the program; what the
    server's load does to the clients stays in the latencies, where it belongs.
    """
    classes = child.boot["classes"]
    expected = child.boot["expected"]
    per_thread = [[] for _ in range(SERVICE_CLIENTS)]
    failures = [0] * SERVICE_CLIENTS

    def client_loop(index: int) -> None:
        client = ServiceClient(child.url)
        for _ in range(workload.repeats):
            for name, text in classes.items():
                started = time.perf_counter()
                try:
                    status, body = client.post("/query", {"query": text})
                except OSError as error:  # refused / reset: a failed operation
                    print(f"REQUEST FAILED: {name}: {error}", file=sys.stderr)
                    status, body = 0, None
                elapsed = time.perf_counter() - started
                if status != 200 or body["result"] != expected[name]:
                    failures[index] += 1
                    rows = -1
                else:
                    rows = body["result"]["row_count"]
                per_thread[index].append(("query", name, elapsed, rows))

    threads = [
        threading.Thread(target=client_loop, args=(index,)) for index in range(SERVICE_CLIENTS)
    ]
    slices = [reference_slice() for _ in range(EDGE_SLICES)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    slices += [reference_slice() for _ in range(EDGE_SLICES)]
    samples = [sample for samples in per_thread for sample in samples]
    # the time one client spent waiting for replies, averaged over the clients
    wall = sum(sample[2] for sample in samples) / SERVICE_CLIENTS
    return Block(wall, speed_factor(slices), samples), sum(failures)
