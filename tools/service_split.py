#!/usr/bin/env python
"""Where a ``dblp_service`` request's time goes: wall, client CPU, server CPU.

Usage (from the repository root)::

    python3 tools/service_split.py           # 20 rounds on the bench's DBLP set-up
    python3 tools/service_split.py --smoke   # the small spec, 3 rounds: about a second

Starts a copy of itself as the server child (``--serve``): it sets up the
benchmark's DBLP ``Session`` (``bench/workloads.py``, imported and never
changed), answers every class once directly for the expected payloads,
serves the database with :class:`repro.QueryService` and, on each line
read from its stdin, prints its own ``time.process_time()``.  This process
then runs rounds of two client threads, each sending every class
four times, as a ``dblp_service`` block does; every reply must be
payload-identical to the expected one, else the exit status is 1.  The
scheduler is left alone: no process or thread is pinned.

Per round and per request it takes the wall time (the round's elapsed
time over its requests — one over the throughput), the client CPU
(``time.process_time()`` of this process, both client threads) and the
server CPU (the child's), and prints their medians over the rounds.  The
last line is their JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

from repro import QueryService, ServiceClient  # noqa: E402
from repro.service import relation_to_payload  # noqa: E402
from workloads import DATASETS, Session  # noqa: E402

CLIENTS = 2
REPEATS = 4  # times each client thread sends each class per round


def serve(smoke: bool) -> int:
    """The server child: boot line, then one CPU reading per stdin line."""
    dataset = DATASETS["dblp"]
    session = Session(dataset, dataset.default_seed, smoke, None)
    db = session.db
    expected = {
        name: relation_to_payload(db.query(text)) for name, text in session.classes.items()
    }
    gc.collect()
    gc.freeze()
    try:
        with QueryService(db) as service:
            boot = {"url": service.url, "classes": session.classes, "expected": expected}
            print(json.dumps(boot), flush=True)
            for _ in sys.stdin:
                print(time.process_time(), flush=True)
    finally:
        session.close()
    return 0


class ServerChild:
    """This tool as a ``--serve`` child, and its CPU clock."""

    def __init__(self, smoke: bool):
        command = [sys.executable, str(Path(__file__).resolve()), "--serve"]
        if smoke:
            command.append("--smoke")
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        line = self.process.stdout.readline()
        if not line:
            self.process.kill()
            self.process.wait()
            raise RuntimeError("the server child exited before it was ready")
        self.boot = json.loads(line)

    def cpu_seconds(self) -> float:
        self.process.stdin.write("\n")
        self.process.stdin.flush()
        return float(self.process.stdout.readline())

    def stop(self) -> None:
        self.process.stdin.close()
        if self.process.wait(timeout=60) != 0:
            raise RuntimeError(f"the server child exited with {self.process.returncode}")


def one_round(child: ServerChild, repeats: int = REPEATS) -> tuple[dict, int]:
    """Two client threads, each sending every class ``repeats`` times:
    ``({"wall_ms", "client_cpu_ms", "server_cpu_ms"}, mismatches)``."""
    classes, expected = child.boot["classes"], child.boot["expected"]
    mismatches = [0] * CLIENTS

    def client_loop(index: int) -> None:
        client = ServiceClient(child.boot["url"])
        for _ in range(repeats):
            for name, text in classes.items():
                status, body = client.post("/query", {"query": text})
                if status != 200 or body["result"] != expected[name]:
                    mismatches[index] += 1

    threads = [threading.Thread(target=client_loop, args=(index,)) for index in range(CLIENTS)]
    server_before = child.cpu_seconds()
    client_before = time.process_time()
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    client_cpu = time.process_time() - client_before
    server_cpu = child.cpu_seconds() - server_before
    requests = CLIENTS * repeats * len(classes)
    per_request = {
        "wall_ms": wall / requests * 1e3,
        "client_cpu_ms": client_cpu / requests * 1e3,
        "server_cpu_ms": server_cpu / requests * 1e3,
    }
    return per_request, sum(mismatches)


def split(smoke: bool, rounds: int) -> dict:
    child = ServerChild(smoke)
    try:
        one_round(child, 1)  # connections, caches and plans warm
        samples, mismatches = [], 0
        for _ in range(rounds):
            sample, failed = one_round(child)
            samples.append(sample)
            mismatches += failed
    finally:
        child.stop()
    medians = {
        key: round(statistics.median(sample[key] for sample in samples), 4)
        for key in ("wall_ms", "client_cpu_ms", "server_cpu_ms")
    }
    requests = rounds * CLIENTS * REPEATS * len(child.boot["classes"])
    return {"requests": requests, "mismatches": mismatches, **medians}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true", help="the small spec, 3 rounds")
    parser.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.serve:
        return serve(args.smoke)
    rounds = 3 if args.smoke else 20
    result = split(args.smoke, rounds)
    print(f"{result['requests']} requests over {rounds} rounds, "
          f"{result['mismatches']} not payload-identical; per request (median ms):")
    for key in ("wall_ms", "client_cpu_ms", "server_cpu_ms"):
        print(f"  {key:<15}{result[key]:>10.4f}")
    print(json.dumps(result, sort_keys=True))
    return 1 if result["mismatches"] else 0


if __name__ == "__main__":
    sys.exit(main())
