#!/usr/bin/env python
"""Thread-pool load driver for the query service (no locust, no deps).

Boots a :class:`repro.QueryService` over a Figure 13 XMark workload (or
targets an already-running service via ``--url``), fires a fixed number of
``POST /query`` requests from a pool of client threads, and reports
end-to-end throughput plus client-observed latency quantiles::

    PYTHONPATH=src python tools/load_test.py --threads 4 --requests 200

Correctness is asserted, not sampled: every response must be 2xx, speak
this driver's ``schema_version`` (2: column-kinded result payloads) and
carry a result payload *identical* to the serial ``Database.query`` answer
for the same query (computed once, before the storm, through the same
relation codec).  Any error or row mismatch makes
the exit status non-zero.  The summary (throughput, p50/p95/p99 latency) is
printed as one ``BENCH_JSON:`` line; nothing is written to disk — measured
service numbers come from the ``dblp_service`` workload of ``bench/``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import Database, MaterializedView, build_summary  # noqa: E402
from repro.errors import RewritingError  # noqa: E402
from repro.rewriting.algorithm import RewritingConfig  # noqa: E402
from repro.service.models import SCHEMA_VERSION, relation_to_payload  # noqa: E402
from repro.service.server import QueryService, ServiceClient  # noqa: E402
from repro.workloads.synthetic import seed_tag_views  # noqa: E402
from repro.workloads.xmark import (  # noqa: E402
    generate_xmark_document,
    xmark_query_patterns,
)


def build_database(scale: float) -> Database:
    """A Database serving the rewritable slice of the fig13 workload."""
    document = generate_xmark_document(scale=scale, seed=548, name="xmark-service")
    summary = build_summary(document)
    views = [
        MaterializedView(pattern, document, name=f"seed{index}_{pattern.name}")
        for index, pattern in enumerate(seed_tag_views(summary))
    ]
    config = RewritingConfig(
        max_rewritings=2, max_plan_size=4, enable_unions=False,
        time_budget_seconds=30.0,
    )
    return Database(document, views=views, config=config)


def rewritable_queries(database: Database) -> dict[str, str]:
    """name → query text for every fig13 query the views can answer."""
    answerable = {}
    for name, pattern in sorted(
        xmark_query_patterns().items(), key=lambda kv: int(kv[0][1:])
    ):
        try:
            database.plan_query(pattern)
        except RewritingError:
            continue
        answerable[name] = pattern.to_text()
    return answerable


def quantile_ms(latencies: list[float], q: float) -> float:
    """Client-side quantile of a latency sample, in milliseconds."""
    if not latencies:
        return 0.0
    ordered = sorted(latencies)
    position = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[position] * 1000.0


def run_load(
    url: str,
    queries: dict[str, str],
    expected: dict[str, dict],
    threads: int,
    requests: int,
) -> dict:
    """Fire ``requests`` round-robin queries from ``threads`` clients."""
    names = list(queries)
    latencies: list[float] = []
    errors: list[str] = []
    mismatches: list[str] = []
    lock = threading.Lock()

    def one_request(index: int) -> None:
        client = _CLIENTS.client(url)
        name = names[index % len(names)]
        started = time.perf_counter()
        status, body = client.post("/query", {"query": queries[name]})
        elapsed = time.perf_counter() - started
        with lock:
            latencies.append(elapsed)
            if status != 200:
                errors.append(f"{name}: HTTP {status} {body}")
            elif body["schema_version"] != SCHEMA_VERSION:
                errors.append(f"{name}: schema {body['schema_version']}, not {SCHEMA_VERSION}")
            elif body["result"] != expected[name]:
                mismatches.append(f"{name}: rows diverged from Database.query")

    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(one_request, range(requests)))
    wall = time.perf_counter() - started
    return {
        "requests": requests,
        "threads": threads,
        "distinct_queries": len(names),
        "wall_seconds": wall,
        "throughput_rps": requests / wall if wall > 0 else 0.0,
        "latency_ms": {
            "mean": statistics.fmean(latencies) * 1000.0 if latencies else 0.0,
            "p50": quantile_ms(latencies, 0.50),
            "p95": quantile_ms(latencies, 0.95),
            "p99": quantile_ms(latencies, 0.99),
        },
        "errors": errors,
        "row_mismatches": mismatches,
    }


class _ClientPool:
    """One ServiceClient, hence one kept-alive connection, per worker thread."""

    def __init__(self):
        self._local = threading.local()

    def client(self, url: str) -> ServiceClient:
        client = getattr(self._local, "client", None)
        if client is None or client.base_url != url.rstrip("/"):
            client = ServiceClient(url)
            self._local.client = client
        return client


_CLIENTS = _ClientPool()


def probe_remote_queries(url: str) -> tuple[dict[str, str], dict[str, dict]]:
    """Discover answerable fig13 queries on a remote service, serially.

    One warm-up request per query: 422 (unanswerable) skips it, 200 pins
    its expected payload — during the storm every answer must match its
    own serial baseline, the strongest identity check available without
    direct access to the remote database.
    """
    client = ServiceClient(url)
    queries: dict[str, str] = {}
    expected: dict[str, dict] = {}
    for name, pattern in sorted(
        xmark_query_patterns().items(), key=lambda kv: int(kv[0][1:])
    ):
        text = pattern.to_text()
        status, body = client.post("/query", {"query": text})
        if status == 422:
            continue
        if status != 200:
            raise SystemExit(f"warm-up {name} failed: HTTP {status} {body}")
        if body["schema_version"] != SCHEMA_VERSION:
            raise SystemExit(
                f"the service speaks schema {body['schema_version']}; "
                f"this driver speaks {SCHEMA_VERSION}"
            )
        queries[name] = text
        expected[name] = body["result"]
    return queries, expected


def run(
    url: str | None = None,
    scale: float = 0.5,
    threads: int = 4,
    requests: int = 100,
) -> dict:
    """The whole measurement; returns the summary point.

    With ``url=None`` a service is booted in-process over the fig13
    workload and the serial expectations come from the *same* database the
    service wraps, queried directly before the storm.  With a ``url`` the
    expectations are pinned by serial warm-up responses instead.
    """
    if url is not None:
        queries, expected = probe_remote_queries(url)
        if not queries:
            raise SystemExit("the remote service answers no fig13 query")
        point = run_load(url, queries, expected, threads, requests)
        point["mode"] = "remote"
    else:
        database = build_database(scale)
        try:
            queries = rewritable_queries(database)
            if not queries:
                raise SystemExit(
                    "no fig13 query is rewritable over the seed views"
                )
            expected = {
                name: relation_to_payload(database.query(text))
                for name, text in queries.items()
            }
            with QueryService(database) as service:
                point = run_load(service.url, queries, expected, threads, requests)
        finally:
            database.close()
        point["mode"] = "self-booted"
        point["scale"] = scale
    point["benchmark"] = "service_latency"
    return point


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", default=None,
                        help="target an already-running service instead of "
                             "self-booting one (identity is then pinned by "
                             "serial warm-up responses)")
    parser.add_argument("--scale", type=float, default=0.5,
                        help="XMark document scale for the self-booted mode")
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--requests", type=int, default=100)
    options = parser.parse_args(argv)

    point = run(
        url=options.url,
        scale=options.scale,
        threads=options.threads,
        requests=options.requests,
    )
    print("BENCH_JSON: " + json.dumps(point))
    if point["errors"] or point["row_mismatches"]:
        for line in point["errors"] + point["row_mismatches"]:
            print(f"FAIL: {line}", file=sys.stderr)
        return 1
    print(
        f"{point['requests']} requests, {point['threads']} threads: "
        f"{point['throughput_rps']:.1f} req/s, "
        f"p50 {point['latency_ms']['p50']:.2f}ms, "
        f"p99 {point['latency_ms']['p99']:.2f}ms"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
