"""The ``dblp_service`` server: a child process of ``bench/run.py``.

The server gets its own interpreter because with it in-process the two
client threads' GIL hand-offs, not the service, set the latency (p50 28 ms
against 7 ms measured while sizing the workload).

Protocol: builds the database, checks every class against the oracle, runs
one warm pass, starts :class:`repro.QueryService` on an ephemeral port and
prints one JSON line (url, expected payloads, guard record, the speed
factor of its set-up).  It then waits
for a line on stdin, stops the service, prints its peak RSS and exits.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import QueryService  # noqa: E402
from repro.service import relation_to_payload  # noqa: E402

import regimes  # noqa: E402
from measure import peak_rss_mb  # noqa: E402
from workloads import DATASETS, Session  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    options = parser.parse_args()

    session = Session(DATASETS["dblp"], options.seed, options.smoke, None)
    db = session.db
    failures = regimes.oracle_failures(session, db.query)
    warm = [("query", name, 0.0, len(db.query(text))) for name, text in session.classes.items()]
    boot = {
        "classes": dict(session.classes),
        "expected": {
            name: relation_to_payload(db.query(text)) for name, text in session.classes.items()
        },
        "oracle_failures": failures,
        "guard": regimes.guard_record(session, warm),
        "speed": session.speed,
    }
    gc.collect()
    gc.freeze()
    with QueryService(db) as service:
        boot["url"] = service.url
        print(json.dumps(boot), flush=True)
        sys.stdin.readline()
    session.close()
    print(json.dumps({"peak_rss_mb": peak_rss_mb()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
