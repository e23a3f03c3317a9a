"""The paper's contract, fuzzed end to end: every rewriting is the query.

A draw picks a document (``generate_random_document`` over the XMark or the
DBLP specification), a view set (the summary's ``seed_tag_views`` plus a few
``generate_random_views``) and a plain query grown from one summary path: the
bare ``//`` step, the full ``/`` chain or the chain with some steps collapsed
into ``//``, sometimes with a child branch.  The summary fixes many of these
``//`` ↔ ``/`` variants to the same answer, which is where the containment
deciders and the rewriting search take their shortcuts.  Every ranked
alternative of ``db.prepare(q).choice`` must return the rows of
``evaluate_pattern(q, document)``.

``tests/corpus/contract.jsonl`` holds one case per line — the document
(``spec``, ``seed``), the view DSL, the query DSL and a digest of the
expected rows — and is replayed before the draw.  A failing draw prints the
line to add.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Database,
    build_summary,
    evaluate_pattern,
    generate_random_document,
    parse_pattern,
)
from repro.algebra.execution import PlanExecutor
from repro.errors import RewritingError
from repro.rewriting.algorithm import RewritingConfig
from repro.workloads import dblp_spec, seed_tag_views, xmark_spec
from repro.workloads.synthetic import generate_random_views

CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "contract.jsonl"

SPECS = {"xmark": lambda: xmark_spec(2, 3, 2), "dblp": lambda: dblp_spec("2005")}

# a wall-clock budget only bounds the draw's cost: whatever the search
# returns within it must be sound
CONFIG = RewritingConfig(max_rewritings=3, max_plan_size=2, time_budget_seconds=5.0)


def _document(spec: str, seed: int):
    return generate_random_document(SPECS[spec](), seed=seed, name=f"{spec}-{seed}")


def _digest(relation) -> str:
    rows = sorted(repr(row) for row in relation.to_set())
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]


def _chain_text(root, steps, attributes, below=()):
    """``root(axis label(...))`` along ``steps``; the last step stores
    ``attributes`` and carries the ``below`` branches."""
    text = None
    for position in reversed(range(len(steps))):
        axis, label = steps[position]
        node = axis + label
        if position == len(steps) - 1:
            node += f"[{attributes}]"
        children = [text] if text is not None else list(below)
        if children:
            node += "(" + ", ".join(children) + ")"
        text = node
    return f"{root}({text})"


def _query_text(summary, rng: random.Random) -> str:
    """A plain query along one summary path, some of its steps collapsed."""
    nodes = [node for node in summary.iter_nodes() if node.parent is not None]
    inner_nodes = [node for node in nodes if node.children]
    node = rng.choice(inner_nodes if rng.random() < 0.7 else nodes)
    labels = node.path.strip("/").split("/")
    inner = range(1, len(labels) - 1)
    keep = rng.choice([[], list(inner), [p for p in inner if rng.random() < 0.5]])
    positions = [0] + keep + [len(labels) - 1]
    steps = [
        ("/" if position - previous == 1 else "//", labels[position])
        for previous, position in zip(positions, positions[1:])
    ]
    # a bare child branch asks whether the summary's strong edges imply it
    below = []
    if node.children and rng.random() < 0.7:
        child = rng.choice(node.children).label
        below = [rng.choice([f"/{child}", f"/{child}", f"//{child}[V]"])]
    return _chain_text(labels[0], steps, rng.choice(["ID", "V", "ID,V"]), below)


def _check(db: Database, document, query_text: str, views: list[tuple[str, str]]):
    """Every ranked alternative returns ``evaluate_pattern``'s rows; returns
    the expected relation and whether any rewriting was found."""
    query = parse_pattern(query_text, name="contract")
    expected = evaluate_pattern(query, document)
    try:
        choice = db.prepare(query).choice
    except RewritingError:
        return expected, False
    for planned in choice.alternatives:
        rows = PlanExecutor(db.views).execute(planned.plan_operator)
        if not rows.same_contents(expected):
            used = set(planned.rewriting.views_used)
            line = json.dumps(
                {
                    "spec": document.name.split("-")[0],
                    "seed": int(document.name.split("-")[1]),
                    "views": [text for name, text in views if name in used],
                    "query": query_text,
                    "rows": _digest(expected),
                },
                ensure_ascii=False,
            )
            pytest.fail(
                f"alternative {planned.rank} ({planned.describe()}) differs from "
                f"evaluate_pattern; add to {CORPUS.name}:\n{line}"
            )
    return expected, True


def _corpus():
    if not CORPUS.exists():
        return []
    return [json.loads(line) for line in CORPUS.read_text().splitlines() if line.strip()]


@pytest.mark.parametrize("case", _corpus(), ids=lambda case: case["query"])
def test_the_corpus_replays(case):
    document = _document(case["spec"], case["seed"])
    db = Database(document, config=CONFIG)
    try:
        views = []
        for index, text in enumerate(case["views"]):
            views.append((db.create_view(text, name=f"v{index}").name, text))
        # a counterexample's views may answer the query only wrongly
        expected, _ = _check(db, document, case["query"], views)
    finally:
        db.close()
    assert _digest(expected) == case["rows"]


class _Sessions:
    """One database per drawn document, with every seed tag view and a few
    random views over its summary."""

    def __init__(self):
        self._open: dict[tuple[str, int], tuple] = {}

    def get(self, spec: str, seed: int):
        key = (spec, seed)
        if key not in self._open:
            document = _document(spec, seed)
            summary = build_summary(document)
            db = Database(document, config=CONFIG)
            patterns = seed_tag_views(summary) + generate_random_views(
                summary, count=3, size=2, seed=seed
            )
            views = []
            for index, pattern in enumerate(patterns):
                name = f"{pattern.name}_{index}"
                db.create_view(pattern.copy(name=name), name=name)
                views.append((name, pattern.to_text()))
            self._open[key] = (document, summary, db, views)
        return self._open[key]

    def close(self):
        for _, _, db, _ in self._open.values():
            db.close()


@pytest.fixture(scope="module")
def sessions():
    opened = _Sessions()
    yield opened
    opened.close()


@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(
    spec=st.sampled_from(sorted(SPECS)),
    document_seed=st.integers(0, 2),
    query_seed=st.integers(0, 2**16),
)
def test_every_ranked_alternative_is_the_query(sessions, spec, document_seed, query_seed):
    document, summary, db, views = sessions.get(spec, document_seed)
    _check(db, document, _query_text(summary, random.Random(query_seed)), views)
