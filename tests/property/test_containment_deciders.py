"""The fast containment deciders agree with the canonical model.

``containment_decision`` answers plain patterns (no optional or nested
edges) with a homomorphism positive or a return-ancestry negative before it
builds a canonical model.  Whenever one of them answers, the answer must be
the one :func:`canonical_containment_decision` — the paper's decider —
gives.  The pairs are drawn over random documents and include return-order
permutations and ``/``↔``//`` variants of one pattern; the containment
questions one cold benchmark block asks on XMark and on DBLP are replayed
from ``tests/corpus/containment_questions.json``.  Two mutants of the
homomorphism (no return-order check; a ``/`` edge mapped onto a ``//`` edge)
must each be caught.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

import pytest

from repro import build_summary, parse_pattern
from repro.containment import core
from repro.containment.core import canonical_containment_decision
from repro.patterns.pattern import Axis
from repro.summary.dataguide import summary_from_paths
from repro.workloads.synthetic import SyntheticPatternConfig, generate_random_pattern
from repro.xmltree.generator import generate_uniform_tree

CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "containment_questions.json"


# --------------------------------------------------------------------------- #
# the questions
# --------------------------------------------------------------------------- #
def _with_return_order(pattern, order):
    clone = pattern.copy()
    returns = clone.return_nodes()
    clone.set_return_order([returns[position] for position in order])
    return clone


def _axis_variants(pattern):
    """One copy per non-root node with that node's edge flipped."""
    variants = []
    for position in range(1, pattern.size):
        clone = pattern.copy()
        node = clone.nodes()[position]
        node.axis = Axis.CHILD if node.axis is Axis.DESCENDANT else Axis.DESCENDANT
        variants.append(clone)
    return variants


def _drawn_questions():
    """(contained, container, summary, check_attributes) over random documents."""
    questions = []
    for seed in range(40):
        rng = random.Random(seed)
        document = generate_uniform_tree(
            ["a", "b", "c", "d"], max_depth=4, max_fanout=3, seed=seed
        )
        summary = build_summary(document)
        patterns = []
        for index in range(4):
            config = SyntheticPatternConfig(
                size=rng.randint(2, 4),
                optional_probability=0.0,
                predicate_probability=0.2,
                value_pool_size=3,
                return_count=rng.randint(1, 3),
            )
            patterns.append(
                generate_random_pattern(summary, config, rng=rng, name=f"p{seed}-{index}")
            )
        for left in patterns:
            for right in patterns:
                questions.append((left, right, summary, False))
        for pattern in patterns:
            arity = pattern.arity
            orders = [list(range(arity)), list(reversed(range(arity)))]
            if arity == 3:
                orders += [[1, 0, 2], [0, 2, 1]]
            for order in orders:
                permuted = _with_return_order(pattern, order)
                questions.append((pattern, permuted, summary, False))
                questions.append((permuted, pattern, summary, False))
            for variant in _axis_variants(pattern):
                questions.append((pattern, variant, summary, False))
                questions.append((variant, pattern, summary, False))
    return questions


def _load(text, returns):
    pattern = parse_pattern(text)
    nodes = pattern.nodes()
    pattern.set_return_order([nodes[position] for position in returns])
    return pattern


def _bench_questions():
    """The questions one flushed benchmark block asks, per dataset."""
    corpus = json.loads(CORPUS.read_text())
    questions = {}
    for dataset, body in corpus.items():
        summary = summary_from_paths([tuple(entry) for entry in body["summary"]])
        questions[dataset] = [
            (_load(left, left_returns), _load(right, right_returns), summary, check)
            for left, left_returns, right, right_returns, check in body["questions"]
        ]
    return questions


@pytest.fixture(scope="module")
def drawn():
    return _drawn_questions()


@pytest.fixture(scope="module")
def bench():
    return _bench_questions()


@pytest.fixture(scope="module")
def canonical_answers(drawn, bench):
    """The canonical decision of every question, computed once."""
    every = drawn + [question for block in bench.values() for question in block]
    return {
        id(question): canonical_containment_decision(*question).contained
        for question in every
    }


# --------------------------------------------------------------------------- #
# the A/B check
# --------------------------------------------------------------------------- #
def _fast(contained, container, summary, check_attributes):
    """``(decider, contained?)`` when a fast decider answers, else None."""
    if core._structural_preconditions(contained, container, summary, check_attributes):
        return None
    fast = core._fast_decision(contained, container, summary)
    return None if fast is None else (fast[0], fast[1].contained)


def _compare(questions, canonical_answers):
    """Per-decider answer counts and the questions the fast answer got wrong."""
    answered, wrong = Counter(), []
    for question in questions:
        fast = _fast(*question)
        if fast is None:
            continue
        decider, contained = fast
        answered[decider] += 1
        if contained != canonical_answers[id(question)]:
            wrong.append((decider, question[0].to_text(), question[1].to_text()))
    return answered, wrong


def test_drawn_pairs_agree_with_the_canonical_model(drawn, canonical_answers):
    answered, wrong = _compare(drawn, canonical_answers)
    assert wrong == []
    # the draw exercises both deciders, not only the canonical residue
    assert answered["homomorphism"] >= 500 and answered["ancestry_negative"] >= 100


@pytest.mark.parametrize(
    "dataset, questions, homomorphism, ancestry_negative",
    [("xmark_small", 52, 14, 18), ("dblp", 31, 14, 4)],
)
def test_bench_questions_agree_with_the_canonical_model(
    bench, canonical_answers, dataset, questions, homomorphism, ancestry_negative
):
    answered, wrong = _compare(bench[dataset], canonical_answers)
    assert wrong == []
    assert len(bench[dataset]) == questions
    assert answered == {
        "homomorphism": homomorphism, "ancestry_negative": ancestry_negative,
    }


def _without_return_order(contained, container):
    return {}


def _slash_onto_double_slash(axis, target):
    if axis is Axis.CHILD:
        return list(target.children)
    return list(target.iter_subtree())[1:]


@pytest.mark.parametrize(
    "seam, mutant",
    [
        ("_return_images", _without_return_order),
        ("_step_images", _slash_onto_double_slash),
    ],
)
def test_a_broken_homomorphism_is_caught(
    monkeypatch, drawn, bench, canonical_answers, seam, mutant
):
    monkeypatch.setattr(core, seam, mutant)
    every = drawn + [question for block in bench.values() for question in block]
    _, wrong = _compare(every, canonical_answers)
    assert wrong and {decider for decider, _, _ in wrong} == {"homomorphism"}
