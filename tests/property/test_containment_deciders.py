"""The fast containment deciders agree with the canonical model.

``containment_decision`` answers plain patterns (no optional or nested
edges) with a homomorphism into the summary chase of the contained pattern
or a return-ancestry negative before it builds a canonical model.  Whenever
one of them answers, the answer must be the one
:func:`canonical_containment_decision` — the paper's decider — gives.  The
pairs are drawn over random documents and include return-order
permutations and ``/``↔``//`` variants of one pattern; summary-fixed
questions are drawn over the XMark- and DBLP-shaped summaries; the
containment questions one cold benchmark block asks on XMark and on DBLP
are replayed from ``tests/corpus/containment_questions.json``.  Two mutants
of the homomorphism (no return-order check; a ``/`` edge mapped onto a
``//`` edge) and three of the chase (chain labels from one related pair
only; a non-strong child; one annotated path ignored) must each be caught.
"""

from __future__ import annotations

import json
import random
import re
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


def _chain_text(root, steps, below=()):
    """``root(axis label(...))`` along ``steps``, the last step returned and
    carrying the ``below`` branches."""
    text = None
    for position in reversed(range(len(steps))):
        axis, label = steps[position]
        node = axis + label + ("[R]" if position == len(steps) - 1 else "")
        children = [text] if text is not None else list(below)
        if children:
            node += "(" + ", ".join(children) + ")"
        text = node
    return f"{root}({text})"


def _compressed(labels, keep):
    """The steps of a rooted label path keeping the inner positions in
    ``keep``: ``/`` between neighbours, ``//`` over a gap."""
    positions = [0] + sorted(keep) + [len(labels) - 1]
    return [
        ("/" if position - previous == 1 else "//", labels[position])
        for previous, position in zip(positions, positions[1:])
    ]


def _chase_questions(summary, seed, draws=40):
    """Questions whose answer the summary fixes: ``//`` edges against ``/``
    chains that every, some or one summary chain agrees with (fixed chains,
    prefix-only and suffix-only agreement), and branches below the returned
    node that are strong children on every, some or none of its paths."""
    rng = random.Random(seed)
    nodes = [node for node in summary.iter_nodes() if node.depth >= 3]
    by_label = {}
    for node in nodes:
        by_label.setdefault(node.label, []).append(node)
    questions = []
    for node in rng.sample(nodes, min(draws, len(nodes))):
        labels = node.path.strip("/").split("/")
        inner = range(1, len(labels) - 1)
        middle = rng.choice(inner)
        contained = [
            _chain_text(labels[0], [("//", labels[-1])]),
            _chain_text(labels[0], [("//", labels[middle]), ("//", labels[-1])]),
        ]
        shapes = [
            _compressed(labels, inner),
            _compressed(labels, [1]),
            _compressed(labels, [len(labels) - 2]),
            _compressed(labels, [position for position in inner if rng.random() < 0.5]),
        ]
        twin = rng.choice(by_label[node.label]).path.strip("/").split("/")
        shapes.append(_compressed(twin, range(1, len(twin) - 1)))
        containers = [_chain_text(labels[0], steps) for steps in shapes]
        for child in rng.sample(node.children, min(2, len(node.children))):
            steps = rng.choice(shapes[:4])
            containers.append(_chain_text(labels[0], steps, [f"/{child.label}"]))
            for grandchild in child.children[:1]:
                containers.append(
                    _chain_text(
                        labels[0], steps, [f"/{child.label}(/{grandchild.label})"]
                    )
                )
        for left in contained:
            for right in containers:
                questions.append((parse_pattern(left), parse_pattern(right), summary, False))
                questions.append((parse_pattern(right), parse_pattern(left), summary, False))
    return questions


def _odd_one_out_questions(entries):
    """On the XMark-shaped summary, ``name`` made a strong child below every
    region's ``item`` but one, once per choice of that one: a closure that
    ignores any one annotated path of ``//item`` answers "contained"."""
    items = [path for path, *_ in entries if re.fullmatch(r"/site/regions/\w+/item", path)]
    names = {f"{item}/name" for item in items}
    questions = []
    for odd in items:
        summary = summary_from_paths(
            [
                (path, path != f"{odd}/name", False) if path in names else (path, *flags)
                for path, *flags in entries
            ]
        )
        questions.append(
            (
                parse_pattern("site(//item[R])"),
                parse_pattern("site(//item[R](/name))"),
                summary,
                False,
            )
        )
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
def chased(bench):
    """Summary-fixed questions over the XMark- and DBLP-shaped summaries."""
    chased = {
        dataset: _chase_questions(block[0][2], seed)
        for seed, (dataset, block) in enumerate(sorted(bench.items()))
    }
    entries = json.loads(CORPUS.read_text())["xmark_small"]["summary"]
    chased["xmark_small"] += _odd_one_out_questions(entries)
    return chased


def _every(drawn, bench, chased):
    return drawn + [
        question
        for blocks in (bench, chased)
        for block in blocks.values()
        for question in block
    ]


@pytest.fixture(scope="module")
def canonical_answers(drawn, bench, chased):
    """The canonical decision of every question, computed once."""
    every = _every(drawn, bench, chased)
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
    [("xmark_small", 52, 28, 18), ("dblp", 31, 27, 4)],
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


@pytest.mark.parametrize("dataset", ["xmark_small", "dblp"])
def test_summary_fixed_questions_agree_with_the_canonical_model(
    chased, canonical_answers, dataset
):
    answered, wrong = _compare(chased[dataset], canonical_answers)
    assert wrong == []
    # the chase answers both ways: summary-fixed positives the plain
    # homomorphism missed, and it is not fooled on the negatives
    positives = sum(canonical_answers[id(question)] for question in chased[dataset])
    assert answered["homomorphism"] >= positives * 0.9 > 0
    assert len(chased[dataset]) - positives >= 50


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
    monkeypatch, drawn, bench, chased, canonical_answers, seam, mutant
):
    monkeypatch.setattr(core, seam, mutant)
    _, wrong = _compare(_every(drawn, bench, chased), canonical_answers)
    assert wrong and {decider for decider, _, _ in wrong} == {"homomorphism"}


_shared_steps = core._shared_steps
_strong_children = core._strong_children


def _chain_of_one_pair(chains, index):
    return _shared_steps(chains[:1], index)


def _any_child(paths, index, labels):
    shared = None
    for number in paths:
        children = {
            child.label: child.number
            for child in index.node(number).children
            if labels is None or child.label in labels
        }
        if shared is None:
            shared = {label: {child} for label, child in children.items()}
        else:
            shared = {
                label: numbers | {children[label]}
                for label, numbers in shared.items()
                if label in children
            }
    return {label: frozenset(numbers) for label, numbers in shared.items()}


def _one_path_ignored(paths, index, labels):
    return _strong_children(frozenset(sorted(paths)[1:]) or paths, index, labels)


@pytest.mark.parametrize(
    "seam, mutant",
    [
        ("_shared_steps", _chain_of_one_pair),
        ("_strong_children", _any_child),
        ("_strong_children", _one_path_ignored),
    ],
)
def test_a_broken_chase_is_caught(
    monkeypatch, drawn, bench, chased, canonical_answers, seam, mutant
):
    """Chain labels from one related pair only, a closure that adds a
    non-strong child, and a closure that ignores one annotated path."""
    monkeypatch.setattr(core, seam, mutant)
    _, wrong = _compare(_every(drawn, bench, chased), canonical_answers)
    assert wrong and {decider for decider, _, _ in wrong} == {"homomorphism"}
