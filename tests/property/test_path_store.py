"""The path store is exact, and store-fed evaluation equals scan-fed.

Two contracts of the path-partitioned document store
(:class:`~repro.xmltree.paths.PathStore`), each held to a reference that
shares no code with it:

* **Exact.**  After any sequence of subtree inserts and deletes the store
  equals a fresh one-pass rebuild of the document — same paths, the same
  node objects in the same order, no empty list left behind, and every
  node's ``path`` *is* the store's key string for it.
* **Store-fed equals scan-fed.**  ``MaterializedView.materialize`` hands the
  store to ``evaluate_pattern``; the extent must equal — rows, row order,
  ``sorted_by`` — what ``evaluate_pattern(pattern, document)`` yields
  without it (the walk every oracle in this repository uses), fresh and
  after every write.

A :class:`~hypothesis.stateful.RuleBasedStateMachine` draws the write
sequences over a small document with a view pool of hand-written and
generated patterns; deterministic cases below it cover both paper
workloads, persistence and recovery, and the oracle's independence.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro import (
    Database,
    MaterializedView,
    XMLNode,
    build_summary,
    evaluate_pattern,
    parse_parenthesized,
    parse_pattern,
)
from repro.workloads.synthetic import (
    SyntheticPatternConfig,
    generate_random_pattern,
    generate_random_views,
)
from repro.xmltree.node import XMLDocument
from repro.xmltree.paths import PathStore

from support.paper_workloads import build_dblp_workload, build_xmark_workload
from support.rebuild_oracle import normalize, scan_fed_extent

DOC_TEXT = (
    "site("
    '  regions(asia(item(name="pen" quantity=2 description(text="blue" site="inner"))'
    '               item(name="ink"))'
    '          europe(item(name="nib" quantity=7)))'
    '  people(person(name="bob" age=31) person(name="eve"))'
    "  closed(item(name=5)))"
)

# every edge kind and both candidate sources: `//tag` from the root (one
# path, several paths, no path yet, the root's own label), `//` below the
# root, `*`, optional, nested, value predicates, content cells
POOL_PATTERNS = [
    "site(//item[ID])",
    "site(//name[ID,V])",
    "site(//keyword[ID,V])",
    "site(//site[ID,V])",
    "site[ID](//quantity[V]{v>3})",
    "site(//item[ID](//name[V]))",
    "site(//item[ID,C](/?quantity[V], /~name[ID,V]))",
    "site(//regions[ID](//?keyword[ID,V]))",
    "site(//*[ID,L])",
    "site(//description(/*[ID,V]))",
    "site(//~item[ID](/name[V]))",
    "site(//person[ID](/name[V]), //?age[V])",
    "site(/people(//name[ID,V]))",
]

SUBTREE_SHAPES = [
    lambda n: XMLNode("item", None, [XMLNode("name", f"gadget-{n}")]),
    lambda n: XMLNode("item", None, [XMLNode("name", n), XMLNode("quantity", n)]),
    lambda n: XMLNode("keyword", f"kw-{n}"),
    lambda n: XMLNode(
        "item",
        None,
        [
            XMLNode("description", None, [XMLNode("text", n), XMLNode("item")]),
            XMLNode("name", f"n{n}"),
        ],
    ),
    lambda n: XMLNode("site", n, [XMLNode("site", None, [XMLNode("name", n)])]),
]


# --------------------------------------------------------------------------- #
# the two references
# --------------------------------------------------------------------------- #
def assert_store_exact(document: XMLDocument) -> None:
    """The document's store equals a rebuild from a plain pre-order walk."""
    expected: dict[str, list[XMLNode]] = {}
    for node in document.root.iter_subtree():
        expected.setdefault(node.rooted_path(), []).append(node)
    store = document.path_store
    keys = store.paths()
    assert sorted(keys) == sorted(expected)  # an emptied list would show here
    for key in keys:
        nodes = store.nodes(key)
        assert len(nodes) == len(expected[key])
        for held, walked in zip(nodes, expected[key]):
            assert held is walked
            assert held.path is key
    assert sum(len(store.nodes(key)) for key in keys) == document.size


def assert_store_fed_equals_scan_fed(view: MaterializedView, document) -> None:
    extent = view.materialize(document)
    reference = scan_fed_extent(view, document)
    assert extent.column_names == reference.column_names, view.name
    assert extent.sorted_by == reference.sorted_by, view.name
    assert normalize(extent) == normalize(reference), view.pattern.to_text()


def opaque_id(node: XMLNode):
    """A non-Dewey ``fID``: the extent cannot be sorted, generation order shows."""
    return ("opaque", str(node.dewey))


def view_pool(document: XMLDocument) -> list[MaterializedView]:
    summary = build_summary(document)
    patterns = [
        parse_pattern(text, name=f"pool{index}")
        for index, text in enumerate(POOL_PATTERNS)
    ]
    patterns += generate_random_views(summary, count=12, seed=24)
    rng = random.Random(24)
    config = SyntheticPatternConfig(
        size=4,
        wildcard_probability=0.3,
        predicate_probability=0.4,
        optional_probability=0.5,
        return_count=2,
    )
    for index in range(12):
        pattern = generate_random_pattern(summary, config, rng=rng, name=f"rp{index}")
        nested = pattern.nodes()[-1]
        if index % 2 and nested.parent is not None:
            nested.nested = True
        patterns.append(pattern)
    views = [MaterializedView(pattern) for pattern in patterns]
    views.append(
        MaterializedView(
            parse_pattern("site(//name[ID,V])", name="opaque"), id_function=opaque_id
        )
    )
    views.append(
        MaterializedView(
            parse_pattern("site(//item[ID](/name[ID]))", name="opaque_chain"),
            id_function=opaque_id,
        )
    )
    return views


# --------------------------------------------------------------------------- #
# drawn write sequences
# --------------------------------------------------------------------------- #
class PathStoreMachine(RuleBasedStateMachine):
    """Inserts and deletes anywhere in the tree, the store checked each step."""

    def __init__(self):
        super().__init__()
        self.document = parse_parenthesized(DOC_TEXT, name="paths")
        self.views = view_pool(self.document)
        self.inserted: list[XMLNode] = []
        self.serial = 0

    def _attached(self, node: XMLNode) -> bool:
        return node.dewey is not None and (
            self.document.has_id(node.dewey)
            and self.document.node_by_id(node.dewey) is node
        )

    def _insert(self, parent: XMLNode, shape: int) -> None:
        self.serial += 1
        subtree = SUBTREE_SHAPES[shape](self.serial)
        self.inserted.append(self.document.insert_subtree(parent, subtree))

    @rule(position=st.integers(min_value=0), shape=st.integers(0, len(SUBTREE_SHAPES) - 1))
    def insert_anywhere(self, position, shape):
        # last-child inserts under any node — a parent whose children were
        # deleted takes an ordinal past the gap they left
        nodes = list(self.document.iter_nodes())
        self._insert(nodes[position % len(nodes)], shape)

    @rule(position=st.integers(min_value=0), shape=st.integers(0, len(SUBTREE_SHAPES) - 1))
    def insert_under_an_inserted_node(self, position, shape):
        live = [
            member
            for root in self.inserted
            if self._attached(root)
            for member in root.iter_subtree()
        ]
        if live:
            self._insert(live[position % len(live)], shape)

    @rule(position=st.integers(min_value=0))
    def delete_anywhere(self, position):
        # regions, people, closed and description each hold whole paths
        nodes = list(self.document.root.iter_descendants())
        if nodes:
            self.document.delete_subtree(nodes[position % len(nodes)])

    @rule(position=st.integers(min_value=0))
    def delete_an_inserted_subtree(self, position):
        live = [root for root in self.inserted if self._attached(root)]
        if live:
            self.document.delete_subtree(live[position % len(live)])

    @invariant()
    def store_is_exact(self):
        assert_store_exact(self.document)

    @invariant()
    def store_fed_equals_scan_fed(self):
        for view in self.views:
            assert_store_fed_equals_scan_fed(view, self.document)


PathStoreMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=12, deadline=None
)
TestPathStoreMachine = PathStoreMachine.TestCase


# --------------------------------------------------------------------------- #
# both paper workloads, fresh and along one scripted write sequence
# --------------------------------------------------------------------------- #
def _scripted_writes(document: XMLDocument):
    """Yield after each write: the four cases the machine is asked to visit."""
    nodes = list(document.root.iter_descendants())
    internal = [node for node in nodes if node.children]
    # a delete that leaves a gap, then a last-child insert under it
    parent = internal[len(internal) // 2]
    document.delete_subtree(parent.children[-1])
    yield
    first = document.insert_subtree(parent, SUBTREE_SHAPES[3](1))
    yield
    # a nested insert, then the delete of the inserted subtree
    document.insert_subtree(first.children[0], SUBTREE_SHAPES[1](2))
    yield
    document.delete_subtree(first)
    yield
    # a subtree holding whole paths: the root's largest child
    document.delete_subtree(max(document.root.children, key=XMLNode.subtree_size))
    yield


@pytest.mark.parametrize("build", [build_xmark_workload, build_dblp_workload])
def test_paper_workload_extents_are_scan_fed_identical(build):
    workload = build(scale=0.4)  # a private copy: the shared fixtures are read-only
    document = workload.document
    assert_store_exact(document)
    for view in workload.views:
        assert normalize(view.relation) == normalize(scan_fed_extent(view, document))
    for _ in _scripted_writes(document):
        assert_store_exact(document)
        for view in workload.views:
            assert_store_fed_equals_scan_fed(view, document)


# --------------------------------------------------------------------------- #
# the oracle stays independent
# --------------------------------------------------------------------------- #
def test_evaluate_pattern_without_the_store_never_reads_it():
    document = parse_parenthesized(DOC_TEXT)
    patterns = [parse_pattern(text) for text in POOL_PATTERNS]
    before = [normalize(evaluate_pattern(pattern, document)) for pattern in patterns]
    document._path_store = PathStore()  # emptied: a reader would find nothing
    assert [
        normalize(evaluate_pattern(pattern, document)) for pattern in patterns
    ] == before
    # and the store is what the store-fed source reads
    assert not evaluate_pattern(
        patterns[0], document, path_store=document.path_store
    ).rows


def test_nodes_on_path_answers_from_the_store_with_a_copy():
    document = parse_parenthesized(DOC_TEXT)
    names = document.nodes_on_path("/site/regions/asia/item/name")
    assert [node.value for node in names] == ["pen", "ink"]
    names.reverse()  # the caller's list, not the store's
    assert [
        node.value for node in document.nodes_on_path("/site/regions/asia/item/name")
    ] == ["pen", "ink"]
    assert document.nodes_on_path("/site/nowhere") == []
    assert "/site/nowhere" not in document.path_store.paths()


# --------------------------------------------------------------------------- #
# derived, not persisted: save / load, old pickles, recovery
# --------------------------------------------------------------------------- #
def _extents(database: Database) -> dict:
    return {
        view.name: normalize(view.relation) if view.is_materialized else None
        for view in database.views
    }


def _live_session(tmp_path, checkpoint: bool) -> Database:
    db = Database(parse_parenthesized(DOC_TEXT, name="live"))
    db.attach_log(tmp_path / "doc.log")
    db.create_view("site(//item[ID](/name[V]))", name="items")
    db.create_view("site(//name[ID,V])", name="names")
    db.create_view("site(//quantity[ID,V])", name="declared", materialize=False)
    asia = db.document.nodes_on_path("/site/regions/asia")[0]
    doomed = db.insert_subtree(asia, SUBTREE_SHAPES[3](1))
    db.create_view("site(//text[ID,V])", name="texts")
    if checkpoint:
        db.checkpoint(tmp_path / "doc.ckpt")
    db.create_view("site(//keyword[ID,V])", name="keywords")
    db.insert_subtree(doomed.children[0], SUBTREE_SHAPES[2](2))
    db.drop_view("names")
    db.delete_subtree(db.document.nodes_on_path("/site/closed")[0])
    db.create_view("site(//person[ID,C])", name="people")
    db.insert_subtree(asia, SUBTREE_SHAPES[0](3))
    return db


def test_the_store_is_left_out_of_pickles_and_rebuilt_on_first_use(tmp_path):
    db = _live_session(tmp_path, checkpoint=False)
    assert db.document.__getstate__()["_path_store"] is None
    assert "_path_store" not in (tmp_path / "doc.log").read_text()
    db.save(tmp_path / "doc.db")
    loaded = Database.load(tmp_path / "doc.db")
    assert loaded.document.__dict__["_path_store"] is None
    assert_store_exact(loaded.document)
    # a loaded document is live: the first write splices the rebuilt store
    parent = loaded.document.nodes_on_path("/site/people")[0]
    node = loaded.insert_subtree(parent, SUBTREE_SHAPES[4](9))
    assert_store_exact(loaded.document)
    loaded.delete_subtree(node)
    assert_store_exact(loaded.document)
    for view in loaded.views:
        if view.is_materialized:
            assert_store_fed_equals_scan_fed(view, loaded.document)
    db.close()
    loaded.close()


def test_a_pickle_older_than_the_store_loads_and_writes():
    document = parse_parenthesized(DOC_TEXT)
    state = document.__getstate__()
    del state["_path_store"], state["_max_child_ordinal"]
    for node in document.iter_nodes():
        node.path = "".join(node.path)  # private copies, as such pickles held
    old = XMLDocument.__new__(XMLDocument)
    old.__setstate__(state)
    old.insert_subtree(old.nodes_on_path("/site/people")[0], SUBTREE_SHAPES[0](1))
    assert_store_exact(old)


@pytest.mark.parametrize("checkpoint", [True, False])
def test_recovery_defers_materialisation_and_ends_identical(tmp_path, checkpoint):
    live = _live_session(tmp_path, checkpoint)
    recovered = Database.recover(tmp_path / "doc.log")
    assert_store_exact(recovered.document)
    assert recovered.views.names == live.views.names
    assert "names" not in recovered.views  # dropped mid-log stays dropped
    assert not recovered.views["declared"].is_materialized
    assert _extents(recovered) == _extents(live)
    for view in recovered.views:
        if view.is_materialized:
            assert_store_fed_equals_scan_fed(view, recovered.document)
    for query in ("site(//item[ID](/name[V]))", "site(//keyword[ID,V])"):
        assert normalize(recovered.query(query)) == normalize(live.query(query))
    live.close()
    recovered.close()
