"""Stateful property: incremental maintenance ≡ rebuild-from-scratch.

A :class:`~hypothesis.stateful.RuleBasedStateMachine` drives random
interleavings of ``insert_subtree`` / ``delete_subtree`` / ``create_view`` /
``drop_view`` / ``query`` against *twin* sessions over identical documents:

* the system under test is a :class:`~repro.Database` — summary deltas,
  extent splices, in-place catalog resyncs;
* the oracle is ``support.rebuild_oracle.RebuildOracle`` — after every
  mutation it rebuilds the summary and re-materialises every view from the
  document, through public calls only.

After **every** step an invariant asserts the two sessions are
observationally identical: same serialised document, same summary (also
checked against a third, from-scratch :func:`build_summary`), row-identical
view extents, and identical answers for a fixed query pool.  Any divergence
hypothesis finds is shrunk to a minimal interleaving.

The ``ci`` profile (see ``tests/conftest.py``) runs this derandomized.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro import (
    Database,
    RewritingError,
    XMLNode,
    build_summary,
    decode_subtree,
    encode_subtree,
    parse_parenthesized,
    to_parenthesized,
)
from repro.algebra import Relation
from repro.views.catalog import ViewCatalog
from repro.xmltree.ids import DeweyID

from support.rebuild_oracle import RebuildOracle

DOC_TEXT = (
    "site("
    '  regions('
    '    asia(item(name="pen" quantity=2 description(text="blue"))'
    '         item(name="ink"))'
    '    europe(item(name="nib" quantity=7)))'
    '  people(person(name="bob" age=30) person(name="eve")))'
)

# Mix of delta-eligible chains, a splice-ineligible branchy shape, and a
# content view (node cells must repatriate to live document nodes).
VIEW_POOL = [
    ("v_item_name", "site(//item[ID](/name[V]))"),
    ("v_name", "site(//name[ID,V])"),
    ("v_person", "site(/people(/person[ID,C]))"),
    ("v_branchy", "site(//item[ID](/name[V], /quantity[V]))"),
]

QUERY_POOL = [
    "site(//item[ID](/name[V]))",
    "site(//name[ID,V])",
    "site(/people(/person[ID](/name[V])))",
]

_PARENT_PATHS = frozenset(
    {"/site/regions/asia", "/site/regions/europe", "/site/people"}
)

# Subtree prototypes; the machine stamps a serial number into the leaf values
# so repeated inserts stay distinguishable.
SUBTREE_SHAPES = [
    lambda n: XMLNode("item", None, [XMLNode("name", f"gadget-{n}")]),
    lambda n: XMLNode(
        "item",
        None,
        [XMLNode("name", f"widget-{n}"), XMLNode("quantity", n)],
    ),
    lambda n: XMLNode(
        "person", None, [XMLNode("name", f"person-{n}"), XMLNode("age", n)]
    ),
    lambda n: XMLNode("keyword", f"kw-{n}"),
]


def _normalize(value):
    """Cross-process-comparable form of a relation cell (or whole relation)."""
    if isinstance(value, Relation):
        return [tuple(_normalize(cell) for cell in row) for row in value.rows]
    if isinstance(value, XMLNode):
        return ("node", str(value.dewey), encode_subtree(value))
    if isinstance(value, DeweyID):
        return ("id", str(value))
    return value


def _summary_snapshot(summary):
    return {
        node.path: (node.instance_count, node.strong, node.one_to_one)
        for node in summary.iter_nodes()
    }


class LiveMaintenanceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sut = Database(parse_parenthesized(DOC_TEXT, name="twin"))
        self.oracle = RebuildOracle(parse_parenthesized(DOC_TEXT, name="twin"))
        self.serial = 0

    def teardown(self):
        self.sut.close()
        self.oracle.close()

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _both(self):
        return (self.sut, self.oracle)

    def _element_parents(self):
        """Dewey strings of the container nodes — the insertion points.

        Bounding parents to the three containers keeps the summary's path
        set realistic; unrestricted nesting (``item`` inside ``name``
        inside ``item`` …) makes each post-mutation containment memo
        rebuild combinatorial, turning every ``query`` step into seconds
        of rewriting search without testing any more maintenance code.
        """
        return [
            str(node.dewey)
            for node in self.sut.document.iter_nodes()
            if node.path in _PARENT_PATHS
        ]

    def _deletable(self):
        root = self.sut.document.root
        return [
            str(node.dewey)
            for node in self.sut.document.iter_nodes()
            if node is not root
        ]

    # ------------------------------------------------------------------ #
    # rules
    # ------------------------------------------------------------------ #
    @rule(parent_slot=st.integers(min_value=0), shape=st.integers(min_value=0))
    def insert(self, parent_slot, shape):
        parents = self._element_parents()
        if not parents:
            return  # every container was deleted
        parent = parents[parent_slot % len(parents)]
        self.serial += 1
        proto = encode_subtree(SUBTREE_SHAPES[shape % len(SUBTREE_SHAPES)](self.serial))
        inserted = [
            db.insert_subtree(parent, decode_subtree(proto)) for db in self._both()
        ]
        assert str(inserted[0].dewey) == str(inserted[1].dewey)

    @rule(victim_slot=st.integers(min_value=0))
    def delete(self, victim_slot):
        victims = self._deletable()
        if not victims:
            return
        victim = victims[victim_slot % len(victims)]
        for db in self._both():
            db.delete_subtree(victim)

    @rule(view_slot=st.integers(min_value=0, max_value=len(VIEW_POOL) - 1))
    def toggle_view(self, view_slot):
        name, pattern = VIEW_POOL[view_slot]
        if name in self.sut.views:
            for db in self._both():
                db.drop_view(name)
        else:
            for db in self._both():
                db.create_view(pattern, name=name)

    @rule(query_slot=st.integers(min_value=0, max_value=len(QUERY_POOL) - 1))
    def query(self, query_slot):
        text = QUERY_POOL[query_slot]
        outcomes = []
        for db in self._both():
            try:
                outcomes.append(_normalize(db.query(text)))
            except RewritingError:
                # the current view set cannot answer this query — the twin
                # must agree on that, too
                outcomes.append("no-rewriting")
        assert outcomes[0] == outcomes[1]

    # ------------------------------------------------------------------ #
    # the equivalence invariant — checked after every step
    # ------------------------------------------------------------------ #
    @invariant()
    def sessions_are_observationally_identical(self):
        assert to_parenthesized(self.sut.document.root) == to_parenthesized(
            self.oracle.document.root
        )
        incremental = _summary_snapshot(self.sut.summary)
        assert incremental == _summary_snapshot(self.oracle.summary)
        assert incremental == _summary_snapshot(build_summary(self.sut.document))
        assert set(self.sut.views.names) == set(self.oracle.views.names)
        for view in self.sut.views:
            twin = self.oracle.views[view.name]
            assert _normalize(view.relation) == _normalize(twin.relation)
            assert view.relation.sorted_by == twin.relation.sorted_by
            # node cells must be *live* nodes of the maintained document,
            # not leftovers from a pruned evaluation clone
            for row in view.relation.rows:
                for cell in row:
                    if isinstance(cell, XMLNode):
                        assert self.sut.document.node_by_id(cell.dewey) is cell
        # catalog indexes and statistics equal a from-scratch catalog over
        # the incrementally maintained summary (the PR 4 identity pattern)
        catalog = self.sut.catalog
        if catalog is not None and self.sut.views.names:
            fresh = ViewCatalog(self.sut.summary, list(self.sut.views))
            assert catalog._by_name == fresh._by_name
            assert catalog._by_root_label == fresh._by_root_label
            assert catalog._by_related_path == fresh._by_related_path
            assert catalog._by_path_attribute == fresh._by_path_attribute
            patched_stats = catalog.statistics()
            fresh_stats = fresh.statistics()
            for view in self.sut.views:
                assert patched_stats.view_rows(view.name) == fresh_stats.view_rows(
                    view.name
                )
                assert patched_stats.view_sorted_column(
                    view.name
                ) == fresh_stats.view_sorted_column(view.name)


TestLiveMaintenance = LiveMaintenanceMachine.TestCase
# 50 examples is the acceptance floor; 6 steps keeps tier-1 wall-clock sane
# (every structural mutation cold-starts the containment memo, so the query
# rule pays a full rewriting search — the dominant cost per step)
TestLiveMaintenance.settings = settings(
    max_examples=50, stateful_step_count=6, deadline=None
)
