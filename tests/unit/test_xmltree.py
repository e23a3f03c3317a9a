"""Unit tests for the XML substrate: nodes, documents, parsing, serialisation."""

import gc

import pytest

from repro import (
    Database,
    DeweyID,
    XMLDocument,
    XMLNode,
    element,
    parse_parenthesized,
    parse_xml_string,
    to_parenthesized,
    to_xml_string,
    tree,
)
from repro.errors import XMLError, XMLParseError
from repro.patterns.parser import parse_pattern
from repro.patterns.semantics import evaluate_pattern
from repro.xmltree.generator import (
    ChildSpec,
    RandomDocumentSpec,
    generate_random_document,
    generate_uniform_tree,
)
from support.documents import has_id


class TestXMLNode:
    def test_labels_must_be_non_empty(self):
        with pytest.raises(XMLError):
            XMLNode("")

    def test_append_sets_parent(self):
        parent = XMLNode("a")
        child = parent.append(XMLNode("b", 3))
        assert child.parent is parent
        assert parent.children == [child]

    def test_cannot_append_attached_node(self):
        parent = XMLNode("a")
        child = parent.append(XMLNode("b"))
        with pytest.raises(XMLError):
            XMLNode("c").append(child)

    def test_descendants_in_document_order(self):
        doc = parse_parenthesized("a(b(c) d(e f))")
        labels = [n.label for n in doc.root.iter_descendants()]
        assert labels == ["b", "c", "d", "e", "f"]

    def test_subtree_contains_self(self):
        doc = parse_parenthesized("a(b)")
        assert [n.label for n in doc.root.iter_subtree()] == ["a", "b"]

    def test_ancestors_nearest_first(self):
        doc = parse_parenthesized("a(b(c(d)))")
        d = doc.root.children[0].children[0].children[0]
        assert [n.label for n in d.iter_ancestors()] == ["c", "b", "a"]

    def test_children_and_descendants_with_label(self):
        doc = parse_parenthesized("a(b b(c(b)) d)")
        assert len(doc.root.children_with_label("b")) == 2
        assert len(doc.root.descendants_with_label("b")) == 3
        assert len(doc.root.children_with_label("*")) == 3

    def test_rooted_path(self):
        doc = parse_parenthesized("a(b(c))")
        c = doc.root.children[0].children[0]
        assert c.path == "/a/b/c"

    def test_copy_is_deep_and_detached(self):
        doc = parse_parenthesized('a(b="1"(c))')
        clone = doc.root.copy()
        assert clone.parent is None
        assert clone.children[0].label == "b"
        assert clone.children[0] is not doc.root.children[0]

    def test_detach(self):
        doc = parse_parenthesized("a(b c)")
        b = doc.root.children[0]
        b.detach()
        assert b.parent is None
        assert [c.label for c in doc.root.children] == ["c"]

    def test_depth_and_subtree_size(self):
        doc = parse_parenthesized("a(b(c) d)")
        assert doc.root.depth == 1
        assert doc.root.children[0].children[0].depth == 3
        assert doc.root.subtree_size() == 4


class TestXMLDocument:
    def test_ids_assigned_in_document_order(self):
        doc = parse_parenthesized("a(b(c) d)")
        ids = [str(n.dewey) for n in doc.iter_nodes()]
        assert ids == ["1", "1.1", "1.1.1", "1.2"]

    def test_node_lookup_by_id(self):
        doc = parse_parenthesized("a(b c)")
        node = doc.node_by_id(doc.root.children[1].dewey)
        assert node.label == "c"

    def test_unknown_id_raises(self):
        doc = parse_parenthesized("a(b)")
        with pytest.raises(XMLError):
            doc.node_by_id(DeweyID((1, 9)))

    def test_nodes_on_path(self):
        doc = parse_parenthesized("a(b(c) b(c c))")
        assert len(doc.nodes_on_path("/a/b/c")) == 3

    def test_root_cannot_have_parent(self):
        parent = XMLNode("a")
        child = parent.append(XMLNode("b"))
        with pytest.raises(XMLError):
            XMLDocument(child)

    def test_reindex_after_mutation(self):
        doc = parse_parenthesized("a(b)")
        doc.root.append(XMLNode("c"))
        doc.reindex()
        assert doc.size == 3
        assert doc.root.children[1].path == "/a/c"


def _generated(seed=3) -> XMLDocument:
    spec = RandomDocumentSpec(
        root="r",
        children={"r": [ChildSpec("a", 2, 5)], "a": [ChildSpec("b", 0, 4)],
                  "b": [ChildSpec("c", 0, 3)]},
        values={"c": [1, 2, 3]},
    )
    return generate_random_document(spec, seed=seed)


class TestDerivedIds:
    """Nodes store sibling ordinals; ``dewey`` is derived from the parent chain."""

    def test_every_id_equals_the_root_down_child_walk(self):
        doc = _generated()
        stack = [(doc.root, DeweyID.root())]
        seen = 0
        while stack:
            node, expected = stack.pop()
            assert node.dewey == expected and node.dewey_key == expected.components
            seen += 1
            stack.extend(
                (child, expected.child(ordinal))
                for ordinal, child in enumerate(node.children, start=1)
            )
        assert seen == doc.size

    def test_the_document_keeps_no_id_per_node(self):
        assert len(XMLNode.__slots__) == 6 and "dewey" not in XMLNode.__slots__
        gc.collect()
        before = sum(isinstance(obj, DeweyID) for obj in gc.get_objects())
        doc = _generated()
        after = sum(isinstance(obj, DeweyID) for obj in gc.get_objects())
        assert after - before <= 1  # the root's anchor
        assert not any(
            isinstance(value, dict) and len(value) >= doc.size
            for value in vars(doc).values()
        )
        # the one per-node structure is the node list iter_nodes reads
        (nodes,) = [
            value for value in vars(doc).values()
            if isinstance(value, list) and len(value) >= doc.size
        ]
        assert nodes == list(doc.root.iter_subtree()) and len(nodes) == doc.size

    def test_a_deleted_subtree_keeps_its_ids_and_leaves_the_lookup(self):
        doc = _generated()
        victim = doc.root.children[1]
        members = list(victim.iter_subtree())
        ids = [member.dewey for member in members]
        doc.delete_subtree(victim)
        assert victim.parent is None
        assert [member.dewey for member in members] == ids
        for dewey in ids:
            with pytest.raises(XMLError):
                doc.node_by_id(dewey)

    def test_lookups_past_a_gap_and_inserts_after_it(self):
        doc = parse_parenthesized("r(a b(x) c(y z) d)")
        b, c, d = doc.root.children[1:]
        doc.delete_subtree(b)
        doc.delete_subtree(d)
        # c keeps ordinal 3 at position 2: the lookup takes the bisect branch
        assert c.ordinal == 3 and doc.root.children.index(c) == 1
        assert doc.node_by_id(DeweyID((1, 3, 2))) is c.children[1]
        assert not has_id(doc, DeweyID((1, 2)))
        # an insert takes the ordinal past the highest ever handed out
        fresh = doc.insert_subtree(doc.root, XMLNode("e"))
        assert fresh.dewey == DeweyID((1, 5))
        assert doc.node_by_id(DeweyID((1, 5))) is fresh
        assert not has_id(doc, DeweyID((1, 4)))
        assert doc.ordinal_gaps() == {DeweyID((1,)): [1, 3, 5, 5]}

    def test_size_and_node_order_follow_inserts_and_deletes(self):
        doc = _generated()
        size = doc.size

        def in_document_order():
            walked = list(doc.root.iter_subtree())
            assert list(doc.iter_nodes()) == walked and doc.size == len(walked)
            return walked

        subtree = parse_parenthesized("n(m(k) m)").root
        doc.insert_subtree(doc.root.children[0], subtree)
        assert len(in_document_order()) == size + 4
        doc.insert_subtree(doc.root.children[0].children[0], XMLNode("p"))
        doc.insert_subtree(doc.root, XMLNode("q"))
        assert len(in_document_order()) == size + 6
        victim = doc.root.children[-2]
        gone = sum(1 for _ in victim.iter_subtree())
        doc.delete_subtree(victim)
        assert len(in_document_order()) == size + 6 - gone
        doc.delete_subtree(subtree)
        assert len(in_document_order()) == size + 2 - gone

    def test_an_identified_node_shares_its_id_and_stays_findable(self):
        doc = parse_parenthesized("r(a(b c) a(x b(y)) d)")
        answer = evaluate_pattern(parse_pattern("r(//b[ID])"), doc)
        bs = [node for node in doc.iter_nodes() if node.label == "b"]
        # the answer's cells are the nodes' own anchors, not copies
        assert [row[0] for row in answer.rows] == [b.dewey for b in bs]
        assert all(row[0] is b.dewey for row, b in zip(answer.rows, bs))
        assert bs[1].children[0].dewey == DeweyID((1, 2, 2, 1))
        assert all(doc.node_by_id(b.dewey) is b for b in bs)
        # anchored nodes take inserts below them and can be deleted
        fresh = doc.insert_subtree(bs[1], XMLNode("z"))
        assert fresh.dewey == DeweyID((1, 2, 2, 2)) and has_id(doc, fresh.dewey)
        doc.delete_subtree(bs[0])
        assert not has_id(doc, DeweyID((1, 1, 1)))
        assert doc.node_by_id(DeweyID((1, 1, 2))).label == "c"
        with pytest.raises(XMLError):
            doc.insert_subtree(bs[0], XMLNode("q"))
        walked = [(doc.root, DeweyID.root())]
        while walked:
            node, expected = walked.pop()
            assert node.dewey == expected
            walked.extend((c, expected.child(c.ordinal)) for c in node.children)

    def test_assigning_an_id_to_a_detached_node_anchors_its_subtree(self):
        doc = parse_parenthesized("r(a(b(c)))")
        a = doc.delete_subtree(doc.root.children[0])
        a.dewey = DeweyID((4, 2))
        c = a.children[0].children[0]
        assert c.dewey == DeweyID((4, 2, 1, 1))
        assert c.ordinal == 1 and a.ordinal == 2

    def test_save_load_keeps_every_id_across_ordinal_gaps(self, tmp_path):
        doc = _generated(seed=11)
        for victim in (doc.root.children[0], doc.root.children[-1].children[0]):
            doc.delete_subtree(victim)
        doc.insert_subtree(doc.root.children[1], XMLNode("b"))
        assert doc.ordinal_gaps()
        db = Database(doc)
        db.save(tmp_path / "snapshot.log")
        loaded = Database.load(tmp_path / "snapshot.log").document
        pairs = list(zip(doc.iter_nodes(), loaded.iter_nodes(), strict=True))
        assert all(old.dewey == new.dewey for old, new in pairs)
        assert all(loaded.node_by_id(new.dewey) is new for _, new in pairs)
        assert loaded.ordinal_gaps() == doc.ordinal_gaps()
        assert loaded.size == doc.size


class TestBuildersAndParsers:
    def test_element_builder(self):
        doc = tree(element("a", element("b", value=1), element("c")))
        assert doc.size == 3
        assert doc.root.children[0].value == 1

    def test_parenthesized_values(self):
        doc = parse_parenthesized('a(b="text value" c=42 d=3.5)')
        values = [c.value for c in doc.root.children]
        assert values == ["text value", 42, 3.5]

    def test_parenthesized_rejects_garbage(self):
        with pytest.raises(XMLParseError):
            parse_parenthesized("a(b))")
        with pytest.raises(XMLParseError):
            parse_parenthesized("a(b")

    def test_xml_string_round_trip(self):
        doc = parse_xml_string("<a><b x='1'>hello</b><c>2</c></a>")
        assert doc.root.label == "a"
        b = doc.root.children[0]
        assert b.value == "hello"
        assert b.children[0].label == "@x"
        assert doc.root.children[1].value == 2
        # serialising and re-parsing preserves structure
        again = parse_xml_string(to_xml_string(doc))
        assert to_parenthesized(again) == to_parenthesized(doc)

    def test_xml_string_escapes_what_saxutils_escapes(self):
        from xml.sax.saxutils import escape

        text = "a < b && c > d; 'café'"
        node = XMLNode("e", text, [XMLNode("@k", text)])
        assert to_xml_string(node, pretty=False) == (
            f'<e k="{escape(text)}">{escape(text)}</e>'
        )
        again = parse_xml_string(to_xml_string(node)).root
        assert again.value == again.children[0].value == text

    @pytest.mark.parametrize(
        "text",
        ['say "hi"', "it's", "a & b", "a < b", "a > b", "a\nb", "a\r\nb", "a\tb",
         "café ☃ 名前", "\"'&<>\n\r\t"],
    )
    def test_attribute_values_round_trip(self, text):
        node = XMLNode("e", None, [XMLNode("@k", text)])
        markup = to_xml_string(node, pretty=False)
        assert markup.count('"') == 2
        assert parse_xml_string(markup).root.children[0].value == text

    def test_xml_parse_error(self):
        with pytest.raises(XMLParseError):
            parse_xml_string("<a><b></a>")

    def test_to_parenthesized(self):
        doc = parse_parenthesized('a(b="1" c(d))')
        assert to_parenthesized(doc) == 'a(b="1" c(d))'


class TestGenerators:
    def test_spec_generator_is_reproducible(self):
        spec = RandomDocumentSpec(
            root="r",
            children={"r": [ChildSpec("a", 1, 3)], "a": [ChildSpec("b", 0, 2)]},
            values={"b": [1, 2, 3]},
        )
        one = generate_random_document(spec, seed=5)
        two = generate_random_document(spec, seed=5)
        assert to_parenthesized(one) == to_parenthesized(two)

    def test_spec_generator_respects_max_depth(self):
        spec = RandomDocumentSpec(
            root="r",
            children={"r": [ChildSpec("r", 1, 1)]},
            values={},
            max_depth=3,
            max_recursion=10,
        )
        doc = generate_random_document(spec, seed=1)
        assert max(node.depth for node in doc.iter_nodes()) <= 3

    def test_spec_generator_respects_recursion_limit(self):
        spec = RandomDocumentSpec(
            root="r",
            children={"r": [ChildSpec("x", 1, 1)], "x": [ChildSpec("x", 1, 1)]},
            values={},
            max_depth=20,
            max_recursion=2,
        )
        doc = generate_random_document(spec, seed=1)
        # the recursive label appears at most twice on any root-to-leaf path
        deepest = max(doc.iter_nodes(), key=lambda n: n.depth)
        labels_on_path = [deepest.label] + [a.label for a in deepest.iter_ancestors()]
        assert labels_on_path.count("x") <= 2

    def test_uniform_tree_root_label_is_first(self):
        doc = generate_uniform_tree(["a", "b", "c"], seed=2)
        assert doc.root.label == "a"

    def test_unknown_root_label_raises(self):
        from repro.errors import WorkloadError

        spec = RandomDocumentSpec(root="missing", children={}, values={})
        with pytest.raises(WorkloadError):
            generate_random_document(spec)
