"""Unit tests for the pattern AST, the DSL parser and the XPath/XQuery compilers."""

import pytest

from repro import Axis, PatternNode, TreePattern, parse_pattern
from repro.errors import PatternError, PatternParseError
from repro.patterns.xpath import xpath_to_pattern
from repro.patterns.xquery import xquery_to_pattern


class TestPatternAST:
    def test_add_child_defaults(self):
        root = PatternNode("a")
        child = root.add_child("b")
        assert child.axis is Axis.CHILD
        assert child.parent is root
        assert not child.optional and not child.nested

    def test_attributes_normalised_and_validated(self):
        node = PatternNode("a", attributes=("id", "v", "ID"))
        assert node.attributes == ("ID", "V")
        with pytest.raises(PatternError):
            PatternNode("a", attributes=("XX",))

    def test_is_return_from_attributes_or_flag(self):
        assert PatternNode("a", attributes=("ID",)).is_return
        assert PatternNode("a", is_return=True).is_return
        assert not PatternNode("a").is_return

    def test_root_cannot_be_optional(self):
        with pytest.raises(PatternError):
            TreePattern(PatternNode("a", optional=True))

    def test_size_arity_and_feature_flags(self):
        pattern = parse_pattern("a(//b[ID], /?c{v>2}, /~d[V])")
        assert pattern.size == 4
        assert pattern.arity == 2
        assert pattern.has_nested_edges()
        assert pattern.has_predicates()

    def test_nesting_depth(self):
        pattern = parse_pattern("a(/~b(/c(/~d[V])))")
        d = pattern.nodes()[-1]
        assert d.nesting_depth() == 2

    def test_copy_is_structural_copy(self):
        pattern = parse_pattern("a(//b[ID,V]{v=3}(/?c))")
        clone = pattern.copy()
        assert clone == pattern
        assert clone.nodes()[1] is not pattern.nodes()[1]

    def test_strict_and_unnested_versions(self):
        pattern = parse_pattern("a(//?b[ID], /~c[V]{v>1})")
        assert not any(node.optional for node in pattern.strict_version().nodes())
        assert not pattern.unnested_version().has_nested_edges()

    def test_explicit_return_order(self):
        pattern = parse_pattern("a(//b[ID], //c[V])")
        b_node, c_node = pattern.return_nodes()
        pattern.set_return_order([c_node, b_node])
        assert [n.label for n in pattern.return_nodes()] == ["c", "b"]
        clone = pattern.copy()
        assert [n.label for n in clone.return_nodes()] == ["c", "b"]

    def test_set_return_order_validates(self):
        pattern = parse_pattern("a(//b[ID], //c)")
        c_node = pattern.nodes()[2]
        with pytest.raises(PatternError):
            pattern.set_return_order([c_node])  # not a return node

    def test_structural_equality_includes_predicates(self):
        left = parse_pattern("a(//b[ID]{v>2})")
        right = parse_pattern("a(//b[ID]{v>2})")
        different = parse_pattern("a(//b[ID]{v>3})")
        assert left == right
        assert left != different
        assert hash(left) == hash(right)


class TestPatternDSL:
    def test_round_trip(self):
        texts = [
            "a(//b[ID,V](/c{v=3}), /?d[C], //~e[L])",
            "site(//item[ID](/name[V], //?listitem[C]))",
            "a(//*[R](/b, /d))",
        ]
        for text in texts:
            pattern = parse_pattern(text)
            assert parse_pattern(pattern.to_text()) == pattern

    def test_axis_and_modifiers(self):
        pattern = parse_pattern("a(//?~b[V])")
        b = pattern.nodes()[1]
        assert b.axis is Axis.DESCENDANT
        assert b.optional and b.nested

    def test_default_return_node_is_last(self):
        pattern = parse_pattern("a(/b(/c))")
        assert [n.label for n in pattern.return_nodes()] == ["c"]

    def test_predicate_parsed(self):
        pattern = parse_pattern("a(/b{v > 2 and v < 9})")
        assert pattern.nodes()[1].predicate.evaluate(5)
        assert not pattern.nodes()[1].predicate.evaluate(9)

    def test_parse_errors(self):
        for text in ["a(b)", "a(/b", "a(/b[XX])", "a(/b{v>})", "a(/b) extra"]:
            with pytest.raises((PatternParseError, Exception)):
                parse_pattern(text)


class TestXPathCompiler:
    def test_simple_path(self):
        pattern = xpath_to_pattern("/site/regions//item")
        assert pattern.to_text() == "site(/regions(//item[ID,V]))"

    def test_leading_descendant(self):
        pattern = xpath_to_pattern("//item/name")
        assert pattern.root.label == "*"
        assert pattern.nodes()[1].axis is Axis.DESCENDANT

    def test_existential_qualifier(self):
        pattern = xpath_to_pattern("/site//item[mailbox//mail]/name")
        labels = [n.label for n in pattern.nodes()]
        assert "mailbox" in labels and "mail" in labels
        assert pattern.return_nodes()[0].label == "name"

    def test_value_qualifier(self):
        pattern = xpath_to_pattern("/a/b[c > 3]")
        c = [n for n in pattern.nodes() if n.label == "c"][0]
        assert c.predicate.evaluate(4) and not c.predicate.evaluate(3)

    def test_self_value_qualifier(self):
        pattern = xpath_to_pattern("/a/b[. = 'x']")
        assert pattern.return_nodes()[0].predicate.evaluate("x")

    def test_text_function_returns_value_only(self):
        pattern = xpath_to_pattern("/a/b/text()")
        assert pattern.return_nodes()[0].attributes == ("V",)

    def test_rejects_relative_paths(self):
        with pytest.raises(PatternParseError):
            xpath_to_pattern("a/b")


class TestXQueryCompiler:
    RUNNING_EXAMPLE = """
        for $x in doc("XMark.xml")//item[//mail] return
            <res> { $x/name/text(),
                    for $y in $x//listitem return
                        <key> { $y//keyword } </key> } </res>
    """

    def test_running_example_shape(self):
        pattern = xquery_to_pattern(self.RUNNING_EXAMPLE)
        labels = {n.label for n in pattern.nodes()}
        assert {"item", "mail", "name", "listitem", "keyword"} <= labels
        item = [n for n in pattern.nodes() if n.label == "item"][0]
        assert "ID" in item.attributes
        listitem = [n for n in pattern.nodes() if n.label == "listitem"][0]
        assert listitem.nested and listitem.optional
        name = [n for n in pattern.nodes() if n.label == "name"][0]
        assert name.optional and "V" in name.attributes
        keyword = [n for n in pattern.nodes() if n.label == "keyword"][0]
        assert "C" in keyword.attributes

    def test_where_clause_becomes_predicate(self):
        pattern = xquery_to_pattern(
            'for $x in doc("d")//person where $x/age > 30 return <r> { $x/name/text() } </r>'
        )
        age = [n for n in pattern.nodes() if n.label == "age"][0]
        assert age.predicate.evaluate(40) and not age.predicate.evaluate(30)

    def test_variable_must_be_bound(self):
        with pytest.raises(PatternParseError):
            xquery_to_pattern('for $x in doc("d")//a return <r> { $y/b } </r>')

    def test_nested_flwr_only_outer_doc(self):
        with pytest.raises(PatternParseError):
            xquery_to_pattern(
                'for $x in doc("d")//a return for $y in doc("e")//b return <r> { $y/c } </r>'
            )
