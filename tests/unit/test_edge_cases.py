"""Additional edge-case tests across modules: error paths, odd inputs,
configuration handling and public-API surface checks."""

import pytest

import repro
from repro import (
    DeweyID,
    MaterializedView,
    Rewriter,
    ValueFormula,
    build_summary,
    parse_parenthesized,
    parse_pattern,
)
from repro.errors import PatternError, ReproError, RewritingError
from repro.patterns.semantics import evaluate_node_tuples, evaluate_pattern
from repro.planning.planner import Planner
from repro.rewriting import RewritingConfig
from repro.views.store import ViewSet


class TestPublicAPI:
    def test_package_exports_are_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"

    def test_every_error_derives_from_repro_error(self):
        from repro import errors

        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) and obj is not ReproError:
                if obj.__module__ == "repro.errors":
                    assert issubclass(obj, ReproError)

    def test_version_string(self):
        assert repro.__version__.count(".") == 2


class TestPatternEdgeCases:
    def test_single_node_pattern_matches_root_only(self):
        doc = parse_parenthesized("a(b c)")
        pattern = parse_pattern("a[ID]")
        tuples = evaluate_node_tuples(pattern, doc.root)
        assert len(tuples) == 1

    def test_pattern_without_return_nodes_raises_on_evaluation(self):
        from repro.patterns.pattern import PatternNode, TreePattern

        pattern = TreePattern(PatternNode("a"))
        doc = parse_parenthesized("a")
        with pytest.raises(PatternError):
            evaluate_node_tuples(pattern, doc.root)
        with pytest.raises(PatternError):
            evaluate_pattern(pattern, doc)

    def test_root_label_mismatch_gives_empty_result(self):
        doc = parse_parenthesized("a(b)")
        assert evaluate_node_tuples(parse_pattern("z(//b[R])"), doc.root) == set()

    def test_deeply_nested_pattern_evaluation(self):
        doc = parse_parenthesized("a(b(c(d(e(f='x')))))")
        pattern = parse_pattern("a(//b(//c(//d(//e(//f[V])))))")
        relation = evaluate_pattern(pattern, doc)
        assert relation.rows == [("x",)]

    def test_multiple_wildcards(self):
        doc = parse_parenthesized("a(x(k) y(k) z(q))")
        pattern = parse_pattern("a(/*(/k[R]))")
        assert len(evaluate_node_tuples(pattern, doc.root)) == 2

    def test_same_label_siblings_in_pattern(self):
        # two sibling branches with the same label can bind to the same or to
        # different document nodes (standard homomorphism semantics)
        doc = parse_parenthesized("a(b(c) b(d))")
        pattern = parse_pattern("a(/b[R](/c), /b[R](/d))")
        tuples = evaluate_node_tuples(pattern, doc.root)
        assert len(tuples) == 1
        (first, second) = list(tuples)[0]
        assert first is not second


class TestRewriterConfiguration:
    @pytest.fixture()
    def tiny_db(self):
        doc = parse_parenthesized('site(item(name="pen") item(name="ink"))')
        return doc, build_summary(doc)

    def test_stop_at_first_limits_results(self, tiny_db):
        doc, summary = tiny_db
        view = MaterializedView(parse_pattern("site(//item[ID](/name[V]))", name="v"), doc, name="v")
        config = RewritingConfig(stop_at_first=True)
        outcome = Rewriter(summary, [view], config).rewrite(
            parse_pattern("site(//item[ID](/name[V]))", name="q")
        )
        assert len(outcome.rewritings) == 1

    def test_max_rewritings_cap(self, tiny_db):
        doc, summary = tiny_db
        views = [
            MaterializedView(parse_pattern("site(//item[ID](/name[V]))", name=f"v{i}"), doc, name=f"v{i}")
            for i in range(3)
        ]
        config = RewritingConfig(max_rewritings=2)
        outcome = Rewriter(summary, views, config).rewrite(
            parse_pattern("site(//item[ID](/name[V]))", name="q")
        )
        assert len(outcome.rewritings) == 2

    def test_answer_raises_without_rewriting(self, tiny_db):
        doc, summary = tiny_db
        view = MaterializedView(parse_pattern("site(//item[ID])", name="v"), doc, name="v")
        rewriter = Rewriter(summary, [view])
        with pytest.raises(RewritingError):
            Planner(rewriter).answer(
                parse_pattern("site(//item[ID](/name[V]))", name="q")
            )

    def test_best_prefers_fewest_views(self, tiny_db):
        doc, summary = tiny_db
        views = [
            MaterializedView(parse_pattern("site(//item[ID](/name[V]))", name="wide"), doc, name="wide"),
            MaterializedView(parse_pattern("site(//item[ID])", name="ids"), doc, name="ids"),
            MaterializedView(parse_pattern("site(//name[ID,V])", name="names"), doc, name="names"),
        ]
        outcome = Rewriter(summary, views).rewrite(
            parse_pattern("site(//item[ID](/name[V]))", name="q")
        )
        assert outcome.found
        assert len(outcome.best.views_used) == 1

    def test_rewrite_first_helper(self, tiny_db):
        doc, summary = tiny_db
        view = MaterializedView(parse_pattern("site(//item[ID](/name[V]))", name="v"), doc, name="v")
        rewriting = Rewriter(summary, [view]).rewrite_first(
            parse_pattern("site(//item[ID](/name[V]))", name="q")
        )
        assert rewriting is not None
        missing = Rewriter(summary, [view]).rewrite_first(
            parse_pattern("site(//item[ID](/name[V]{v='zzz'}, //*[C]))", name="q2")
        )
        assert missing is None or missing.plan is not None  # never raises

    def test_viewset_materialize_all(self, tiny_db):
        doc, _ = tiny_db
        store = ViewSet([MaterializedView(parse_pattern("site(//item[ID])", name="v"))])
        assert not store["v"].is_materialized
        store.materialize_all(doc)
        assert store["v"].is_materialized


class TestRelationValueIdentity:
    def test_dewey_and_node_hash_equivalence(self):
        doc = parse_parenthesized("a(b)")
        node = doc.root.children[0]
        from repro.algebra.tuples import _hashable

        assert _hashable(node) == _hashable(node.dewey)
        assert _hashable(DeweyID((1, 1))) == ("<id>", (1, 1))

    def test_formula_selection_on_node_content_column(self):
        # a Selection over a column holding XMLNode content compares the
        # node's own value
        from repro.algebra.execution import PlanExecutor
        from repro.algebra.operators import Selection, ViewScan

        doc = parse_parenthesized('a(b="7" b="9")')
        views = ViewSet([MaterializedView(parse_pattern("a(/b[C])", name="v"), doc, name="v")])
        plan = Selection(child=ViewScan("v"), column="v.C1", formula=ValueFormula.gt(8))
        result = PlanExecutor(views).execute(plan)
        assert len(result) == 1
