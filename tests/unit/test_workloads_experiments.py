"""Unit tests for the workload generators and the experiment harnesses."""

import random

from repro import build_summary
from repro.canonical import is_satisfiable
from repro.experiments.fig13 import run_fig13_query_containment, run_fig13_synthetic_containment
from repro.experiments.fig15 import fig15_views, run_fig15
from repro.experiments.table1 import TABLE1_DOCUMENTS, print_table1, run_table1
from repro.workloads.corpora import (
    generate_nasa_document,
    generate_shakespeare_document,
    generate_swissprot_document,
)
from repro.workloads.dblp import generate_dblp_document
from repro.workloads.synthetic import (
    SyntheticPatternConfig,
    generate_random_pattern,
    generate_random_views,
    seed_tag_views,
)
from repro.workloads.xmark import generate_xmark_document, xmark_query_patterns


class TestGenerators:
    def test_xmark_document_structure(self):
        document = generate_xmark_document(scale=1.0, seed=42)
        summary = build_summary(document)
        assert summary.has_path("/site/regions")
        assert any("item" in node.path for node in summary.iter_nodes())
        assert any("listitem" in node.path for node in summary.iter_nodes())
        assert summary.size < document.size

    def test_xmark_scaling_grows_document_not_summary(self):
        small = build_summary(generate_xmark_document(scale=1.0, seed=1))
        large_doc = generate_xmark_document(scale=3.0, seed=1)
        large = build_summary(large_doc)
        assert large_doc.size > 0
        # the summary grows much more slowly than the document (Table 1 claim)
        assert large.size <= small.size * 2

    def test_xmark_reproducibility(self):
        first = generate_xmark_document(scale=1.0, seed=9)
        second = generate_xmark_document(scale=1.0, seed=9)
        assert first.size == second.size

    def test_dblp_snapshots_differ(self):
        from repro.workloads.dblp import dblp_spec

        old_spec, new_spec = dblp_spec("2002"), dblp_spec("2005")
        # the 2005 snapshot adds record fields, so its spec is strictly richer
        assert len(new_spec.children["article"]) > len(old_spec.children["article"])
        old = build_summary(generate_dblp_document("2002", seed=4))
        new = build_summary(generate_dblp_document("2005", seed=4))
        assert old.size > 10 and new.size > 10
        assert old.root.label == new.root.label == "dblp"

    def test_other_corpora_generate(self):
        for generator, root in [
            (generate_shakespeare_document, "PLAY"),
            (generate_nasa_document, "datasets"),
            (generate_swissprot_document, "root"),
        ]:
            document = generator(seed=2)
            assert document.root.label == root
            assert build_summary(document).size > 5

    def test_xmark_query_patterns_are_satisfiable(self):
        summary = build_summary(generate_xmark_document(scale=2.0, seed=548))
        patterns = xmark_query_patterns()
        assert len(patterns) == 20
        for name, pattern in patterns.items():
            assert is_satisfiable(pattern, summary), f"{name} is unsatisfiable"


class TestSyntheticPatterns:
    def test_random_patterns_are_satisfiable(self):
        summary = build_summary(generate_xmark_document(scale=1.0, seed=3))
        rng = random.Random(1)
        for size in (3, 6, 9):
            config = SyntheticPatternConfig(size=size, return_count=2)
            pattern = generate_random_pattern(summary, config, rng=rng)
            assert pattern.size <= size + 1
            assert pattern.arity >= 1
            assert is_satisfiable(pattern, summary)

    def test_seed_views_cover_every_tag(self):
        summary = build_summary(generate_xmark_document(scale=1.0, seed=3))
        views = seed_tag_views(summary)
        labels = {view.nodes()[1].label for view in views}
        summary_labels = {n.label for n in summary.iter_nodes() if n.parent is not None}
        assert labels == summary_labels
        assert all(view.return_nodes()[0].attributes == ("ID", "V") for view in views)

    def test_random_views_have_stored_nodes(self):
        summary = build_summary(generate_xmark_document(scale=1.0, seed=3))
        views = generate_random_views(summary, count=10, seed=5)
        assert len(views) == 10
        assert all(view.return_nodes() for view in views)


class TestExperimentHarnesses:
    def test_table1_rows(self):
        rows = run_table1(scale=0.5)
        assert len(rows) == len(TABLE1_DOCUMENTS)
        for row in rows:
            assert row.summary_size <= row.document_size
            assert row.strong_edges >= row.one_to_one_edges
        text = print_table1(rows)
        assert "XMark111" in text

    def test_fig13_query_rows(self):
        summary = build_summary(generate_xmark_document(scale=1.0, seed=548))
        rows = run_fig13_query_containment(summary)
        assert len(rows) == 20
        assert all(row.contained for row in rows)
        assert all(row.canonical_model_size >= 1 for row in rows)
        # the figure times the canonical-model decider, not a homomorphism
        assert all(row.canonical_trees_checked >= 1 for row in rows)
        # Q7 has by far the largest canonical model (the paper's outlier)
        largest = max(rows, key=lambda row: row.canonical_model_size)
        assert largest.query == "Q7"

    def test_fig13_synthetic_rows(self):
        summary = build_summary(generate_xmark_document(scale=1.0, seed=548))
        rows = run_fig13_synthetic_containment(
            summary, sizes=(3, 5), return_counts=(1,), patterns_per_size=3
        )
        assert len(rows) == 2
        for row in rows:
            assert row.positive_tests >= 1  # self-containment pairs always positive

    def test_fig15_rows(self):
        summary = build_summary(generate_xmark_document(scale=1.0, seed=548))
        views = fig15_views(summary, random_view_count=5)
        assert len(views) > 20
        rows = run_fig15(
            summary=summary,
            random_view_count=5,
            time_budget_seconds=2.0,
            max_rewritings=1,
            query_names=["Q6", "Q18"],
        )
        assert [row.query for row in rows] == ["Q6", "Q18"]
        for row in rows:
            assert row.total_seconds >= row.setup_seconds
            assert 0.0 <= row.views_kept_ratio <= 1.0
        assert any(row.rewritings_found > 0 for row in rows)
