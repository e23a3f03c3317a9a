"""Exploring structural summaries (Dataguides) across corpora.

Builds the summaries of all Table 1 corpora, prints their statistics, and
shows how summary constraints change containment answers (the /r//a//b vs
/r//b example of the paper).

Run with::

    python examples/dataguide_explorer.py
"""

from repro import are_equivalent, parse_pattern, summarize, summary_from_paths
from repro.experiments.table1 import TABLE1_DOCUMENTS


def corpus_tour() -> None:
    print("Table 1 corpora and their summaries")
    print(f"{'corpus':>12} | {'doc nodes':>9} | {'|S|':>5} | {'strong':>6} | {'1-to-1':>6}")
    for name, generator in TABLE1_DOCUMENTS:
        document = generator(0.6)
        stats = summarize(document)
        print(
            f"{name:>12} | {stats.document_size:>9} | {stats.summary_size:>5} | "
            f"{stats.strong_edges:>6} | {stats.one_to_one_edges:>6}"
        )


def containment_demo() -> None:
    print("\nSummary constraints change containment answers")
    query = parse_pattern("r(//a(//b[R]))", name="/r//a//b")
    view = parse_pattern("r(//b[R])", name="/r//b")

    constrained = summary_from_paths(["/r", "/r/a", "/r/a/b"], name="b-only-under-a")
    loose = summary_from_paths(["/r", "/r/b", "/r/a", "/r/a/b"], name="b-anywhere")

    for summary in (constrained, loose):
        equivalent = are_equivalent(query, view, summary, check_attributes=False)
        print(f"  under {summary.name!r}: /r//a//b ≡S /r//b ? {equivalent}")


def strong_edge_demo() -> None:
    print("\nStrong edges (integrity constraints) enable more rewritings")
    from repro import is_contained

    strong = summary_from_paths(["/a", "/a/b", "/a/b/d", ("/a/f", True)])
    weak = summary_from_paths(["/a", "/a/b", "/a/b/d", "/a/f"])
    p1 = parse_pattern("a(//d[R])")
    p2 = parse_pattern("a(//d[R], /f)")
    print("  with a strong /a/f edge   :", is_contained(p1, p2, strong, check_attributes=False))
    print("  without the strong edge   :", is_contained(p1, p2, weak, check_attributes=False))


if __name__ == "__main__":
    corpus_tour()
    containment_demo()
    strong_edge_demo()
