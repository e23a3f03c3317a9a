"""Answering a workload of XPath queries from a handful of materialised views.

A small "view selection" scenario: given one document, a few views are
materialised once, and a workload of XPath queries is answered purely from
the views (whenever an equivalent rewriting exists), checking every answer
against direct evaluation.

Run with::

    python examples/view_selection_rewriting.py
"""

from repro import Database, evaluate_pattern, xpath_to_pattern
from repro.errors import RewritingError
from repro.rewriting import RewritingConfig
from repro.workloads.dblp import generate_dblp_document

WORKLOAD = [
    "/dblp/article/title",
    "/dblp//article[journal]/author",
    "/dblp/inproceedings[booktitle]/title",
    "/dblp//article[volume > 10]/title",
    "/dblp/phdthesis/author",
]


def main() -> None:
    # scale 1.0 keeps the example (and the CI `examples` job) fast; raise it
    # for a larger corpus — the workload and views are scale-independent
    document = generate_dblp_document("2005", scale=1.0, seed=21, name="dblp")
    db = Database(
        document, config=RewritingConfig(max_rewritings=1, time_budget_seconds=10.0)
    )
    print(f"DBLP-like document: {document.size} nodes, summary {db.summary.size} nodes\n")

    for name, pattern in [
        ("v_articles",
         "dblp(//article[ID](/?title[ID,V], /?author[ID,V], /?journal[ID,V], /?volume[ID,V]))"),
        ("v_inproc", "dblp(//inproceedings[ID](/?title[ID,V], /?booktitle[ID,V]))"),
        ("v_thesis", "dblp(//phdthesis[ID](/?author[ID,V]))"),
    ]:
        view = db.create_view(pattern, name=name)
        print(f"materialised {view.name}: {len(view.relation)} rows")

    print("\nworkload:")
    for xpath in WORKLOAD:
        query = xpath_to_pattern(xpath, return_attributes=("ID", "V"), name=xpath)
        try:
            prepared = db.prepare(query)
        except RewritingError:
            print(f"  {xpath:45s} -> no equivalent rewriting over the views")
            continue
        answer = prepared.run()
        direct = evaluate_pattern(query, document)
        status = "OK" if answer.same_contents(direct) else "MISMATCH"
        views_used = "+".join(prepared.explain().views_used)
        print(f"  {xpath:45s} -> {len(answer):3d} rows from {views_used} [{status}]")
    db.close()


if __name__ == "__main__":
    main()
