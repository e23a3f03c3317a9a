"""The change-log writer streams a tree's ``[label, value, children]``
triples straight from its nodes.

Every line it writes must be the line the nested-list encoding gave —
``json.dumps`` of the whole record, CRC included — byte for byte
(``support.log_oracle``), so every log and snapshot written before it
still reads the same, and every one written after it reads with the same
reader.  And writing a ``load`` record must cost about the line's size,
not the nested lists and their two dumps.
"""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import Database, XMLNode, parse_parenthesized
from repro.ingest.changelog import ChangeLog, LogRecord, encode_subtree
from repro.workloads.dblp import generate_dblp_document
from repro.workloads.xmark import generate_xmark_document

from support.log_oracle import nested_line, snapshot_text

# equal values with different texts sit side by side (1 / True / 1.0,
# 0.0 / -0.0), in both orders, so a memo keyed on equality would show
ATOMS = [
    "plain", 'quote " backslash \\ slash /', "line\nbreak\ttab\x01\x1f",
    "</item>&amp;<", "café", "中文", "emoji 😀", "", "1", "true", "null",
    0, 1, -7, 2**70, True, False, None,
    1.0, 0.0, -0.0, 1.5, 1e300, -2.5e-8, float("nan"), float("inf"), float("-inf"),
]


def _atoms_tree() -> XMLNode:
    root = XMLNode("site")
    for index, value in enumerate(ATOMS + ATOMS[::-1]):
        label = ("item", "é", 'a"b', "tab\t")[index % 4]
        root.append(XMLNode(label, value, [XMLNode("name", value), XMLNode("leaf")]))
    return root


def _load_payload(root: XMLNode) -> dict:
    return {
        "name": "doc",
        "root": root,
        "ordinals": {"1.2": [1, 3, 4]},
        "format": "database/2",
        "config": {"max_rewritings": 8, "time_budget_seconds": 20.0},
    }


TREES = {
    "atoms": _atoms_tree,
    "leaf": lambda: XMLNode("root", "only"),
    "xmark": lambda: generate_xmark_document(scale=4, seed=3).root,
    "dblp": lambda: generate_dblp_document("2005", scale=0.6, seed=5).root,
}


@pytest.mark.parametrize("tree", sorted(TREES))
def test_a_streamed_line_equals_the_nested_dump(tree):
    root = TREES[tree]()
    payload = _load_payload(root)
    assert LogRecord(7, "load", payload).encode() == nested_line(7, "load", payload)
    insert = {"parent": "1", "subtree": root, "dewey": "1.9"}
    assert LogRecord(8, "insert", insert).encode() == nested_line(8, "insert", insert)


def test_the_write_hands_over_the_line_in_chunks_the_encode_joins():
    root = generate_xmark_document(scale=4, seed=3).root
    chunks: list[str] = []
    LogRecord(1, "load", _load_payload(root)).write(chunks.append)
    assert len(chunks) > 4  # a tree of a few thousand nodes: several chunks
    assert "".join(chunks) == LogRecord(1, "load", _load_payload(root)).encode()


_atoms = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)
)


@st.composite
def _trees(draw, depth=0):
    node = XMLNode(draw(st.text(min_size=1, max_size=4)), draw(_atoms))
    if depth < 3:
        for _ in range(draw(st.integers(0, 3))):
            node.append(draw(_trees(depth + 1)))
    return node


@given(_trees())
def test_any_tree_streams_to_its_nested_dump(root):
    payload = {"root": root, "name": "t"}
    assert LogRecord(1, "load", payload).encode() == nested_line(1, "load", payload)


def test_a_streamed_log_reads_back_as_the_triples(tmp_path):
    root = generate_dblp_document("2005", scale=0.6, seed=5).root
    with ChangeLog(tmp_path / "doc.log") as log:
        log.append("load", {"name": "doc", "root": root})
    # the unchanged reader checks the CRC
    (record,) = ChangeLog.read(tmp_path / "doc.log")
    assert record.payload == {"name": "doc", "root": encode_subtree(root)}


DOC_TEXT = (
    'site(regions(asia(item(name="pen" quantity=2) item(name="ink") item(name="nib"))'
    '     europe(item(name="cap")))'
    '     people(person(name="bob") person(name="eve")))'
)


def _session_with_gaps() -> Database:
    """Views declared, then deletes that leave ordinal gaps: a middle
    child, a last child (its mark stays above) and a parent's every child."""
    db = Database(parse_parenthesized(DOC_TEXT, name="gaps"))
    db.create_view("site(//item[ID](/name[V]))", name="items")
    db.create_view("site(//quantity[ID,V])", name="declared", materialize=False)
    asia = db.document.nodes_on_path("/site/regions/asia")[0]
    db.delete_subtree(asia.children[-1])
    db.delete_subtree(asia.children[0])
    people = db.document.nodes_on_path("/site/people")[0]
    for person in list(people.children):
        db.delete_subtree(person)
    assert len(db.document.ordinal_gaps()) == 2
    return db


def test_attach_log_writes_the_nested_dump_of_a_document_with_gaps(tmp_path):
    db = _session_with_gaps()
    db.attach_log(tmp_path / "doc.log")
    lines = snapshot_text(db).splitlines(keepends=True)
    assert (tmp_path / "doc.log").read_text(encoding="utf-8") == "".join(lines[:-1])
    db.close()


def test_save_and_checkpoint_write_the_nested_dump(tmp_path):
    db = _session_with_gaps()
    db.save(tmp_path / "session.db")
    assert (tmp_path / "session.db").read_text(encoding="utf-8") == snapshot_text(db)
    db.attach_log(tmp_path / "doc.log")
    db.insert_subtree(db.document.root, XMLNode("note", "café \"quoted\""))
    db.checkpoint(tmp_path / "doc.ckpt")
    assert (tmp_path / "doc.ckpt").read_text(encoding="utf-8") == snapshot_text(db)
    db.close()


def test_attach_log_peaks_below_twice_the_log_size(tmp_path):
    """The nested lists, their two dumps and the CRC's UTF-8 copy peaked
    at about 8x the log's size here; the streamed writer keeps only the
    line's chunks."""
    document = generate_xmark_document(scale=16, seed=1)
    assert 5000 <= document.size <= 6000
    db = Database(document)
    tracemalloc.start()
    try:
        db.attach_log(tmp_path / "doc.log")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    db.close()
    assert peak < 2 * (tmp_path / "doc.log").stat().st_size
