"""Evaluation semantics of extended tree patterns.

Two evaluators are provided:

* :func:`evaluate_node_tuples` — the *abstract* semantics used by the
  containment machinery: the result is a set of tuples of tree nodes (one
  entry per return node, in pre-order), where an entry may be ``None``
  (the null constant ``⊥``) when an optional edge has no match
  (Definition 4.1).  Attributes and nesting are ignored; value predicates
  are checked according to the embedding mode.

* :func:`evaluate_pattern` — the *concrete* semantics used to materialise
  views and to compute query answers: the result is a (possibly nested)
  :class:`~repro.algebra.tuples.Relation` whose columns follow the pattern's
  attribute annotations (``ID`` / ``L`` / ``V`` / ``C``), with nested edges
  producing nested relations and optional edges producing nulls, exactly as
  in Figures 1, 11 and 12 of the paper.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Optional

from repro.algebra.tuples import Column, Relation
from repro.errors import PatternError
from repro.patterns.embedding import EmbeddingMode, _node_matches
from repro.patterns.pattern import Axis, PatternNode, TreePattern
from repro.xmltree.node import XMLNode

__all__ = [
    "TreeIndex",
    "evaluate_node_tuples",
    "evaluate_pattern",
    "pattern_schema",
    "default_id_function",
]


# --------------------------------------------------------------------------- #
# abstract semantics: tuples of tree nodes (with ⊥), used for containment
# --------------------------------------------------------------------------- #
_TICK_STRIDE = 1024
"""How many binding merges go between two ``tick()`` calls: the binding
product is the one loop whose size is exponential in the pattern, so it must
poll the caller's deadline itself — everything else ticks per node visit."""


class TreeIndex:
    """A pre-order index of one tree, read by the ``//`` steps of
    :func:`evaluate_node_tuples`.

    The descendants of a node with a given label are one slice of that
    label's pre-ordered nodes, bounded by the node's pre-order span, so a
    ``//`` step never walks the subtree.  Positions are numbered on the
    first ``//`` step and a label's node list is gathered on the first step
    asking for it; a canonical tree keeps its index for every pattern
    evaluated on it.

    Positions are held here, keyed by node identity, and never on the
    nodes: canonical trees share strong-closure subtrees by reference, so
    one node has a different position in every tree that holds it.
    """

    __slots__ = ("root", "_first", "_nodes", "_by_label")

    def __init__(self, root):
        self.root = root
        self._first: Optional[dict] = None

    def _build(self) -> None:
        first: dict = {}  # node -> its pre-order position
        nodes: list = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            first[node] = len(nodes)
            nodes.append(node)
            stack.extend(reversed(node.children))
        self._first, self._nodes = first, nodes
        self._by_label: dict[str, tuple[list[int], list]] = {}

    def descendants(self, node, label: Optional[str]) -> list:
        """Strict descendants of ``node`` in pre-order, restricted to
        ``label`` unless it is None."""
        if self._first is None:
            self._build()
        # the subtree ends at its last node in pre-order: down the last
        # children, a walk as long as the tree is deep
        last = node
        while last.children:
            last = last.children[-1]
        first, last = self._first[node], self._first[last]
        if label is None:
            return self._nodes[first + 1 : last + 1]
        entry = self._by_label.get(label)
        if entry is None:  # the labels a pattern asks for, one scan each
            nodes = self._nodes
            positions = [p for p, other in enumerate(nodes) if other.label == label]
            entry = self._by_label[label] = (positions, [nodes[p] for p in positions])
        positions, labelled = entry
        return labelled[bisect_right(positions, first) : bisect_right(positions, last)]


def _eval_nodes(
    pattern_node: PatternNode,
    tree_node,
    mode: EmbeddingMode,
    index: TreeIndex,
    tick: Optional[Callable[[], None]] = None,
) -> Optional[list[dict[PatternNode, object]]]:
    """Return the list of partial bindings for the subtree, or None on failure."""
    if tick is not None:
        tick()
    if not _node_matches(pattern_node, tree_node, mode):
        return None
    partials: list[dict[PatternNode, object]] = [
        {pattern_node: tree_node} if pattern_node.is_return else {}
    ]
    for child in pattern_node.children:
        # test the label here rather than pay a call per node
        label = None if child.label == "*" else child.label
        if child.axis is not Axis.CHILD:
            candidates = index.descendants(tree_node, label)
        elif label is None:
            candidates = tree_node.children
        else:
            candidates = [node for node in tree_node.children if node.label == label]
        sub_results: list[dict[PatternNode, object]] = []
        for candidate in candidates:
            result = _eval_nodes(child, candidate, mode, index, tick)
            if result is not None:
                sub_results.extend(result)
        if not sub_results:
            if child.optional:
                null_binding = {
                    node: None for node in child.iter_subtree() if node.is_return
                }
                sub_results = [null_binding]
            else:
                return None
        if tick is None:
            partials = [
                {**partial, **sub} for partial in partials for sub in sub_results
            ]
        else:
            merged: list[dict[PatternNode, object]] = []
            for partial in partials:
                for sub in sub_results:
                    merged.append({**partial, **sub})
                    if len(merged) % _TICK_STRIDE == 0:
                        tick()
            partials = merged
    return partials


def evaluate_node_tuples(
    pattern: TreePattern,
    tree,
    mode: EmbeddingMode = EmbeddingMode.DOCUMENT,
    tick: Optional[Callable[[], None]] = None,
) -> set[tuple]:
    """Evaluate ``pattern`` on ``tree``: a tree's root node, or the
    :class:`TreeIndex` of a tree (a root gets an index of its own).

    Returns the set of return-node tuples (entries are tree nodes or ``None``
    for ``⊥``), following Definition 4.1 for optional edges: ``⊥`` appears
    only when no match exists for the optional subtree.

    ``tick``, when given, is invoked periodically *during* the evaluation
    (per visited node, and every :data:`_TICK_STRIDE` binding merges in the
    worst-case product loop).  Containment passes its deadline check here:
    a single decorated evaluation over an adversarial (pattern, tree) pair
    can dwarf the rest of the test, and a wall-clock budget that only fires
    between evaluations would not actually bound the caller's wait.
    """
    return_nodes = pattern.return_nodes()
    if not return_nodes:
        raise PatternError(f"pattern {pattern.name!r} has no return nodes")
    index = tree if isinstance(tree, TreeIndex) else TreeIndex(tree)
    bindings = _eval_nodes(pattern.root, index.root, mode, index, tick)
    if bindings is None:
        return set()
    result = set()
    for binding in bindings:
        result.add(tuple(binding.get(node) for node in return_nodes))
    return result


# --------------------------------------------------------------------------- #
# concrete semantics: nested relations with attributes, used for views
# --------------------------------------------------------------------------- #
def default_id_function(node: XMLNode):
    """The default ``fID``: a node's Dewey structural identifier.

    The identifier is derived from the parent chain, and assigned back as
    the node's anchor: every answer or extent that identifies the node then
    holds that one object, and a later derivation of the node, or of a node
    below it, stops there.
    """
    dewey = node.dewey
    if dewey is not None:
        node.dewey = dewey
    return dewey


class _Schema:
    """Column layout of a pattern: flat columns plus nested sub-schemas."""

    def __init__(self) -> None:
        self.nested_schemas: dict[str, list[Column]] = {}
        self.node_columns: dict[int, list[Column]] = {}
        self.return_index: dict[int, int] = {}

    def columns_of(self, node: PatternNode) -> list[Column]:
        return self.node_columns.get(id(node), [])


def pattern_schema(pattern: TreePattern) -> tuple[list[Column], _Schema]:
    """Compute the relation schema of a pattern.

    Column names follow the paper's figures: attribute columns are named
    ``ID<k>`` / ``L<k>`` / ``V<k>`` / ``C<k>`` where ``k`` is the return
    node's pre-order index (1-based), plain return nodes get ``NODE<k>``,
    and each nested edge contributes a single grouped column ``A<k>`` where
    ``k`` is the index of the first return node inside the nested subtree.
    """
    schema = _Schema()
    counter = 0
    for node in pattern.root.iter_subtree():
        if node.is_return:
            counter += 1
            schema.return_index[id(node)] = counter
            paths = _paths_of(node)
            if node.attributes:
                columns = [
                    Column(f"{attribute}{counter}", kind=attribute, paths=paths)
                    for attribute in node.attributes
                ]
            else:
                columns = [Column(f"NODE{counter}", kind="NODE", paths=paths)]
            schema.node_columns[id(node)] = columns

    top_columns = _subtree_columns(pattern.root, schema)
    if not top_columns:
        raise PatternError(f"pattern {pattern.name!r} has no return nodes")
    return top_columns, schema


def _paths_of(node: PatternNode) -> tuple[str, ...]:
    if node.annotated_paths is None:
        return ()
    return tuple(sorted(str(p) for p in node.annotated_paths))


def _first_return_index(node: PatternNode, schema: _Schema) -> Optional[int]:
    for descendant in node.iter_subtree():
        index = schema.return_index.get(id(descendant))
        if index is not None:
            return index
    return None


def _subtree_columns(node: PatternNode, schema: _Schema) -> list[Column]:
    """Columns contributed by the subtree rooted at ``node`` to its parent."""
    columns = list(schema.columns_of(node))
    for child in node.children:
        child_columns = _subtree_columns(child, schema)
        if not child_columns:
            continue
        if child.nested:
            index = _first_return_index(child, schema)
            nested_name = f"A{index}"
            schema.nested_schemas[nested_name] = child_columns
            columns.append(Column(nested_name, kind="NESTED"))
        else:
            columns.extend(child_columns)
    return columns


def _extract(attribute: str, node, id_function: Callable):
    if attribute == "ID":
        return id_function(node)
    if attribute == "L":
        return node.label
    if attribute == "V":
        return getattr(node, "value", None)
    if attribute == "C":
        return node
    return node  # NODE


def _null_fill(columns: list[Column], schema: _Schema) -> dict[str, object]:
    """Null values for all columns of an unmatched optional subtree."""
    values: dict[str, object] = {}
    for column in columns:
        if column.kind == "NESTED":
            values[column.name] = Relation(schema.nested_schemas[column.name])
        else:
            values[column.name] = None
    return values


def _eval_concrete(
    pattern_node: PatternNode,
    tree_node,
    schema: _Schema,
    id_function: Callable,
    mode: EmbeddingMode,
    path_store=None,
) -> Optional[list[dict[str, object]]]:
    """Bindings of the pattern subtree at ``tree_node``, or None on failure.

    ``path_store`` is only ever given together with the document root (it
    is not handed down), so the one step it feeds is a labelled ``//`` from
    the root: there the candidates are the nodes on the paths ending in the
    label, already in document order, and not the whole document.  Every
    other step walks — children, or the context's subtree — and tests the
    label before it recurses.
    """
    if not _node_matches(pattern_node, tree_node, mode):
        return None
    base: dict[str, object] = {}
    for column in schema.columns_of(pattern_node):
        base[column.name] = _extract(column.kind, tree_node, id_function)
    partials: list[dict[str, object]] = [base]

    for child in pattern_node.children:
        child_columns = _subtree_columns(child, schema)
        label = None if child.label == "*" else child.label
        if child.axis is Axis.CHILD:
            candidates = tree_node.children
        elif path_store is not None and label is not None:
            candidates = path_store.labelled(label)
            if candidates and candidates[0] is tree_node:
                del candidates[0]  # ``//`` is strict: the root is not below itself
        else:
            candidates = tree_node.iter_descendants()
        sub_results: list[dict[str, object]] = []
        for candidate in candidates:
            # test the label here rather than pay a call per node
            if label is not None and label != candidate.label:
                continue
            result = _eval_concrete(child, candidate, schema, id_function, mode)
            if result is not None:
                sub_results.extend(result)

        if not child_columns:
            # the child subtree stores nothing; it acts as an existential branch
            if not sub_results and not child.optional:
                return None
            continue

        if child.nested:
            index = _first_return_index(child, schema)
            nested_name = f"A{index}"
            nested_schema = schema.nested_schemas[nested_name]
            if not sub_results and not child.optional:
                return None
            nested_relation = Relation(
                nested_schema,
                rows=[
                    tuple(sub.get(column.name) for column in nested_schema)
                    for sub in sub_results
                ],
            ).distinct()
            partials = [
                {**partial, nested_name: nested_relation} for partial in partials
            ]
        else:
            if not sub_results:
                if child.optional:
                    sub_results = [_null_fill(child_columns, schema)]
                else:
                    return None
            partials = [
                {**partial, **sub} for partial in partials for sub in sub_results
            ]
    return partials


def evaluate_pattern(
    pattern: TreePattern,
    document,
    id_function: Optional[Callable] = None,
    mode: EmbeddingMode = EmbeddingMode.DOCUMENT,
    path_store=None,
) -> Relation:
    """Evaluate an attribute/nested/optional pattern over a document.

    ``document`` may be an :class:`~repro.xmltree.node.XMLDocument` or any
    tree node acting as the root.  The result is a :class:`Relation` whose
    schema is given by :func:`pattern_schema`.

    Without ``path_store`` every ``//`` step walks the tree — the reference
    semantics, which never reads the document's store.  Given the
    document's own :class:`~repro.xmltree.paths.PathStore`, a labelled
    ``//`` step from the root takes its candidates from the store instead;
    rows, row order and schema are the same.
    """
    return _evaluate_laid_out(
        pattern, document, pattern_schema(pattern), id_function, mode, path_store
    )


def _evaluate_laid_out(
    pattern: TreePattern,
    document,
    layout: tuple[list[Column], _Schema],
    id_function: Optional[Callable] = None,
    mode: EmbeddingMode = EmbeddingMode.DOCUMENT,
    path_store=None,
) -> Relation:
    """:func:`evaluate_pattern` with ``layout``, the pattern's
    :func:`pattern_schema`, already derived — a view's pattern is fixed, so
    incremental maintenance hands in the layout the view derived once
    (``MaterializedView._layout``) instead of deriving it per region."""
    tree_root = getattr(document, "root", document)
    id_function = id_function or default_id_function
    columns, schema = layout
    relation = Relation(columns)
    bindings = _eval_concrete(
        pattern.root, tree_root, schema, id_function, mode, path_store
    )
    if bindings is None:
        return relation
    for binding in bindings:
        relation.append(tuple(binding.get(column.name) for column in columns))
    return relation.distinct()
