"""Summary-based canonical models (Section 2.4 and its extensions).

Given a pattern ``p`` and a summary ``S``, the canonical model ``modS(p)`` is
the finite set of *canonical trees* derived from the embeddings of ``p`` into
``S``.  Canonical trees are the key device of the paper: containment under
summary constraints reduces to evaluating the contained pattern over them
(Propositions 2.1 and 3.1).

This package covers every extension the paper introduces:

* enhanced summaries — strong-edge closure (Section 4.1),
* value predicates — decorated canonical trees (Section 4.2),
* optional edges — expansion over subsets of optional edges (Section 4.3).

Nested edges do not change the canonical model; they are handled by the
nesting-sequence conditions of Proposition 4.2 in :mod:`repro.containment`.
"""

from repro.canonical.trees import CanonicalNode, CanonicalTree
from repro.canonical.hashing import pattern_key, summary_token
from repro.canonical.model import (
    CanonicalModelCache,
    annotate_paths,
    canonical_model,
    canonical_model_cache,
    clear_canonical_model_cache,
    is_satisfiable,
)

__all__ = [
    "CanonicalNode",
    "CanonicalTree",
    "annotate_paths",
    "canonical_model",
    "CanonicalModelCache",
    "canonical_model_cache",
    "clear_canonical_model_cache",
    "is_satisfiable",
    "pattern_key",
    "summary_token",
]
