"""Pattern containment under structural summary constraints.

The public entry points are

* :func:`is_contained` — ``p ⊆S q`` (Propositions 3.1, 4.1, 4.2 and the
  decorated refinement of Section 4.2),
* :func:`is_contained_in_union` — ``p ⊆S q1 ∪ ... ∪ qm`` (Proposition 3.2
  and the value-coverage condition of Section 4.2),
* :func:`are_equivalent` — two-way containment (``≡S``),
* :func:`canonical_containment_decision` — the paper's canonical-model
  decider alone, unmemoised (what the Figure 13/14 harnesses time).

All tests work uniformly for conjunctive, decorated, optional, attribute and
nested patterns; the relevant extra conditions are applied automatically
based on the features the patterns actually use.

Decisions are memoised in a process-wide LRU keyed by the canonical pattern
hashes of :mod:`repro.canonical.hashing`; see :func:`containment_cache` and
:func:`clear_containment_cache`.
"""

from repro.containment.core import (
    ContainmentCache,
    ContainmentDecision,
    are_equivalent,
    canonical_containment_decision,
    clear_containment_cache,
    containment_cache,
    containment_cache_disabled,
    is_contained,
    is_contained_in_union,
)

__all__ = [
    "ContainmentCache",
    "ContainmentDecision",
    "canonical_containment_decision",
    "clear_containment_cache",
    "containment_cache",
    "containment_cache_disabled",
    "is_contained",
    "is_contained_in_union",
    "are_equivalent",
]
