"""View-based rewriting of tree-pattern queries (Sections 3.2, 3.3 and 4.6).

The public surface is the :class:`Rewriter` facade: it runs Algorithm 1 over
a set of materialised views and returns equivalent algebraic plans, which it
can also execute against the views.
"""

from repro.rewriting.algorithm import (
    Rewriting,
    RewritingConfig,
    RewritingSearch,
    RewritingStatistics,
)
from repro.rewriting.candidates import LazyColumn, RewriteCandidate, initial_candidate
from repro.rewriting.rewriter import RewriteOutcome, Rewriter

__all__ = [
    "Rewriter",
    "RewriteOutcome",
    "Rewriting",
    "RewritingConfig",
    "RewritingSearch",
    "RewritingStatistics",
    "RewriteCandidate",
    "LazyColumn",
    "initial_candidate",
]
