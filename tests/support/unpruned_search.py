"""The rewriting search with the Prop. 3.7 supplier test asked only at the bound.

:meth:`RewritingSearch._cannot_cover` skips a join pair whenever the views
the plan-size bound still allows cannot supply every output attribute the
pair's views lack.  This reference asks that question only for pairs that
reach the bound (no view left), as the search did before the exact cover
test: every pair below the bound is fused, admitted and aligned or pruned on
its own.  The pruned search must find every rewriting this one finds
(``tests/integration/test_supplier_cover.py``).
"""

from __future__ import annotations

import re

from repro.rewriting.algorithm import RewritingSearch

__all__ = ["UnprunedSearch", "rewriting_set"]


class UnprunedSearch(RewritingSearch):
    """Skips a pair for lack of suppliers only at ``max_plan_size``."""

    def _cannot_cover(self, views_used, views_left):
        return views_left == 0 and self._lacks_supplier(views_used)


def rewriting_set(rewritings) -> set[tuple[tuple[str, ...], str]]:
    """``(views_used, plan.describe())`` per rewriting, with the generated
    ``@N`` scan aliases and ``#N`` numbers normalised away."""
    return {
        (rewriting.views_used, re.sub(r"([@#])\d+", r"\1", rewriting.plan.describe()))
        for rewriting in rewritings
    }
