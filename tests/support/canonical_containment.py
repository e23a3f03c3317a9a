"""Containment decided by the canonical model alone: the oracle of the fast
deciders.

``repro.containment.core`` answers plain patterns (no optional or nested
edges) with a homomorphism or a return-ancestry negative before it builds a
canonical model; ``_fast_decision`` is the one seam they sit behind.
:func:`canonical_deciders_only` replaces it with "no fast answer", so every
decision — and every rewriting search built on them — runs the paper's
canonical-model decider.  Both memo layers are flushed on the way in and on
the way out, so no decision crosses the boundary.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.containment import core
from repro.containment.core import clear_containment_cache

__all__ = ["canonical_deciders_only", "canonical_only"]


@contextmanager
def canonical_deciders_only():
    """Run the block with the fast deciders switched off."""
    original = core._fast_decision
    core._fast_decision = lambda contained, container, summary: None
    clear_containment_cache()
    try:
        yield
    finally:
        core._fast_decision = original
        clear_containment_cache()


@pytest.fixture()
def canonical_only():
    """A test body whose containment decisions all take the canonical path."""
    with canonical_deciders_only():
        yield
