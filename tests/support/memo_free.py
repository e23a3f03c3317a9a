"""Containment that memoises nothing: the reference the memo is tested against.

Every summary keeps what containment memoises on itself
(:attr:`repro.summary.dataguide.Summary.containment_memo`).  Inside
:func:`memo_free` each read of that attribute returns a fresh
:class:`~repro.caching.ContainmentMemo` with zero-capacity LRUs — a lookup
always misses and a store is evicted at once — and a closure table of its
own, so no strong-closure subtree is shared across decisions (one
canonical-model enumeration reads the attribute once).  Nothing the block
decides is read from, or left in, any summary's real memo.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.caching import ContainmentMemo
from repro.summary.dataguide import Summary

__all__ = ["memo_free"]


@contextmanager
def memo_free():
    """Run the block with every summary's containment memo out of reach."""
    original = Summary.containment_memo
    Summary.containment_memo = property(
        lambda summary: ContainmentMemo(decisions=0, models=0)
    )
    try:
        yield
    finally:
        Summary.containment_memo = original
