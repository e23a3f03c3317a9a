"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro import build_summary, parse_parenthesized, parse_pattern
from repro.summary.index import SummaryIndex

# session-scoped paper workloads shared by the A/B identity suites
from support.paper_workloads import dblp_workload, xmark_workload  # noqa: F401

# containment with the fast deciders switched off (the canonical oracle)
from support.canonical_containment import canonical_only  # noqa: F401

# --------------------------------------------------------------------------- #
# hypothesis profiles
#
# The default profile derandomises example generation: the property tests
# draw random patterns whose canonical models are worst-case exponential, so
# an unlucky seed can turn a 2-second suite into a multi-minute one.  With
# ``derandomize=True`` every run replays the same (fast, pre-vetted) example
# sequence, which is what a <2-minute tier-1 needs.  Run the randomized
# exploration explicitly with ``HYPOTHESIS_PROFILE=thorough`` (nightly CI).
# --------------------------------------------------------------------------- #
settings.register_profile("ci", derandomize=True, deadline=None)
settings.register_profile("thorough", derandomize=False, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))

# --------------------------------------------------------------------------- #
# the paper's running auction document (Figure 1, simplified)
# --------------------------------------------------------------------------- #
AUCTION_TEXT = (
    'site(regions(asia('
    'item(name="pen" '
    '     description(parlist(listitem(text(keyword="columbus" keyword="fountain"))'
    '                          listitem(text="steel"(bold="gold plated")))) '
    '     mailbox(mail(from="bob@u2.com" to="jane@u2.com" date="4/6/2006" text="hello"))) '
    'item(name="ink" description(parlist(listitem(text="invincia")))) '
    'item(name="vase" description(text="plain") mailbox(mail(from="jim@gmail.com" to="bill@aol.com" date="3/4/2006" text="can you")))'
    ')))'
)


@pytest.fixture(scope="session")
def auction_document():
    """A small XMark-like document mirroring Figure 1."""
    return parse_parenthesized(AUCTION_TEXT, name="auction")


@pytest.fixture(scope="session")
def auction_summary(auction_document):
    """The structural summary of the auction document."""
    return build_summary(auction_document)


@pytest.fixture(scope="session")
def auction_index(auction_summary):
    """A SummaryIndex over the auction summary."""
    return SummaryIndex(auction_summary)


# --------------------------------------------------------------------------- #
# the document / summary of Figures 2 and 3
# --------------------------------------------------------------------------- #
FIGURE2_TEXT = 'a(b="1" c(b="2" d="3") d(b(b="5" d="6" e="7") c="4" b(d="9")))'


@pytest.fixture(scope="session")
def figure2_document():
    """The sample document of Figure 2."""
    return parse_parenthesized(FIGURE2_TEXT, name="figure2")


@pytest.fixture(scope="session")
def figure2_summary(figure2_document):
    """The summary of the Figure 2 document (Figure 3)."""
    return build_summary(figure2_document)


# --------------------------------------------------------------------------- #
# pattern helpers
# --------------------------------------------------------------------------- #
@pytest.fixture()
def make_pattern():
    """Parse a pattern from DSL text (per-test convenience)."""

    def _make(text: str, name: str = "pattern"):
        return parse_pattern(text, name=name)

    return _make
