"""Figure 13 — XMark pattern containment.

Two measurements are reproduced:

* **top plot** — for each of the 20 XMark query patterns: the size of its
  canonical model on the XMark summary and the time to test its containment
  in itself (a positive containment test);
* **bottom plot** — random satisfiable patterns of 3-13 nodes (fan-out 3,
  10% wildcards, 20% value predicates, 50% ``//`` edges, 50% optional edges,
  1-3 return nodes) tested pairwise; positive and negative test times are
  reported separately.  The qualitative findings to reproduce: containment
  time tracks the canonical model size, negative tests are much faster than
  positive ones, and times grow with the pattern size but stay moderate.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.containment.core import (
    canonical_containment_decision,
    clear_containment_cache,
    containment_cache_disabled,
)
from repro.canonical.model import canonical_model
from repro.summary.dataguide import Summary, build_summary
from repro.workloads.synthetic import SyntheticPatternConfig, generate_random_pattern
from repro.workloads.xmark import generate_xmark_document, xmark_query_patterns

__all__ = [
    "QueryContainmentRow",
    "SyntheticContainmentRow",
    "run_fig13_query_containment",
    "run_fig13_synthetic_containment",
    "print_fig13",
    "xmark_summary",
]


@dataclass
class QueryContainmentRow:
    """One bar of the Figure 13 top plot."""

    query: str
    canonical_model_size: int
    containment_seconds: float
    contained: bool
    canonical_trees_checked: int


@dataclass
class SyntheticContainmentRow:
    """One point of the Figure 13 bottom plot."""

    pattern_size: int
    return_nodes: int
    positive_seconds: float
    negative_seconds: float
    positive_tests: int
    negative_tests: int


def xmark_summary(scale: float = 2.0, seed: int = 548) -> Summary:
    """The XMark summary used throughout the Figure 13/15 experiments."""
    return build_summary(generate_xmark_document(scale, seed=seed, name="xmark-exp"))


def run_fig13_query_containment(
    summary: Optional[Summary] = None,
) -> list[QueryContainmentRow]:
    """Canonical model size and self-containment time per XMark query.

    The figure measures the cost of *deciding* containment from scratch with
    the paper's decider, so the timed call is
    :func:`~repro.containment.core.canonical_containment_decision` (a
    self-containment test is otherwise a trivial homomorphism) and both
    memo layers are bypassed — the model-size probe just before each test
    would otherwise pre-warm the canonical-model memo and the timings would
    measure a replay."""
    summary = summary or xmark_summary()
    clear_containment_cache()
    rows = []
    for name, pattern in sorted(
        xmark_query_patterns().items(), key=lambda kv: int(kv[0][1:])
    ):
        with containment_cache_disabled():
            model = canonical_model(pattern, summary, max_trees=5000)
            start = time.perf_counter()
            decision = canonical_containment_decision(pattern, pattern, summary)
            elapsed = time.perf_counter() - start
        rows.append(
            QueryContainmentRow(
                query=name,
                canonical_model_size=len(model),
                containment_seconds=elapsed,
                contained=decision.contained,
                canonical_trees_checked=decision.canonical_trees_checked,
            )
        )
    return rows


def run_fig13_synthetic_containment(
    summary: Optional[Summary] = None,
    sizes: Sequence[int] = (3, 5, 7, 9, 11, 13),
    return_counts: Sequence[int] = (1, 2, 3),
    patterns_per_size: int = 6,
    return_labels: Sequence[str] = ("item", "name", "initial"),
    optional_probability: float = 0.5,
    seed: int = 7,
    max_trees: int = 1500,
) -> list[SyntheticContainmentRow]:
    """Pairwise containment times over random satisfiable patterns.

    ``patterns_per_size`` patterns are generated per (size, return count)
    cell and tested pairwise (the paper uses 40 patterns and averages over
    780 executions; the default here is scaled down so the harness runs in
    seconds — pass larger values to match the paper's setup exactly).
    Every test runs the paper's canonical-model decider
    (:func:`~repro.containment.core.canonical_containment_decision`).
    ``max_trees`` bounds the canonical model explored per test: the rare
    all-wildcard pattern pairs whose model approaches the |S|^|p| worst case
    are skipped instead of dominating the whole figure.
    """
    from repro.errors import ContainmentError

    summary = summary or xmark_summary()
    # the timed section below disables the canonical-model memo, which would
    # otherwise warm across pairs sharing a side (the decider never reads the
    # decision memo); clear as well so mixed runs stay comparable run to run
    clear_containment_cache()
    rng = random.Random(seed)
    rows = []
    for return_count in return_counts:
        for size in sizes:
            config = SyntheticPatternConfig(
                size=size,
                optional_probability=optional_probability,
                return_count=return_count,
                return_labels=return_labels,
            )
            patterns = [
                generate_random_pattern(summary, config, rng=rng, name=f"syn{size}-{i}")
                for i in range(patterns_per_size)
            ]
            positive_time = negative_time = 0.0
            positive_tests = negative_tests = 0
            for i, left in enumerate(patterns):
                for right in patterns[i:]:
                    start = time.perf_counter()
                    try:
                        with containment_cache_disabled():
                            decision = canonical_containment_decision(
                                left, right, summary, check_attributes=False,
                                max_trees=max_trees,
                            )
                    except ContainmentError:
                        continue  # worst-case canonical model, skipped
                    elapsed = time.perf_counter() - start
                    if decision.contained:
                        positive_time += elapsed
                        positive_tests += 1
                    else:
                        negative_time += elapsed
                        negative_tests += 1
            rows.append(
                SyntheticContainmentRow(
                    pattern_size=size,
                    return_nodes=return_count,
                    positive_seconds=positive_time / positive_tests if positive_tests else 0.0,
                    negative_seconds=negative_time / negative_tests if negative_tests else 0.0,
                    positive_tests=positive_tests,
                    negative_tests=negative_tests,
                )
            )
    return rows


def print_fig13(
    query_rows: Optional[list[QueryContainmentRow]] = None,
    synthetic_rows: Optional[list[SyntheticContainmentRow]] = None,
) -> str:
    """Render both Figure 13 series; returns the rendered text."""
    query_rows = query_rows if query_rows is not None else run_fig13_query_containment()
    synthetic_rows = (
        synthetic_rows
        if synthetic_rows is not None
        else run_fig13_synthetic_containment()
    )
    lines = ["Figure 13 (top): XMark query pattern containment", ""]
    lines.append(f"{'query':>6} | {'|modS(p)|':>10} | {'time (ms)':>10} | contained")
    for row in query_rows:
        lines.append(
            f"{row.query:>6} | {row.canonical_model_size:>10} | "
            f"{row.containment_seconds * 1000:>10.2f} | {row.contained}"
        )
    lines += ["", "Figure 13 (bottom): synthetic pattern containment", ""]
    lines.append(
        f"{'nodes':>6} | {'returns':>8} | {'positive (ms)':>14} | {'negative (ms)':>14}"
    )
    for row in synthetic_rows:
        lines.append(
            f"{row.pattern_size:>6} | {row.return_nodes:>8} | "
            f"{row.positive_seconds * 1000:>14.2f} | {row.negative_seconds * 1000:>14.2f}"
        )
    text = "\n".join(lines)
    print(text)
    return text
