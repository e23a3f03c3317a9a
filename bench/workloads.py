"""Datasets, query classes and set-up of the four benchmark workloads.

The three XMark workloads share one query-class list and one view set, so
they differ only in *regime* (cold caches, hot plan cache, writes beside
reads); ``dblp_service`` is the second dataset, served over HTTP by a child
process.  Everything here is a fixed named list — no workload is discovered
by probing, because a probe under a time budget makes the set of classes
depend on machine speed.

Documents come from :func:`repro.generate_random_document` over the shipped
XMark / DBLP specifications with the *collection sizes pinned*
(``min_count == max_count`` for items, people, auctions, records).
``--seed`` then varies every optional child, small fan-out and value — the
document, its extents and the inserted subtree all change — while the
amount of work stays within a few percent, so runs on different seeds
measure the program, not the draw of one 1..900 fan-out.
"""

from __future__ import annotations

import dataclasses
import random
import time
from typing import Mapping, Optional

from repro import Database, XMLNode, build_summary, generate_random_document, parse_pattern

# The inputs the issue prescribes and ``repro/__init__`` does not export: the
# paper's query patterns, document specifications and seed views, and the
# search configuration.  Taken from their packages, never from a module inside.
from repro.rewriting import RewritingConfig
from repro.workloads import XMARK_QUERY_PATTERNS, dblp_spec, seed_tag_views, xmark_spec

from measure import reference_slice, speed_factor

# No time budget: a budget makes "answerable" depend on how fast the box is.
# Without unions and with these caps the search is deterministic, so its
# counters repeat exactly and can be compared across commits as counts.
CONFIG = RewritingConfig(
    max_rewritings=2, max_plan_size=3, enable_unions=False, time_budget_seconds=None
)

XMARK_CLASSES = {
    name: XMARK_QUERY_PATTERNS[name] for name in ("Q1", "Q2", "Q4", "Q5", "Q6", "Q18", "Q19")
}

# Hot latencies are well apart (0.7 .. 13 ms) and result sizes span 6 .. ~1300
# rows, so the p50 rank (middle of the 4th class) and the p90 rank (30 % into
# the 7th) never sit on a boundary between two classes.
DBLP_CLASSES = {
    "thesis_school": "dblp(/phdthesis[ID](/school[V]))",
    "proceedings_recent": "dblp(/proceedings[ID](/year[V]{v>2004}))",
    "book_publisher": "dblp(/book[ID](/title[V], /publisher[V]))",
    "article_cite": "dblp(/article[ID](/cite[V]))",
    "article_recent_journal": "dblp(/article[ID](/year[V]{v>2003}, /journal[V]))",
    "all_authors": "dblp(//author[V])",
    "article_author_title": "dblp(/article[ID](/author[V], /title[V]))",
}


def _pinned(spec, counts: Mapping[str, Mapping[str, int]]):
    """``spec`` with the given parent → {child label: exact count} pinned."""
    children = dict(spec.children)
    for parent, fixed in counts.items():
        children[parent] = [
            dataclasses.replace(
                child, min_count=fixed[child.label], max_count=fixed[child.label], probability=1.0)
            for child in spec.children[parent]
        ]
    return dataclasses.replace(spec, children=children)


def _xmark_spec(items_per_region: int, people: int, auctions: int):
    spec = xmark_spec()
    counts = {
        region.label: {"item": items_per_region} for region in spec.children["regions"]
    }
    counts["people"] = {"person": people}
    counts["open_auctions"] = {"open_auction": auctions}
    counts["closed_auctions"] = {"closed_auction": auctions}
    return _pinned(spec, counts)


def _dblp_spec(records: int):
    return _pinned(
        dblp_spec("2005"),
        {
            "dblp": {
                "article": records,
                "inproceedings": records,
                "proceedings": max(1, records * 2 // 5),
                "phdthesis": max(1, records * 2 // 15),
                "mastersthesis": max(1, records // 12),
                "www": max(1, records // 5),
                "book": max(1, records // 9),
                "incollection": max(1, records // 9),
            }
        },
    )


@dataclasses.dataclass(frozen=True)
class Dataset:
    """One document family: its spec, query classes and live-update shape."""

    name: str
    default_seed: int
    classes: Mapping[str, str]
    spec: object  # a repro.xmltree RandomDocumentSpec
    smoke_spec: object
    update_parent_path: str
    """Rooted path of the node the live workload inserts under."""
    update_label: str
    """Label of the inserted subtree (generated from the same spec)."""
    grows_by_one: tuple[str, ...]
    """Classes whose answer gains exactly one row while the subtree is in."""
    smoke_classes: tuple[str, ...]
    """The classes ``--smoke`` keeps: planning cost does not shrink with the
    document, so a smoke run drops the classes that take longest to plan."""


DATASETS = {
    # ~10 k nodes: extents are tiny, so first-sight latency is all rewriting
    "xmark_small": Dataset(
        "xmark_small", 548, XMARK_CLASSES, _xmark_spec(50, 90, 80), _xmark_spec(6, 10, 8),
        "/site/regions/asia", "item", ("Q6", "Q19"), ("Q1", "Q5", "Q6", "Q18"),
    ),
    # ~134 k nodes, ~21 k extent rows: execution dominates once plans are cached
    "xmark_large": Dataset(
        "xmark_large", 548, XMARK_CLASSES, _xmark_spec(660, 1000, 800), _xmark_spec(6, 10, 8),
        "/site/regions/asia", "item", ("Q6", "Q19"), ("Q1", "Q5", "Q6", "Q18"),
    ),
    # ~20 k nodes
    "dblp": Dataset(
        "dblp", 5, DBLP_CLASSES, _dblp_spec(750), _dblp_spec(20),
        "/dblp", "article", (),
        ("thesis_school", "proceedings_recent", "article_cite", "all_authors"),
    ),
}


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str  # why each one is here: BENCHMARK.json and README.md
    dataset: str
    regime: str  # "cold" | "warm" | "service" | "live"
    repeats: int
    """How often a block sends each class (per client thread for the service)."""
    warmup_blocks: int
    """Discarded blocks before the measured ones.  None where a block starts
    by clearing what a warm-up would fill: there the oracle pass, which
    answers every class once, has already triggered all lazy set-up."""
    block_seconds: float
    """What one block takes on the reference box; only :func:`block_count`
    uses it, to turn ``--seconds`` into a number of blocks."""
    min_blocks: int = 20
    """Never fewer blocks than this.  The quiet pool is half of them and must
    hold 100 query samples for the p90 to have ten beyond it."""


def block_count(workload: Workload, seconds: float) -> int:
    """How many blocks a run of nominally ``seconds`` measures.

    A fixed count, not a deadline: parent and change then pool the same
    number of samples however fast either is.
    """
    return max(workload.min_blocks, round(seconds / workload.block_seconds))


WORKLOADS = {
    workload.name: workload
    for workload in (
        # 30 blocks: 15 quiet blocks × 7 queries = 105 pooled samples
        Workload("xmark_cold", "xmark_small", "cold", 1, 0, 0.66, min_blocks=30),
        Workload("xmark_warm", "xmark_large", "warm", 4, 3, 0.27),
        Workload("dblp_service", "dblp", "service", 4, 3, 0.31),
        Workload("xmark_live", "xmark_large", "live", 1, 0, 1.4),
    )
}


class Session:
    """A fully set-up database plus what the blocks and checks need."""

    def __init__(self, dataset: Dataset, seed: int, smoke: bool, log_path: Optional[str]):
        self.dataset = dataset
        self.log_path = log_path
        spec = dataset.smoke_spec if smoke else dataset.spec
        rng = random.Random(seed)
        self.classes = {
            name: text for name, text in dataset.classes.items()
            if not smoke or name in dataset.smoke_classes
        }
        self.patterns = {
            name: parse_pattern(text, name=name) for name, text in self.classes.items()
        }
        labels = {
            node.label for pattern in self.patterns.values() for node in pattern.nodes()
        }
        # every stage runs between two reference slices (see measure.py); the
        # stage times, not the slices, add up to the set-up time
        slices = []
        stages = dict.fromkeys(
            ("xmltree.generate_s", "summary.build_s", "session.open_s", "views.materialize_s"), 0.0
        )

        def stage(name, call):
            slices.append(reference_slice())
            started = time.perf_counter()
            result = call()
            stages[name] += time.perf_counter() - started
            return result

        self.document = stage(
            "xmltree.generate_s",
            lambda: generate_random_document(spec, rng=rng, name=dataset.name),
        )
        summary = stage("summary.build_s", lambda: build_summary(self.document))

        def open_database():
            db = Database(self.document, config=CONFIG, summary=summary)
            if log_path is not None:
                # before the views, so create_view records reach the log and
                # Database.recover rebuilds the views too
                db.attach_log(log_path)
            return db

        self.db = stage("session.open_s", open_database)
        for view in seed_tag_views(summary):
            if view.root.children[0].label in labels:
                stage("views.materialize_s", lambda: self.db.create_view(view, name=view.name))
        slices.append(reference_slice())
        self.speed = speed_factor(slices)
        self.stages = {name: seconds / self.speed for name, seconds in stages.items()}
        self.setup_seconds = sum(self.stages.values())
        # the seed also fixes the content of the subtree the live regime inserts
        subtree_spec = dataclasses.replace(spec, root=dataset.update_label)
        self._update_subtree = generate_random_document(subtree_spec, rng=rng).root
        self.update_parent = self.document.nodes_on_path(dataset.update_parent_path)[0]

    @property
    def extent_rows(self) -> int:
        return sum(len(view.relation) for view in self.db.views)

    def update_subtree(self) -> XMLNode:
        """A fresh detached copy of the seeded subtree (same content each call)."""
        return self._update_subtree.copy()

    def close(self) -> None:
        self.db.close()
