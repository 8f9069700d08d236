"""Layer spans recorded from outside the program.

:meth:`LayerTrace.installed` swaps each layer's public entry point for a
wrapper that records one span per call, and puts the originals back on
exit.  Nothing in ``src/`` changes: the spans sit at the boundaries a
caller sees, which is where the benchmark can observe them without
moving any counter inside the program.

A span's *self time* is its duration minus the time its child spans (on
the same thread) cover.  Layers whose spans only orchestrate other
layers (``tends``: ``Tends.fit`` / ``Tends.partial_fit``) are left out
of the coverage union, so their self time shows up as unattributed.
"""

from __future__ import annotations

import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

import repro.core.tends as tends_module
from repro.core.search import ParentSearch
from repro.core.stats import SufficientStats
from repro.core.tends import Tends
from repro.core.tiles import TiledSufficientStats
from repro.serve.journal import IngestJournal
from repro.serve.service import IngestService

#: Layers that only call other layers; their self time is orchestration.
CONTAINER_LAYERS = frozenset({"tends"})


@dataclass
class Span:
    layer: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _n2_beta(statuses) -> int:
    return int(statuses.n_nodes) ** 2 * int(statuses.beta)


def _pairs(stats) -> int:
    n = int(stats.n_nodes)
    return n * (n - 1) // 2


# (owner, attribute, layer, describe(args, kwargs, result) -> info dict).
# ``args`` are those of the underlying function, so a classmethod's
# start with the class and a method's with the instance.
_Describe = Callable[[tuple, dict, object], dict]
_ENTRY_POINTS: tuple[tuple[object, str, str, _Describe | None], ...] = (
    (SufficientStats, "from_statuses", "stats",
     lambda a, k, r: {"pair_cells": _n2_beta(a[1])}),
    (SufficientStats, "updated", "stats", None),
    (TiledSufficientStats, "from_statuses", "tiles",
     lambda a, k, r: {
         "pair_cells": _n2_beta(a[1]),
         "tiles": len(r.grid.blocks()),
         "spilled_bytes": r.store.spilled_bytes(),
     }),
    (SufficientStats, "mi_matrix", "imi", lambda a, k, r: {"pairs": _pairs(a[0])}),
    (TiledSufficientStats, "mi_matrix", "imi",
     lambda a, k, r: {"pairs": _pairs(a[0])}),
    # Tends looks these two up in its own module namespace.
    (tends_module, "fixed_zero_two_means", "threshold",
     lambda a, k, r: {"values": len(a[0])}),
    (tends_module, "prune_candidates", "search.prune", None),
    (ParentSearch, "find_parents", "search",
     lambda a, k, r: {"evaluations": r[1].n_evaluations, "candidates": len(a[2])}),
    (Tends, "fit", "tends", lambda a, k, r: _stage_info(r)),
    (Tends, "partial_fit", "tends",
     lambda a, k, r: {**_stage_info(r), "dirty": r.update.n_dirty, "update": 1}),
    (IngestService, "submit", "serve", None),
    (IngestService, "stats", "serve", None),
    (IngestService, "debug_trace", "serve", None),
    (IngestJournal, "append", "journal", None),
)


def _stage_info(result) -> dict:
    return {"stage_sum_s": float(sum(result.stage_times.values()))}


class LayerTrace:
    """Thread-safe in-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, layer: str) -> Iterator[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = Span(layer=layer, start=time.perf_counter())
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1].child_s += span.duration
            with self._lock:
                self.spans.append(span)

    def _wrap(self, function, layer: str, describe: _Describe | None):
        trace = self

        def wrapper(*args, **kwargs):
            with trace.span(layer) as span:
                result = function(*args, **kwargs)
                if describe is not None:
                    span.info = describe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = function
        return wrapper

    @contextmanager
    def installed(self) -> Iterator["LayerTrace"]:
        """Route every layer entry point through a span for the block."""
        saved = []
        try:
            for owner, name, layer, describe in _ENTRY_POINTS:
                original = vars(owner)[name]
                if isinstance(original, classmethod):
                    replacement = classmethod(
                        self._wrap(original.__func__, layer, describe)
                    )
                else:
                    replacement = self._wrap(original, layer, describe)
                saved.append((owner, name, original))
                setattr(owner, name, replacement)
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    def finished(self) -> list[Span]:
        with self._lock:
            return list(self.spans)


def _union_seconds(intervals: list[tuple[float, float]]) -> float:
    total, current_start, current_end = 0.0, None, None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def _p50(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def span_metrics(
    spans: list[Span], *, window: tuple[float, float]
) -> dict[str, float]:
    """Per-layer metrics from one traced window ``(start, end)``.

    Every name is present whether or not the layer ran in this workload;
    a layer that did not run reads 0.
    """

    def of(layer: str) -> list[Span]:
        return [span for span in spans if span.layer == layer]

    def self_s(layer: str) -> float:
        return float(sum(span.self_s for span in of(layer)))

    def total(layer: str, key: str) -> float:
        return float(sum(span.info.get(key, 0) for span in of(layer)))

    stats_s, tiles_s = self_s("stats"), self_s("tiles")
    search_s = self_s("search")
    evaluations = total("search", "evaluations")
    nodes = len(of("search"))
    updates = [span for span in of("tends") if span.info.get("update")]
    fits = of("tends")
    fit_wall = sum(span.duration for span in fits)
    start, end = window
    covered = _union_seconds(
        [
            (max(span.start, start), min(span.end, end))
            for span in spans
            if span.layer not in CONTAINER_LAYERS
            and span.end > start
            and span.start < end
        ]
    )
    return {
        "stats.s": stats_s,
        "stats.pair_cells": total("stats", "pair_cells"),
        "stats.cells_per_s": (
            total("stats", "pair_cells") / stats_s if stats_s > 0 else 0.0
        ),
        "tiles.s": tiles_s,
        "tiles.count": total("tiles", "tiles"),
        "tiles.spilled_bytes": total("tiles", "spilled_bytes"),
        "imi.s": self_s("imi"),
        "imi.pairs": total("imi", "pairs"),
        "threshold.s": self_s("threshold"),
        "threshold.values": total("threshold", "values"),
        "search.s": search_s,
        "search.prune_s": self_s("search.prune"),
        "search.nodes": float(nodes),
        "search.evaluations": evaluations,
        "search.us_per_eval": (
            search_s / evaluations * 1e6 if evaluations else 0.0
        ),
        "search.candidates_per_node": (
            total("search", "candidates") / nodes if nodes else 0.0
        ),
        "tends.s": self_s("tends"),
        "update.dirty_nodes": (
            sum(span.info["dirty"] for span in updates) / len(updates)
            if updates else 0.0
        ),
        "update.residual_s": (
            sum(span.self_s for span in updates) / len(updates)
            if updates else 0.0
        ),
        "journal.append_p50_ms": 1e3 * _p50(
            [span.duration for span in of("journal")]
        ),
        "serve.s": self_s("serve"),
        "unattributed_frac": 1.0 - covered / (end - start),
        "obs.stage_coverage": (
            total("tends", "stage_sum_s") / fit_wall if fit_wall > 0 else 0.0
        ),
    }
