"""Spans and counters around gridscore's module boundaries, from outside.

:class:`Tracer` wraps, while installed:

* every public function defined in a gridscore module, at its module
  attribute and at every other module's direct import of it
  (``cli.contingency``, ``cli.load_dataset``, ``cli.write_cells``, ...);
* the three ``EventSet`` scans (``in_period``, ``count``,
  ``counts_by_cell``) and ``Report.render``, as methods;
* the ``GridSpec.cell_ids`` property, as a call counter only: it runs once
  per surface row, and a span per call would weigh on what it measures.

Per-element functions are left alone: ``metrics.ppai`` runs once per level
and alpha inside the alpha search (through ``alpha_search``'s own import,
which is never rebound) and ``report.fmt`` once per rendered value.

Spans are ``[name, start, end, parent]`` lists kept in memory; a span's
self time is its duration minus the time its child spans cover.

Which end-to-end metric each layer metric should move, and where:

* ``ingest.load_surfaces_s``, ``ingest.surfaces_rows``,
  ``domain.cell_ids_calls``: wall_s and cpu_s on evaluate-surfaces; about
  zero on the other two workloads.
* ``ingest.load_{events,selections,cells,config}_s``, ``ingest.events_rows``,
  ``ingest.rows_per_s``: wall_s and peak_rss_mb on compare-selections.
  ``ingest.load_units_s``: a small share of wall_s on alpha-units.
* ``domain.event_scans``, ``domain.events_visited`` (the events each scan
  walks), ``domain.scan_s``, ``domain.contingency_{s,calls}``,
  ``metrics.hit_rate_from_events_s``, ``metrics.coverage_from_cells_s``,
  ``combine.expected_utility_s``, ``stats.*``: wall_s on
  compare-selections (scans: cpu_s too); nothing on alpha-units.
* ``metrics.als_s``: wall_s on evaluate-surfaces. ``cli.self_s`` (the
  ``cmd_*`` spans' self time, holding the inline SER and ALS-scoping
  scans): wall_s on compare-selections and evaluate-surfaces.
* ``alpha_search.*``: wall_s and cpu_s on alpha-units only.
  ``report.render_s``, ``report.bytes``: wall_s on alpha-units and
  compare-selections.
* ``synth.generate_events_s``, ``synth.baselines_s``, ``ingest.write_s``:
  setup_s on all three. ``trace.overhead_share`` moves nothing; it shows
  what the wrapping costs.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter
from time import perf_counter

from gridscore import (
    alpha_search, cli, combine, domain, ingest, metrics, report, stats, synth,
)

MODULES = (alpha_search, cli, combine, domain, ingest, metrics, report, stats, synth)

#: Functions called once per element; wrapping them would swamp the trace.
PER_ELEMENT = {"metrics.ppai", "report.fmt"}

EVENT_SCANS = ("in_period", "count", "counts_by_cell")

LOADERS = ("load_cells", "load_events", "load_selections", "load_surfaces", "load_units")

#: Layers whose summed self time is reported as ``<layer>.self_s``.
LAYERS = ("alpha_search", "combine", "domain", "ingest", "metrics", "report", "stats")


class Tracer:
    """Patches gridscore while installed; records spans and counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counters = Counter()

    def _wrap(self, name: str, fn, observe=None):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            self.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        observers = self._observers()
        wrapped = {}
        for module in MODULES:
            for attr, obj in sorted(vars(module).items()):
                name = f"{module.__name__.rpartition('.')[2]}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and name not in PER_ELEMENT):
                    wrapped[id(obj)] = self._wrap(name, obj, observers.get(name))
        for module in MODULES:
            for attr, obj in sorted(vars(module).items()):
                if id(obj) in wrapped:
                    self._patch(module, attr, wrapped[id(obj)])
        for attr in EVENT_SCANS:
            self._patch(domain.EventSet, attr, self._wrap(
                f"domain.EventSet.{attr}", domain.EventSet.__dict__[attr], self._count_scan))
        self._patch(report.Report, "render", self._wrap(
            "report.Report.render", report.Report.render, self._count_bytes))
        cell_ids = domain.GridSpec.__dict__["cell_ids"].fget

        def counted(grid):
            self.counters["domain.cell_ids_calls"] += 1
            return cell_ids(grid)

        self._patch(domain.GridSpec, "cell_ids", property(counted))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- observers: counts taken where the work happens ---------------------

    def _count_scan(self, args, result) -> None:
        self.counters["domain.event_scans"] += 1
        self.counters["domain.events_visited"] += len(args[0].events)

    def _count_bytes(self, args, result) -> None:
        self.counters["report.bytes"] += len(result.encode("utf-8"))

    def _observers(self) -> dict:
        def rows(key, count):
            def observe(args, result):
                self.counters[key] += count(result)
            return observe

        def wsr(args, result):
            self.counters["stats.wsr_calls"] += 1
            self.counters["stats.wsr_exact"] += result.method == "exact"

        def alpha(args, result):
            # A grid alpha is valid when the target level is its unique
            # peak; the diagnostics name each alpha's (first) peak.
            target = result.target_level.prefix_len
            diagnostics = result.per_alpha_diagnostics
            self.counters["alpha_search.alphas_tried"] += len(diagnostics)
            self.counters["alpha_search.alphas_valid"] += sum(
                1 for _, peak in diagnostics if peak == target)

        return {
            "ingest.load_cells": rows("ingest.cells_rows", lambda r: len(r.cells)),
            "ingest.load_events": rows("ingest.events_rows", lambda r: len(r[0]) + len(r[1])),
            "ingest.load_selections": rows(
                "ingest.selections_rows",
                lambda r: sum(len(s.flagged) for p in r.values() for s in p.values())),
            "ingest.load_surfaces": rows(
                "ingest.surfaces_rows",
                lambda r: sum(len(s.mass) for p in r.values() for s in p.values())),
            "ingest.load_units": rows("ingest.units_rows", len),
            "alpha_search.cumulative_levels": rows("alpha_search.levels", len),
            "stats.wilcoxon_signed_rank": wsr,
            "alpha_search.optimal_alpha": alpha,
        }


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _) in enumerate(spans)]


def _total(spans: list[list], *names: str) -> float:
    return sum((end - start for name, start, end, _ in spans if name in names), 0.0)


def invocation_metrics(spans: list[list], counters: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced CLI invocation."""
    selfs = self_times(spans)
    by_layer: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
    cmd_self = 0.0
    for (name, *_), own in zip(spans, selfs):
        layer, _, function = name.partition(".")
        by_layer[layer] = by_layer.get(layer, 0.0) + own
        if layer == "cli" and function.startswith("cmd_"):
            cmd_self += own
    load_s = _total(spans, *(f"ingest.{f}" for f in LOADERS))
    rows = sum(counters[f"ingest.{kind}_rows"]
               for kind in ("cells", "events", "selections", "surfaces", "units"))
    wsr_calls = counters["stats.wsr_calls"]
    tried = counters["alpha_search.alphas_tried"]
    out = {f"ingest.{f}_s": _total(spans, f"ingest.{f}") for f in LOADERS + ("load_config",)}
    out.update({
        "ingest.surfaces_rows": counters["ingest.surfaces_rows"],
        "ingest.events_rows": counters["ingest.events_rows"],
        "ingest.rows_per_s": rows / load_s if load_s else 0.0,
        "domain.cell_ids_calls": counters["domain.cell_ids_calls"],
        "domain.event_scans": counters["domain.event_scans"],
        "domain.events_visited": counters["domain.events_visited"],
        "domain.scan_s": _total(spans, *(f"domain.EventSet.{s}" for s in EVENT_SCANS)),
        "domain.contingency_s": _total(spans, "domain.contingency"),
        "domain.contingency_calls": sum(1 for s in spans if s[0] == "domain.contingency"),
        "metrics.hit_rate_from_events_s": _total(spans, "metrics.hit_rate_from_events"),
        "metrics.coverage_from_cells_s": _total(spans, "metrics.coverage_from_cells"),
        "metrics.als_s": _total(spans, "metrics.als"),
        "cli.self_s": cmd_self,
        "combine.expected_utility_s": _total(
            spans, "combine.conditional_rates", "combine.expected_utility"),
        "stats.wsr_s": _total(spans, "stats.wilcoxon_signed_rank", "stats.bonferroni"),
        "stats.wsr_calls": wsr_calls,
        "stats.wsr_exact_share": counters["stats.wsr_exact"] / wsr_calls if wsr_calls else 0.0,
        "stats.summarize_s": _total(spans, "stats.summarize"),
        "alpha_search.cumulative_levels_s": _total(spans, "alpha_search.cumulative_levels"),
        "alpha_search.optimal_alpha_s": _total(spans, "alpha_search.optimal_alpha"),
        "alpha_search.levels": counters["alpha_search.levels"],
        "alpha_search.valid_alpha_share": (
            counters["alpha_search.alphas_valid"] / tried if tried else 0.0),
        "report.render_s": _total(spans, "report.Report.render"),
        "report.bytes": counters["report.bytes"],
    })
    out.update({f"{layer}.self_s": by_layer[layer] for layer in LAYERS})
    return out


def setup_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced set-up: gen, baselines, writers."""
    return {
        "synth.generate_events_s": _total(spans, "synth.generate_events"),
        "synth.baselines_s": _total(
            spans, "synth.top_k_baseline", "synth.empirical_surface", "synth.uniform_surface"),
        "ingest.write_s": _total(spans, *(
            f"ingest.write_{kind}"
            for kind in ("cells", "events", "selections", "surfaces", "units"))),
    }


def self_time_table(spans: list[list]) -> list[tuple[str, float]]:
    """(span name, summed self time), largest first."""
    totals: Counter = Counter()
    for (name, *_), own in zip(spans, self_times(spans)):
        totals[name] += own
    return totals.most_common()
