"""Seeded synthetic data and trivial baseline predictors.

Everything here exists so the pipeline can be exercised end-to-end without
real crime data. Event generation is reproducible by construction: the
PRNG is Python's Mersenne Twister (MT19937) seeded explicitly, consumed
only through ``Random.random()`` (whose sequence for a given seed is
guaranteed stable across Python versions and platforms), and mapped to
cells by inverse-CDF lookup on the cumulative weights. OS entropy is never
involved, so a seed pins the byte-exact output.

The baselines — flag the k historically busiest cells, or re-use the
(smoothed) historical frequencies as a probability surface — are test
instruments, not serious predictive models.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from array import array
from bisect import bisect_right

from ._record import Record, set_field
from .domain import (
    EventSet,
    GridSpec,
    HotspotSelection,
    PeriodId,
    ProbabilitySurface,
)
from .errors import ValidationError


class GeneratorSpec(Record):
    """Recipe for a synthetic dataset.

    ``weights`` are unnormalized per-cell event propensities; cell i
    receives each event with probability weights[i] / sum(weights).
    """

    n_cells: int
    cell_area_km2: float
    weights: tuple[float, ...]
    n_periods: int
    events_per_period: int
    seed: int

    def __init__(
        self,
        n_cells: int,
        cell_area_km2: float,
        weights: tuple[float, ...],
        n_periods: int,
        events_per_period: int,
        seed: int,
    ) -> None:
        set_field(self, "n_cells", n_cells)
        set_field(self, "cell_area_km2", cell_area_km2)
        set_field(self, "weights", tuple(weights))
        set_field(self, "n_periods", n_periods)
        set_field(self, "events_per_period", events_per_period)
        set_field(self, "seed", seed)
        if self.n_cells < 1:
            raise ValidationError(f"n_cells must be positive, got {self.n_cells!r}")
        if self.n_periods < 1:
            raise ValidationError(
                f"n_periods must be positive, got {self.n_periods!r}"
            )
        if self.events_per_period < 0:
            raise ValidationError(
                f"events_per_period must be non-negative, "
                f"got {self.events_per_period!r}"
            )
        if not self.cell_area_km2 > 0:
            raise ValidationError(
                f"cell_area_km2 must be positive, got {self.cell_area_km2!r}"
            )
        if len(self.weights) != self.n_cells:
            raise ValidationError(
                f"{self.n_cells} cells but {len(self.weights)} weights"
            )
        if not all(map(math.isfinite, self.weights)) or min(self.weights) < 0:
            raise ValidationError("weights must be finite and non-negative")
        # The running sum generate_events draws against, summed the same way.
        if not math.isfinite(functools.reduce(operator.add, self.weights, 0.0)):
            raise ValidationError("weights sum beyond the float range")
        if not max(self.weights) > 0:
            raise ValidationError("at least one weight must be positive")

    def cell_ids(self) -> tuple[str, ...]:
        cell_id = f"c{{:0{len(str(self.n_cells))}d}}".format
        return tuple(map(cell_id, range(1, self.n_cells + 1)))

    def period_ids(self) -> tuple[PeriodId, ...]:
        width = len(str(self.n_periods))
        return tuple(f"p{i:0{width}d}" for i in range(1, self.n_periods + 1))


def make_grid(spec: GeneratorSpec) -> GridSpec:
    """The equal-area grid the generated events live on."""
    return GridSpec._of_columns(spec.cell_ids(), (spec.cell_area_km2,) * spec.n_cells)


def generate_events(spec: GeneratorSpec) -> EventSet:
    """Draw the spec'd number of events per period from the weight profile.

    Events are drawn one uniform variate u from MT19937 each, in order:
    period by period, and within a period in event-id order. Each u picks
    the first cell whose cumulative weight exceeds u·total — a plain
    inverse-CDF lookup with ``bisect_right``, chosen over library helpers so
    the mapping from random stream to cells is spelled out here and cannot
    drift. The draws run as one chain of C-level ``map`` passes, and event
    ids as one ``str.format``; the ids come out in canonical order, so each
    period's columns are built as drawn and pass the event set's canonical
    check, one comparison pass per period, without a sort.
    """
    rng = random.Random(spec.seed)
    cells = spec.cell_ids()
    # The running sum from 0.0, one weight at a time: its last entry is the total.
    cumulative = list(itertools.accumulate(spec.weights, initial=0.0))[1:]
    total = cumulative[-1]
    # u*total == total (u just below 1) lands past the end: it picks the last cell.
    cell_at = (*cells, cells[-1]).__getitem__
    per_period = spec.events_per_period
    n_events = spec.n_periods * per_period
    draws = itertools.starmap(rng.random, itertools.repeat((), n_events))
    picks = map(
        cell_at,
        map(functools.partial(bisect_right, cumulative), map(total.__mul__, draws)),
    )
    event_id = f"e{{:0{len(str(max(1, n_events)))}d}}".format
    columns = {}
    if per_period:  # a period without events has no columns
        for start, period in zip(
            itertools.count(1, per_period), spec.period_ids()
        ):
            ids = tuple(map(event_id, range(start, start + per_period)))
            columns[period] = (ids, tuple(itertools.islice(picks, per_period)))
    return EventSet._of_columns(columns)


def top_k_baseline(
    train: EventSet, grid: GridSpec, k: int, period: PeriodId
) -> HotspotSelection:
    """Flag the k cells with the most training events, for one test period.

    Ties break toward the lexicographically smaller cell id; cells with no
    training events count as zero and can be drawn in when k is large.
    Only the grid cells with training events are ranked (sorted by id, then
    stably by count, descending); zero-count cells are added, in id order,
    only when fewer than k cells have events. Training events on cells
    outside the grid are ignored.
    """
    if not 0 < k <= len(grid.cell_ids):
        raise ValidationError(
            f"k must be in [1, {len(grid.cell_ids)}], got {k!r}"
        )
    counts = train.counts_by_cell()
    ranked = sorted(grid.cell_ids.intersection(counts))
    ranked.sort(key=counts.__getitem__, reverse=True)
    if len(ranked) < k:
        ranked += sorted(grid.cell_ids.difference(counts))[: k - len(ranked)]
    return HotspotSelection(period=period, flagged=frozenset(ranked[:k]))


def empirical_surface(
    train: EventSet,
    grid: GridSpec,
    period: PeriodId,
    smoothing: float = 1.0,
) -> ProbabilitySurface:
    """Historical event frequencies, additively smoothed, as a surface.

    mass(cell) ∝ training count + smoothing. With smoothing 0 the surface
    simply re-normalizes the raw counts (and assigns zero mass to quiet
    cells, which a later ALS against events there will refuse to score).
    """
    if smoothing < 0:
        raise ValidationError(f"smoothing must be >= 0, got {smoothing!r}")
    counts = train.counts_by_cell()
    weights = map(operator.add, map(counts.get, grid._index, itertools.repeat(0)),
                  itertools.repeat(smoothing))
    return ProbabilitySurface._renormalized(period, grid._index, array("d", weights))


def uniform_surface(grid: GridSpec, period: PeriodId) -> ProbabilitySurface:
    """The no-information model: equal mass on every cell."""
    weights = array("d", (1.0,)) * len(grid._index)
    return ProbabilitySurface._renormalized(period, grid._index, weights)
