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

import math
import random
from bisect import bisect_right
from dataclasses import dataclass

from .domain import (
    Cell,
    EventSet,
    GridSpec,
    HotspotSelection,
    PeriodId,
    ProbabilitySurface,
)
from .errors import ValidationError


@dataclass(frozen=True)
class GeneratorSpec:
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

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
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
        if any(w < 0 or not math.isfinite(w) for w in self.weights):
            raise ValidationError("weights must be finite and non-negative")
        if not any(w > 0 for w in self.weights):
            raise ValidationError("at least one weight must be positive")

    def cell_ids(self) -> tuple[str, ...]:
        width = len(str(self.n_cells))
        return tuple(f"c{i:0{width}d}" for i in range(1, self.n_cells + 1))

    def period_ids(self) -> tuple[PeriodId, ...]:
        width = len(str(self.n_periods))
        return tuple(f"p{i:0{width}d}" for i in range(1, self.n_periods + 1))


def make_grid(spec: GeneratorSpec) -> GridSpec:
    """The equal-area grid the generated events live on."""
    return GridSpec(
        cells=tuple(Cell(cid, spec.cell_area_km2) for cid in spec.cell_ids())
    )


def generate_events(spec: GeneratorSpec) -> EventSet:
    """Draw the spec'd number of events per period from the weight profile.

    Each draw takes one uniform variate u from MT19937 and picks the first
    cell whose cumulative weight exceeds u·total — a plain inverse-CDF
    lookup, chosen over library helpers so the mapping from random stream
    to cells is spelled out here and cannot drift.
    """
    rng = random.Random(spec.seed)
    cells = spec.cell_ids()
    cumulative = []
    running = 0.0
    for w in spec.weights:
        running += w
        cumulative.append(running)
    total = cumulative[-1]
    rows = []
    counter = 0
    width = len(str(max(1, spec.n_periods * spec.events_per_period)))
    for period in spec.period_ids():
        for _ in range(spec.events_per_period):
            counter += 1
            u = rng.random()
            idx = bisect_right(cumulative, u * total)
            idx = min(idx, len(cells) - 1)  # guards u*total == total edge
            rows.append((period, f"e{counter:0{width}d}", cells[idx]))
    return EventSet._of_rows(rows)


def top_k_baseline(
    train: EventSet, grid: GridSpec, k: int, period: PeriodId
) -> HotspotSelection:
    """Flag the k cells with the most training events, for one test period.

    Ties break toward the lexicographically smaller cell id; cells with no
    training events count as zero and can be drawn in when k is large.
    """
    if not 0 < k <= len(grid.cells):
        raise ValidationError(
            f"k must be in [1, {len(grid.cells)}], got {k!r}"
        )
    counts = train.counts_by_cell()
    ranked = sorted(
        (c.id for c in grid.cells),
        key=lambda cid: (-counts.get(cid, 0), cid),
    )
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
    mass = {c.id: counts.get(c.id, 0) + smoothing for c in grid.cells}
    return ProbabilitySurface.renormalized(period, mass)


def uniform_surface(grid: GridSpec, period: PeriodId) -> ProbabilitySurface:
    """The no-information model: equal mass on every cell."""
    return ProbabilitySurface.renormalized(period, {c.id: 1.0 for c in grid.cells})
