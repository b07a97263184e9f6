"""Single-model accuracy and efficiency measures.

Two families live here. The contingency-derived rates (sensitivity,
precision, accuracy, ...) work on cell-level TP/FP/TN/FN counts. The
hotspot measures (hit rate, coverage, PAI, PPAI, SER, ALS) are event-based
and come in two flavours: a pre-aggregated path over :class:`HotspotUnit`
rows with known (a/A, n/N), and a cell-level path computed from a grid, a
selection and an event set. The two paths must agree whenever both apply;
the test suite holds them to that.

A rate whose denominator is zero is returned as ``None`` — a deliberate
"undefined" marker that report layers must render as such, never as 0.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Callable, Iterable, Optional, Sequence

from ._record import Record, set_field
from .domain import (
    ContingencyTable,
    EventSet,
    GridSpec,
    HotspotSelection,
    PeriodId,
    ProbabilitySurface,
    SelectionTally,
)
from .errors import PeriodMismatchError, ValidationError, ZeroMassError

#: Slack allowed on fraction sums before they count as "greater than one".
FRACTION_TOL = 1e-9


class HotspotUnit(Record):
    """A pre-aggregated hotspot: its share of area (a/A) and of crime (n/N).

    Parameters
    ----------
    id : str
        Opaque unit identifier.
    area_fraction : float
        The unit's area as a fraction of the whole region, in (0, 1].
    crime_fraction : float
        The unit's share of all observed crime, in [0, 1].
    """

    id: str
    area_fraction: float
    crime_fraction: float

    def __init__(self, id: str, area_fraction: float, crime_fraction: float) -> None:
        set_field(self, "id", id)
        set_field(self, "area_fraction", area_fraction)
        set_field(self, "crime_fraction", crime_fraction)
        if not (0.0 < area_fraction <= 1.0):
            raise ValidationError(
                f"unit {id!r}: area_fraction must be in (0, 1], "
                f"got {area_fraction!r}"
            )
        if not (0.0 <= crime_fraction <= 1.0):
            raise ValidationError(
                f"unit {id!r}: crime_fraction must be in [0, 1], "
                f"got {crime_fraction!r}"
            )


class RateSet(Record):
    """The six contingency-derived rates; None marks an undefined (0/0) rate.

    ``fpr`` is always exactly ``1 - specificity`` when the latter is
    defined; the constructor path in :func:`rates_from_contingency`
    computes it that way rather than as fp/(tn+fp) so the identity holds
    bit-for-bit.
    """

    sensitivity: Optional[float]
    specificity: Optional[float]
    ppv: Optional[float]
    npv: Optional[float]
    accuracy: Optional[float]
    fpr: Optional[float]

    def __init__(
        self,
        sensitivity: Optional[float],
        specificity: Optional[float],
        ppv: Optional[float],
        npv: Optional[float],
        accuracy: Optional[float],
        fpr: Optional[float],
    ) -> None:
        set_field(self, "sensitivity", sensitivity)
        set_field(self, "specificity", specificity)
        set_field(self, "ppv", ppv)
        set_field(self, "npv", npv)
        set_field(self, "accuracy", accuracy)
        set_field(self, "fpr", fpr)


def _ratio(num: int, den: int) -> Optional[float]:
    return None if den == 0 else num / den


def rates_from_contingency(t: ContingencyTable) -> RateSet:
    """All six standard rates from a cell-level contingency table.

    sensitivity = TP/(TP+FN) (the hit rate at cell level), specificity =
    TN/(TN+FP), ppv = TP/(TP+FP) (precision), npv = TN/(TN+FN),
    accuracy = (TP+TN)/total and fpr = 1 - specificity. Any rate with a
    zero denominator comes back as None.
    """
    specificity = _ratio(t.tn, t.tn + t.fp)
    return RateSet(
        sensitivity=_ratio(t.tp, t.tp + t.fn),
        specificity=specificity,
        ppv=_ratio(t.tp, t.tp + t.fp),
        npv=_ratio(t.tn, t.tn + t.fn),
        accuracy=_ratio(t.tp + t.tn, t.total),
        fpr=None if specificity is None else 1.0 - specificity,
    )


def _fraction_sum(units: Iterable[HotspotUnit], attr: str, what: str) -> float:
    rows = list(units)
    if not rows:
        raise ValidationError(f"cannot compute {what} of an empty unit selection")
    total = math.fsum(getattr(u, attr) for u in rows)
    if total > 1.0 + FRACTION_TOL:
        raise ValidationError(
            f"{what} of selected units sums to {total!r} > 1; the units "
            f"overlap or their fractions are inconsistent"
        )
    return total


def hit_rate(selected: Iterable[HotspotUnit]) -> float:
    """n/N for a set of pre-aggregated units: the sum of their crime shares."""
    return _fraction_sum(selected, "crime_fraction", "hit rate")


def coverage(selected: Iterable[HotspotUnit]) -> float:
    """a/A for a set of pre-aggregated units: the sum of their area shares."""
    return _fraction_sum(selected, "area_fraction", "coverage")


def hit_rate_from_events(
    grid: GridSpec,
    selection: HotspotSelection,
    events: EventSet,
    period: PeriodId,
) -> Optional[float]:
    """Event-level hit rate n/N: events in flagged cells over all events.

    Returns None (undefined) when the period has no events at all.
    """
    if selection.period != period:
        raise PeriodMismatchError(
            f"selection is for period {selection.period!r}, not {period!r}"
        )
    return SelectionTally.of(
        grid, selection.flagged, events.counts_by_cell(period)
    ).hit_rate


def coverage_from_cells(grid: GridSpec, selection: HotspotSelection) -> float:
    """a/A from cell areas: flagged area over the grid's total area."""
    return SelectionTally.of(grid, selection.flagged, {}).coverage


def pai(hit: float, cov: float) -> float:
    """Predictive accuracy index: hit rate scaled by coverage, hit/cov."""
    if cov <= 0:
        raise ValidationError(f"PAI needs positive coverage, got {cov!r}")
    return hit / cov


def ppai(hit: float, cov: float, alpha: float) -> float:
    """Penalized PAI: hit / cov**alpha for a penalty exponent in [0, 1].

    alpha = 0 ignores coverage entirely and returns the hit rate; alpha = 1
    applies the full PAI penalty. Both endpoints are special-cased so they
    reproduce :func:`hit_rate` and :func:`pai` bit-for-bit rather than
    relying on the platform's pow() being exact there.
    """
    if cov <= 0:
        raise ValidationError(f"PPAI needs positive coverage, got {cov!r}")
    if not (0.0 <= alpha <= 1.0):
        raise ValidationError(f"alpha must lie in [0, 1], got {alpha!r}")
    if alpha == 0.0:
        return hit
    if alpha == 1.0:
        return hit / cov
    return hit / cov**alpha


def ser(hits: int, patrolled_area_km2: float) -> float:
    """Search efficiency rate: successfully predicted crimes per km²."""
    if hits < 0:
        raise ValidationError(f"hit count must be non-negative, got {hits!r}")
    if not patrolled_area_km2 > 0:
        raise ValidationError(
            f"patrolled area must be positive, got {patrolled_area_km2!r}"
        )
    return hits / patrolled_area_km2


def als(
    surface: ProbabilitySurface,
    events: EventSet,
    period: PeriodId,
    restrict_to: Optional[HotspotSelection] = None,
    floor: Optional[float] = None,
) -> float:
    """Average logarithmic score: mean natural log of the mass at each event.

    Parameters
    ----------
    surface : ProbabilitySurface
        The model's per-cell mass for ``period``.
    events : EventSet
        Test events; only those in ``period`` are scored.
    period : str
        The period being scored; must match the surface's.
    restrict_to : HotspotSelection, optional
        When given, only events inside the flagged cells enter the mean and
        N is the restricted count.
    floor : float, optional
        When set, each mass is replaced by max(mass, floor) before taking
        the log. Without it, an event at a zero-mass cell is a hard
        error — a model that declared the observed data impossible should
        not be scored quietly.

    Notes
    -----
    Natural log. Changing the base rescales every ALS by the same constant
    and so never reorders models; the base in use is recorded in report
    metadata.
    """
    if surface.period != period:
        raise PeriodMismatchError(
            f"surface is for period {surface.period!r}, not {period!r}"
        )
    if restrict_to is not None and restrict_to.period != period:
        raise PeriodMismatchError(
            f"restriction is for period {restrict_to.period!r}, not {period!r}"
        )
    if floor is not None and not floor > 0:
        raise ValidationError(f"floor must be positive when given, got {floor!r}")
    # The cell of each event in canonical order, so the first zero-mass
    # cell found is the first event's.
    cells = events._cells(period)
    if restrict_to is not None:
        flagged = restrict_to.flagged
        cells = [c for c in cells if c in flagged]
    if not cells:
        raise ValidationError(
            f"no events in scope for period {period!r}; ALS is undefined"
        )
    # Each event's mass, read by its cell's position in the surface; a cell
    # the surface does not hold has mass 0.
    index, held = surface.mass._index, surface.mass._masses
    try:
        masses = _items(held, _items(index, cells))
    except KeyError:
        masses = [held[index[c]] if c in index else 0.0 for c in cells]
    lowest = min(masses)
    if floor is not None and lowest < floor:
        # max(mass, floor) is mass itself for every mass >= floor, so the
        # floor is applied only when it binds; it leaves every mass positive.
        masses = list(map(max, masses, itertools.repeat(floor)))
    elif lowest <= 0.0:
        cell = next(c for c, mass in zip(cells, masses) if mass <= 0.0)
        raise ZeroMassError(cell, period)
    return math.fsum(map(math.log, masses)) / len(masses)


def _items(container, keys: Sequence) -> tuple:
    """``container[key]`` for each of ``keys``, in one C-level pass."""
    if len(keys) == 1:
        return (container[keys[0]],)
    return operator.itemgetter(*keys)(container)


class Measure(Record):
    """One measure: its formula over a (model, period)'s tally and the row's
    PPAI alpha, None for ``als``, which is scored from a surface; and which
    direction is better, "higher" or "lower"."""

    formula: Optional[Callable[..., Optional[float]]]
    better: str

    def __init__(
        self, formula: Optional[Callable[..., Optional[float]]], better: str = "higher"
    ) -> None:
        set_field(self, "formula", formula)
        set_field(self, "better", better)


#: Every measure by its report and config id. Units mode's tally has only
#: hit_rate and coverage.
MEASURES = {
    "accuracy": Measure(lambda t, _: rates_from_contingency(t.table).accuracy),
    "als": Measure(None),
    "coverage": Measure(lambda t, _: t.coverage),
    "fpr": Measure(lambda t, _: rates_from_contingency(t.table).fpr, "lower"),
    "hit_rate": Measure(lambda t, _: t.hit_rate),
    "npv": Measure(lambda t, _: rates_from_contingency(t.table).npv),
    "pai": Measure(
        lambda t, _: None if t.hit_rate is None else pai(t.hit_rate, t.coverage)
    ),
    "ppai": Measure(
        lambda t, alpha: (
            None if t.hit_rate is None else ppai(t.hit_rate, t.coverage, alpha)
        )
    ),
    "precision": Measure(lambda t, _: rates_from_contingency(t.table).ppv),
    "sensitivity": Measure(lambda t, _: rates_from_contingency(t.table).sensitivity),
    "ser": Measure(lambda t, _: ser(t.hits, t.flagged_area_km2)),
    "specificity": Measure(lambda t, _: rates_from_contingency(t.table).specificity),
}

#: Measures computable from a pre-aggregated units table (no grid needed).
UNIT_MEASURES = ("hit_rate", "coverage", "pai", "ppai")
