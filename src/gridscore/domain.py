"""Core domain objects: the grid, flagged hotspots, observed events, surfaces.

Cells are opaque identifiers with an area in square kilometres; there is no
geometry here. Period and cell identifiers are plain strings; periods order
lexicographically, so ordinal period labels should be zero-padded
(``p00 < p01 < ... < p10``).

Everything is immutable after construction and safe to share across threads;
the two operations at the bottom are pure functions.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import PeriodMismatchError, ValidationError

# Opaque identifiers. Periods must order lexicographically in ordinal order.
CellId = str
PeriodId = str
EventId = str

#: Relative tolerance for the grid's total-area bookkeeping.
AREA_RTOL = 1e-9

#: Absolute tolerance on the mass sum of a probability surface.
MASS_ATOL = 1e-6


@dataclass(frozen=True)
class Cell:
    """One grid cell: an opaque id and its area in km^2."""

    id: CellId
    area_km2: float

    def __post_init__(self):
        if not (self.area_km2 > 0 and math.isfinite(self.area_km2)):
            raise ValidationError(
                f"cell {self.id!r}: area must be a positive finite number, "
                f"got {self.area_km2!r}"
            )


@dataclass(frozen=True)
class GridSpec:
    """The discretized study region.

    ``total_area_km2`` may be passed explicitly (it is then checked against
    the cell sum to within a relative tolerance of 1e-9) or left as None to
    be derived from the cells.
    """

    cells: tuple[Cell, ...]
    total_area_km2: float = None  # type: ignore[assignment]
    # Built once from ``cells``: cell id -> area, and the set of ids.
    _areas: Mapping[CellId, float] = field(init=False, repr=False, compare=False)
    _ids: frozenset[CellId] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cells = tuple(self.cells)
        object.__setattr__(self, "cells", cells)
        if not cells:
            raise ValidationError("a grid needs at least one cell")
        areas = {c.id: c.area_km2 for c in cells}
        if len(areas) != len(cells):
            counts = Counter(c.id for c in cells)
            dupes = sorted(i for i, n in counts.items() if n > 1)
            raise ValidationError(f"duplicate cell ids: {dupes}")
        object.__setattr__(self, "_areas", areas)
        object.__setattr__(self, "_ids", frozenset(areas))
        derived = math.fsum(c.area_km2 for c in cells)
        if self.total_area_km2 is None:
            object.__setattr__(self, "total_area_km2", derived)
        elif not math.isclose(self.total_area_km2, derived, rel_tol=AREA_RTOL):
            raise ValidationError(
                f"declared total area {self.total_area_km2!r} km^2 does not "
                f"match the cell sum {derived!r} km^2"
            )

    @property
    def cell_ids(self) -> frozenset[CellId]:
        return self._ids

    def area_of(self, cell_id: CellId) -> float:
        try:
            return self._areas[cell_id]
        except KeyError:
            raise ValidationError(f"unknown cell id {cell_id!r}") from None


@dataclass(frozen=True)
class HotspotSelection:
    """The set of cells one model flags as hotspots for one period."""

    period: PeriodId
    flagged: frozenset[CellId]

    def __post_init__(self):
        object.__setattr__(self, "flagged", frozenset(self.flagged))


@dataclass(frozen=True)
class Event:
    """One observed crime, already assigned to a cell and period."""

    event_id: EventId
    cell_id: CellId
    period: PeriodId


@dataclass(frozen=True)
class EventSet:
    """Observed events, held in a canonical (period, event id) order.

    The canonical order makes every downstream aggregate independent of the
    order rows appeared in the source file. The events are grouped by period
    once, here, and every per-period query reads that grouping. Events are
    cross-validated against a grid in one place, :func:`assign_events`,
    because the event set does not hold a grid reference.
    """

    events: tuple[Event, ...]
    # Built once from ``events``: period -> its events, periods in order.
    _by_period: Mapping[PeriodId, tuple[Event, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        canonical = operator.attrgetter("period", "event_id", "cell_id")
        ordered = tuple(sorted(self.events, key=canonical))
        object.__setattr__(self, "events", ordered)
        groups = itertools.groupby(ordered, operator.attrgetter("period"))
        object.__setattr__(self, "_by_period", {p: tuple(g) for p, g in groups})

    def __len__(self) -> int:
        return len(self.events)

    def periods(self) -> tuple[PeriodId, ...]:
        return tuple(self._by_period)

    def in_period(self, period: PeriodId) -> tuple[Event, ...]:
        return self._by_period.get(period, ())

    def count(self, period: PeriodId) -> int:
        """N: the total number of events observed in ``period``."""
        return len(self._by_period.get(period, ()))

    def counts_by_cell(self, period: PeriodId | None = None) -> dict[CellId, int]:
        """Events per cell, over one period or over the whole set."""
        scoped = self.events if period is None else self._by_period.get(period, ())
        return dict(Counter(e.cell_id for e in scoped))


@dataclass(frozen=True)
class ProbabilitySurface:
    """Per-cell probability mass a model assigns to one period.

    The masses must lie in [0, 1] and sum to 1 within ``MASS_ATOL``.
    Completeness against a particular grid (an entry for every cell) is
    checked where grid and surface meet: in the loader and in the scoring
    functions.
    """

    period: PeriodId
    mass: Mapping[CellId, float]

    def __post_init__(self):
        mass = dict(self.mass)
        object.__setattr__(self, "mass", mass)
        if not mass:
            raise ValidationError("a probability surface needs at least one cell")
        bad = [c for c, m in mass.items() if not (math.isfinite(m) and 0.0 <= m <= 1.0)]
        if bad:
            cid = min(bad)
            raise ValidationError(
                f"surface mass for cell {cid!r} is {mass[cid]!r}, outside [0, 1]"
            )
        total = math.fsum(mass.values())
        if abs(total - 1.0) > MASS_ATOL:
            raise ValidationError(
                f"surface masses sum to {total!r}, not 1 within {MASS_ATOL}"
            )

    @classmethod
    def renormalized(
        cls, period: PeriodId, mass: Mapping[CellId, float]
    ) -> "ProbabilitySurface":
        """Build a surface from non-negative weights, scaling them to sum 1."""
        total = math.fsum(mass.values())
        if total <= 0:
            raise ValidationError("cannot renormalize: masses sum to zero")
        return cls(period, {cid: m / total for cid, m in mass.items()})


@dataclass(frozen=True)
class ContingencyTable:
    """Cell-level confusion counts for one (model, period) pair.

    A flagged cell with at least one event counts once as a true positive
    no matter how many events hit it; event-level counts live in
    :class:`SelectionTally` instead.
    """

    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        for name in ("tp", "fp", "tn", "fn"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise ValidationError(f"{name} must be a non-negative integer, got {v!r}")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class SelectionTally:
    """The counts every selection measure of one (model, period) comes from.

    ``n_events`` is N, the events of the period; ``hits`` is n, those inside
    flagged cells; ``flagged_area_km2`` is a and ``total_area_km2`` is A;
    ``table`` is the cell-level contingency table.
    """

    n_events: int
    hits: int
    flagged_area_km2: float
    total_area_km2: float
    table: ContingencyTable

    @classmethod
    def of(
        cls, grid: GridSpec, flagged: frozenset[CellId], counts: Mapping[CellId, int]
    ) -> "SelectionTally":
        """Tally flagged grid cells against one period's events per cell.

        ``counts`` maps each cell with events to its positive count, as
        :meth:`EventSet.counts_by_cell` returns it. Cells outside the grid
        count towards N but are no cell of the contingency table; a flagged
        cell outside the grid is an error.
        """
        return _PeriodCounts.of(grid, counts).tally(flagged)

    @property
    def hit_rate(self) -> float | None:
        """n/N, or None when the period has no events."""
        return None if self.n_events == 0 else self.hits / self.n_events

    @property
    def coverage(self) -> float:
        """a/A: the flagged share of the grid's area."""
        return self.flagged_area_km2 / self.total_area_km2


@dataclass(frozen=True)
class _PeriodCounts:
    """What every model's tally of one period shares: the events per cell,
    N, and the grid cells with events. Built once per period; each
    :meth:`tally` then does only the work its flagged set needs."""

    grid: GridSpec
    counts: Mapping[CellId, int]
    n_events: int
    hit: frozenset[CellId]

    @classmethod
    def of(cls, grid: GridSpec, counts: Mapping[CellId, int]) -> "_PeriodCounts":
        hit = grid.cell_ids.intersection(counts)
        return cls(grid, counts, sum(counts.values()), hit)

    def tally(self, flagged: frozenset[CellId]) -> SelectionTally:
        """The :meth:`SelectionTally.of` of ``flagged`` against this period."""
        grid = self.grid
        unknown = sorted(flagged - grid.cell_ids)
        if unknown:
            raise ValidationError(f"selection flags unknown cells: {unknown}")
        # Every flagged cell is known from here on, so its area is a lookup.
        caught = self.hit & flagged
        return SelectionTally(
            n_events=self.n_events,
            hits=sum(self.counts[c] for c in caught),
            flagged_area_km2=math.fsum(map(grid._areas.__getitem__, flagged)),
            total_area_km2=grid.total_area_km2,
            table=ContingencyTable(
                tp=len(caught),
                fp=len(flagged) - len(caught),
                tn=len(grid.cells) - len(flagged) - len(self.hit) + len(caught),
                fn=len(self.hit) - len(caught),
            ),
        )


@dataclass(frozen=True)
class RejectedRow:
    """A raw event row dropped during lenient ingestion."""

    event_id: EventId
    cell_id: CellId
    period: PeriodId
    reason: str


def assign_events(
    grid: GridSpec,
    raw: Iterable[tuple[EventId, CellId, PeriodId]],
    strict: bool = True,
) -> tuple[EventSet, tuple[RejectedRow, ...]]:
    """Turn raw (event id, cell id, period) rows into a validated EventSet.

    In strict mode (the default) any row referencing a cell the grid does
    not contain is a hard error naming the offending event id. In lenient
    mode such rows are dropped and returned alongside the event set so the
    caller can count and report them; silent dropping would hide upstream
    geocoding mistakes. ``raw`` is read lazily, one row at a time, so a
    caller streaming it from a file stands on the offending row when the
    strict-mode error is raised.
    """
    known = grid.cell_ids
    kept: list[Event] = []
    rejected: list[RejectedRow] = []
    for event_id, cell_id, period in raw:
        if cell_id in known:
            kept.append(Event(event_id, cell_id, period))
        elif strict:
            raise ValidationError(
                f"event {event_id!r} references unknown cell {cell_id!r}"
            )
        else:
            rejected.append(RejectedRow(event_id, cell_id, period, "unknown cell"))
    return EventSet(tuple(kept)), tuple(rejected)


def contingency(
    grid: GridSpec,
    selection: HotspotSelection,
    events: EventSet,
    period: PeriodId,
) -> ContingencyTable:
    """Classify every grid cell as TP, FP, TN or FN for one period.

    flagged and hit -> TP; flagged and quiet -> FP; unflagged and quiet ->
    TN; unflagged and hit -> FN. Counts are cells, so the four numbers
    always sum to the grid size.
    """
    if selection.period != period:
        raise PeriodMismatchError(
            f"selection is for period {selection.period!r}, asked to score "
            f"period {period!r}"
        )
    return SelectionTally.of(
        grid, selection.flagged, events.counts_by_cell(period)
    ).table
