"""Core domain objects: the grid, flagged hotspots, observed events, surfaces.

Cells are opaque identifiers with an area in square kilometres; there is no
geometry here. Period and cell identifiers are plain strings; periods order
lexicographically, so ordinal period labels should be zero-padded
(``p00 < p01 < ... < p10``).

Everything is immutable after construction and safe to share across threads;
the two operations at the bottom are pure functions. A :class:`GridSpec`
holds its cells as one id → area map, and an :class:`EventSet` its events
as per-period columns of ids, which is all the measures read; each builds
:class:`Cell` or :class:`Event` objects only for a caller that asks for
them. A :class:`ProbabilitySurface` holds its masses as one array of floats,
in the order of its grid's id → position map.
"""

from __future__ import annotations

import itertools
import math
import operator
from array import array
from collections import Counter
from collections.abc import Mapping
from typing import Iterable, Iterator, Sequence

from ._record import Record, set_field
from .errors import PeriodMismatchError, ValidationError

# Opaque identifiers. Periods must order lexicographically in ordinal order.
CellId = str
PeriodId = str
EventId = str

#: Relative tolerance for the grid's total-area bookkeeping.
AREA_RTOL = 1e-9

#: Absolute tolerance on the mass sum of a probability surface.
MASS_ATOL = 1e-6


class Cell(Record):
    """One grid cell: an opaque id and its area in km^2."""

    id: CellId
    area_km2: float

    def __init__(self, id: CellId, area_km2: float) -> None:
        set_field(self, "id", id)
        set_field(self, "area_km2", area_km2)
        if not (area_km2 > 0 and math.isfinite(area_km2)):
            raise ValidationError(
                f"cell {id!r}: area must be a positive finite number, "
                f"got {area_km2!r}"
            )


class GridSpec(Record):
    """The discretized study region.

    ``total_area_km2`` may be passed explicitly (it is then checked against
    the cell sum to within a relative tolerance of 1e-9) or left as None to
    be derived from the cells.

    The grid holds its cells once, as an id → area map in cell order, which
    is all the measures read, and an id → position map in the same order,
    which surfaces are stored by. :attr:`cells` is the caller's own tuple
    for a grid built by ``GridSpec(cells)``; for a grid built from columns
    it is built when first read, and kept.
    """

    total_area_km2: float
    # Cell id -> area and cell id -> position, in cell order, and the set of
    # ids. Not fields: no part of equality, hash or repr.
    _areas: Mapping[CellId, float]
    _index: Mapping[CellId, int]
    _ids: frozenset[CellId]
    # Every Cell; None until first read, for a grid built from columns.
    _cells: tuple[Cell, ...] | None

    def __init__(
        self,
        cells: tuple[Cell, ...],
        total_area_km2: float = None,  # type: ignore[assignment]
    ) -> None:
        cells = tuple(cells)
        rows = map(operator.attrgetter("id", "area_km2"), cells)
        self._hold({c.id: c.area_km2 for c in cells}, len(cells), rows, total_area_km2)
        set_field(self, "_cells", cells)

    @classmethod
    def _of_columns(cls, ids: Sequence[CellId], areas: Sequence[float]) -> "GridSpec":
        """The grid of the cells ``ids`` with ``areas``, in that order: the
        one constructor besides ``GridSpec(cells)``."""
        self = cls.__new__(cls)
        self._hold(dict(zip(ids, areas)), len(ids), zip(ids, areas), None)
        return self

    def _hold(
        self,
        areas: dict[CellId, float],
        count: int,
        rows: Iterable[tuple[CellId, float]],
        total_area_km2: float | None,
    ) -> None:
        """Hold ``areas``, the id → area map of ``count`` cells, under every
        grid rule, in this order: a cell at least, areas :class:`Cell`
        accepts, no id twice, an area sum in the float range, and the
        declared total. ``rows`` gives each cell's (id, area) in cell order,
        and is read only to word a fault. The one place a grid's cells are
        set."""
        if not count:
            raise ValidationError("a grid needs at least one cell")
        values = areas.values()
        # True for a repeated id, an area at or below 0, or a NaN or infinite
        # area (the sum is then NaN or infinite), and for finite areas whose
        # sum overflows: only then are the rows read.
        if len(areas) < count or not (min(values) > 0 and sum(values) < math.inf):
            rows = list(rows)
            for _ in itertools.starmap(Cell, rows):  # Cell words the first it refuses
                pass
            if len(areas) < count:
                counts = Counter(cell_id for cell_id, _ in rows)
                dupes = sorted(i for i, n in counts.items() if n > 1)
                raise ValidationError(f"duplicate cell ids: {dupes}")
        derived = _finite_fsum(values, "cell areas")
        if total_area_km2 is None:
            total_area_km2 = derived
        elif not math.isclose(total_area_km2, derived, rel_tol=AREA_RTOL):
            raise ValidationError(
                f"declared total area {total_area_km2!r} km^2 does not "
                f"match the cell sum {derived!r} km^2"
            )
        set_field(self, "total_area_km2", total_area_km2)
        set_field(self, "_areas", areas)
        set_field(self, "_index", dict(zip(areas, range(count))))
        set_field(self, "_ids", frozenset(areas))
        set_field(self, "_cells", None)

    @property
    def cells(self) -> tuple[Cell, ...]:
        """Every cell, in grid order."""
        if self._cells is None:
            set_field(self, "_cells", tuple(map(Cell, self._areas, self._areas.values())))
        return self._cells

    @property
    def cell_ids(self) -> frozenset[CellId]:
        return self._ids

    def area_of(self, cell_id: CellId) -> float:
        try:
            return self._areas[cell_id]
        except KeyError:
            raise ValidationError(f"unknown cell id {cell_id!r}") from None


class HotspotSelection(Record):
    """The set of cells one model flags as hotspots for one period."""

    period: PeriodId
    flagged: frozenset[CellId]

    def __init__(self, period: PeriodId, flagged: frozenset[CellId]) -> None:
        set_field(self, "period", period)
        set_field(self, "flagged", frozenset(flagged))


class Event(Record):
    """One observed crime, already assigned to a cell and period."""

    event_id: EventId
    cell_id: CellId
    period: PeriodId

    def __init__(self, event_id: EventId, cell_id: CellId, period: PeriodId) -> None:
        set_field(self, "event_id", event_id)
        set_field(self, "cell_id", cell_id)
        set_field(self, "period", period)


#: period -> (event ids, cell ids): the events of each period as two columns.
_Columns = Mapping[PeriodId, tuple[tuple[EventId, ...], tuple[CellId, ...]]]


class EventSet:
    """Observed events, held once as per-period columns of event ids and
    cell ids, in a canonical (period, event id, cell id) order.

    The canonical order makes every downstream aggregate independent of the
    order rows appeared in the source file. Every per-period query reads a
    period's columns. :attr:`events` builds the :class:`Event` objects once,
    when first read, and keeps them; :meth:`in_period` builds its period's
    events on each call. The objects a caller passed to ``EventSet(events)``
    are not kept, so both return equal events, not the same ones.
    Events are cross-validated against a grid where a set is built, by
    :func:`assign_events` and :func:`gridscore.ingest.load_events`, because
    the event set does not hold a grid reference. An event set is immutable,
    and compares, hashes and prints as the tuple of its events.
    """

    _columns: _Columns
    # Every Event, built when first read; None until then.
    _events: tuple[Event, ...] | None

    def __init__(self, events: Iterable[Event]):
        period = operator.attrgetter("period")
        event_id, cell_id = operator.attrgetter("event_id"), operator.attrgetter("cell_id")
        columns = {}
        for p, group in itertools.groupby(sorted(events, key=period), period):
            group = tuple(group)
            columns[p] = (tuple(map(event_id, group)), tuple(map(cell_id, group)))
        self._hold(columns)

    @classmethod
    def _of_columns(cls, columns: Mapping[PeriodId, tuple[Sequence, Sequence]]) -> "EventSet":
        """The set of per-period (event ids, cell ids) ``columns``, given in
        any order: the one constructor besides ``EventSet(events)``."""
        self = cls.__new__(cls)
        self._hold(columns)
        return self

    def _hold(self, columns: Mapping[PeriodId, tuple[Sequence, Sequence]]) -> None:
        """Hold ``columns`` in canonical order: periods sorted, and a
        period's (id, cell) pairs sorted only if its ids do not ascend. The
        one place an event set's columns are set."""
        ordered = {}
        for period in sorted(columns):
            ids, cells = columns[period]
            if _ascending(ids):
                ordered[period] = (tuple(ids), tuple(cells))
            else:
                ordered[period] = tuple(zip(*sorted(zip(ids, cells))))
        set_field(self, "_columns", ordered)
        set_field(self, "_events", None)

    __setattr__ = Record.__setattr__
    __delattr__ = Record.__delattr__

    @property
    def events(self) -> tuple[Event, ...]:
        """Every event, in canonical order."""
        if self._events is None:
            set_field(self, "_events", tuple(itertools.starmap(Event, self._rows())))
        return self._events

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._columns == other._columns

    def __hash__(self) -> int:
        return hash(tuple(self._columns.items()))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(events={self.events!r})"

    def __len__(self) -> int:
        return sum(len(ids) for ids, _ in self._columns.values())

    def periods(self) -> tuple[PeriodId, ...]:
        return tuple(self._columns)

    def in_period(self, period: PeriodId) -> tuple[Event, ...]:
        ids, cells = self._columns.get(period, ((), ()))
        return tuple(map(Event, ids, cells, itertools.repeat(period)))

    def count(self, period: PeriodId) -> int:
        """N: the total number of events observed in ``period``."""
        return len(self._columns.get(period, ((), ()))[1])

    def counts_by_cell(self, period: PeriodId | None = None) -> dict[CellId, int]:
        """Events per cell, over one period or over the whole set."""
        if period is not None:
            return dict(Counter(self._cells(period)))
        cells = (column for _, column in self._columns.values())
        return dict(Counter(itertools.chain.from_iterable(cells)))

    def _cells(self, period: PeriodId) -> tuple[CellId, ...]:
        """The cell id of each of ``period``'s events, in canonical order."""
        return self._columns.get(period, ((), ()))[1]

    def _only(self, period: PeriodId) -> "EventSet":
        """The events of ``period``, sharing this set's columns; empty if
        the set has none in ``period``."""
        columns = self._columns.get(period)
        return self._of_columns({period: columns} if columns else {})

    def _rows(self) -> Iterator[tuple[EventId, CellId, PeriodId]]:
        """(event id, cell id, period) of every event, in canonical order."""
        return itertools.chain.from_iterable(
            zip(ids, cells, itertools.repeat(period))
            for period, (ids, cells) in self._columns.items()
        )


def _finite_fsum(values: Iterable[float], what: str) -> float:
    """``math.fsum(values)``, or a refusal of ``what`` if the sum overflows."""
    try:
        return math.fsum(values)
    except OverflowError:
        raise ValidationError(f"{what} sum beyond the float range") from None


def _ascending(items: Sequence[str]) -> bool:
    """Whether each of ``items`` is above the one before it."""
    return all(map(operator.lt, items, itertools.islice(items, 1, None)))


class ProbabilitySurface(Record):
    """Per-cell probability mass a model assigns to one period.

    The masses must lie in [0, 1] and sum to 1 within ``MASS_ATOL``.
    Completeness against a particular grid (an entry for every cell) is
    checked where grid and surface meet: in the loader and in the scoring
    functions.

    The masses are held once, as one array of floats in the order of an id
    → position map: the caller's own order for ``ProbabilitySurface(period,
    mass)``, and the grid's for a loaded or generated surface, whose map is
    the grid's own and shared by every such surface of the grid. :attr:`mass`
    is a read-only mapping over that array: it prints, compares and iterates
    as the dict of cell id → mass it stands for, and does not hash.
    """

    period: PeriodId
    mass: Mapping[CellId, float]

    def __init__(self, period: PeriodId, mass: Mapping[CellId, float]) -> None:
        self._hold(period, *_indexed(mass))

    @classmethod
    def _of_masses(
        cls, period: PeriodId, index: Mapping[CellId, int], masses: array
    ) -> "ProbabilitySurface":
        """The surface whose cell ``c`` has mass ``masses[index[c]]``, for
        an ``index`` of positions 0, 1, ... in its own order: the one
        constructor besides ``ProbabilitySurface(period, mass)``. The surface
        keeps ``masses``; no caller may change it after."""
        self = cls.__new__(cls)
        self._hold(period, index, masses)
        return self

    def _hold(self, period: PeriodId, index: Mapping[CellId, int], masses: array) -> None:
        """Hold ``masses`` by ``index`` under the surface rules: a cell at
        least, every mass in [0, 1], and a sum of 1. The one place a
        surface's masses are set."""
        set_field(self, "period", period)
        set_field(self, "mass", _Masses(index, masses))
        if not masses:
            raise ValidationError("a probability surface needs at least one cell")
        # One C-level pass each. A NaN or infinite mass makes the sum NaN or
        # infinite, or fsum refuse inf - inf, and a sum that overflows needs
        # masses above 1; the bad cells are listed only on failure.
        try:
            total = math.fsum(masses)
        except (OverflowError, ValueError):
            total = math.nan
        if not (math.isfinite(total) and 0.0 <= min(masses) and max(masses) <= 1.0):
            cid = min(c for c, m in zip(index, masses)
                      if not (math.isfinite(m) and 0.0 <= m <= 1.0))
            raise ValidationError(
                f"surface mass for cell {cid!r} is {self.mass[cid]!r}, outside [0, 1]"
            )
        if abs(total - 1.0) > MASS_ATOL:
            raise ValidationError(
                f"surface masses sum to {total!r}, not 1 within {MASS_ATOL}"
            )

    @classmethod
    def renormalized(
        cls, period: PeriodId, mass: Mapping[CellId, float]
    ) -> "ProbabilitySurface":
        """Build a surface from non-negative weights, scaling them to sum 1."""
        return cls._renormalized(period, *_indexed(mass))

    @classmethod
    def _renormalized(
        cls, period: PeriodId, index: Mapping[CellId, int], weights: array
    ) -> "ProbabilitySurface":
        """:meth:`renormalized` of ``weights`` by ``index``, as :meth:`_of_masses`."""
        total = _finite_fsum(weights, "cannot renormalize: masses")
        if total <= 0:
            raise ValidationError("cannot renormalize: masses sum to zero")
        scaled = map(operator.truediv, weights, itertools.repeat(total))
        return cls._of_masses(period, index, array("d", scaled))


def _indexed(mass: Mapping[CellId, float]) -> tuple[dict[CellId, int], array]:
    """An id → position map of ``mass``'s cells, in its order, and their
    masses in that order."""
    mass = dict(mass)
    return dict(zip(mass, range(len(mass)))), array("d", mass.values())


class _Masses(Mapping):
    """A surface's masses by cell id: cell ``c`` has mass
    ``masses[index[c]]``. Read-only; equal to any mapping of the same
    cells to the same masses, and unhashable, as a dict is."""

    __slots__ = ("_index", "_masses")

    def __init__(self, index: Mapping[CellId, int], masses: array) -> None:
        set_field(self, "_index", index)
        set_field(self, "_masses", masses)

    def __getitem__(self, cell_id: CellId) -> float:
        return self._masses[self._index[cell_id]]

    def __contains__(self, cell_id: object) -> bool:
        return cell_id in self._index

    def __iter__(self) -> Iterator[CellId]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._masses)

    def __eq__(self, other):
        if isinstance(other, _Masses) and other._index is self._index:
            return self._masses == other._masses
        return super().__eq__(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(dict(zip(self._index, self._masses)))

    def __reduce__(self):
        return self.__class__, (self._index, self._masses)

    __setattr__ = Record.__setattr__
    __delattr__ = Record.__delattr__


class ContingencyTable(Record):
    """Cell-level confusion counts for one (model, period) pair.

    A flagged cell with at least one event counts once as a true positive
    no matter how many events hit it; event-level counts live in
    :class:`SelectionTally` instead.
    """

    tp: int
    fp: int
    tn: int
    fn: int

    def __init__(self, tp: int, fp: int, tn: int, fn: int) -> None:
        set_field(self, "tp", tp)
        set_field(self, "fp", fp)
        set_field(self, "tn", tn)
        set_field(self, "fn", fn)
        for name in ("tp", "fp", "tn", "fn"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise ValidationError(f"{name} must be a non-negative integer, got {v!r}")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


class SelectionTally(Record):
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

    def __init__(
        self,
        n_events: int,
        hits: int,
        flagged_area_km2: float,
        total_area_km2: float,
        table: ContingencyTable,
    ) -> None:
        set_field(self, "n_events", n_events)
        set_field(self, "hits", hits)
        set_field(self, "flagged_area_km2", flagged_area_km2)
        set_field(self, "total_area_km2", total_area_km2)
        set_field(self, "table", table)

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


class _PeriodCounts(Record):
    """What every model's tally of one period shares: the events per cell,
    N, and the grid cells with events. Built once per period; each
    :meth:`tally` then does only the work its flagged set needs."""

    grid: GridSpec
    counts: Mapping[CellId, int]
    n_events: int
    hit: frozenset[CellId]

    def __init__(
        self,
        grid: GridSpec,
        counts: Mapping[CellId, int],
        n_events: int,
        hit: frozenset[CellId],
    ) -> None:
        set_field(self, "grid", grid)
        set_field(self, "counts", counts)
        set_field(self, "n_events", n_events)
        set_field(self, "hit", hit)

    @classmethod
    def of(cls, grid: GridSpec, counts: Mapping[CellId, int]) -> "_PeriodCounts":
        hit = grid.cell_ids.intersection(counts)
        return cls(grid, counts, sum(counts.values()), hit)

    def tally(self, flagged: frozenset[CellId]) -> SelectionTally:
        """The :meth:`SelectionTally.of` of ``flagged`` against this period."""
        grid = self.grid
        if not grid.cell_ids.issuperset(flagged):
            unknown = sorted(flagged - grid.cell_ids)
            raise ValidationError(f"selection flags unknown cells: {unknown}")
        # Every flagged cell is known from here on, so its area is a lookup.
        caught = self.hit & flagged
        return SelectionTally(
            n_events=self.n_events,
            hits=sum(map(self.counts.__getitem__, caught)),
            flagged_area_km2=math.fsum(map(grid._areas.__getitem__, flagged)),
            total_area_km2=grid.total_area_km2,
            table=ContingencyTable(
                tp=len(caught),
                fp=len(flagged) - len(caught),
                tn=len(grid._areas) - len(flagged) - len(self.hit) + len(caught),
                fn=len(self.hit) - len(caught),
            ),
        )


class RejectedRow(Record):
    """A raw event row dropped during lenient ingestion."""

    event_id: EventId
    cell_id: CellId
    period: PeriodId
    reason: str

    def __init__(
        self, event_id: EventId, cell_id: CellId, period: PeriodId, reason: str
    ) -> None:
        set_field(self, "event_id", event_id)
        set_field(self, "cell_id", cell_id)
        set_field(self, "period", period)
        set_field(self, "reason", reason)


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
    strict-mode error is raised. The kept rows are collected as per-period
    columns of event ids and cell ids, then put in canonical order; no
    :class:`Event` is built.
    """
    known = grid.cell_ids
    columns: dict[PeriodId, tuple[list[EventId], list[CellId]]] = {}
    rejected: list[RejectedRow] = []
    for event_id, cell_id, period in raw:
        if cell_id in known:
            ids, cells = columns.setdefault(period, ([], []))
            ids.append(event_id)
            cells.append(cell_id)
        elif strict:
            raise ValidationError(
                f"event {event_id!r} references unknown cell {cell_id!r}"
            )
        else:
            rejected.append(RejectedRow(event_id, cell_id, period, "unknown cell"))
    return EventSet._of_columns(columns), tuple(rejected)


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
