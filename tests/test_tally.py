"""SelectionTally and the grid and event-set indexes against brute-force
oracles on random grids and events."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridscore import Cell, Event, EventSet, GridSpec, HotspotUnit, coverage, hit_rate
from gridscore.domain import SelectionTally, _PeriodCounts
from gridscore.errors import ValidationError

PERIODS = ("p1", "p2", "p3")


@st.composite
def scenarios(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    ids = [f"c{i:02d}" for i in range(n)]
    areas = draw(st.lists(
        st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False),
        min_size=n, max_size=n,
    ))
    grid = GridSpec(tuple(Cell(c, a) for c, a in zip(ids, areas)))
    flagged = frozenset(draw(st.lists(st.sampled_from(ids), unique=True)))
    # Events never fall in p3, so some tallies score an empty period.
    raw = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(PERIODS[:2]))))
    events = EventSet(tuple(Event(f"e{i}", c, p) for i, (c, p) in enumerate(raw)))
    return grid, flagged, events, draw(st.sampled_from(PERIODS))


def oracle(grid, flagged, events, period):
    in_period = [e for e in events.events if e.period == period]
    hit = {e.cell_id for e in in_period}
    tp = fp = tn = fn = 0
    for cell in grid.cells:
        if cell.id in flagged:
            if cell.id in hit:
                tp += 1
            else:
                fp += 1
        elif cell.id in hit:
            fn += 1
        else:
            tn += 1
    hits = sum(1 for e in in_period if e.cell_id in flagged)
    area = math.fsum(c.area_km2 for c in sorted(grid.cells, key=lambda c: c.id)
                     if c.id in flagged)
    return len(in_period), hits, area, (tp, fp, tn, fn)


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_tally_matches_brute_force(scenario):
    grid, flagged, events, period = scenario
    tally = SelectionTally.of(grid, flagged, events.counts_by_cell(period))
    n_events, hits, area, cells = oracle(grid, flagged, events, period)
    t = tally.table
    assert (t.tp, t.fp, t.tn, t.fn) == cells
    assert (tally.n_events, tally.hits, tally.flagged_area_km2) == (n_events, hits, area)
    assert tally.total_area_km2 == grid.total_area_km2
    assert tally.hit_rate == (None if n_events == 0 else hits / n_events)
    assert tally.coverage == area / grid.total_area_km2


@st.composite
def shared_periods(draw):
    """A grid, one period's events per cell and several models' flagged sets.

    The counts may name cells outside the grid and may be empty (a period
    with no events); flagged sets may be empty.
    """
    grid, _, _, _ = draw(scenarios())
    ids = sorted(grid.cell_ids)
    counts = draw(st.dictionaries(
        st.sampled_from(ids + ["x1", "x2"]), st.integers(min_value=1, max_value=5)
    ))
    flagged = draw(st.lists(st.frozensets(st.sampled_from(ids)), min_size=1, max_size=6))
    return grid, counts, flagged


@settings(max_examples=300, deadline=None)
@given(shared_periods())
def test_shared_period_counts_match_a_tally_from_scratch(case):
    grid, counts, flagged_sets = case
    events = EventSet(tuple(
        Event(f"e{cell}-{i}", cell, "p1") for cell, k in counts.items() for i in range(k)
    ))
    shared = _PeriodCounts.of(grid, counts)
    for flagged in flagged_sets:
        tally = shared.tally(flagged)
        assert tally == SelectionTally.of(grid, flagged, counts)
        n_events, hits, area, cells = oracle(grid, flagged, events, "p1")
        t = tally.table
        assert (tally.n_events, tally.hits, tally.flagged_area_km2) == (n_events, hits, area)
        assert (t.tp, t.fp, t.tn, t.fn) == cells
    # Tallying leaves the shared part as it was built.
    assert shared == _PeriodCounts.of(grid, counts)
    with pytest.raises(ValidationError, match=r"selection flags unknown cells: \['x1'\]"):
        shared.tally(flagged_sets[0] | {"x1"})


@settings(max_examples=300, deadline=None)
@given(scenarios(), st.data())
def test_indexes_match_a_plain_filter(scenario, data):
    grid, _, events, _ = scenario
    # Built from the same events in another input order, the set is the same.
    shuffled = EventSet(tuple(data.draw(st.permutations(events.events))))
    assert shuffled == events
    listed = shuffled.events
    assert shuffled.periods() == tuple(sorted({e.period for e in listed}))
    for period in PERIODS:  # p3 never has events
        scoped = tuple(e for e in listed if e.period == period)
        assert shuffled.in_period(period) == scoped
        assert shuffled.count(period) == len(scoped)
        assert shuffled.counts_by_cell(period) == Counter(e.cell_id for e in scoped)
    assert shuffled.counts_by_cell() == Counter(e.cell_id for e in listed)

    assert grid.cell_ids == frozenset(c.id for c in grid.cells)
    assert all(grid.area_of(c.id) == c.area_km2 for c in grid.cells)
    with pytest.raises(ValidationError, match="unknown cell id 'zz'"):
        grid.area_of("zz")


@st.composite
def unit_lists(draw):
    """Units whose fractions, however many are selected, sum to at most 1."""
    area = st.floats(min_value=1e-300, max_value=1 / 12)
    crime = st.floats(min_value=0.0, max_value=1 / 12)
    pairs = draw(st.lists(st.tuples(area, crime), min_size=1, max_size=12))
    return [HotspotUnit(f"u{i}", a, n) for i, (a, n) in enumerate(pairs)]


@settings(max_examples=300, deadline=None)
@given(unit_lists(), scenarios(), st.data())
def test_sums_do_not_depend_on_order(units, scenario, data):
    """Every sum is math.fsum, which is correctly rounded, so the order the
    terms come in changes no bit."""
    shuffled = data.draw(st.permutations(units))
    assert hit_rate(shuffled).hex() == hit_rate(units).hex()
    assert coverage(shuffled).hex() == coverage(units).hex()
    grid, flagged, _, _ = scenario
    area = math.fsum(grid.area_of(c) for c in sorted(flagged))
    for _ in range(3):
        # A set's iteration order can depend on the order of its insertions.
        inserted = frozenset(data.draw(st.permutations(sorted(flagged))))
        tally = _PeriodCounts.of(grid, {}).tally(inserted)
        assert tally.flagged_area_km2.hex() == area.hex()
