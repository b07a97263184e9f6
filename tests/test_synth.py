import bisect
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridscore import (
    Cell,
    Event,
    EventSet,
    GeneratorSpec,
    GridSpec,
    ValidationError,
    empirical_surface,
    generate_events,
    make_grid,
    top_k_baseline,
    uniform_surface,
)


def spec(**kwargs):
    defaults = dict(
        n_cells=4,
        cell_area_km2=1.0,
        weights=(1.0, 1.0, 1.0, 1.0),
        n_periods=2,
        events_per_period=10,
        seed=7,
    )
    defaults.update(kwargs)
    return GeneratorSpec(**defaults)


class TestGeneratorSpec:
    def test_id_schemes(self):
        s = spec(n_cells=12, weights=(1.0,) * 12)
        assert s.cell_ids()[0] == "c01"
        assert s.cell_ids()[-1] == "c12"
        assert s.period_ids() == ("p1", "p2")

    def test_weight_length_must_match(self):
        with pytest.raises(ValidationError):
            spec(weights=(1.0, 1.0))

    def test_rejects_bad_counts(self):
        with pytest.raises(ValidationError):
            spec(n_cells=0, weights=())
        with pytest.raises(ValidationError):
            spec(n_periods=0)
        with pytest.raises(ValidationError):
            spec(events_per_period=-1)
        with pytest.raises(ValidationError):
            spec(cell_area_km2=0.0)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValidationError):
            spec(weights=(1.0, -1.0, 1.0, 1.0))
        with pytest.raises(ValidationError):
            spec(weights=(0.0, 0.0, 0.0, 0.0))

    def test_grid_matches_spec(self):
        grid = make_grid(spec(n_cells=3, weights=(1.0, 2.0, 3.0)))
        assert len(grid.cells) == 3
        assert grid.total_area_km2 == 3.0

    def test_grid_refuses_an_infinite_cell_area(self):
        # The spec checks only that the area is above 0; the grid words it.
        with pytest.raises(ValidationError) as info:
            make_grid(spec(cell_area_km2=float("inf")))
        assert str(info.value) == "cell 'c1': area must be a positive finite number, got inf"


class TestGenerateEvents:
    def test_counts_and_periods(self):
        events = generate_events(spec())
        assert len(events) == 20
        assert events.periods() == ("p1", "p2")
        assert events.count("p1") == 10

    def test_same_seed_same_events(self):
        a = generate_events(spec(seed=123))
        b = generate_events(spec(seed=123))
        assert a == b

    def test_different_seed_differs(self):
        a = generate_events(spec(seed=1))
        b = generate_events(spec(seed=2))
        assert a != b

    def test_zero_weight_cell_never_drawn(self):
        s = spec(weights=(1.0, 0.0, 1.0, 1.0), events_per_period=500)
        events = generate_events(s)
        assert "c2" not in events.counts_by_cell()

    def test_single_cell_takes_everything(self):
        s = spec(
            n_cells=1, weights=(2.5,), n_periods=1, events_per_period=50
        )
        events = generate_events(s)
        assert events.counts_by_cell() == {"c1": 50}

    def test_empirical_shares_track_weights(self):
        # 3:1 weights over 10k draws; binomial sd ~ 0.0043, allow 4 sigma
        s = spec(
            n_cells=2,
            weights=(3.0, 1.0),
            n_periods=1,
            events_per_period=10_000,
            seed=2024,
        )
        events = generate_events(s)
        share = events.counts_by_cell()["c1"] / 10_000
        assert abs(share - 0.75) < 4 * np.sqrt(0.75 * 0.25 / 10_000)

    def test_event_ids_unique_and_zero_padded(self):
        events = generate_events(spec())
        ids = [e.event_id for e in events.events]
        assert len(set(ids)) == 20
        assert all(len(i) == 3 for i in ids)  # e01..e20 -> width 2 plus 'e'


class TestTopKBaseline:
    def grid_and_train(self):
        s = spec()
        grid = make_grid(s)
        # counts: c1=5, c2=3, c3=3, c4=0
        cells = ["c1"] * 5 + ["c2"] * 3 + ["c3"] * 3
        from gridscore import Event

        train = EventSet(
            events=tuple(
                Event(f"t{i:02d}", c, "p1") for i, c in enumerate(cells)
            )
        )
        return grid, train

    def test_picks_busiest(self):
        grid, train = self.grid_and_train()
        sel = top_k_baseline(train, grid, 1, "p2")
        assert sel.flagged == frozenset({"c1"})
        assert sel.period == "p2"

    def test_ties_break_lexicographically(self):
        grid, train = self.grid_and_train()
        sel = top_k_baseline(train, grid, 2, "p2")
        assert sel.flagged == frozenset({"c1", "c2"})

    def test_k_equals_cell_count_flags_all(self):
        grid, train = self.grid_and_train()
        sel = top_k_baseline(train, grid, 4, "p2")
        assert sel.flagged == grid.cell_ids

    def test_k_out_of_range(self):
        grid, train = self.grid_and_train()
        with pytest.raises(ValidationError):
            top_k_baseline(train, grid, 0, "p2")
        with pytest.raises(ValidationError):
            top_k_baseline(train, grid, 5, "p2")

    def test_quiet_cells_fill_large_k(self):
        grid, train = self.grid_and_train()
        sel = top_k_baseline(train, grid, 4, "p2")
        assert "c4" in sel.flagged


def row_loop_events(spec):
    """The reference draw: one variate per event in a Python loop, with the
    index clamped to the last cell, collected as events of the public
    constructor, which sorts them."""
    rng = random.Random(spec.seed)
    cells = spec.cell_ids()
    cumulative, running = [], 0.0
    for w in spec.weights:
        running += w
        cumulative.append(running)
    events, counter = [], 0
    width = len(str(max(1, spec.n_periods * spec.events_per_period)))
    for period in spec.period_ids():
        for _ in range(spec.events_per_period):
            counter += 1
            idx = bisect.bisect_right(cumulative, rng.random() * cumulative[-1])
            events.append(Event(f"e{counter:0{width}d}", cells[min(idx, len(cells) - 1)], period))
    return EventSet(events)


class TestGenerateEventsAgainstRowLoop:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_same_events_as_the_row_loop(self, data):
        # Zero weights, trailing ones included, and integer weights too.
        weight = st.sampled_from([0, 0.0, 1, 2.5, 1e-300, 7.0, 1e300])
        weights = data.draw(st.lists(weight, min_size=1, max_size=12).filter(any))
        s = spec(
            n_cells=len(weights),
            weights=tuple(weights),
            n_periods=data.draw(st.integers(1, 11)),
            events_per_period=data.draw(st.integers(0, 30)),
            seed=data.draw(st.integers(0, 2**32)),
        )
        assert generate_events(s) == row_loop_events(s)


def whole_grid_top_k(train, grid, k):
    """The reference ranking: every grid cell sorted by (-count, id)."""
    counts = train.counts_by_cell()
    ranked = sorted(
        (c.id for c in grid.cells),
        key=lambda cid: (-counts.get(cid, 0), cid),
    )
    return frozenset(ranked[:k])


class TestTopKAgainstWholeGridSort:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_same_cells_as_the_whole_grid_sort(self, data):
        # Few short ids and few events: counts tie often, ids sort in an
        # order of their own, and some events fall on cells off the grid.
        ids = data.draw(st.lists(st.text("ab1", min_size=1, max_size=3),
                                 min_size=1, max_size=25, unique=True))
        grid = GridSpec(tuple(Cell(i, 1.0) for i in ids))
        cells = data.draw(st.lists(st.sampled_from([*ids, "off", "zz"]), max_size=40))
        train = EventSet(tuple(Event(f"t{j}", c, "p1") for j, c in enumerate(cells)))
        k = data.draw(st.integers(1, len(ids)))
        selection = top_k_baseline(train, grid, k, "p2")
        assert selection.flagged == whole_grid_top_k(train, grid, k)
        assert selection.period == "p2"


class TestEmpiricalSurface:
    def test_no_training_data_smoothing_gives_uniform(self):
        s = spec()
        grid = make_grid(s)
        surface = empirical_surface(EventSet(events=()), grid, "p1")
        assert surface == uniform_surface(grid, "p1")

    def test_unsmoothed_frequencies(self):
        from gridscore import Event

        s = spec()
        grid = make_grid(s)
        train = EventSet(
            events=(
                Event("t1", "c1", "p1"),
                Event("t2", "c1", "p1"),
                Event("t3", "c2", "p1"),
                Event("t4", "c3", "p1"),
            )
        )
        surface = empirical_surface(train, grid, "p2", smoothing=0.0)
        np.testing.assert_allclose(surface.mass["c1"], 0.5, atol=1e-12)
        np.testing.assert_allclose(surface.mass["c2"], 0.25, atol=1e-12)
        assert surface.mass["c4"] == 0.0

    def test_smoothing_must_be_non_negative(self):
        grid = make_grid(spec())
        with pytest.raises(ValidationError):
            empirical_surface(EventSet(events=()), grid, "p1", smoothing=-0.1)

    def test_no_data_no_smoothing_rejected(self):
        grid = make_grid(spec())
        with pytest.raises(ValidationError):
            empirical_surface(EventSet(events=()), grid, "p1", smoothing=0.0)

    def test_mass_covers_grid_and_sums_to_one(self):
        rng = np.random.default_rng(55)
        for trial in range(10):
            n = int(rng.integers(2, 20))
            s = spec(
                n_cells=n,
                weights=tuple(float(w) for w in rng.uniform(0.1, 5.0, size=n)),
                n_periods=1,
                events_per_period=int(rng.integers(0, 100)),
                seed=trial,
            )
            grid = make_grid(s)
            train = generate_events(s)
            surface = empirical_surface(train, grid, "p9", smoothing=1.0)
            assert set(surface.mass) == set(grid.cell_ids)
            np.testing.assert_allclose(sum(surface.mass.values()), 1.0, atol=1e-9)


class TestUniformSurface:
    def test_equal_mass(self):
        grid = make_grid(spec())
        surface = uniform_surface(grid, "p1")
        assert all(m == 0.25 for m in surface.mass.values())
        assert surface.period == "p1"
