import numpy as np
import pytest

from gridscore import (
    Cell,
    ContingencyTable,
    Event,
    EventSet,
    GridSpec,
    HotspotSelection,
    PeriodMismatchError,
    ProbabilitySurface,
    ValidationError,
    assign_events,
    contingency,
)


def square_grid(n, area=1.0):
    return GridSpec(cells=tuple(Cell(f"c{i}", area) for i in range(1, n + 1)))


class TestGridSpec:
    def test_total_area_is_derived(self):
        grid = GridSpec(cells=(Cell("a", 1.5), Cell("b", 2.5)))
        assert grid.total_area_km2 == 4.0

    def test_explicit_total_must_match(self):
        cells = (Cell("a", 1.0), Cell("b", 1.0))
        GridSpec(cells=cells, total_area_km2=2.0)
        with pytest.raises(ValidationError):
            GridSpec(cells=cells, total_area_km2=2.5)

    def test_duplicate_cell_ids_rejected(self):
        with pytest.raises(ValidationError):
            GridSpec(cells=(Cell("a", 1.0), Cell("a", 2.0)))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError):
            GridSpec(cells=())

    def test_cell_area_must_be_positive(self):
        with pytest.raises(ValidationError):
            Cell("a", 0.0)
        with pytest.raises(ValidationError):
            Cell("a", -1.0)

    def test_columns_and_cells_give_equal_grids(self):
        ids, areas = ["b", "a", "c"], [2.5, 1.0, 0.5]
        by_cells = GridSpec(tuple(map(Cell, ids, areas)))
        by_columns = GridSpec._of_columns(ids, areas)
        assert by_columns._cells is None  # built when first read
        assert by_columns == by_cells and hash(by_columns) == hash(by_cells)
        assert repr(by_columns) == repr(by_cells)
        assert by_columns.cells == by_cells.cells == (
            Cell("b", 2.5), Cell("a", 1.0), Cell("c", 0.5)
        )
        assert by_columns.cells is by_columns.cells
        assert by_columns.cell_ids == by_cells.cell_ids == frozenset(ids)
        assert by_columns.total_area_km2 == by_cells.total_area_km2 == 4.0
        for cell_id, area in zip(ids, areas):
            assert by_columns.area_of(cell_id) == by_cells.area_of(cell_id) == area

    @pytest.mark.parametrize(
        "ids, areas, message",
        [
            ([], [], "a grid needs at least one cell"),
            (["a", "b"], [1.0, 0.0],
             "cell 'b': area must be a positive finite number, got 0.0"),
            (["a", "b"], [-1.0, 1.0],
             "cell 'a': area must be a positive finite number, got -1.0"),
            (["a", "b", "c"], [1.0, float("nan"), -1.0],
             "cell 'b': area must be a positive finite number, got nan"),
            (["a"], [float("inf")],
             "cell 'a': area must be a positive finite number, got inf"),
            (["a", "b", "a", "b", "c"], [1.0] * 5, "duplicate cell ids: ['a', 'b']"),
            # The area rule comes first, though a later row repeats the id.
            (["a", "a"], [0.0, 1.0],
             "cell 'a': area must be a positive finite number, got 0.0"),
            (["a", "b"], [1e308, 1e308], "cell areas sum beyond the float range"),
        ],
        ids=["empty", "zero", "negative", "nan", "inf", "duplicate", "zero_then_duplicate",
             "sum_overflow"],
    )
    def test_both_constructors_refuse_alike(self, ids, areas, message):
        with pytest.raises(ValidationError) as by_cells:
            GridSpec(tuple(map(Cell, ids, areas)))
        with pytest.raises(ValidationError) as by_columns:
            GridSpec._of_columns(ids, areas)
        assert str(by_cells.value) == str(by_columns.value) == message


class TestEventSet:
    def test_canonical_order(self):
        events = EventSet(
            events=(
                Event("e2", "c1", "p2"),
                Event("e1", "c2", "p1"),
                Event("e3", "c1", "p1"),
            )
        )
        assert [e.event_id for e in events.events] == ["e1", "e3", "e2"]

    def test_counts_by_cell(self):
        events = EventSet(
            events=(
                Event("e1", "c1", "p1"),
                Event("e2", "c1", "p1"),
                Event("e3", "c2", "p1"),
                Event("e4", "c1", "p2"),
            )
        )
        assert events.counts_by_cell("p1") == {"c1": 2, "c2": 1}
        assert events.count("p2") == 1
        assert events.periods() == ("p1", "p2")

    def test_duplicate_event_ids_allowed_here(self):
        # uniqueness is enforced at ingestion time, not by the container
        es = EventSet(events=(Event("e1", "c1", "p1"), Event("e1", "c2", "p1")))
        assert len(es) == 2


class TestAssignEvents:
    def test_all_known_cells(self):
        grid = square_grid(3)
        raw = (("e1", "c1", "p1"), ("e2", "c3", "p1"))
        events, rejected = assign_events(grid, raw)
        assert len(events) == 2
        assert rejected == ()

    def test_strict_unknown_cell_raises(self):
        grid = square_grid(2)
        raw = (("e1", "c1", "p1"), ("e9", "zz", "p1"))
        with pytest.raises(ValidationError, match="e9"):
            assign_events(grid, raw, strict=True)

    def test_lenient_unknown_cell_rejected_row(self):
        grid = square_grid(2)
        raw = (("e1", "c1", "p1"), ("e9", "zz", "p1"))
        events, rejected = assign_events(grid, raw, strict=False)
        assert len(events) == 1
        assert len(rejected) == 1
        assert rejected[0].event_id == "e9"
        assert rejected[0].cell_id == "zz"

    def test_empty_input(self):
        events, rejected = assign_events(square_grid(2), ())
        assert len(events) == 0
        assert rejected == ()


class TestContingency:
    def test_nothing_flagged_no_events(self):
        grid = square_grid(4)
        sel = HotspotSelection(period="p1", flagged=frozenset())
        t = contingency(grid, sel, EventSet(events=()), "p1")
        assert (t.tp, t.fp, t.tn, t.fn) == (0, 0, 4, 0)

    def test_everything_flagged_every_cell_hit(self):
        grid = square_grid(4)
        sel = HotspotSelection(period="p1", flagged=grid.cell_ids)
        raw = tuple((f"e{i}", f"c{i}", "p1") for i in range(1, 5))
        events, _ = assign_events(grid, raw)
        t = contingency(grid, sel, events, "p1")
        assert (t.tp, t.fp, t.tn, t.fn) == (4, 0, 0, 0)

    def test_mixed_quadrants(self):
        grid = square_grid(4)
        sel = HotspotSelection(period="p1", flagged=frozenset({"c1", "c2"}))
        raw = (("e1", "c2", "p1"), ("e2", "c3", "p1"))
        events, _ = assign_events(grid, raw)
        t = contingency(grid, sel, events, "p1")
        assert (t.tp, t.fp, t.tn, t.fn) == (1, 1, 1, 1)

    def test_multiple_events_in_one_cell_count_once(self):
        # Cell-level classification: a TP cell stays a single TP no matter
        # how many events land in it.
        grid = square_grid(4)
        sel = HotspotSelection(period="p1", flagged=frozenset({"c1"}))
        raw = (("e1", "c1", "p1"), ("e2", "c1", "p1"), ("e3", "c1", "p1"))
        events, _ = assign_events(grid, raw)
        t = contingency(grid, sel, events, "p1")
        assert (t.tp, t.fp, t.tn, t.fn) == (1, 0, 3, 0)

    def test_period_mismatch(self):
        grid = square_grid(2)
        sel = HotspotSelection(period="p2", flagged=frozenset({"c1"}))
        with pytest.raises(PeriodMismatchError):
            contingency(grid, sel, EventSet(events=()), "p1")

    def test_unknown_flagged_cell(self):
        grid = square_grid(2)
        sel = HotspotSelection(period="p1", flagged=frozenset({"zz"}))
        with pytest.raises(ValidationError):
            contingency(grid, sel, EventSet(events=()), "p1")

    def test_quadrants_sum_to_cell_count(self):
        rng = np.random.default_rng(20260819)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            grid = square_grid(n)
            ids = sorted(grid.cell_ids)
            flagged = frozenset(
                ids[i] for i in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
            )
            sel = HotspotSelection(period="p1", flagged=flagged)
            n_events = int(rng.integers(0, 3 * n))
            raw = tuple(
                (f"e{i}", ids[int(rng.integers(0, n))], "p1")
                for i in range(n_events)
            )
            events, _ = assign_events(grid, raw)
            t = contingency(grid, sel, events, "p1")
            assert t.tp + t.fp + t.tn + t.fn == n

    def test_event_order_irrelevant(self):
        grid = square_grid(6)
        sel = HotspotSelection(period="p1", flagged=frozenset({"c1", "c4"}))
        raw = [(f"e{i}", f"c{1 + i % 6}", "p1") for i in range(12)]
        events_fwd, _ = assign_events(grid, tuple(raw))
        events_rev, _ = assign_events(grid, tuple(reversed(raw)))
        assert contingency(grid, sel, events_fwd, "p1") == contingency(
            grid, sel, events_rev, "p1"
        )


class TestContingencyTable:
    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError):
            ContingencyTable(tp=-1, fp=0, tn=0, fn=0)

    def test_total(self):
        assert ContingencyTable(tp=1, fp=2, tn=3, fn=4).total == 10


class TestProbabilitySurface:
    def test_mass_must_sum_to_one(self):
        ProbabilitySurface(period="p1", mass={"a": 0.5, "b": 0.5})
        with pytest.raises(ValidationError):
            ProbabilitySurface(period="p1", mass={"a": 0.5, "b": 0.4})

    def test_tolerance_on_the_sum(self):
        # within 1e-6 is accepted
        ProbabilitySurface(period="p1", mass={"a": 0.5, "b": 0.5 + 5e-7})

    def test_mass_out_of_range(self):
        with pytest.raises(ValidationError):
            ProbabilitySurface(period="p1", mass={"a": -0.1, "b": 1.1})
        with pytest.raises(ValidationError):
            ProbabilitySurface(period="p1", mass={"a": 1.5, "b": -0.5})

    def test_out_of_range_error_names_the_smallest_cell_id(self):
        mass = {"d": 0.25, "c": float("nan"), "e": 2.0, "b": -0.5, "a": 0.25}
        with pytest.raises(ValidationError) as info:
            ProbabilitySurface(period="p1", mass=mass)
        assert str(info.value) == "surface mass for cell 'b' is -0.5, outside [0, 1]"

    @pytest.mark.parametrize(
        "value, shown",
        [(float("nan"), "nan"), (float("inf"), "inf"), (float("-inf"), "-inf"),
         (-0.5, "-0.5"), (1.5, "1.5")],
    )
    def test_several_bad_cells_name_the_smallest(self, value, shown):
        mass = {"f": float("inf"), "e": float("nan"), "d": 0.5, "c": -1.0,
                "g": 2.0, "b": value, "a": 0.5}
        with pytest.raises(ValidationError) as info:
            ProbabilitySurface(period="p1", mass=mass)
        assert str(info.value) == f"surface mass for cell 'b' is {shown}, outside [0, 1]"

    @pytest.mark.parametrize(
        "mass",
        [{"b": 1e308, "a": 1e308}, {"b": float("inf"), "a": 1e308, "c": float("-inf")}],
        ids=["sum-overflows", "inf-minus-inf"],
    )
    def test_masses_whose_sum_fsum_refuses_name_the_smallest_cell(self, mass):
        with pytest.raises(ValidationError) as info:
            ProbabilitySurface(period="p1", mass=mass)
        assert str(info.value) == "surface mass for cell 'a' is 1e+308, outside [0, 1]"

    def test_renormalized(self):
        surface = ProbabilitySurface.renormalized("p1", {"a": 2.0, "b": 6.0})
        assert surface.mass["a"] == pytest.approx(0.25)
        assert surface.mass["b"] == pytest.approx(0.75)

    def test_renormalized_rejects_zero_total(self):
        with pytest.raises(ValidationError):
            ProbabilitySurface.renormalized("p1", {"a": 0.0, "b": 0.0})
