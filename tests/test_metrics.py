import math

import numpy as np
import pytest

from gridscore import (
    Cell,
    ContingencyTable,
    Event,
    EventSet,
    GridSpec,
    HotspotSelection,
    HotspotUnit,
    ProbabilitySurface,
    ValidationError,
    ZeroMassError,
    als,
    coverage,
    coverage_from_cells,
    hit_rate,
    hit_rate_from_events,
    pai,
    ppai,
    rates_from_contingency,
    ser,
)

# (model, expected hit rate, expected coverage, expected PAI)
WORKED_PAI = {
    "M-I": (0.27, 0.03, 9.0),
    "M-II": (0.10, 0.01, 10.0),
    "M-III": (0.23, 0.11, 2.0909),
    "M-IV": (0.10, 0.15, 0.6667),
}
# expected PPAI at alpha = n/N (each model penalized by its own hit rate)
WORKED_PPAI_NN = {
    "M-I": 0.6958,
    "M-II": 0.1584,
    "M-III": 0.3821,
    "M-IV": 0.1209,
}


class TestRates:
    def test_perfect_model_leaves_negative_rates_undefined(self):
        r = rates_from_contingency(ContingencyTable(tp=4, fp=0, tn=0, fn=0))
        assert r.sensitivity == 1.0
        assert r.ppv == 1.0
        assert r.accuracy == 1.0
        assert r.specificity is None
        assert r.npv is None
        assert r.fpr is None

    def test_balanced_table(self):
        r = rates_from_contingency(ContingencyTable(tp=1, fp=1, tn=1, fn=1))
        assert r.sensitivity == 0.5
        assert r.specificity == 0.5
        assert r.ppv == 0.5
        assert r.npv == 0.5
        assert r.accuracy == 0.5
        assert r.fpr == 0.5

    def test_fpr_is_exact_complement_of_specificity(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            tp, fp, tn, fn = (int(v) for v in rng.integers(0, 50, size=4))
            r = rates_from_contingency(ContingencyTable(tp=tp, fp=fp, tn=tn, fn=fn))
            if r.specificity is None:
                assert r.fpr is None
            else:
                assert r.fpr == 1.0 - r.specificity  # bit-for-bit

    def test_empty_grid_table_every_rate_undefined(self):
        r = rates_from_contingency(ContingencyTable(tp=0, fp=0, tn=0, fn=0))
        rates = (r.sensitivity, r.specificity, r.ppv, r.npv, r.accuracy, r.fpr)
        assert all(v is None for v in rates)


class TestHitRateCoverage:
    def test_worked_example(self, model_selections):
        for name, (hr, cov, _) in WORKED_PAI.items():
            sel = model_selections[name]
            np.testing.assert_allclose(hit_rate(sel), hr, atol=1e-12)
            np.testing.assert_allclose(coverage(sel), cov, atol=1e-12)

    def test_all_fifteen_units(self, fifteen_units):
        np.testing.assert_allclose(hit_rate(fifteen_units), 0.83, atol=1e-12)
        np.testing.assert_allclose(coverage(fifteen_units), 0.42, atol=1e-12)

    def test_empty_selection_rejected(self):
        with pytest.raises(ValidationError):
            hit_rate(())
        with pytest.raises(ValidationError):
            coverage(())

    def test_fractions_exceeding_one_rejected(self):
        units = (HotspotUnit("a", 0.6, 0.1), HotspotUnit("b", 0.6, 0.1))
        with pytest.raises(ValidationError):
            coverage(units)

    def test_hit_rate_above_one_message(self):
        # The CLI refuses such a table at load; a library caller gets this.
        units = (HotspotUnit("u1", 0.5, 0.7), HotspotUnit("u2", 0.5, 0.6))
        with pytest.raises(ValidationError) as info:
            hit_rate(units)
        assert str(info.value) == (
            "hit rate of selected units sums to 1.2999999999999998 > 1; the "
            "units overlap or their fractions are inconsistent"
        )

    def test_additive_over_disjoint_unit_sets(self, fifteen_units):
        left, right = fifteen_units[:7], fifteen_units[7:]
        np.testing.assert_allclose(
            hit_rate(left) + hit_rate(right), hit_rate(fifteen_units), atol=1e-12
        )
        np.testing.assert_allclose(
            coverage(left) + coverage(right), coverage(fifteen_units), atol=1e-12
        )

    def test_unit_fraction_bounds(self):
        with pytest.raises(ValidationError):
            HotspotUnit("a", 0.0, 0.1)  # area share must be positive
        with pytest.raises(ValidationError):
            HotspotUnit("a", 1.5, 0.1)
        with pytest.raises(ValidationError):
            HotspotUnit("a", 0.1, -0.1)
        HotspotUnit("a", 0.1, 0.0)  # a hotspot may capture no crime


class TestEventLevelAgreement:
    """The cell path and the pre-aggregated path must tell the same story."""

    def test_same_numbers_both_ways(self):
        # 10 unit-area cells; flag two of them; 20 events, 5 in the flagged
        # pair.  As units: area fraction 0.2, crime fraction 0.25.
        grid = GridSpec(cells=tuple(Cell(f"c{i}", 1.0) for i in range(10)))
        flagged = frozenset({"c0", "c1"})
        sel = HotspotSelection(period="p1", flagged=flagged)
        cells = ["c0", "c1", "c0", "c1", "c0"] + [f"c{2 + i % 8}" for i in range(15)]
        events = EventSet(
            events=tuple(
                Event(f"e{i:02d}", c, "p1") for i, c in enumerate(cells)
            )
        )
        hr = hit_rate_from_events(grid, sel, events, "p1")
        cov = coverage_from_cells(grid, sel)
        unit = HotspotUnit("u1", 0.2, 0.25)
        np.testing.assert_allclose(hr, hit_rate([unit]), atol=1e-12)
        np.testing.assert_allclose(cov, coverage([unit]), atol=1e-12)
        np.testing.assert_allclose(pai(hr, cov), pai(0.25, 0.2), atol=1e-12)

    def test_no_events_means_undefined(self):
        grid = GridSpec(cells=(Cell("c0", 1.0),))
        sel = HotspotSelection(period="p1", flagged=frozenset({"c0"}))
        assert hit_rate_from_events(grid, sel, EventSet(events=()), "p1") is None


class TestPai:
    def test_worked_example(self, model_selections):
        for name, (_, _, expected) in WORKED_PAI.items():
            sel = model_selections[name]
            np.testing.assert_allclose(
                pai(hit_rate(sel), coverage(sel)), expected, atol=5e-4
            )

    def test_equal_shares_give_one(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = float(rng.uniform(0.01, 1.0))
            assert pai(x, x) == 1.0

    def test_nonpositive_coverage_rejected(self):
        with pytest.raises(ValidationError):
            pai(0.5, 0.0)
        with pytest.raises(ValidationError):
            pai(0.5, -0.1)


class TestPpai:
    def test_worked_example_alpha_is_own_hit_rate(self, model_selections):
        for name, expected in WORKED_PPAI_NN.items():
            sel = model_selections[name]
            hr, cov = hit_rate(sel), coverage(sel)
            np.testing.assert_allclose(ppai(hr, cov, hr), expected, atol=5e-4)

    def test_endpoints_are_exact(self):
        assert ppai(0.27, 0.03, 0.0) == 0.27
        assert ppai(0.27, 0.03, 1.0) == 0.27 / 0.03

    def test_alpha_outside_unit_interval_rejected(self):
        with pytest.raises(ValidationError):
            ppai(0.5, 0.5, -0.01)
        with pytest.raises(ValidationError):
            ppai(0.5, 0.5, 1.01)

    def test_increasing_in_alpha_when_coverage_below_one(self):
        # cov**alpha shrinks from 1 toward cov as alpha rises, so the score
        # climbs from the bare hit rate toward the full PAI.
        rng = np.random.default_rng(23)
        for _ in range(100):
            hit = float(rng.uniform(0.05, 1.0))
            cov = float(rng.uniform(0.01, 0.95))
            alphas = np.sort(rng.uniform(0.0, 1.0, size=5))
            scores = [ppai(hit, cov, float(a)) for a in alphas]
            assert all(a <= b for a, b in zip(scores, scores[1:]))
            assert scores[0] >= hit - 1e-15
            assert scores[-1] <= pai(hit, cov) + 1e-15

    def test_penalty_can_invert_a_pai_ranking(self, model_selections):
        # Tiny-area M-II outranks M-I on PAI but drops below it once each
        # model is penalized by its own hit rate.
        one = model_selections["M-I"]
        two = model_selections["M-II"]
        hr1, cov1 = hit_rate(one), coverage(one)
        hr2, cov2 = hit_rate(two), coverage(two)
        assert pai(hr2, cov2) > pai(hr1, cov1)
        assert ppai(hr2, cov2, hr2) < ppai(hr1, cov1, hr1)


class TestSer:
    def test_simple_values(self):
        assert ser(0, 5.0) == 0.0
        assert ser(10, 2.0) == 5.0
        np.testing.assert_allclose(ser(7, 3.5), 2.0, atol=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            ser(-1, 1.0)
        with pytest.raises(ValidationError):
            ser(3, 0.0)


def uniform_4cell():
    return ProbabilitySurface(
        period="p1", mass={f"c{i}": 0.25 for i in range(4)}
    )


class TestAls:
    def test_uniform_surface_scores_log_of_uniform_mass(self):
        events = EventSet(
            events=(Event("e1", "c0", "p1"), Event("e2", "c3", "p1"))
        )
        assert als(uniform_4cell(), events, "p1") == math.log(0.25)

    def test_weighted_example(self):
        surface = ProbabilitySurface(
            period="p1", mass={"c0": 0.7, "c1": 0.1, "c2": 0.1, "c3": 0.1}
        )
        events = EventSet(
            events=(
                Event("e1", "c0", "p1"),
                Event("e2", "c0", "p1"),
                Event("e3", "c1", "p1"),
            )
        )
        expected = (2 * math.log(0.7) + math.log(0.1)) / 3
        np.testing.assert_allclose(als(surface, events, "p1"), expected, atol=1e-12)

    def test_restricted_to_hotspots(self):
        surface = ProbabilitySurface(
            period="p1", mass={"c0": 0.7, "c1": 0.1, "c2": 0.1, "c3": 0.1}
        )
        events = EventSet(
            events=(Event("e1", "c0", "p1"), Event("e2", "c1", "p1"))
        )
        sel = HotspotSelection(period="p1", flagged=frozenset({"c1"}))
        got = als(surface, events, "p1", restrict_to=sel)
        np.testing.assert_allclose(got, math.log(0.1), atol=1e-12)

    def test_zero_mass_event_is_an_error(self):
        surface = ProbabilitySurface(
            period="p1", mass={"c0": 1.0, "c1": 0.0}
        )
        events = EventSet(events=(Event("e1", "c1", "p1"),))
        with pytest.raises(ZeroMassError, match="c1"):
            als(surface, events, "p1")

    def test_floor_rescues_zero_mass(self):
        surface = ProbabilitySurface(
            period="p1", mass={"c0": 1.0, "c1": 0.0}
        )
        events = EventSet(events=(Event("e1", "c1", "p1"),))
        got = als(surface, events, "p1", floor=1e-12)
        np.testing.assert_allclose(got, math.log(1e-12), atol=1e-12)

    @pytest.mark.parametrize("floor", [0.05, 0.1, 0.3, 0.9])
    def test_floor_is_max_of_mass_and_floor(self, floor):
        # Below every mass, equal to some, binding for some, binding for all.
        mass = {"c0": 0.7, "c1": 0.1, "c2": 0.2, "c3": 0.0}
        events = EventSet(events=tuple(
            Event(f"e{i}", cell, "p1") for i, cell in enumerate(["c0", "c1", "c2", "c0"])
        ))
        expected = math.fsum(
            math.log(max(mass[c], floor)) for c in ["c0", "c0", "c1", "c2"]
        ) / 4
        surface = ProbabilitySurface(period="p1", mass=mass)
        assert als(surface, events, "p1", floor=floor) == expected

    def test_floor_must_be_positive(self):
        events = EventSet(events=(Event("e1", "c0", "p1"),))
        with pytest.raises(ValidationError):
            als(uniform_4cell(), events, "p1", floor=0.0)

    def test_no_events_in_scope(self):
        with pytest.raises(ValidationError):
            als(uniform_4cell(), EventSet(events=()), "p1")
        # restriction can empty the scope too
        events = EventSet(events=(Event("e1", "c0", "p1"),))
        sel = HotspotSelection(period="p1", flagged=frozenset({"c1"}))
        with pytest.raises(ValidationError):
            als(uniform_4cell(), events, "p1", restrict_to=sel)

    def test_period_mismatch(self):
        events = EventSet(events=(Event("e1", "c0", "p2"),))
        with pytest.raises(Exception, match="period"):
            als(uniform_4cell(), events, "p2")

    def test_events_off_the_surface_score_zero_mass(self):
        # a cell the surface never mentions is an implicit zero
        surface = ProbabilitySurface(period="p1", mass={"c0": 1.0})
        events = EventSet(events=(Event("e1", "c9", "p1"),))
        with pytest.raises(ZeroMassError, match="c9"):
            als(surface, events, "p1")

    def test_the_first_zero_mass_event_in_canonical_order_is_named(self):
        surface = ProbabilitySurface(period="p1", mass={"c0": 1.0, "c1": 0.0, "c2": 0.0})
        events = EventSet(events=(
            Event("e3", "c1", "p1"), Event("e1", "c0", "p1"), Event("e2", "c2", "p1"),
        ))
        with pytest.raises(ZeroMassError) as info:
            als(surface, events, "p1")
        assert info.value.cell_id == "c2"
