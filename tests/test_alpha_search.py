import math
import random
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gridscore.cli
from gridscore import (
    AlphaSearchError,
    AlphaSearchResult,
    HotspotUnit,
    ValidationError,
    cumulative_levels,
    optimal_alpha,
    order_units,
    ppai,
)
from gridscore.alpha_search import (
    DEFAULT_GRID_STEP,
    TARGET_TOL,
    CumulativeLevel,
    _alpha_grid,
    _peak_candidates,
    _prefix_sums,
)
from gridscore.ingest import load_units

# Cumulative PPAI column at alpha = 0.9, as published for the 15-unit table.
CUMULATIVE_PPAI_09 = (
    6.31, 6.42, 6.34, 6.16, 5.03, 4.47, 4.05, 3.51, 3.17, 2.90,
    2.59, 2.37, 2.15, 1.96, 1.81,
)


class TestOrderUnits:
    def test_fifteen_unit_order(self, fifteen_units):
        # already listed smallest-area-first / highest-crime-first
        shuffled = fifteen_units[::-1]
        assert order_units(shuffled) == fifteen_units

    def test_crime_breaks_area_ties(self):
        a = HotspotUnit("x", 0.02, 0.03)
        b = HotspotUnit("y", 0.02, 0.07)
        assert order_units([a, b]) == (b, a)

    def test_id_breaks_full_ties(self):
        a = HotspotUnit("b", 0.02, 0.05)
        b = HotspotUnit("a", 0.02, 0.05)
        assert order_units([a, b]) == (b, a)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            order_units([])


class TestCumulativeLevels:
    def test_running_totals(self, fifteen_units):
        levels = cumulative_levels(order_units(fifteen_units))
        assert len(levels) == 15
        np.testing.assert_allclose(levels[0].cum_area, 0.01, atol=1e-12)
        np.testing.assert_allclose(levels[0].cum_crime, 0.10, atol=1e-12)
        np.testing.assert_allclose(levels[1].cum_area, 0.02, atol=1e-12)
        np.testing.assert_allclose(levels[1].cum_crime, 0.19, atol=1e-12)
        np.testing.assert_allclose(levels[-1].cum_area, 0.42, atol=1e-12)
        np.testing.assert_allclose(levels[-1].cum_crime, 0.83, atol=1e-12)

    def test_published_ppai_column_at_09(self, fifteen_units):
        levels = cumulative_levels(order_units(fifteen_units))
        got = [lvl.ppai(0.9) for lvl in levels]
        np.testing.assert_allclose(got, CUMULATIVE_PPAI_09, atol=0.01)

    def test_level_ppai_matches_free_function(self, fifteen_units):
        levels = cumulative_levels(order_units(fifteen_units))
        for lvl in levels:
            assert lvl.ppai(0.73) == ppai(lvl.cum_crime, lvl.cum_area, 0.73)


class TestOptimalAlpha:
    def test_worked_search(self, fifteen_units):
        levels = cumulative_levels(order_units(fifteen_units))
        result = optimal_alpha(levels, target_coverage=0.02)
        assert result.target_level.prefix_len == 2
        lo, hi = result.valid_range
        assert lo <= 0.87 + 1e-9
        assert hi >= 0.92 - 1e-9
        assert abs(result.alpha_star - 0.90) <= 0.01 + 1e-9

    def test_valid_alphas_really_peak_at_target(self, fifteen_units):
        # independent re-check: every alpha inside the returned range puts
        # the unique argmax at the target prefix
        levels = cumulative_levels(order_units(fifteen_units))
        result = optimal_alpha(levels, target_coverage=0.02)
        lo, hi = result.valid_range
        k = 0
        while True:
            alpha = round(0.01 + k * 0.01, 12)
            if alpha > 0.99:
                break
            k += 1
            scores = [lvl.ppai(alpha) for lvl in levels]
            top = max(scores)
            peaked = [lvl.prefix_len for lvl, s in zip(levels, scores) if s == top]
            inside = lo - 1e-12 <= alpha <= hi + 1e-12
            if peaked == [2] and all(
                s < top for lvl, s in zip(levels, scores) if lvl.prefix_len != 2
            ):
                assert inside, alpha
            else:
                assert not inside or peaked != [2]

    def test_two_level_toy_against_brute_force(self):
        # levels (0.01, 0.5) and (0.02, 0.6): level 1 wins once
        # alpha*ln(2) > ln(1.2), i.e. alpha > 0.2630; the gap then grows
        # with alpha, so the best separator is the top of the grid.
        units = [HotspotUnit("u1", 0.01, 0.5), HotspotUnit("u2", 0.01, 0.1)]
        levels = cumulative_levels(order_units(units))
        result = optimal_alpha(levels, target_coverage=0.01)
        threshold = math.log(1.2) / math.log(2.0)
        expected_valid = []
        k = 0
        while True:
            alpha = round(0.01 + k * 0.01, 12)
            if alpha > 0.99:
                break
            k += 1
            if levels[0].ppai(alpha) > levels[1].ppai(alpha):
                expected_valid.append(alpha)
        assert expected_valid[0] > threshold
        assert result.valid_range == (expected_valid[0], expected_valid[-1])
        assert result.alpha_star == 0.99
        assert result.target_level.prefix_len == 1

    def test_ties_resolve_to_smallest_alpha(self):
        # a single level has no neighbours: every grid alpha is valid with
        # an infinite gap, so the smallest-alpha rule decides
        units = [HotspotUnit("only", 0.05, 0.2)]
        levels = cumulative_levels(order_units(units))
        result = optimal_alpha(levels, target_coverage=0.05)
        assert result.alpha_star == 0.01
        assert result.valid_range == (0.01, 0.99)

    def test_unreachable_target(self, fifteen_units):
        levels = cumulative_levels(order_units(fifteen_units))
        with pytest.raises(AlphaSearchError, match="fits under"):
            optimal_alpha(levels, target_coverage=0.005)

    def test_no_valid_alpha_reports_diagnostics(self):
        # two units with identical shares: level 1 would need alpha > 1
        # to beat level 2, which the grid cannot reach
        units = [HotspotUnit("a", 0.01, 0.05), HotspotUnit("b", 0.01, 0.05)]
        levels = cumulative_levels(order_units(units))
        with pytest.raises(AlphaSearchError) as exc:
            optimal_alpha(levels, target_coverage=0.01)
        assert len(exc.value.diagnostics) == 99
        assert all(peak == 2 for _, peak in exc.value.diagnostics)

    def test_grid_step_validation(self, fifteen_units):
        levels = cumulative_levels(order_units(fifteen_units))
        with pytest.raises(ValidationError):
            optimal_alpha(levels, target_coverage=0.02, grid_step=0.0)
        with pytest.raises(ValidationError):
            optimal_alpha(levels, target_coverage=0.02, grid_step=1.0)

    def test_coarser_grid_stays_inside_finer_range(self, fifteen_units):
        levels = cumulative_levels(order_units(fifteen_units))
        fine = optimal_alpha(levels, target_coverage=0.02, grid_step=0.01)
        coarse = optimal_alpha(levels, target_coverage=0.02, grid_step=0.02)
        assert fine.valid_range[0] <= coarse.valid_range[0] + 1e-12
        assert coarse.valid_range[1] <= fine.valid_range[1] + 1e-12

    def test_target_validation(self, fifteen_units):
        levels = cumulative_levels(order_units(fifteen_units))
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValidationError):
                optimal_alpha(levels, target_coverage=bad)

    def test_permutation_invariance(self, fifteen_units):
        rng = np.random.default_rng(99)
        levels = cumulative_levels(order_units(fifteen_units))
        base = optimal_alpha(levels, target_coverage=0.02)
        for _ in range(10):
            perm = list(fifteen_units)
            rng.shuffle(perm)
            shuffled = optimal_alpha(
                cumulative_levels(order_units(perm)), target_coverage=0.02
            )
            assert shuffled == base


# Reference implementations: the quadratic prefix-fsum definition of the
# levels and the per-(alpha, level) ppai loop of the search. The fast
# versions must agree with them bit for bit.
def _reference_cumulative_levels(ordered):
    if not ordered:
        raise ValidationError("cannot build levels from an empty unit sequence")
    levels = []
    for k in range(1, len(ordered) + 1):
        levels.append(
            CumulativeLevel(
                prefix_len=k,
                cum_area=math.fsum(u.area_fraction for u in ordered[:k]),
                cum_crime=math.fsum(u.crime_fraction for u in ordered[:k]),
            )
        )
    return tuple(levels)


def _reference_optimal_alpha(levels, target_coverage, grid_step=0.01):
    if not levels:
        raise ValidationError("no cumulative levels supplied")
    if not (0.0 < target_coverage < 1.0):
        raise ValidationError(
            f"target_coverage must lie in (0, 1), got {target_coverage!r}"
        )
    target_idx = None
    for i, lvl in enumerate(levels):
        if lvl.cum_area <= target_coverage + TARGET_TOL:
            target_idx = i
    if target_idx is None:
        raise AlphaSearchError(
            f"no cumulative level fits under target coverage "
            f"{target_coverage!r}; the smallest level covers "
            f"{levels[0].cum_area!r}"
        )
    target = levels[target_idx]

    diagnostics = []
    valid = []
    gaps = {}
    for alpha in _alpha_grid(grid_step):
        scores = [lvl.ppai(alpha) for lvl in levels]
        peak_idx = max(range(len(scores)), key=lambda i: (scores[i], -i))
        diagnostics.append((alpha, levels[peak_idx].prefix_len))
        others = [s for i, s in enumerate(scores) if i != target_idx]
        if others and not all(scores[target_idx] > s for s in others):
            continue
        valid.append(alpha)
        neighbour_gaps = []
        if target_idx > 0:
            neighbour_gaps.append(scores[target_idx] - scores[target_idx - 1])
        if target_idx + 1 < len(scores):
            neighbour_gaps.append(scores[target_idx] - scores[target_idx + 1])
        gaps[alpha] = min(neighbour_gaps) if neighbour_gaps else math.inf

    if not valid:
        raise AlphaSearchError(
            f"no alpha on the grid makes level {target.prefix_len} "
            f"(cumulative coverage {target.cum_area!r}) the unique PPAI "
            f"peak; see diagnostics for where each alpha peaked",
            diagnostics=tuple(diagnostics),
        )
    best_gap = max(gaps[a] for a in valid)
    alpha_star = min(a for a in valid if gaps[a] == best_gap)
    return AlphaSearchResult(
        alpha_star=alpha_star,
        valid_range=(min(valid), max(valid)),
        target_level=target,
        per_alpha_diagnostics=tuple(diagnostics),
    )


def _add_exact(partials, x):
    """Add ``x`` to Shewchuk partials, keeping their sum exact: the two-sum
    loop inside :func:`math.fsum` (Shewchuk 1997), the reference for the
    prefix sums of the levels. Finite inputs whose running sums stay finite
    are assumed."""
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


def _reference_prefix_sums(values):
    """Running exact partials, one ``math.fsum`` of them per prefix."""
    partials, sums = [], []
    for x in values:
        _add_exact(partials, x)
        sums.append(math.fsum(partials))
    return sums


def _fsum_prefixes(values):
    return [math.fsum(values[:k]) for k in range(1, len(values) + 1)]


def _hexes(floats):
    return [x.hex() for x in floats]


def _reference_search(cum_areas, cum_crimes, prefix_lens, target_coverage, grid_step):
    """The reference search over level columns, returned as the core's
    ``_search`` returns it."""
    levels = list(map(CumulativeLevel, prefix_lens, cum_areas, cum_crimes))
    result = _reference_optimal_alpha(levels, target_coverage, grid_step)
    target_idx = levels.index(result.target_level)
    return (result.alpha_star, result.valid_range, target_idx,
            result.per_alpha_diagnostics)


TINY = 5e-324  # the smallest subnormal

# Shares drawn from a few fixed values repeat, so equal units, equal areas
# and tied PPAI scores (zero crime) are common.
AREA_SHARES = st.one_of(
    st.sampled_from([TINY, 1e-16, 1.0, 0.1, 0.25, 1 / 3]),
    st.floats(min_value=TINY, max_value=1.0),
)
CRIME_SHARES = st.one_of(
    st.sampled_from([0.0, TINY, 1e-16, 1.0, 0.1, 1 / 3]),
    st.floats(min_value=0.0, max_value=1.0),
)
#: Non-negative shares from 2**-1074 to 1, zeros of both signs and
#: subnormals among them, as the prefix sums of the levels take them.
SHARES = st.one_of(
    st.sampled_from([0.0, -0.0, TINY, 2.0**-1073, 2.0**-1022, 1e-300, 1.0]),
    st.floats(min_value=TINY, max_value=2.0**-1022),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(-1074, 0).map(lambda e: 2.0**e),
)
UNITS = st.lists(st.tuples(AREA_SHARES, CRIME_SHARES), min_size=1, max_size=40).map(
    lambda rows: [HotspotUnit(f"u{i:02d}", a, c) for i, (a, c) in enumerate(rows)]
)


class TestExactPrefixSums:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.floats(
                min_value=-1e300, max_value=1e300,
                allow_nan=False, allow_infinity=False,
            ),
            max_size=60,
        )
    )
    @example([1e16, 1.0, -1e16])
    @example([1.0, 1e-16, 1e-16, -1.0, TINY])
    def test_partials_match_prefix_fsum(self, values):
        partials = []
        for k, x in enumerate(values, start=1):
            _add_exact(partials, x)
            assert math.fsum(partials).hex() == math.fsum(values[:k]).hex()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(SHARES, max_size=60))
    @example([0.0, -0.0, -0.0, TINY])
    @example([-0.0])
    @example([1.0, 2.0**-53, TINY])  # a tie at 1 + 2**-53 that the subnormal breaks
    @example([TINY, 2.0**-1073, 2.0**-1022 - TINY, 1.0, 2.0**-1022])
    @example([1.0] * 3 + [1e-300] * 2)
    def test_prefix_sums_match_prefix_fsum(self, values):
        assert _hexes(_prefix_sums(values)) == _hexes(_fsum_prefixes(values))
        assert _hexes(_prefix_sums(values)) == _hexes(_reference_prefix_sums(values))

    @settings(max_examples=3, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.01, 0.5]))
    def test_10k_prefix_sums_match_prefix_fsum(self, seed, share_spanning):
        # Shares of 10k units, a given share of them drawn from 2**-1074 to 1
        # (and some of those zeros or subnormals).
        rng = random.Random(seed)

        def share():
            if rng.random() >= share_spanning:
                return rng.random() / 5000
            return rng.choice([0.0, -0.0, TINY, 1.0, rng.random() * 2.0 ** rng.randint(-1074, 0)])

        values = [share() for _ in range(10_000)]
        assert _hexes(_prefix_sums(values)) == _hexes(_fsum_prefixes(values))

    @settings(max_examples=300, deadline=None)
    @given(UNITS)
    @example([HotspotUnit("a", 1.0, 1.0), HotspotUnit("b", 1e-16, 1e-16)] * 3)
    @example([HotspotUnit("a", TINY, TINY), HotspotUnit("b", 1.0, 0.0)] * 2)
    def test_levels_are_exact_prefix_sums(self, units):
        levels = cumulative_levels(units)
        assert [lvl.prefix_len for lvl in levels] == list(range(1, len(units) + 1))
        for k, lvl in enumerate(levels, start=1):
            prefix = units[:k]
            area = math.fsum(u.area_fraction for u in prefix)
            crime = math.fsum(u.crime_fraction for u in prefix)
            assert lvl.cum_area.hex() == area.hex()
            assert lvl.cum_crime.hex() == crime.hex()


def _outcome(search, levels, target, step):
    try:
        return search(levels, target, grid_step=step)
    except AlphaSearchError as exc:
        return ("error", str(exc), exc.diagnostics)


GRID = _alpha_grid(DEFAULT_GRID_STEP)


@st.composite
def collinear_levels(draw):
    """Levels whose crime is ``f * area**alpha`` for one grid alpha and a few
    fixed factors f: the points (ln a, ln c) lie on parallel lines, so many
    levels are collinear on the hull and tie, up to rounding, at that alpha.
    Areas may repeat, and the levels may come out of area order."""
    alpha = draw(st.sampled_from(GRID))
    rows = draw(
        st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from([0.1, 0.25, 0.5, 1.0]),
                    st.floats(min_value=1e-6, max_value=1.0),
                ),
                st.sampled_from([1.0, 1.0, 0.5, 2.0, 1 / 3]),
            ),
            min_size=1,
            max_size=25,
        )
    )
    rows.sort()
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    return [
        CumulativeLevel(k, area, f * area**alpha)
        for k, (area, f) in enumerate(rows, start=1)
    ]


class TestReferenceEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(UNITS)
    @example([HotspotUnit("a", 0.1, 0.0), HotspotUnit("b", 0.2, 0.0)])  # no crime
    @example([HotspotUnit("only", 0.3, 0.2)])  # a single level
    @example(  # equal areas, different crimes
        [
            HotspotUnit("a", 0.1, 0.05),
            HotspotUnit("b", 0.1, 0.3),
            HotspotUnit("c", 0.1, 0.1),
        ]
    )
    @example(  # subnormal scores: rounding ties levels below the hull
        [
            HotspotUnit("a", 0.1, TINY),
            HotspotUnit("b", 0.25, TINY),
            HotspotUnit("c", 0.25, TINY),
        ]
    )
    @example(  # alpha * ln a in the guard's range
        [HotspotUnit("a", TINY, 0.5), HotspotUnit("b", 0.2, 0.1)]
    )
    def test_search_matches_reference_loop(self, units):
        levels = cumulative_levels(order_units(units))
        targets = sorted({lvl.cum_area for lvl in levels if lvl.cum_area < 1.0})
        for target in targets:
            for step in (0.01, 0.02, 0.05):
                assert _outcome(optimal_alpha, levels, target, step) == _outcome(
                    _reference_optimal_alpha, levels, target, step
                )

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(AREA_SHARES, CRIME_SHARES), min_size=1, max_size=200))
    def test_up_to_200_units_match_reference_loop(self, rows):
        units = [HotspotUnit(f"u{i:03d}", a, c) for i, (a, c) in enumerate(rows)]
        levels = cumulative_levels(order_units(units))
        targets = sorted({lvl.cum_area for lvl in levels if lvl.cum_area < 1.0})
        # the first, last and a few levels between, to bound the reference's cost
        for target in targets[:: max(1, len(targets) // 3)] + targets[-1:]:
            assert _outcome(optimal_alpha, levels, target, 0.01) == _outcome(
                _reference_optimal_alpha, levels, target, 0.01
            )

    @settings(max_examples=80, deadline=None)
    @given(collinear_levels())
    @example(  # equal areas with different crimes: one x, several y
        [
            CumulativeLevel(1, 0.1, 0.2),
            CumulativeLevel(2, 0.1, 0.3),
            CumulativeLevel(3, 0.4, 0.5),
            CumulativeLevel(4, 0.4, 0.5),
        ]
    )
    @example(  # exact ties: the same level twice
        [CumulativeLevel(1, 0.25, 0.5), CumulativeLevel(2, 0.25, 0.5)]
    )
    def test_collinear_levels_match_reference_loop(self, levels):
        targets = sorted({lvl.cum_area for lvl in levels if lvl.cum_area < 1.0})
        for target in targets:
            for step in (0.01, 0.02):
                assert _outcome(optimal_alpha, levels, target, step) == _outcome(
                    _reference_optimal_alpha, levels, target, step
                )

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 10_000),
                st.floats(min_value=1e-6, max_value=1.0),
                st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0)),
            ),
            min_size=1,
            max_size=25,
            unique_by=lambda row: row[0],
        )
    )
    @example([(7, 0.3, 0.5), (2, 0.1, 0.2), (40, 0.2, 0.2)])
    def test_hand_built_levels_in_any_order_match_reference_loop(self, rows):
        # prefix_len values need not be 1..n nor ascending, nor areas monotone:
        # the target and the diagnostics name each level's own prefix_len.
        levels = [CumulativeLevel(k, area, crime) for k, area, crime in rows]
        targets = sorted({lvl.cum_area for lvl in levels if lvl.cum_area < 1.0})
        for target in targets:
            assert _outcome(optimal_alpha, levels, target, 0.02) == _outcome(
                _reference_optimal_alpha, levels, target, 0.02
            )

    @pytest.mark.parametrize(
        "areas",
        [
            (0.0, 0.01, 0.02),  # first level
            (0.01, 0.02, 0.0, -0.5),  # later levels; the first bad one is named
        ],
    )
    def test_non_positive_coverage_message(self, areas):
        # The message ppai gave for the first non-positive level when it was
        # called for every (alpha, level) pair.
        levels = [
            CumulativeLevel(k, area, 0.1 * k) for k, area in enumerate(areas, 1)
        ]
        with pytest.raises(ValidationError) as exc:
            optimal_alpha(levels, target_coverage=0.015)
        assert str(exc.value) == "PPAI needs positive coverage, got 0.0"
        # a bad grid step is still reported first
        with pytest.raises(ValidationError, match="grid_step"):
            optimal_alpha(levels, target_coverage=0.015, grid_step=1.0)


def _alpha_units_csv(n_units, seed):
    """Units whose smallest 5% carry 10x the crime density, as CSV text."""
    rng = random.Random(seed)
    hot = set(rng.sample(range(n_units), n_units // 20))
    sizes = [
        rng.uniform(0.5, 1.0) if i in hot else rng.uniform(1.0, 3.0)
        for i in range(n_units)
    ]
    weights = [
        s * (10.0 if i in hot else 1.0) * rng.uniform(0.5, 1.5)
        for i, s in enumerate(sizes)
    ]
    total_size, total_weight = math.fsum(sizes), math.fsum(weights)
    rows = "".join(
        f"u{i:04d},{s / total_size!r},{w / total_weight!r}\n"
        for i, (s, w) in enumerate(zip(sizes, weights))
    )
    return "unit_id,area_fraction,crime_fraction\n" + rows


def test_report_bytes_match_reference_at_2000_units(
    tmp_path, monkeypatch, capsys
):
    path = tmp_path / "units.csv"
    path.write_text(_alpha_units_csv(2000, seed=7), encoding="utf-8")
    # Target the level where PPAI peaks at alpha = 0.5, so the search succeeds.
    levels = _reference_cumulative_levels(
        order_units(load_units(str(path)))
    )
    scores = [lvl.ppai(0.5) for lvl in levels]
    target = levels[scores.index(max(scores))].cum_area
    argv = ["optimize-alpha", "--units", str(path), "--target", repr(target)]

    assert gridscore.cli.main(argv) == 0
    fast = capsys.readouterr().out
    # The CLI runs the columnar core; the reference replaces its prefix sums
    # and its search.
    monkeypatch.setattr(gridscore.cli, "_prefix_sums", _reference_prefix_sums)
    monkeypatch.setattr(gridscore.cli, "_search", _reference_search)
    assert gridscore.cli.main(argv) == 0
    reference = capsys.readouterr().out
    assert "[alpha]" in fast
    assert fast.count("\n") > 2000
    assert fast == reference


class TestPeakCandidates:
    # Level 2 sits far below the chord from level 1 to level 3 in log space.
    CRIMES = [0.5, 0.1, 0.9]
    AREAS = [0.1, 0.2, 0.4]

    def test_levels_below_the_hull_are_dropped(self):
        assert _peak_candidates(self.CRIMES, self.AREAS, GRID) == [0, 2]

    def test_levels_out_of_area_order(self):
        crimes, areas = self.CRIMES[::-1], self.AREAS[::-1]
        assert _peak_candidates(crimes, areas, GRID) == [0, 2]

    @pytest.mark.parametrize(
        "crimes, areas",
        [
            ([0.0, 0.0, 0.0], AREAS),  # no positive crime
            ([0.5, math.nan, 0.9], AREAS),  # not finite
            ([0.5, 0.1, math.inf], AREAS),
            ([0.5, TINY, 0.9], AREAS),  # a log score below the limit
            (CRIMES, [TINY, 0.2, 0.4]),  # alpha * ln a below the limit
        ],
    )
    def test_guard_keeps_every_level(self, crimes, areas):
        assert _peak_candidates(crimes, areas, GRID) == [0, 1, 2]

    def test_candidates_are_under_one_percent_of_the_levels(self, tmp_path):
        # A bound on the work that does not depend on timing: a silent fall
        # back to scoring every level fails here.
        path = tmp_path / "units.csv"
        path.write_text(_alpha_units_csv(2000, seed=7), encoding="utf-8")
        levels = cumulative_levels(order_units(load_units(str(path))))
        candidates = _peak_candidates(
            [lvl.cum_crime for lvl in levels], [lvl.cum_area for lvl in levels], GRID
        )
        assert 0 < len(candidates) < len(levels) / 100


# Units whose shares keep every score a normal float, so the float search
# and exact arithmetic can disagree only next to a breakpoint. Ordered units
# have strictly increasing cumulative areas, each at least 1 + 1/k times the
# one before, so no two levels share an x.
ORACLE_UNITS = st.lists(
    st.tuples(
        st.one_of(
            st.sampled_from([1e-9, 0.1, 0.25, 1 / 3, 1.0]),
            st.floats(min_value=1e-9, max_value=1.0),
        ),
        st.one_of(
            st.sampled_from([0.0, 1e-9, 0.1, 1 / 3, 1.0]),
            st.floats(min_value=1e-9, max_value=1.0),
        ),
    ),
    min_size=1,
    max_size=40,
).map(lambda rows: [HotspotUnit(f"u{i:02d}", a, c) for i, (a, c) in enumerate(rows)])

#: Grid points this close to an exact breakpoint may fall either way.
ORACLE_SLACK = Decimal("1e-9")


def _log_points(levels):
    """(ln a, ln c) at 50 digits for every level with positive crime."""
    with localcontext() as ctx:
        ctx.prec = 50
        return {
            k: (Decimal(lvl.cum_area).ln(), Decimal(lvl.cum_crime).ln())
            for k, lvl in enumerate(levels)
            if lvl.cum_crime > 0
        }


def _exact_interval(levels, t):
    """The open interval (L, R) of alphas at which level ``t`` is the unique
    PPAI peak, at 50 digits; None when it is the peak at no alpha."""
    points = _log_points(levels)
    if t not in points:  # zero crime: tied with or below every other level
        return None if len(levels) > 1 else (Decimal("-Inf"), Decimal("Inf"))
    xt, yt = points[t]
    lo, hi = Decimal("-Inf"), Decimal("Inf")
    with localcontext() as ctx:
        ctx.prec = 50
        for j, (xj, yj) in points.items():
            if j < t:
                hi = min(hi, (yt - yj) / (xt - xj))
            elif j > t:
                lo = max(lo, (yj - yt) / (xj - xt))
    return lo, hi


class TestDecimalOracle:
    @settings(max_examples=150, deadline=None)
    @given(ORACLE_UNITS)
    @example([HotspotUnit("a", 0.01, 0.5), HotspotUnit("b", 0.01, 0.1)])
    @example([HotspotUnit("a", 0.1, 0.0), HotspotUnit("b", 0.2, 0.3)])
    def test_valid_alphas_are_the_grid_inside_the_exact_interval(self, units):
        levels = cumulative_levels(order_units(units))
        for t, level in enumerate(levels):
            if level.cum_area >= 1.0:
                continue
            interval = _exact_interval(levels, t)
            inner, outer = [], []
            if interval is not None:
                lo, hi = interval
                inner = [a for a in GRID if lo + ORACLE_SLACK < a < hi - ORACLE_SLACK]
                outer = [a for a in GRID if lo - ORACLE_SLACK < a < hi + ORACLE_SLACK]
            outcome = _outcome(optimal_alpha, levels, level.cum_area, 0.01)
            if not outer:
                assert isinstance(outcome, tuple), (t, interval)
                continue
            if not inner and isinstance(outcome, tuple):
                continue
            assert not isinstance(outcome, tuple), (t, interval)
            assert outcome.target_level == level
            low, high = outcome.valid_range
            assert low in outer and high in outer
            if inner:
                assert low <= inner[0] and inner[-1] <= high
            peaks = dict(outcome.per_alpha_diagnostics)
            assert all(peaks[a] == level.prefix_len for a in inner)

    @settings(max_examples=100, deadline=None)
    @given(ORACLE_UNITS)
    def test_each_alpha_peaks_at_the_envelope_level(self, units):
        levels = cumulative_levels(order_units(units))
        assume(levels[0].cum_area < 1.0)
        points = _log_points(levels)
        # The diagnostics do not depend on the target.
        outcome = _outcome(optimal_alpha, levels, levels[0].cum_area, 0.01)
        diagnostics = (
            outcome[2] if isinstance(outcome, tuple) else outcome.per_alpha_diagnostics
        )
        with localcontext() as ctx:
            ctx.prec = 50
            for alpha, peak in diagnostics:
                if not points:  # every score is 0: the first level peaks
                    assert peak == 1
                    continue
                a = Decimal(alpha)
                ranked = sorted(
                    ((y - a * x, -k) for k, (x, y) in points.items()), reverse=True
                )
                if len(ranked) > 1 and ranked[0][0] - ranked[1][0] <= ORACLE_SLACK:
                    continue  # a near tie, which rounding may decide either way
                assert peak == levels[-ranked[0][1]].prefix_len, alpha
