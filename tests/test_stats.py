import itertools
import math
import statistics
from fractions import Fraction
from typing import Sequence
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridscore import (
    PeriodSeries,
    ValidationError,
    bonferroni,
    rank_models,
    summarize,
    wilcoxon_signed_rank,
)
from gridscore import stats


MAX = 1.7976931348623157e308


def series(values, measure="hit_rate", model="m"):
    return PeriodSeries(
        measure_id=measure,
        model_id=model,
        values=tuple((f"p{i}", v) for i, v in enumerate(values, start=1)),
    )


def brute_force_wsr(pairs):
    """Independent oracle: enumerate all 2^n sign assignments."""
    diffs = [x - y for x, y in pairs if x != y]
    n = len(diffs)
    if n == 0:
        return 0, 0.0, 1.0
    abs_d = np.abs(diffs)
    order = np.argsort(abs_d, kind="stable")
    ranks = np.empty(n)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs_d[order[j + 1]] == abs_d[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2 + 1
        i = j + 1
    w = float(sum(r for r, d in zip(ranks, diffs) if d > 0))
    lo = hi = 0
    for signs in itertools.product((0, 1), repeat=n):
        v = float(sum(r for r, s in zip(ranks, signs) if s))
        if v <= w:
            lo += 1
        if v >= w:
            hi += 1
    denom = 2**n
    p = min(1.0, 2.0 * min(lo / denom, hi / denom))
    return n, w, p


class TestSummarize:
    def test_single_value_has_no_spread(self):
        assert summarize(series([0.5])) == (0.5, None)

    def test_constant_series(self):
        mean, sd = summarize(series([1.0, 1.0, 1.0]))
        assert mean == 1.0
        assert sd == 0.0

    def test_sample_standard_deviation(self):
        mean, sd = summarize(series([2.0, 4.0, 6.0]))
        assert mean == 4.0
        np.testing.assert_allclose(sd, 2.0, atol=1e-12)

    def test_values_whose_sum_passes_the_float_range(self):
        big = 1.7e308
        assert summarize(series([big, big])) == (big, 0.0)
        assert summarize(series([big, big, -big, 5e-324]))[0] == big / 4
        # Halving each value is not enough for three.
        assert summarize(series([big] * 3))[0] == pytest.approx(big, rel=1e-15)
        assert summarize(series([MAX] * 40))[0] == pytest.approx(MAX, rel=1e-15)

    # Every bit as statistics.stdev gives it since Python 3.11, or both
    # past the float range.
    @settings(max_examples=500, deadline=None)
    @given(st.lists(
        st.floats(allow_nan=False, allow_infinity=False)
        | st.sampled_from([0.0, 5e-324, -5e-324, 1e300, -1e300, MAX, -MAX]),
        min_size=2, max_size=40,
    ))
    @example([5e-324, 0.0])
    @example([1e300, -1e300, 5e-324])
    @example([MAX, -MAX, 0.0])
    @example([1.7e308, -1.7e308])
    def test_std_matches_statistics_stdev(self, values):
        try:
            expected = statistics.stdev(values).hex()
        except OverflowError:
            expected = "model m: hit_rate std overflows the float range"
        try:
            got = summarize(series(values))[1].hex()
        except ValidationError as exc:
            got = str(exc)
        assert got == expected

    def test_std_past_the_float_range_is_refused(self):
        with pytest.raises(ValidationError) as info:
            summarize(series([1.7e308, -1.7e308], "expected_utility", "A"))
        assert str(info.value) == "model A: expected_utility std overflows the float range"

    def test_duplicate_periods_rejected(self):
        with pytest.raises(ValidationError):
            PeriodSeries("m", "x", (("p1", 1.0), ("p1", 2.0)))

    def test_empty_series_rejected(self):
        with pytest.raises(ValidationError):
            PeriodSeries("m", "x", ())


class TestWilcoxonExact:
    def test_five_positive_pairs(self):
        pairs = [(float(i), 0.0) for i in range(1, 6)]
        r = wilcoxon_signed_rank(pairs)
        assert r.method == "exact"
        assert r.n_used == 5
        assert r.w_plus == 15.0
        assert r.p_value == 0.0625  # 2 * 1/32, exactly

    def test_identical_series(self):
        r = wilcoxon_signed_rank([(1.0, 1.0), (2.0, 2.0)])
        assert r.n_used == 0
        assert r.w_plus == 0.0
        assert r.p_value == 1.0

    def test_hand_computed_tied_case(self):
        # diffs 1, -1, 2 -> |d| ranks 1.5, 1.5, 3 -> W+ = 4.5.
        # Over the 8 sign assignments 2W+ takes {0,3,3,6,6,9,9,12}:
        # P(W+ >= 4.5) = P(2W+ >= 9) = 3/8, P(W+ <= 4.5) = 7/8,
        # two-sided p = 6/8.
        r = wilcoxon_signed_rank([(1.0, 0.0), (0.0, 1.0), (2.0, 0.0)])
        assert r.n_used == 3
        assert r.w_plus == 4.5
        assert r.p_value == 0.75

    def test_antisymmetry(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            pairs = [
                (float(a), float(b))
                for a, b in rng.normal(size=(n, 2))
            ]
            fwd = wilcoxon_signed_rank(pairs)
            rev = wilcoxon_signed_rank([(b, a) for a, b in pairs])
            assert fwd.p_value == rev.p_value
            np.testing.assert_allclose(
                fwd.w_plus + rev.w_plus,
                fwd.n_used * (fwd.n_used + 1) / 2,
                atol=1e-9,
            )

    def test_scale_invariance(self):
        rng = np.random.default_rng(22)
        pairs = [(float(a), float(b)) for a, b in rng.normal(size=(10, 2))]
        base = wilcoxon_signed_rank(pairs)
        scaled = wilcoxon_signed_rank([(3.0 * a, 3.0 * b) for a, b in pairs])
        assert base.p_value == scaled.p_value
        assert base.w_plus == scaled.w_plus

    def test_against_brute_force_small_n(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            pairs = [(float(a), float(b)) for a, b in rng.normal(size=(n, 2))]
            if rng.random() < 0.5:
                pairs = [(round(a, 1), round(b, 1)) for a, b in pairs]
            expect_n, expect_w, expect_p = brute_force_wsr(pairs)
            got = wilcoxon_signed_rank(pairs)
            assert got.n_used == expect_n
            np.testing.assert_allclose(got.w_plus, expect_w, atol=1e-12)
            np.testing.assert_allclose(got.p_value, expect_p, atol=1e-12)

    def test_one_sided(self):
        pairs = [(float(i), 0.0) for i in range(1, 6)]
        r = wilcoxon_signed_rank(pairs, two_sided=False)
        assert r.p_value == 0.03125  # P(W+ >= 15) = 1/32

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            wilcoxon_signed_rank([])


def normal_approx_p(pairs):
    """The textbook approximation, reimplemented independently."""
    diffs = [x - y for x, y in pairs if x != y]
    n = len(diffs)
    ranks_src = np.abs(diffs)
    order = np.argsort(ranks_src, kind="stable")
    ranks = np.empty(n)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and ranks_src[order[j + 1]] == ranks_src[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2 + 1
        i = j + 1
    w = float(sum(r for r, d in zip(ranks, diffs) if d > 0))
    mean = n * (n + 1) / 4
    _, counts = np.unique(ranks_src, return_counts=True)
    var = n * (n + 1) * (2 * n + 1) / 24 - float(
        sum(t**3 - t for t in counts)
    ) / 48
    sd = math.sqrt(var)
    norm = statistics.NormalDist()
    lower = norm.cdf((w + 0.5 - mean) / sd)
    upper = 1.0 - norm.cdf((w - 0.5 - mean) / sd)
    return min(1.0, 2.0 * min(lower, upper))


class TestNormalApproximation:
    @given(st.floats(-40.0, 40.0))
    @example(0.0)
    @example(-0.0)
    def test_cdf_matches_statistics_normal_dist(self, z):
        assert stats._normal_cdf(z).hex() == statistics.NormalDist().cdf(z).hex()

    def test_large_n_uses_normal_path(self):
        rng = np.random.default_rng(31)
        pairs = [(float(a), float(b)) for a, b in rng.normal(size=(30, 2))]
        r = wilcoxon_signed_rank(pairs)
        assert r.method == "normal-approximation"
        assert 0.0 <= r.p_value <= 1.0
        np.testing.assert_allclose(r.p_value, normal_approx_p(pairs), atol=1e-12)

    def test_sanity_band_against_exact(self):
        # For 4 <= n <= 10 with continuous (distinct) differences the
        # approximation should sit within 0.05 of the exact answer.
        rng = np.random.default_rng(32)
        for _ in range(200):
            n = int(rng.integers(4, 11))
            pairs = [(float(a), float(b)) for a, b in rng.normal(size=(n, 2))]
            exact = wilcoxon_signed_rank(pairs)
            assert exact.method == "exact"
            assert abs(normal_approx_p(pairs) - exact.p_value) <= 0.05

    def test_rank_correlation_with_exact(self):
        # ordering agreement between the two methods at moderate n
        rng = np.random.default_rng(33)
        exact_ps, approx_ps = [], []
        for _ in range(100):
            shift = float(rng.uniform(-0.8, 0.8))
            pairs = [
                (float(a) + shift, float(b))
                for a, b in rng.normal(size=(12, 2))
            ]
            exact_ps.append(wilcoxon_signed_rank(pairs).p_value)
            approx_ps.append(normal_approx_p(pairs))

        def to_ranks(xs):
            order = np.argsort(xs, kind="stable")
            ranks = np.empty(len(xs))
            ranks[order] = np.arange(1, len(xs) + 1)
            return ranks

        rho = np.corrcoef(to_ranks(exact_ps), to_ranks(approx_ps))[0, 1]
        assert rho > 0.9


@st.composite
def tie_free_pairs(draw, min_n, max_n):
    """Pairs whose differences are non-zero with distinct magnitudes."""
    magnitudes = draw(st.lists(
        st.integers(min_value=1, max_value=10_000),
        min_size=min_n, max_size=max_n, unique=True,
    ))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=len(magnitudes),
                          max_size=len(magnitudes)))
    bases = draw(st.lists(st.integers(min_value=-10_000, max_value=10_000),
                          min_size=len(magnitudes), max_size=len(magnitudes)))
    return [(float(b + s * m), float(b)) for m, s, b in zip(magnitudes, signs, bases)]


class TestScipyOracle:
    """W+ and the two-sided p-value against scipy.stats.wilcoxon."""

    @staticmethod
    def check(pairs, scipy_method, our_method):
        x, y = np.array(pairs).T
        r = wilcoxon_signed_rank(pairs)
        assert r.method == our_method
        assert r.n_used == len(pairs)
        # scipy's statistic is W+ only for a one-sided test.
        upper = scipy.stats.wilcoxon(
            x, y, alternative="greater", method=scipy_method, correction=True
        )
        assert r.w_plus == upper.statistic
        both = scipy.stats.wilcoxon(x, y, method=scipy_method, correction=True)
        assert r.p_value == pytest.approx(both.pvalue, rel=1e-9, abs=1e-15)

    @settings(max_examples=150, deadline=None)
    @given(tie_free_pairs(1, 25))
    def test_exact_mode(self, pairs):
        self.check(pairs, "exact", "exact")

    @settings(max_examples=150, deadline=None)
    @given(tie_free_pairs(26, 80))
    def test_normal_approximation_with_continuity_correction(self, pairs):
        self.check(pairs, "approx", "normal-approximation")


def fraction_tails(pairs):
    """Exact oracle: Fraction mid-ranks and all 2**n sign assignments.

    Returns n_used, W+, P(W+ <= w) and P(W+ >= w), all exact.
    """
    diffs = [Fraction(x) - Fraction(y) for x, y in pairs if x != y]
    mags = [abs(d) for d in diffs]
    ranks = [
        sum(m < a for m in mags) + Fraction(sum(m == a for m in mags) + 1, 2)
        for a in mags
    ]
    w = sum((r for r, d in zip(ranks, diffs) if d > 0), Fraction(0))
    sums = [Fraction(0)]  # W+ of every sign assignment, one entry each
    for r in ranks:
        sums += [s + r for s in sums]
    denom = 2 ** len(ranks)
    lower = Fraction(sum(s <= w for s in sums), denom)
    upper = Fraction(sum(s >= w for s in sums), denom)
    return len(diffs), w, lower, upper


#: Paired values on a coarse half-step grid: ties and zero differences abound.
half_steps = st.integers(min_value=0, max_value=8).map(lambda k: k / 2)
tied_pairs = st.lists(st.tuples(half_steps, half_steps), min_size=1, max_size=12)


def _list_dp(doubled_ranks):
    """The exact null counts as ``stats._null_counts`` built them before
    they were packed into one int: one list comprehension per rank."""
    counts = [1]
    for r in doubled_ranks:
        pad = [0] * r
        counts = [a + b for a, b in zip(counts + pad, pad + counts)]
    return counts


@st.composite
def doubled_midranks(draw):
    """The doubled mid-ranks of up to 25 absolute differences cut into
    random tie groups: a group of t from rank s + 1 on has doubled
    mid-rank 2s + t + 1, odd when t is even."""
    sizes = draw(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=25))
    doubled, start = [], 0
    for size in sizes:
        size = min(size, stats.EXACT_LIMIT - start)
        doubled += [2 * start + size + 1] * size
        start += size
    return doubled


class TestExactNullWithTies:
    """The exact path on tied and zero differences, which the scipy oracle
    above leaves out: against enumeration with fractions, and against the
    in-place DP up to n = 25."""

    @settings(max_examples=200, deadline=None)
    @given(tied_pairs)
    def test_tails_match_enumeration(self, pairs):
        n, w, lower, upper = fraction_tails(pairs)
        two = wilcoxon_signed_rank(pairs)
        one = wilcoxon_signed_rank(pairs, two_sided=False)
        assert (two.n_used, two.method) == (n, "exact")
        assert two.w_plus == float(w)
        assert two.p_value == float(min(1, 2 * min(lower, upper)))
        assert one.p_value == float(min(1, upper))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=52), min_size=1, max_size=25),
        st.data(),
    )
    def test_counts_match_the_in_place_dp(self, doubled, data):
        """Up to n = 25 with any ties: the cached vector against the
        in-place subset-count DP it replaced."""
        total = sum(doubled)
        expected = [0] * (total + 1)
        expected[0] = 1
        for r in doubled:
            for w in range(total - r, -1, -1):
                expected[w + r] += expected[w]
        assert list(stats._null_counts(tuple(sorted(doubled)))) == expected
        w = data.draw(st.integers(min_value=0, max_value=total))
        denom = 2 ** len(doubled)
        assert stats._exact_tail_probs(doubled, w) == (
            sum(expected[: w + 1]) / denom, sum(expected[w:]) / denom
        )

    @settings(max_examples=300, deadline=None)
    @given(doubled_midranks())
    @example([2 * r for r in range(1, 26)])
    @example([26] * 25)
    @example([25] * 24)
    def test_packed_counts_match_the_list_dp(self, doubled):
        """Up to n = 25 mid-ranks with random ties, an even tie giving an
        odd doubled rank: the packed vector against the list DP it replaced."""
        counts = stats._null_counts(tuple(sorted(doubled)))
        assert counts.typecode == "i"
        assert list(counts) == _list_dp(sorted(doubled))

    @settings(max_examples=100, deadline=None)
    @given(tied_pairs, st.data())
    def test_pair_order_does_not_matter(self, pairs, data):
        shuffled = data.draw(st.permutations(pairs))
        assert wilcoxon_signed_rank(shuffled) == wilcoxon_signed_rank(pairs)

    @settings(max_examples=100, deadline=None)
    @given(tied_pairs)
    def test_warm_cache_equals_cold(self, pairs):
        warm = wilcoxon_signed_rank(pairs)
        stats._null_counts.cache_clear()
        cold = wilcoxon_signed_rank(pairs)
        assert warm == cold
        if cold.n_used:
            # The repeat reads the counts the cold call left behind.
            assert wilcoxon_signed_rank(pairs) == cold
            info = stats._null_counts.cache_info()
            assert (info.misses, info.hits) == (1, 1)
            assert info.maxsize == stats._NULL_CACHE_SIZE


# The reference for the signed-rank test's ranks: ``stats._midranks``,
# verbatim, as it was before ``stats`` ranked with ``combine.rank_models``.
def _midranks(abs_diffs: Sequence[float]) -> list[float]:
    """Ranks of |d| with ties sharing the average of the ranks they span."""
    order = sorted(range(len(abs_diffs)), key=lambda i: abs_diffs[i])
    ranks = [0.0] * len(abs_diffs)
    pos = 0
    while pos < len(order):
        tied = [order[pos]]
        while (
            pos + len(tied) < len(order)
            and abs_diffs[order[pos + len(tied)]] == abs_diffs[tied[0]]
        ):
            tied.append(order[pos + len(tied)])
        mid = pos + (len(tied) + 1) / 2
        for i in tied:
            ranks[i] = mid
        pos += len(tied)
    return ranks


class TestRanksOfDifferences:
    """The signed-rank test ranks |d| with the shared model ranker; on tied
    data its ranks are those of the loop it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(tied_pairs)
    def test_ranks_equal_the_reference(self, pairs):
        seen = []

        def spy(scores, higher_is_better=True):
            ranks = rank_models(scores, higher_is_better)
            seen.append((dict(scores), ranks))
            return ranks

        with mock.patch.object(stats, "rank_models", spy):
            result = wilcoxon_signed_rank(pairs)
        diffs = [x - y for x, y in pairs if x != y]
        expected = _midranks([abs(d) for d in diffs])
        if not diffs:
            assert seen == []
            return
        [(scores, ranks)] = seen
        assert scores == {i: abs(d) for i, d in enumerate(diffs)}
        assert [ranks[i] for i in range(len(diffs))] == expected
        assert result.w_plus == math.fsum(
            r for r, d in zip(expected, diffs) if d > 0
        )



# The reference for the normal approximation's tie correction:
# ``wilcoxon_signed_rank``'s normal branch, verbatim, as it was when it
# counted tied |d| in a dict of its own.
def _old_normal_approximation(pairs):
    diffs = [x - y for x, y in pairs if x != y]
    n = len(diffs)
    ranks = _midranks([abs(d) for d in diffs])
    w_plus = math.fsum(r for r, d in zip(ranks, diffs) if d > 0)
    mean = n * (n + 1) / 4
    tie_term = 0.0
    seen: dict[float, int] = {}
    for d in diffs:
        seen[abs(d)] = seen.get(abs(d), 0) + 1
    for a in sorted(seen):
        t = seen[a]
        tie_term += (t**3 - t) / 48
    var = n * (n + 1) * (2 * n + 1) / 24 - tie_term
    if var <= 0:
        return stats.WsrResult(n, w_plus, 1.0, "normal-approximation")
    sd = math.sqrt(var)
    norm = statistics.NormalDist()
    lower = norm.cdf((w_plus + 0.5 - mean) / sd)
    upper = 1.0 - norm.cdf((w_plus - 0.5 - mean) / sd)
    p = min(1.0, 2.0 * min(lower, upper))
    return stats.WsrResult(n, w_plus, p, "normal-approximation")


#: 26 to 90 non-zero differences on six magnitudes: every draw has ties.
tied_large_pairs = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=6),
        st.sampled_from((-1, 1)),
        st.integers(min_value=-5, max_value=5),
    ),
    min_size=26,
    max_size=90,
).map(lambda rows: [(float(b + s * m), float(b)) for m, s, b in rows])


class TestNormalApproximationWithTies:
    """Tied |d| beyond the exact limit, which the scipy oracle's tie-free
    draws leave out."""

    @settings(max_examples=150, deadline=None)
    @given(tied_large_pairs)
    # Every |d| tied, the largest tie term: var is still n(n+1)²/16 > 0.
    @example([(1.0, 0.0)] * 13 + [(0.0, 1.0)] * 13)
    @example([(2.0, 0.0)] * 90)
    def test_tie_correction(self, pairs):
        result = wilcoxon_signed_rank(pairs)
        assert result == _old_normal_approximation(pairs)
        np.testing.assert_allclose(
            result.p_value, normal_approx_p(pairs), rtol=0, atol=1e-12
        )
        TestScipyOracle.check(pairs, "approx", "normal-approximation")


class TestBonferroni:
    def test_scales_by_family_size(self):
        assert bonferroni([0.01, 0.04]) == [0.02, 0.08]

    def test_caps_at_one(self):
        assert bonferroni([0.6, 0.7, 0.9]) == [1.0, 1.0, 1.0]

    def test_single_test_unchanged(self):
        assert bonferroni([0.3]) == [0.3]

    def test_empty_family(self):
        assert bonferroni([]) == []

    def test_adjusted_never_below_raw(self):
        rng = np.random.default_rng(40)
        ps = [float(p) for p in rng.uniform(0, 1, size=12)]
        for raw, adj in zip(ps, bonferroni(ps)):
            assert adj >= raw

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            bonferroni([0.5, 1.5])
        with pytest.raises(ValidationError):
            bonferroni([-0.1])
