import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridscore import (
    ContingencyTable,
    DegenerateScoresError,
    LabelConditionalRates,
    UtilitySpec,
    ValidationError,
    WeightVector,
    conditional_rates,
    expected_utility,
    hit_rate_from_conditionals,
    rank_models,
    standardize,
    weighted_aggregate,
)


def random_rates(rng):
    p_tp = float(rng.uniform(0.0, 1.0))
    p_tn = float(rng.uniform(0.0, 1.0))
    s = float(rng.uniform(0.05, 0.95))
    return LabelConditionalRates(
        p_tp_given_pos=p_tp,
        p_fp_given_pos=1.0 - p_tp,
        p_tn_given_neg=p_tn,
        p_fn_given_neg=1.0 - p_tn,
        share_positive=s,
    )


class TestConditionalRates:
    def test_balanced_table(self):
        r = conditional_rates(ContingencyTable(tp=1, fp=1, tn=1, fn=1))
        assert r.p_tp_given_pos == 0.5
        assert r.p_fp_given_pos == 0.5
        assert r.p_tn_given_neg == 0.5
        assert r.p_fn_given_neg == 0.5
        assert r.share_positive == 0.5

    def test_two_model_example(self, table_a, table_b):
        ra = conditional_rates(table_a)
        np.testing.assert_allclose(
            (ra.p_tp_given_pos, ra.p_fp_given_pos, ra.p_tn_given_neg, ra.p_fn_given_neg),
            (0.85, 0.15, 0.30, 0.70),
            atol=1e-12,
        )
        assert ra.share_positive == 0.05
        rb = conditional_rates(table_b)
        np.testing.assert_allclose(
            (rb.p_tp_given_pos, rb.p_fp_given_pos, rb.p_tn_given_neg, rb.p_fn_given_neg),
            (0.75, 0.25, 0.45, 0.55),
            atol=1e-12,
        )
        assert rb.share_positive == 0.05

    def test_small_table(self):
        r = conditional_rates(ContingencyTable(tp=3, fp=1, tn=4, fn=2))
        np.testing.assert_allclose(
            (r.p_tp_given_pos, r.p_fp_given_pos, r.p_tn_given_neg, r.p_fn_given_neg,
             r.share_positive),
            (0.75, 0.25, 4 / 6, 2 / 6, 0.4),
            atol=1e-12,
        )

    def test_one_sided_labelling_rejected(self):
        with pytest.raises(ValidationError):
            conditional_rates(ContingencyTable(tp=0, fp=0, tn=3, fn=1))
        with pytest.raises(ValidationError):
            conditional_rates(ContingencyTable(tp=3, fp=1, tn=0, fn=0))

    def test_rate_partition_validation(self):
        with pytest.raises(ValidationError):
            LabelConditionalRates(0.8, 0.3, 0.5, 0.5, 0.1)
        with pytest.raises(ValidationError):
            LabelConditionalRates(0.5, 0.5, 0.9, 0.2, 0.1)


class TestExpectedUtility:
    UTIL = UtilitySpec(u_tp=1.0, u_fp=-0.5, u_tn=1.0, u_fn=-1.0)

    def test_two_model_example(self, table_a, table_b):
        eu_a = expected_utility(conditional_rates(table_a), self.UTIL)
        eu_b = expected_utility(conditional_rates(table_b), self.UTIL)
        assert abs(eu_a - (-0.34125)) <= 1e-12
        assert abs(eu_b - (-0.06375)) <= 1e-12
        # the EU ordering disagrees with raw accuracy here: that reversal
        # is the whole point of weighting outcomes
        assert eu_b > eu_a

    def test_zero_utilities_zero_score(self):
        rng = np.random.default_rng(3)
        zero = UtilitySpec(0.0, 0.0, 0.0, 0.0)
        for _ in range(20):
            assert expected_utility(random_rates(rng), zero) == 0.0

    def test_unit_utilities_score_one(self):
        rng = np.random.default_rng(4)
        ones = UtilitySpec(1.0, 1.0, 1.0, 1.0)
        for _ in range(50):
            got = expected_utility(random_rates(rng), ones)
            np.testing.assert_allclose(got, 1.0, atol=1e-12)

    def test_linear_in_utilities(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            r = random_rates(rng)
            u1 = UtilitySpec(*(float(v) for v in rng.normal(size=4)))
            u2 = UtilitySpec(*(float(v) for v in rng.normal(size=4)))
            combined = UtilitySpec(
                u1.u_tp + u2.u_tp,
                u1.u_fp + u2.u_fp,
                u1.u_tn + u2.u_tn,
                u1.u_fn + u2.u_fn,
            )
            np.testing.assert_allclose(
                expected_utility(r, combined),
                expected_utility(r, u1) + expected_utility(r, u2),
                atol=1e-12,
            )

    def test_affine_shift_preserves_ordering(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            r1, r2 = random_rates(rng), random_rates(rng)
            u = UtilitySpec(*(float(v) for v in rng.normal(size=4)))
            scale = float(rng.uniform(0.1, 5.0))
            shift = float(rng.normal())
            u2 = UtilitySpec(
                scale * u.u_tp + shift,
                scale * u.u_fp + shift,
                scale * u.u_tn + shift,
                scale * u.u_fn + shift,
            )
            base = expected_utility(r1, u) - expected_utility(r2, u)
            scaled = expected_utility(r1, u2) - expected_utility(r2, u2)
            assert base == pytest.approx(scaled / scale, abs=1e-9)

    def test_non_finite_utilities_rejected(self):
        with pytest.raises(ValidationError):
            UtilitySpec(math.inf, 0.0, 0.0, 0.0)
        with pytest.raises(ValidationError):
            UtilitySpec(0.0, math.nan, 0.0, 0.0)


class TestHitRateFromConditionals:
    def test_two_model_example(self, table_a, table_b):
        hr_a = hit_rate_from_conditionals(conditional_rates(table_a))
        hr_b = hit_rate_from_conditionals(conditional_rates(table_b))
        assert abs(hr_a - 0.0601) <= 5e-4
        assert abs(hr_b - 0.0670) <= 5e-4

    def test_agrees_with_event_free_table_identity(self):
        # p_tp*s/(p_tp*s + p_fn*(1-s)) must equal tp/(tp+fn) whenever both
        # sides exist, because s cancels the cell totals
        rng = np.random.default_rng(8)
        for _ in range(100):
            tp, fp, tn, fn = (int(v) for v in rng.integers(0, 30, size=4))
            if tp + fp == 0 or tn + fn == 0 or tp + fn == 0:
                continue
            t = ContingencyTable(tp=tp, fp=fp, tn=tn, fn=fn)
            got = hit_rate_from_conditionals(conditional_rates(t))
            np.testing.assert_allclose(got, tp / (tp + fn), atol=1e-12)

    def test_all_positive_labels_hit_everything(self):
        r = LabelConditionalRates(1.0, 0.0, 1.0, 0.0, 1.0)
        assert hit_rate_from_conditionals(r) == 1.0

    def test_no_crime_mass_anywhere_rejected(self):
        r = LabelConditionalRates(0.0, 1.0, 1.0, 0.0, 0.5)
        with pytest.raises(ValidationError):
            hit_rate_from_conditionals(r)


class TestStandardize:
    def test_three_point_example(self):
        z = standardize({"a": 1.0, "b": 2.0, "c": 3.0})
        np.testing.assert_allclose(z["a"], -math.sqrt(1.5), atol=1e-12)
        assert z["b"] == 0.0
        np.testing.assert_allclose(z["c"], math.sqrt(1.5), atol=1e-12)

    def test_postconditions(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            scores = {f"m{i}": float(rng.normal()) for i in range(n)}
            if len(set(scores.values())) < 2:
                continue
            z = standardize(scores)
            vals = list(z.values())
            np.testing.assert_allclose(np.mean(vals), 0.0, atol=1e-9)
            np.testing.assert_allclose(np.std(vals), 1.0, atol=1e-9)

    def test_identical_scores_refuse_with_hint(self):
        with pytest.raises(DegenerateScoresError, match="rank"):
            standardize({"a": 5.0, "b": 5.0})

    def test_single_model_rejected(self):
        with pytest.raises(DegenerateScoresError):
            standardize({"a": 1.0})

    @pytest.mark.parametrize("tiny", [1e-170, 5e-324, 1e-160])
    def test_distinct_tiny_scores_standardize_exactly(self, tiny):
        # The squared deviations underflow to 0.0 (1e-170, 5e-324) or to a
        # subnormal that has lost precision (1e-160): distinct scores are
        # not constant, and two of them are exactly one deviation apart.
        assert standardize({"A": tiny, "B": 0.0}) == {"A": 1.0, "B": -1.0}

    def test_order_preserved(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            scores = {f"m{i}": float(rng.normal()) for i in range(6)}
            if len(set(scores.values())) < 2:
                continue
            z = standardize(scores)
            by_raw = sorted(scores, key=scores.get)
            by_z = sorted(z, key=z.get)
            assert by_raw == by_z


class TestRankModels:
    def test_simple_ranking(self):
        ranks = rank_models({"a": 0.9, "b": 0.7, "c": 0.8})
        assert ranks == {"a": 1.0, "c": 2.0, "b": 3.0}

    def test_midranks_for_ties(self):
        ranks = rank_models({"a": 0.9, "b": 0.9, "c": 0.1})
        assert ranks == {"a": 1.5, "b": 1.5, "c": 3.0}

    def test_all_tied(self):
        ranks = rank_models({"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0})
        assert set(ranks.values()) == {2.5}

    def test_lower_is_better(self):
        ranks = rank_models({"a": 0.9, "b": 0.7}, higher_is_better=False)
        assert ranks == {"b": 1.0, "a": 2.0}

    def test_single_model(self):
        assert rank_models({"only": 3.14}) == {"only": 1.0}

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            rank_models({})

    def test_rank_sum_invariant(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            n = int(rng.integers(1, 10))
            scores = {f"m{i}": float(rng.integers(0, 4)) for i in range(n)}
            ranks = rank_models(scores)
            np.testing.assert_allclose(
                sum(ranks.values()), n * (n + 1) / 2, atol=1e-9
            )

    @settings(max_examples=300, deadline=None)
    @given(
        # A handful of distinct values over up to 12 models: ties abound.
        st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 2.0, 1e300]),
                 min_size=1, max_size=12),
        st.booleans(),
    )
    def test_matches_fraction_brute_force(self, values, higher_is_better):
        """rank = #strictly better + (#tied, itself included, + 1) / 2."""
        scores = {f"m{i:02d}": v for i, v in enumerate(values)}
        ranks = rank_models(scores, higher_is_better)
        sign = 1 if higher_is_better else -1
        for model, v in scores.items():
            better = sum(sign * w > sign * v for w in values)
            tied = sum(w == v for w in values)
            assert ranks[model] == better + Fraction(tied + 1, 2)


class TestWeightVector:
    def test_valid(self):
        WeightVector({"hit_rate": 0.7, "precision": 0.3})

    def test_sum_must_be_one(self):
        with pytest.raises(ValidationError):
            WeightVector({"hit_rate": 0.7, "precision": 0.4})

    def test_weights_must_be_positive(self):
        with pytest.raises(ValidationError):
            WeightVector({"hit_rate": 1.5, "precision": -0.5})
        with pytest.raises(ValidationError):
            WeightVector({"hit_rate": 1.0, "precision": 0.0})

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            WeightVector({})


class TestWeightedAggregate:
    def test_two_model_example(self):
        # rounded per-measure inputs as published: hit rates 0.06 / 0.067,
        # precision 0.85 / 0.75, weights 0.7 / 0.3
        w = WeightVector({"hit_rate": 0.7, "precision": 0.3})
        scores = {
            "hit_rate": {"A": 0.06, "B": 0.067},
            "precision": {"A": 0.85, "B": 0.75},
        }
        agg = weighted_aggregate(scores, w)
        np.testing.assert_allclose(agg["A"], 0.297, atol=1e-12)
        np.testing.assert_allclose(agg["B"], 0.2719, atol=1e-12)

    def test_single_measure_is_identity(self):
        w = WeightVector({"pai": 1.0})
        agg = weighted_aggregate({"pai": {"a": 2.5, "b": 1.0}}, w)
        assert agg == {"a": 2.5, "b": 1.0}

    def test_constant_scores_fixed_point(self):
        w = WeightVector({"x": 0.25, "y": 0.75})
        agg = weighted_aggregate(
            {"x": {"a": 3.0, "b": 3.0}, "y": {"a": 3.0, "b": 3.0}}, w
        )
        np.testing.assert_allclose([agg["a"], agg["b"]], [3.0, 3.0], atol=1e-12)

    def test_dominance_preserved(self):
        # a model at least as good on every measure can never aggregate lower
        rng = np.random.default_rng(13)
        for _ in range(50):
            base = rng.uniform(0.0, 1.0, size=3)
            bonus = rng.uniform(0.0, 0.5, size=3)
            raw = rng.uniform(0.1, 1.0, size=3)
            wv = WeightVector(
                {f"m{i}": float(v / raw.sum()) for i, v in enumerate(raw)}
            )
            scores = {
                f"m{i}": {"lo": float(base[i]), "hi": float(base[i] + bonus[i])}
                for i in range(3)
            }
            agg = weighted_aggregate(scores, wv)
            assert agg["hi"] >= agg["lo"] - 1e-12

    def test_missing_measure_rejected(self):
        w = WeightVector({"hit_rate": 0.5, "pai": 0.5})
        with pytest.raises(ValidationError, match="pai"):
            weighted_aggregate({"hit_rate": {"a": 1.0}}, w)

    def test_model_set_mismatch_rejected(self):
        w = WeightVector({"x": 0.5, "y": 0.5})
        with pytest.raises(ValidationError):
            weighted_aggregate(
                {"x": {"a": 1.0, "b": 2.0}, "y": {"a": 1.0}}, w
            )
