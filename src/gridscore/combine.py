"""Combining measures across models: expected utility and weighted sums.

The expected-utility path works on label-conditional outcome rates (what
fraction of '+'-labelled cells were true positives, and so on) together
with user-supplied utilities for the four outcomes. It is structurally
limited to mutually exclusive outcome partitions — there is no way to feed
it a PPAI or an ALS, by design.

The weighted-aggregate path takes any per-measure score table and a weight
vector. The caller decides whether the scores are raw, standardized or
rank-transformed; helpers for the latter two live here as well.
"""

from __future__ import annotations

import math
import sys
from typing import Mapping

from ._record import Record, set_field
from .domain import ContingencyTable, _finite_fsum
from .errors import DegenerateScoresError, ValidationError

_SUM_TOL = 1e-9


class LabelConditionalRates(Record):
    """Outcome rates conditioned on the model's own '+'/'−' labels.

    ``p_tp_given_pos`` and ``p_fp_given_pos`` partition the positively
    labelled cells (they must sum to 1), ``p_tn_given_neg`` and
    ``p_fn_given_neg`` the negatively labelled ones. ``share_positive``
    is the fraction of all cells the model labelled '+'.
    """

    p_tp_given_pos: float
    p_fp_given_pos: float
    p_tn_given_neg: float
    p_fn_given_neg: float
    share_positive: float

    def __init__(
        self,
        p_tp_given_pos: float,
        p_fp_given_pos: float,
        p_tn_given_neg: float,
        p_fn_given_neg: float,
        share_positive: float,
    ) -> None:
        set_field(self, "p_tp_given_pos", p_tp_given_pos)
        set_field(self, "p_fp_given_pos", p_fp_given_pos)
        set_field(self, "p_tn_given_neg", p_tn_given_neg)
        set_field(self, "p_fn_given_neg", p_fn_given_neg)
        set_field(self, "share_positive", share_positive)
        for name in (
            "p_tp_given_pos",
            "p_fp_given_pos",
            "p_tn_given_neg",
            "p_fn_given_neg",
            "share_positive",
        ):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and 0.0 <= v <= 1.0):
                raise ValidationError(f"{name} must lie in [0, 1], got {v!r}")
        pos = p_tp_given_pos + p_fp_given_pos
        neg = p_tn_given_neg + p_fn_given_neg
        if abs(pos - 1.0) > _SUM_TOL:
            raise ValidationError(
                f"positive-label rates sum to {pos!r}, not 1"
            )
        if abs(neg - 1.0) > _SUM_TOL:
            raise ValidationError(
                f"negative-label rates sum to {neg!r}, not 1"
            )


class UtilitySpec(Record):
    """Gains/losses attached to the four outcomes. Any finite reals."""

    u_tp: float
    u_fp: float
    u_tn: float
    u_fn: float

    def __init__(self, u_tp: float, u_fp: float, u_tn: float, u_fn: float) -> None:
        set_field(self, "u_tp", u_tp)
        set_field(self, "u_fp", u_fp)
        set_field(self, "u_tn", u_tn)
        set_field(self, "u_fn", u_fn)
        for name in ("u_tp", "u_fp", "u_tn", "u_fn"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValidationError(f"{name} must be finite, got {v!r}")


class WeightVector(Record):
    """Positive per-measure weights summing to 1, like probabilities."""

    weights: Mapping[str, float]

    def __init__(self, weights: Mapping[str, float]) -> None:
        weights = dict(weights)
        set_field(self, "weights", weights)
        if not weights:
            raise ValidationError("weight vector must not be empty")
        for mid in sorted(weights):
            if not weights[mid] > 0:
                raise ValidationError(
                    f"weight for {mid!r} must be positive, got {weights[mid]!r}"
                )
        total = _finite_fsum(weights.values(), "weights")
        if abs(total - 1.0) > _SUM_TOL:
            raise ValidationError(f"weights sum to {total!r}, not 1")


def conditional_rates(t: ContingencyTable) -> LabelConditionalRates:
    """Label-conditional rates from a contingency table.

    Requires at least one cell under each label; a model that labelled
    nothing '+' (or nothing '−') has no conditional distribution to speak
    of on that side.
    """
    if t.tp + t.fp == 0:
        raise ValidationError("no positively labelled cells; rates undefined")
    if t.tn + t.fn == 0:
        raise ValidationError("no negatively labelled cells; rates undefined")
    return LabelConditionalRates(
        p_tp_given_pos=t.tp / (t.tp + t.fp),
        p_fp_given_pos=t.fp / (t.tp + t.fp),
        p_tn_given_neg=t.tn / (t.tn + t.fn),
        p_fn_given_neg=t.fn / (t.tn + t.fn),
        share_positive=(t.tp + t.fp) / t.total,
    )


def expected_utility(r: LabelConditionalRates, u: UtilitySpec) -> float:
    """Net expected gain/loss of acting on the model's labels.

    EU = s·(p_tp·u_tp + p_fp·u_fp) + (1−s)·(p_tn·u_tn + p_fn·u_fn)
    with s the share of '+' labels. Linear in each utility component.
    """
    eu_pos = r.p_tp_given_pos * u.u_tp + r.p_fp_given_pos * u.u_fp
    eu_neg = r.p_tn_given_neg * u.u_tn + r.p_fn_given_neg * u.u_fn
    return r.share_positive * eu_pos + (1.0 - r.share_positive) * eu_neg


def hit_rate_from_conditionals(r: LabelConditionalRates) -> float:
    """Event-free reconstruction of the hit rate from conditional rates.

    With s = share_positive, hit rate = p_tp·s / (p_tp·s + p_fn·(1−s)):
    the TP mass over all mass where crime actually occurred.
    """
    s = r.share_positive
    num = r.p_tp_given_pos * s
    den = num + r.p_fn_given_neg * (1.0 - s)
    if den == 0:
        raise ValidationError(
            "no crime mass at all (TP and FN both zero); hit rate undefined"
        )
    return num / den


def standardize(scores: Mapping[str, float]) -> dict[str, float]:
    """Z-score a per-model score table to mean 0, standard deviation 1.

    The population standard deviation (divide by the model count) is used:
    the models being compared are the entire population of candidates, and
    it makes the unit-variance post-condition exact.

    Raises
    ------
    DegenerateScoresError
        On fewer than two models or constant scores; callers should fall
        back to :func:`rank_models` in that case.
    """
    ids = sorted(scores)
    if len(ids) < 2:
        raise DegenerateScoresError(
            "standardization needs at least two models; rank the models instead"
        )
    values = [scores[i] for i in ids]
    try:
        mean, var = _moments(values)
    except OverflowError:
        var = math.inf
    if not math.isfinite(var) or (var < sys.float_info.min and min(values) != max(values)):
        # A sum or a square passed the float range, or squares of distinct
        # scores fell below it, losing precision or all of it. z-scores do
        # not depend on scale, so take those of the scores scaled exactly,
        # by a power of two, to magnitudes below 1.
        shift = math.frexp(max(map(abs, values)))[1]
        values = [math.ldexp(v, -shift) for v in values]
        mean, var = _moments(values)
    if var == 0.0:
        raise DegenerateScoresError(
            "scores are constant across models, standardization is "
            "undefined; rank the models instead"
        )
    sd = math.sqrt(var)
    return {i: (v - mean) / sd for i, v in zip(ids, values)}


def _moments(values: list[float]) -> tuple[float, float]:
    """The mean and population variance of ``values``."""
    mean = math.fsum(values) / len(values)
    return mean, math.fsum((v - mean) ** 2 for v in values) / len(values)


def rank_models(
    scores: Mapping[str, float], higher_is_better: bool = True
) -> dict[str, float]:
    """Rank models, 1 = best, ties sharing the average of their ranks."""
    ids = sorted(scores)
    if not ids:
        raise ValidationError("cannot rank an empty score table")
    ordered = sorted(
        ids, key=lambda i: (-scores[i] if higher_is_better else scores[i], i)
    )
    ranks: dict[str, float] = {}
    pos = 0
    while pos < len(ordered):
        tied = [ordered[pos]]
        while (
            pos + len(tied) < len(ordered)
            and scores[ordered[pos + len(tied)]] == scores[tied[0]]
        ):
            tied.append(ordered[pos + len(tied)])
        mid = pos + (len(tied) + 1) / 2  # ranks pos+1 .. pos+len(tied), averaged
        for i in tied:
            ranks[i] = mid
        pos += len(tied)
    return ranks


def weighted_aggregate(
    per_measure_scores: Mapping[str, Mapping[str, float]],
    w: WeightVector,
) -> dict[str, float]:
    """Per-model weighted sum of per-measure scores.

    The scores are used as given — raw, standardized or ranks is the
    caller's choice and responsibility. Every weighted measure must be
    present with the same model set.
    """
    measures = sorted(w.weights)
    missing = [m for m in measures if m not in per_measure_scores]
    if missing:
        raise ValidationError(f"weights name measures with no scores: {missing}")
    model_sets = {m: frozenset(per_measure_scores[m]) for m in measures}
    models = model_sets[measures[0]]
    for m in measures[1:]:
        if model_sets[m] != models:
            raise ValidationError(
                f"measure {m!r} scores models {sorted(model_sets[m])}, "
                f"expected {sorted(models)}"
            )
    if not models:
        raise ValidationError("no models to aggregate")
    return {
        model: math.fsum(
            w.weights[m] * per_measure_scores[m][model] for m in measures
        )
        for model in sorted(models)
    }
