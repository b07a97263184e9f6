"""Across-period summaries and paired significance testing.

Models are compared over a series of test periods; a measure's value per
period forms a series. `summarize` gives the mean and (sample) standard
deviation of a series; `wilcoxon_signed_rank` tests whether two models'
per-period values differ systematically, and `bonferroni` adjusts the
resulting p-values when several model pairs are tested at once.

The signed-rank test uses the exact null distribution of W+ whenever the
number of non-zero differences is at most EXACT_LIMIT, computed by a
subset-sum style dynamic program over the (doubled, hence integer)
mid-ranks, which come from `combine.rank_models`; beyond that it switches
to the normal approximation with the usual tie-corrected variance and a
continuity correction. The exact distribution depends only on the
multiset of ranks, so the DP runs once per distinct multiset and later
tests with the same ranks reuse its counts.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from collections import Counter
from typing import Optional, Sequence

from ._record import Record, set_field
from .combine import rank_models
from .domain import PeriodId
from .errors import ValidationError

#: Largest n for which the exact W+ distribution is computed.
EXACT_LIMIT = 25


class PeriodSeries(Record):
    """One measure's value per test period for one model."""

    measure_id: str
    model_id: str
    values: tuple[tuple[PeriodId, float], ...]

    def __init__(
        self, measure_id: str, model_id: str, values: tuple[tuple[PeriodId, float], ...]
    ) -> None:
        set_field(self, "measure_id", measure_id)
        set_field(self, "model_id", model_id)
        set_field(self, "values", tuple(values))
        if not self.values:
            raise ValidationError("a period series needs at least one value")
        periods = [p for p, _ in self.values]
        if len(set(periods)) != len(periods):
            dupes = sorted({p for p in periods if periods.count(p) > 1})
            raise ValidationError(f"duplicate periods in series: {dupes}")


class WsrResult(Record):
    """Outcome of a Wilcoxon signed-rank test.

    ``n_used`` counts the pairs left after dropping zero differences;
    ``w_plus`` is the sum of the ranks of the positive differences and
    always lies in [0, n_used(n_used+1)/2]. ``method`` records whether the
    p-value came from the exact distribution or the normal approximation.
    """

    n_used: int
    w_plus: float
    p_value: float
    method: str

    def __init__(self, n_used: int, w_plus: float, p_value: float, method: str) -> None:
        set_field(self, "n_used", n_used)
        set_field(self, "w_plus", w_plus)
        set_field(self, "p_value", p_value)
        set_field(self, "method", method)


def summarize(series: PeriodSeries) -> tuple[float, Optional[float]]:
    """Mean and sample standard deviation of a series.

    The standard deviation of a single value is undefined and returned as
    None, to be rendered as such — never as 0.
    """
    xs = [v for _, v in series.values]
    try:
        mean = math.fsum(xs) / len(xs)
    except OverflowError:
        # The sum leaves the float range, though the mean cannot: at that
        # size, scaling each value by 2**-k first changes no digit of the
        # mean, and with 2**k >= len(xs) the scaled sum stays in the range.
        k = (len(xs) - 1).bit_length()
        mean = math.ldexp(math.fsum(math.ldexp(x, -k) for x in xs) / len(xs), k)
    if len(xs) < 2:
        return mean, None
    try:
        return mean, _stdev(xs)
    except OverflowError:
        raise ValidationError(
            f"model {series.model_id}: {series.measure_id} std overflows the float range"
        ) from None


#: Bits of the square root that :func:`_stdev` rounds to odd: 2·53 + 3, so
#: that its one rounding to a float is correct.
_SQRT_BITS = 2 * sys.float_info.mant_dig + 3


def _stdev(xs: Sequence[float]) -> float:
    """The sample standard deviation of two or more finite numbers,
    correctly rounded, as ``statistics.stdev`` gives it since Python 3.11.

    The variance is exact, an integer ratio in lowest terms taken from each
    value's ``as_integer_ratio()``. Its square root is taken with
    ``math.isqrt``, rounded to odd at ``_SQRT_BITS`` bits, and rounded once
    more, to a float. Raises OverflowError past the float range.
    """
    ratios = [x.as_integer_ratio() for x in xs]
    scale = max(d for _, d in ratios)  # every denominator is a power of two
    ns = [n * (scale // d) for n, d in ratios]
    count = len(ns)
    total = sum(ns)
    num = count * sum(n * n for n in ns) - total * total
    den = count * (count - 1) * scale * scale
    common = math.gcd(num, den)
    n, m = num // common, den // common
    q = (n.bit_length() - m.bit_length() - _SQRT_BITS) // 2
    if q >= 0:
        m <<= 2 * q
    else:
        n <<= -2 * q
    root = math.isqrt(n // m)
    root |= root * root * m != n
    return float(root << q) if q >= 0 else root / (1 << -q)


#: Distinct rank multisets whose exact null counts are kept for reuse.
_NULL_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_NULL_CACHE_SIZE)
def _null_counts(doubled_ranks: tuple[int, ...]) -> array:
    """Entry w: how many of the 2**n sign assignments give 2·W+ = w.

    The counts depend only on the multiset of doubled ranks, so callers key
    the cache by the sorted tuple. Each rank r adds the vector to itself
    shifted by r, new[w] = old[w] + old[w − r]. Every count is below
    2**EXACT_LIMIT, so the vector is stored as C ints, 4 bytes a count, and
    built packed into one Python int with a lane of that width per count:
    a rank's shift-and-add is then one ``packed += packed << (lane · r)``,
    no lane carries into the next, and the lanes are unpacked once. Every
    caller shares the cached array: read it, never write to it.
    """
    counts = array("i")
    lane = counts.itemsize
    packed = 1
    for r in doubled_ranks:
        packed += packed << (8 * lane * r)
    counts.frombytes(packed.to_bytes(lane * (sum(doubled_ranks) + 1), sys.byteorder))
    return counts


def _exact_tail_probs(doubled_ranks: list[int], doubled_w: int) -> tuple[float, float]:
    """P(W+ <= w) and P(W+ >= w) under the exact null, via a counting DP.

    Doubling the mid-ranks makes all values integers, so the distribution
    of 2·W+ is a vector of subset counts. With n ranks there are 2**n
    equally likely sign assignments; the counts are exact integers and the
    final division by 2**n is exact in binary floating point for n <= 25.
    The DP runs once per distinct rank multiset; repeats read the cache.
    """
    counts = _null_counts(tuple(sorted(doubled_ranks)))
    denom = 2 ** len(doubled_ranks)
    lower = sum(counts[: doubled_w + 1]) / denom
    upper = sum(counts[doubled_w:]) / denom
    return lower, upper


def wilcoxon_signed_rank(
    pairs: Sequence[tuple[float, float]], two_sided: bool = True
) -> WsrResult:
    """Wilcoxon signed-rank test on paired per-period values.

    Differences d_i = x_i − y_i are formed, zero differences dropped, the
    absolute values mid-ranked, and W+ accumulated over the positive
    differences. When all differences are zero there is no evidence either
    way and the result is p = 1 with n_used = 0.

    The two-sided p-value is min(1, 2·min(P(W+ ≤ w), P(W+ ≥ w))); the
    one-sided alternative is "the first series tends larger", i.e.
    p = P(W+ ≥ w).
    """
    if not pairs:
        raise ValidationError("the signed-rank test needs at least one pair")
    diffs = [x - y for x, y in pairs if x != y]
    n = len(diffs)
    if n == 0:
        return WsrResult(n_used=0, w_plus=0.0, p_value=1.0, method="exact")
    by_index = rank_models(dict(enumerate(map(abs, diffs))), higher_is_better=False)
    ranks = [by_index[i] for i in range(n)]
    w_plus = math.fsum(r for r, d in zip(ranks, diffs) if d > 0)

    if n <= EXACT_LIMIT:
        doubled = [round(2 * r) for r in ranks]
        lower, upper = _exact_tail_probs(doubled, round(2 * w_plus))
        method = "exact"
    else:
        mean = n * (n + 1) / 4
        # Equal |d| share one mid-rank, so the ranks' counts are the tie sizes.
        tie_term = sum((t**3 - t) / 48 for t in Counter(ranks).values())
        # The tie term peaks at (n³ − n)/48, every |d| tied: var ≥ n(n+1)²/16.
        var = n * (n + 1) * (2 * n + 1) / 24 - tie_term
        sd = math.sqrt(var)
        # Continuity correction: pull each tail half a step toward the mean.
        lower = _normal_cdf((w_plus + 0.5 - mean) / sd)
        upper = 1.0 - _normal_cdf((w_plus - 0.5 - mean) / sd)
        method = "normal-approximation"

    if two_sided:
        p = min(1.0, 2.0 * min(lower, upper))
    else:
        p = min(1.0, upper)
    return WsrResult(n_used=n, w_plus=w_plus, p_value=p, method=method)


def _normal_cdf(z: float) -> float:
    """P(Z <= z) for a standard normal Z, by the expression of
    ``statistics.NormalDist().cdf``, so with the same bits."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def bonferroni(p_values: Sequence[float]) -> list[float]:
    """Bonferroni adjustment: multiply by the family size, cap at 1."""
    m = len(p_values)
    for p in p_values:
        if not (isinstance(p, (int, float)) and 0.0 <= p <= 1.0):
            raise ValidationError(f"p-values must lie in [0, 1], got {p!r}")
    return [min(1.0, p * m) for p in p_values]
