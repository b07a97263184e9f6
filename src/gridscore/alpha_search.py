"""Grid search for the PPAI penalty exponent.

Given pre-aggregated hotspot units, the procedure orders them canonically
(smallest area first, highest crime share within equal areas), builds the
cumulative coverage levels, and scans a grid of alpha values looking for
those under which the PPAI curve over levels peaks exactly at the level
matching a desired patrol coverage. Among the alphas that work, it keeps
the one separating the target level most sharply from its neighbours.

One core does the work on columns: :func:`_ordered` orders the units' ids,
areas and crime shares, :func:`_prefix_sums` gives the cumulative areas and
crime shares, and :func:`_search` scans the grid over them. The object API
(:func:`order_units`, :func:`cumulative_levels`, :func:`optimal_alpha`)
wraps it: each takes its columns out of the objects and wraps the result.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterable, Optional, Sequence

from ._record import Record, set_field
from .errors import AlphaSearchError, ValidationError
from .metrics import HotspotUnit, ppai

#: Slack when matching a cumulative area against the target coverage.
TARGET_TOL = 1e-12

#: Default spacing of the alpha grid (``ppai.grid_step``, ``--grid-step``).
DEFAULT_GRID_STEP = 0.01

#: Finest spacing accepted: 9,801 alphas. Over 6,000 units whose levels have
#: 7 to 9 peak candidates the search takes about 0.06 s; one that scores
#: every level (see ``_peak_candidates``) takes about 11 s (single runs on
#: a shared 2-vCPU host).
MIN_GRID_STEP = 1e-4

#: Relative depth below the upper hull of the points (ln a, ln c) within
#: which a level stays a peak candidate (see ``_peak_candidates``).
HULL_MARGIN = 1e-6

#: Bound on the log scores and on ``alpha * ln a`` inside which every score
#: ``c / a**alpha`` with c > 0 is a normal float, well clear of overflow.
LOG_SCORE_LIMIT = 650.0


class CumulativeLevel(Record):
    """Running totals after taking the first ``prefix_len`` ordered units."""

    prefix_len: int
    cum_area: float
    cum_crime: float

    def __init__(self, prefix_len: int, cum_area: float, cum_crime: float) -> None:
        set_field(self, "prefix_len", prefix_len)
        set_field(self, "cum_area", cum_area)
        set_field(self, "cum_crime", cum_crime)

    def ppai(self, alpha: float) -> float:
        """PPAI of the whole prefix treated as one selection."""
        return ppai(self.cum_crime, self.cum_area, alpha)


class AlphaSearchResult(Record):
    """Outcome of the grid search.

    ``valid_range`` is the closed interval spanned by every grid alpha
    whose PPAI-over-levels curve peaks uniquely at the target level;
    ``alpha_star`` is the member of that set with the largest minimum gap
    between the target level's PPAI and its neighbouring levels' PPAI.
    ``per_alpha_diagnostics`` records, for every grid alpha, which prefix
    length peaked — useful when the search fails and someone needs to see
    how close it came.
    """

    alpha_star: float
    valid_range: tuple[float, float]
    target_level: CumulativeLevel
    per_alpha_diagnostics: tuple[tuple[float, int], ...]

    def __init__(
        self,
        alpha_star: float,
        valid_range: tuple[float, float],
        target_level: CumulativeLevel,
        per_alpha_diagnostics: tuple[tuple[float, int], ...],
    ) -> None:
        set_field(self, "alpha_star", alpha_star)
        set_field(self, "valid_range", valid_range)
        set_field(self, "target_level", target_level)
        set_field(self, "per_alpha_diagnostics", per_alpha_diagnostics)


def _ordered(
    ids: Iterable[str], areas: Iterable[float], crimes: Iterable[float]
) -> tuple[tuple, tuple, tuple, tuple]:
    """The units' ids, areas and crime shares in canonical order, and the
    input position of each: one sort of (area, -crime, id, position) tuples.

    The position breaks ties between units equal in all three, so the order
    is that of a stable sort on (area, -crime, id).
    """
    keys = sorted(zip(areas, map(operator.neg, crimes), ids, itertools.count()))
    areas, negated, ids, positions = zip(*keys)
    return ids, areas, tuple(map(operator.neg, negated)), positions


def _columns_of(units: Sequence[HotspotUnit]) -> tuple[Iterable, Iterable, Iterable]:
    """The ids, area fractions and crime fractions of ``units``."""
    return (
        map(operator.attrgetter("id"), units),
        map(operator.attrgetter("area_fraction"), units),
        map(operator.attrgetter("crime_fraction"), units),
    )


def order_units(units: Iterable[HotspotUnit]) -> tuple[HotspotUnit, ...]:
    """Canonical unit order: area ascending, crime share descending, id.

    The id tie-break is not part of the published ordering rule; it exists
    so that permuting the input can never change any downstream result.
    """
    rows = tuple(units)
    if not rows:
        raise ValidationError("cannot order an empty unit collection")
    *_, positions = _ordered(*_columns_of(rows))
    return tuple(map(rows.__getitem__, positions))


def _prefix_sums(values: Sequence[float]) -> list[float]:
    """The sum of every prefix of ``values``, correctly rounded: equal bit
    for bit to ``math.fsum(values[:k])`` for every k.

    Each value is made an exact integer multiple of 2**-shift, with shift
    the smallest that makes every value one (at most 1074, which makes
    subnormals one); the integers are summed exactly by ``accumulate``, and
    each sum is divided back by 2**shift, which ``int / int`` rounds
    correctly, subnormals included. Finite values are assumed.
    """
    smallest = min(map(abs, filter(None, values)), default=1.0)
    shift = min(1074, max(0, 53 - math.frexp(smallest)[1]))
    scale = 1 << shift
    try:
        # Exact: a product with a power of two that stays finite.
        ints = list(map(int, map(operator.mul, values, itertools.repeat(float(scale)))))
    except OverflowError:  # 2**shift or a product is beyond the float range
        ints = [n * (scale // d) for n, d in map(float.as_integer_ratio, values)]
    return list(map(operator.truediv, itertools.accumulate(ints), itertools.repeat(scale)))


def cumulative_levels(
    ordered: Sequence[HotspotUnit],
) -> tuple[CumulativeLevel, ...]:
    """Running (area, crime) totals for every prefix of the ordered units.

    Each level's totals are the correctly rounded sums of its prefix, equal
    bit for bit to ``math.fsum`` over that prefix. The core's
    :func:`_prefix_sums` gives them in one exact integer pass per column;
    this wraps them as levels.
    """
    if not ordered:
        raise ValidationError("cannot build levels from an empty unit sequence")
    _, areas, crimes = map(list, _columns_of(ordered))
    return tuple(
        map(CumulativeLevel, itertools.count(1), _prefix_sums(areas), _prefix_sums(crimes))
    )


def _alpha_grid(grid_step: float) -> list[float]:
    if not 0 < grid_step < 1:
        raise ValidationError(f"grid_step must be in (0, 1), got {grid_step!r}")
    if grid_step < MIN_GRID_STEP:
        raise ValidationError(
            f"grid_step must be at least {MIN_GRID_STEP!r}, got {grid_step!r}"
        )
    alphas = []
    k = 0
    while True:
        # Rebuild from k each time (instead of accumulating) so the grid is
        # not subject to drift, then squash residual binary noise.
        alpha = round(0.01 + k * grid_step, 12)
        if alpha > 0.99 + TARGET_TOL:
            break
        alphas.append(alpha)
        k += 1
    return alphas


def _peak_candidates(
    crimes: Sequence[float], areas: Sequence[float], alphas: Sequence[float]
) -> list[int]:
    """Indices, ascending, of the levels that can score a grid alpha's maximum.

    log PPAI_k(alpha) = y_k - alpha * x_k with x = ln a and y = ln c, so at
    every alpha some vertex of the upper convex hull of the points (x, y)
    attains the maximum (Andrew's monotone chain). The hull at a level's
    own x interpolates two levels, so a level more than ``HULL_MARGIN``
    (relative) below it scores less than the maximum by that factor in log
    space at every alpha: far beyond the few-ulp error of ``c / a**alpha``,
    so its float score can neither be the maximum nor tie it.

    Every level is returned when that bound cannot be relied on: some value
    is not finite, no level has positive crime (every score is then 0), or
    a log score or ``alpha * ln a`` leaves ``LOG_SCORE_LIMIT`` on the grid,
    where the float scores may be subnormal or overflow.
    """
    everyone = list(range(len(crimes)))
    positive = list(map(operator.lt, itertools.repeat(0.0), crimes))
    if not any(positive) or not all(map(math.isfinite, itertools.chain(crimes, areas))):
        return everyone
    xs = list(map(math.log, itertools.compress(areas, positive)))
    ys = list(map(math.log, itertools.compress(crimes, positive)))
    lo, hi = alphas[0], alphas[-1]
    lo_xs = map(operator.mul, itertools.repeat(lo), xs)
    hi_xs = list(map(operator.mul, itertools.repeat(hi), xs))
    log_scores = itertools.chain(
        map(operator.sub, ys, lo_xs), map(operator.sub, ys, hi_xs), hi_xs
    )
    if max(map(abs, log_scores)) > LOG_SCORE_LIMIT:
        return everyone
    # Sorted by (x, y): the monotone chain's order, whatever the level order.
    points = sorted(zip(xs, ys, itertools.compress(itertools.count(), positive)))

    hull: list[tuple[float, float, int]] = []
    for p in points:
        x, y, _ = p
        while len(hull) >= 2:
            (x0, y0, _), (x1, y1, _) = hull[-2], hull[-1]
            if (x1 - x0) * (y - y0) < (y1 - y0) * (x - x0):
                break  # a right turn: hull[-1] stays on the upper hull
            hull.pop()
        hull.append(p)

    candidates = []
    seg = 0
    for x, y, i in points:
        while seg + 1 < len(hull) and hull[seg + 1][0] <= x:
            seg += 1
        x0, y0, _ = hull[seg]
        if x == x0:
            h = y0
        else:  # x0 < x < x1, so the interpolation weight lies in [0, 1]
            x1, y1, _ = hull[seg + 1]
            h = y0 + (y1 - y0) * ((x - x0) / (x1 - x0))
        if h - y <= HULL_MARGIN * max(1.0, abs(y)):
            candidates.append(i)
    candidates.sort()
    return candidates


def optimal_alpha(
    levels: Sequence[CumulativeLevel],
    target_coverage: float,
    grid_step: float = DEFAULT_GRID_STEP,
) -> AlphaSearchResult:
    """Find the alpha making PPAI peak at the level nearest a coverage target.

    Parameters
    ----------
    levels : sequence of CumulativeLevel
        Cumulative levels in prefix order, as from :func:`cumulative_levels`.
    target_coverage : float
        Desired total patrol coverage as a fraction of the region, in (0, 1).
        The target level is the longest prefix whose cumulative area still
        fits under this value (with 1e-12 slack).
    grid_step : float
        Spacing of the alpha grid over [0.01, 0.99]; at least
        :data:`MIN_GRID_STEP` and below 1.

    Returns
    -------
    AlphaSearchResult

    The search itself is the core's :func:`_search`, over the levels'
    columns; this wraps its outcome, so its errors are the core's.

    Raises
    ------
    AlphaSearchError
        If no level fits under the target, or no grid alpha makes the
        target level the unique PPAI peak. The latter error carries the
        per-alpha peak diagnostics rather than guessing an answer.

    Notes
    -----
    Only the peak candidates are scored: the levels on or just below the
    upper convex hull of the points (ln a, ln c), since log PPAI is
    ln c - alpha * ln a and every other level scores below the maximum by
    a margin far beyond float error, at every alpha. Finding them costs
    one sort of the levels; each grid alpha then costs one ``pow`` per
    candidate, and the result is the same as scoring every level. When
    that margin cannot be relied on (a value that is not finite, no
    positive crime, or scores that may be subnormal or overflow), every
    level is a candidate and the search scores them all.
    """
    alpha_star, valid_range, target_idx, diagnostics = _search(
        list(map(operator.attrgetter("cum_area"), levels)),
        list(map(operator.attrgetter("cum_crime"), levels)),
        list(map(operator.attrgetter("prefix_len"), levels)),
        target_coverage,
        grid_step,
    )
    return AlphaSearchResult(
        alpha_star=alpha_star,
        valid_range=valid_range,
        target_level=levels[target_idx],
        per_alpha_diagnostics=diagnostics,
    )


def _search(
    cum_areas: Sequence[float],
    cum_crimes: Sequence[float],
    prefix_lens: Sequence[int],
    target_coverage: float,
    grid_step: float,
) -> tuple[float, tuple[float, float], int, tuple[tuple[float, int], ...]]:
    """The search of :func:`optimal_alpha` over level columns, in any order.

    Returns ``(alpha_star, valid_range, target_idx, diagnostics)``: the
    target is the level at ``target_idx``, and each diagnostic names the
    ``prefix_len`` of the level where its alpha peaked.
    """
    if not cum_areas:
        raise ValidationError("no cumulative levels supplied")
    if not (0.0 < target_coverage < 1.0):
        raise ValidationError(
            f"target_coverage must lie in (0, 1), got {target_coverage!r}"
        )
    # The last level, in the given order, that fits under the target.
    fits = map(operator.le, cum_areas, itertools.repeat(target_coverage + TARGET_TOL))
    target_idx: Optional[int] = max(
        itertools.compress(itertools.count(), fits), default=None
    )
    if target_idx is None:
        raise AlphaSearchError(
            f"no cumulative level fits under target coverage "
            f"{target_coverage!r}; the smallest level covers "
            f"{cum_areas[0]!r}"
        )
    alphas = _alpha_grid(grid_step)
    # ppai's coverage check, made once instead of per (alpha, level): the
    # call raises ppai's own error for the first level without positive area.
    for area in filter((0.0).__ge__, cum_areas):
        ppai(0.0, area, alphas[0])
    candidates = _peak_candidates(cum_crimes, cum_areas, alphas)
    cand_crimes = list(map(cum_crimes.__getitem__, candidates))
    cand_areas = list(map(cum_areas.__getitem__, candidates))

    diagnostics = []
    valid = []
    gaps = {}
    for alpha in alphas:
        # ppai's expression; the grid avoids its special cases at 0 and 1.
        scores = [c / a**alpha for c, a in zip(cand_crimes, cand_areas)]
        pos = scores.index(max(scores))
        peak_idx = candidates[pos]
        diagnostics.append((alpha, prefix_lens[peak_idx]))
        top = scores[pos]
        # A target scoring above every other candidate is the first maximum
        # (no other level can tie it), so the full comparison runs only for
        # alphas that peak there.
        if peak_idx != target_idx or not all(
            top > s for k, s in enumerate(scores) if k != pos
        ):
            continue
        valid.append(alpha)
        neighbour_gaps = [
            top - cum_crimes[i] / cum_areas[i] ** alpha
            for i in (target_idx - 1, target_idx + 1)
            if 0 <= i < len(cum_areas)
        ]
        # A single-level input has no neighbours; every alpha then ties at
        # gap +inf and the smallest-alpha rule below settles it.
        gaps[alpha] = min(neighbour_gaps) if neighbour_gaps else math.inf

    if not valid:
        raise AlphaSearchError(
            f"no alpha on the grid makes level {prefix_lens[target_idx]} "
            f"(cumulative coverage {cum_areas[target_idx]!r}) the unique PPAI "
            f"peak; see diagnostics for where each alpha peaked",
            diagnostics=tuple(diagnostics),
        )
    best_gap = max(gaps[a] for a in valid)
    alpha_star = min(a for a in valid if gaps[a] == best_gap)
    return alpha_star, (min(valid), max(valid)), target_idx, tuple(diagnostics)
