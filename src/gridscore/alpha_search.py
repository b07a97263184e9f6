"""Grid search for the PPAI penalty exponent.

Given pre-aggregated hotspot units, the procedure orders them canonically
(smallest area first, highest crime share within equal areas), builds the
cumulative coverage levels, and scans a grid of alpha values looking for
those under which the PPAI curve over levels peaks exactly at the level
matching a desired patrol coverage. Among the alphas that work, it keeps
the one separating the target level most sharply from its neighbours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

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


@dataclass(frozen=True)
class CumulativeLevel:
    """Running totals after taking the first ``prefix_len`` ordered units."""

    prefix_len: int
    cum_area: float
    cum_crime: float

    def ppai(self, alpha: float) -> float:
        """PPAI of the whole prefix treated as one selection."""
        return ppai(self.cum_crime, self.cum_area, alpha)


@dataclass(frozen=True)
class AlphaSearchResult:
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


def order_units(units: Iterable[HotspotUnit]) -> tuple[HotspotUnit, ...]:
    """Canonical unit order: area ascending, crime share descending, id.

    The id tie-break is not part of the published ordering rule; it exists
    so that permuting the input can never change any downstream result.
    """
    rows = tuple(units)
    if not rows:
        raise ValidationError("cannot order an empty unit collection")
    return tuple(
        sorted(rows, key=lambda u: (u.area_fraction, -u.crime_fraction, u.id))
    )


def _add_exact(partials: list[float], x: float) -> None:
    """Add ``x`` to Shewchuk partials, keeping their sum exact.

    ``partials`` are non-overlapping floats in increasing magnitude whose
    exact sum is every value added so far: the two-sum loop inside
    :func:`math.fsum` (Shewchuk 1997). Finite inputs whose running sums stay
    finite are assumed.
    """
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


def cumulative_levels(
    ordered: Sequence[HotspotUnit],
) -> tuple[CumulativeLevel, ...]:
    """Running (area, crime) totals for every prefix of the ordered units.

    Each level's totals are the correctly rounded sums of its prefix, equal
    bit for bit to ``math.fsum`` over that prefix. Running exact partials
    give them in O(U) for U units rather than re-summing every prefix.
    """
    if not ordered:
        raise ValidationError("cannot build levels from an empty unit sequence")
    area_partials: list[float] = []
    crime_partials: list[float] = []
    levels = []
    for k, unit in enumerate(ordered, start=1):
        _add_exact(area_partials, unit.area_fraction)
        _add_exact(crime_partials, unit.crime_fraction)
        levels.append(
            CumulativeLevel(
                prefix_len=k,
                cum_area=math.fsum(area_partials),
                cum_crime=math.fsum(crime_partials),
            )
        )
    return tuple(levels)


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
    if not any(c > 0 for c in crimes) or not all(
        map(math.isfinite, [*crimes, *areas])
    ):
        return everyone
    # Sorted by (x, y): the monotone chain's order, whatever the level order.
    points = sorted(
        (math.log(a), math.log(c), i)
        for i, (c, a) in enumerate(zip(crimes, areas))
        if c > 0
    )
    lo, hi = alphas[0], alphas[-1]
    for x, y, _ in points:
        if max(abs(y - lo * x), abs(y - hi * x), abs(hi * x)) > LOG_SCORE_LIMIT:
            return everyone

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
    alphas = _alpha_grid(grid_step)
    # ppai's coverage check, made once instead of per (alpha, level): the
    # call raises ppai's own error for the first level without positive area.
    for lvl in levels:
        if lvl.cum_area <= 0:
            lvl.ppai(alphas[0])
    crimes = [lvl.cum_crime for lvl in levels]
    areas = [lvl.cum_area for lvl in levels]
    candidates = _peak_candidates(crimes, areas, alphas)
    cand_crimes = [crimes[i] for i in candidates]
    cand_areas = [areas[i] for i in candidates]

    diagnostics = []
    valid = []
    gaps = {}
    for alpha in alphas:
        # ppai's expression; the grid avoids its special cases at 0 and 1.
        scores = [c / a**alpha for c, a in zip(cand_crimes, cand_areas)]
        pos = scores.index(max(scores))
        peak_idx = candidates[pos]
        diagnostics.append((alpha, levels[peak_idx].prefix_len))
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
            top - crimes[i] / areas[i] ** alpha
            for i in (target_idx - 1, target_idx + 1)
            if 0 <= i < len(levels)
        ]
        # A single-level input has no neighbours; every alpha then ties at
        # gap +inf and the smallest-alpha rule below settles it.
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
