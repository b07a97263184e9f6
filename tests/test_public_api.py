"""The public names and the signatures of the alpha-search entry points.

``gridscore.__all__`` is the library's public surface, and the functions
below are the object API over the alpha search. A change here is a change
for every caller, not a refactoring.
"""

import inspect

import pytest

import gridscore
from gridscore.ingest import load_units
from gridscore.report import Report

PUBLIC_NAMES = [
    "AlphaSearchError", "AlphaSearchResult", "Cell", "ContingencyTable",
    "CumulativeLevel", "DegenerateScoresError", "Event", "EventSet",
    "GeneratorSpec", "GridSpec", "GridscoreError", "HotspotSelection",
    "HotspotUnit", "IngestError", "LabelConditionalRates", "PeriodMismatchError",
    "PeriodSeries", "ProbabilitySurface", "RateSet", "UtilitySpec",
    "ValidationError", "WeightVector", "WsrResult", "ZeroMassError",
    "__version__", "als", "assign_events", "bonferroni", "conditional_rates",
    "contingency", "coverage", "coverage_from_cells", "cumulative_levels",
    "empirical_surface", "expected_utility", "generate_events", "hit_rate",
    "hit_rate_from_conditionals", "hit_rate_from_events", "make_grid",
    "optimal_alpha", "order_units", "pai", "ppai", "rank_models",
    "rates_from_contingency", "ser", "standardize", "summarize",
    "top_k_baseline", "uniform_surface", "weighted_aggregate",
    "wilcoxon_signed_rank",
]

SIGNATURES = {
    load_units: "(path: 'str') -> 'tuple[HotspotUnit, ...]'",
    gridscore.order_units: "(units: 'Iterable[HotspotUnit]') -> 'tuple[HotspotUnit, ...]'",
    gridscore.cumulative_levels: (
        "(ordered: 'Sequence[HotspotUnit]') -> 'tuple[CumulativeLevel, ...]'"
    ),
    gridscore.optimal_alpha: (
        "(levels: 'Sequence[CumulativeLevel]', target_coverage: 'float', "
        "grid_step: 'float' = 0.01) -> 'AlphaSearchResult'"
    ),
    Report.render: "(self) -> 'str'",
}


def test_public_names():
    assert sorted(gridscore.__all__) == PUBLIC_NAMES
    assert all(hasattr(gridscore, name) for name in PUBLIC_NAMES)


@pytest.mark.parametrize("function", SIGNATURES, ids=lambda f: f.__qualname__)
def test_signature(function):
    assert str(inspect.signature(function)) == SIGNATURES[function]
