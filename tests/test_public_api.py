"""The public names, the signatures of the alpha-search entry points and
those of the public record constructors.

``gridscore.__all__`` is the library's public surface, the functions below
are the object API over the alpha search, and the records are built by
keyword as often as by position. A change here is a change for every
caller, not a refactoring.
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
    gridscore.AlphaSearchResult: (
        "(alpha_star: 'float', valid_range: 'tuple[float, float]', "
        "target_level: 'CumulativeLevel', "
        "per_alpha_diagnostics: 'tuple[tuple[float, int], ...]') -> None"
    ),
    gridscore.Cell: "(id: 'CellId', area_km2: 'float') -> None",
    gridscore.ContingencyTable: "(tp: 'int', fp: 'int', tn: 'int', fn: 'int') -> None",
    gridscore.CumulativeLevel: (
        "(prefix_len: 'int', cum_area: 'float', cum_crime: 'float') -> None"
    ),
    gridscore.Event: "(event_id: 'EventId', cell_id: 'CellId', period: 'PeriodId') -> None",
    gridscore.GeneratorSpec: (
        "(n_cells: 'int', cell_area_km2: 'float', weights: 'tuple[float, ...]', "
        "n_periods: 'int', events_per_period: 'int', seed: 'int') -> None"
    ),
    gridscore.GridSpec: "(cells: 'tuple[Cell, ...]', total_area_km2: 'float' = None) -> None",
    gridscore.HotspotSelection: "(period: 'PeriodId', flagged: 'frozenset[CellId]') -> None",
    gridscore.HotspotUnit: (
        "(id: 'str', area_fraction: 'float', crime_fraction: 'float') -> None"
    ),
    gridscore.LabelConditionalRates: (
        "(p_tp_given_pos: 'float', p_fp_given_pos: 'float', p_tn_given_neg: 'float', "
        "p_fn_given_neg: 'float', share_positive: 'float') -> None"
    ),
    gridscore.PeriodSeries: (
        "(measure_id: 'str', model_id: 'str', "
        "values: 'tuple[tuple[PeriodId, float], ...]') -> None"
    ),
    gridscore.ProbabilitySurface: "(period: 'PeriodId', mass: 'Mapping[CellId, float]') -> None",
    gridscore.RateSet: (
        "(sensitivity: 'Optional[float]', specificity: 'Optional[float]', "
        "ppv: 'Optional[float]', npv: 'Optional[float]', accuracy: 'Optional[float]', "
        "fpr: 'Optional[float]') -> None"
    ),
    gridscore.UtilitySpec: "(u_tp: 'float', u_fp: 'float', u_tn: 'float', u_fn: 'float') -> None",
    gridscore.WeightVector: "(weights: 'Mapping[str, float]') -> None",
    gridscore.WsrResult: (
        "(n_used: 'int', w_plus: 'float', p_value: 'float', method: 'str') -> None"
    ),
}


def test_public_names():
    assert sorted(gridscore.__all__) == PUBLIC_NAMES
    assert all(hasattr(gridscore, name) for name in PUBLIC_NAMES)


@pytest.mark.parametrize("function", SIGNATURES, ids=lambda f: f.__qualname__)
def test_signature(function):
    assert str(inspect.signature(function)) == SIGNATURES[function]
