"""What every gridscore record does as a value: print, compare, hash, refuse
changes when frozen, and survive pickle and deepcopy.

Each case builds a sample twice, so the two builds are equal but not the
same object, and pins the sample's repr. ``OTHER`` gives each class one
record that differs from the sample in a field.
"""

import copy
import inspect
import pickle
from dataclasses import FrozenInstanceError
from types import SimpleNamespace

import pytest

from gridscore.alpha_search import AlphaSearchResult, CumulativeLevel
from gridscore.combine import LabelConditionalRates, UtilitySpec, WeightVector
from gridscore.domain import (
    Cell,
    ContingencyTable,
    Event,
    GridSpec,
    HotspotSelection,
    ProbabilitySurface,
    RejectedRow,
    SelectionTally,
    _PeriodCounts,
)
from gridscore.ingest import ConfigKey, Dataset, RunConfig
from gridscore.metrics import HotspotUnit, Measure, RateSet
from gridscore.report import Report
from gridscore.stats import PeriodSeries, WsrResult
from gridscore.synth import GeneratorSpec


def grid():
    return GridSpec((Cell("c1", 2.5), Cell("c2", 1.5)))


def level():
    return CumulativeLevel(2, 0.25, 0.5)


def table():
    return ContingencyTable(1, 2, 3, 4)


SAMPLES = {
    "Cell": lambda: Cell("c1", 2.5),
    "GridSpec": grid,
    "HotspotSelection": lambda: HotspotSelection("p1", ["c1"]),
    "Event": lambda: Event("e1", "c1", "p1"),
    "ProbabilitySurface": lambda: ProbabilitySurface("p1", {"c1": 0.25, "c2": 0.75}),
    "ContingencyTable": table,
    "SelectionTally": lambda: SelectionTally(5, 2, 2.5, 4.0, table()),
    "_PeriodCounts": lambda: _PeriodCounts(grid(), {"c1": 3}, 3, frozenset({"c1"})),
    "RejectedRow": lambda: RejectedRow("e9", "cx", "p1", "unknown cell"),
    "HotspotUnit": lambda: HotspotUnit("u1", 0.25, 0.5),
    "RateSet": lambda: RateSet(0.5, None, 0.25, 1.0, 0.75, None),
    "Measure": lambda: Measure(max, "lower"),
    "LabelConditionalRates": lambda: LabelConditionalRates(0.75, 0.25, 0.5, 0.5, 0.25),
    "UtilitySpec": lambda: UtilitySpec(1.0, -0.5, 0.25, -2.0),
    "WeightVector": lambda: WeightVector({"hit_rate": 0.5, "pai": 0.5}),
    "Dataset": lambda: Dataset(None, None, {}, {}, (HotspotUnit("u1", 0.25, 0.5),)),
    "RunConfig": lambda: RunConfig(measures=("pai",), alpha=0.5),
    "ConfigKey": lambda: ConfigKey("strict", "strict", float, (bool, "be true"), 1),
    "CumulativeLevel": level,
    "AlphaSearchResult": lambda: AlphaSearchResult(
        0.5, (0.25, 0.75), level(), ((0.25, 2), (0.5, 2))
    ),
    "PeriodSeries": lambda: PeriodSeries("hit_rate", "M", [("p1", 0.5), ("p2", 0.25)]),
    "WsrResult": lambda: WsrResult(3, 4.5, 0.25, "exact"),
    "GeneratorSpec": lambda: GeneratorSpec(2, 1.0, [1.0, 3.0], 2, 5, 7),
    "Report": lambda: Report("evaluate", warnings=["w"], combined_rule="rule"),
}

OTHER = {
    "Cell": lambda: Cell("c1", 2.0),
    "GridSpec": lambda: GridSpec((Cell("c1", 2.5),)),
    "HotspotSelection": lambda: HotspotSelection("p2", ["c1"]),
    "Event": lambda: Event("e1", "c2", "p1"),
    "ProbabilitySurface": lambda: ProbabilitySurface("p1", {"c1": 0.5, "c2": 0.5}),
    "ContingencyTable": lambda: ContingencyTable(1, 2, 3, 5),
    "SelectionTally": lambda: SelectionTally(5, 3, 2.5, 4.0, table()),
    "_PeriodCounts": lambda: _PeriodCounts(grid(), {"c1": 4}, 4, frozenset({"c1"})),
    "RejectedRow": lambda: RejectedRow("e9", "cx", "p1", "other"),
    "HotspotUnit": lambda: HotspotUnit("u2", 0.25, 0.5),
    "RateSet": lambda: RateSet(0.5, None, 0.25, 1.0, 0.75, 0.0),
    "Measure": lambda: Measure(max),
    "LabelConditionalRates": lambda: LabelConditionalRates(0.75, 0.25, 0.5, 0.5, 0.5),
    "UtilitySpec": lambda: UtilitySpec(1.0, -0.5, 0.25, 2.0),
    "WeightVector": lambda: WeightVector({"hit_rate": 1.0}),
    "Dataset": lambda: Dataset(None, None, {}, {}, None),
    "RunConfig": lambda: RunConfig(measures=("pai",), alpha=0.25),
    "ConfigKey": lambda: ConfigKey("strict", "strict", float),
    "CumulativeLevel": lambda: CumulativeLevel(3, 0.25, 0.5),
    "AlphaSearchResult": lambda: AlphaSearchResult(
        0.25, (0.25, 0.75), level(), ((0.25, 2), (0.5, 2))
    ),
    "PeriodSeries": lambda: PeriodSeries("hit_rate", "N", [("p1", 0.5), ("p2", 0.25)]),
    "WsrResult": lambda: WsrResult(3, 4.5, 0.25, "normal-approximation"),
    "GeneratorSpec": lambda: GeneratorSpec(2, 1.0, [1.0, 3.0], 2, 5, 8),
    "Report": lambda: Report("evaluate", warnings=["w"]),
}

REPRS = {
    "Cell": "Cell(id='c1', area_km2=2.5)",
    "GridSpec": (
        "GridSpec(cells=(Cell(id='c1', area_km2=2.5), Cell(id='c2', area_km2=1.5)), "
        'total_area_km2=4.0)'
    ),
    "HotspotSelection": "HotspotSelection(period='p1', flagged=frozenset({'c1'}))",
    "Event": "Event(event_id='e1', cell_id='c1', period='p1')",
    "ProbabilitySurface":
        "ProbabilitySurface(period='p1', mass={'c1': 0.25, 'c2': 0.75})",
    "ContingencyTable": 'ContingencyTable(tp=1, fp=2, tn=3, fn=4)',
    "SelectionTally": (
        'SelectionTally(n_events=5, hits=2, flagged_area_km2=2.5, total_area_km2=4.0, '
        'table=ContingencyTable(tp=1, fp=2, tn=3, fn=4))'
    ),
    "_PeriodCounts": (
        "_PeriodCounts(grid=GridSpec(cells=(Cell(id='c1', area_km2=2.5), Cell(id='c2', "
        "area_km2=1.5)), total_area_km2=4.0), counts={'c1': 3}, n_events=3, "
        "hit=frozenset({'c1'}))"
    ),
    "RejectedRow":
        "RejectedRow(event_id='e9', cell_id='cx', period='p1', reason='unknown cell')",
    "HotspotUnit": "HotspotUnit(id='u1', area_fraction=0.25, crime_fraction=0.5)",
    "RateSet": (
        'RateSet(sensitivity=0.5, specificity=None, ppv=0.25, npv=1.0, accuracy=0.75, '
        'fpr=None)'
    ),
    "Measure": "Measure(formula=<built-in function max>, better='lower')",
    "LabelConditionalRates": (
        'LabelConditionalRates(p_tp_given_pos=0.75, p_fp_given_pos=0.25, '
        'p_tn_given_neg=0.5, p_fn_given_neg=0.5, share_positive=0.25)'
    ),
    "UtilitySpec": 'UtilitySpec(u_tp=1.0, u_fp=-0.5, u_tn=0.25, u_fn=-2.0)',
    "WeightVector": "WeightVector(weights={'hit_rate': 0.5, 'pai': 0.5})",
    "Dataset": (
        'Dataset(grid=None, events=None, selections={}, surfaces={}, '
        "units=(HotspotUnit(id='u1', area_fraction=0.25, crime_fraction=0.5),), "
        'rejected=())'
    ),
    "RunConfig": (
        "RunConfig(measures=('pai',), strict=True, alpha_mode='hit_rate', alpha=0.5, "
        'target_coverage=None, grid_step=0.01, als_floor_enabled=False, '
        "als_floor_epsilon=1e-12, als_restrict_to_hotspots=False, als_log_base='e', "
        "score_transform='raw', utilities=None, weights=None, "
        "orientations={'accuracy': 'higher', 'als': 'higher', 'coverage': 'higher', "
        "'fpr': 'lower', 'hit_rate': 'higher', 'npv': 'higher', 'pai': 'higher', "
        "'ppai': 'higher', 'precision': 'higher', 'sensitivity': 'higher', "
        "'ser': 'higher', 'specificity': 'higher'}, generator=None, gen_top_k=None, "
        'gen_smoothing=1.0, ignored_keys=())'
    ),
    "ConfigKey": (
        "ConfigKey(key='strict', field='strict', parse=<class 'float'>, "
        "bound=(<class 'bool'>, 'be true'), default=1)"
    ),
    "CumulativeLevel": 'CumulativeLevel(prefix_len=2, cum_area=0.25, cum_crime=0.5)',
    "AlphaSearchResult": (
        'AlphaSearchResult(alpha_star=0.5, valid_range=(0.25, 0.75), '
        'target_level=CumulativeLevel(prefix_len=2, cum_area=0.25, cum_crime=0.5), '
        'per_alpha_diagnostics=((0.25, 2), (0.5, 2)))'
    ),
    "PeriodSeries": (
        "PeriodSeries(measure_id='hit_rate', model_id='M', values=(('p1', 0.5), ('p2', "
        '0.25)))'
    ),
    "WsrResult": "WsrResult(n_used=3, w_plus=4.5, p_value=0.25, method='exact')",
    "GeneratorSpec": (
        'GeneratorSpec(n_cells=2, cell_area_km2=1.0, weights=(1.0, 3.0), n_periods=2, '
        'events_per_period=5, seed=7)'
    ),
    "Report": (
        "Report(command='evaluate', config_pairs=[], inputs=[], warnings=['w'], "
        'measure_rows=[], summary_rows=[], alpha_info=[], level_rows=[], '
        "combined_rule='rule', combined_rows=[], wsr_rows=[], generated_files=[])"
    ),
}

#: Records holding a dict or list: equal ones compare equal but none hashes.
UNHASHABLE = {
    "ProbabilitySurface", "_PeriodCounts", "WeightVector", "Dataset", "RunConfig",
    "Report",
}

#: The signatures of the records outside ``gridscore.__all__``; the public
#: ones are pinned in test_public_api.py.
SIGNATURES = {
    "SelectionTally": (
        "(n_events: 'int', hits: 'int', flagged_area_km2: 'float', "
        "total_area_km2: 'float', table: 'ContingencyTable') -> None"
    ),
    "_PeriodCounts": (
        "(grid: 'GridSpec', counts: 'Mapping[CellId, int]', n_events: 'int', "
        "hit: 'frozenset[CellId]') -> None"
    ),
    "RejectedRow": (
        "(event_id: 'EventId', cell_id: 'CellId', period: 'PeriodId', "
        "reason: 'str') -> None"
    ),
    "Measure": (
        "(formula: 'Optional[Callable[..., Optional[float]]]', "
        "better: 'str' = 'higher') -> None"
    ),
    "Dataset": (
        "(grid: 'Optional[GridSpec]', events: 'Optional[EventSet]', "
        "selections: 'Mapping[str, Mapping[PeriodId, HotspotSelection]]', "
        "surfaces: 'Mapping[str, Mapping[PeriodId, ProbabilitySurface]]', "
        "units: 'Optional[tuple[HotspotUnit, ...]]', rejected: 'tuple[RejectedRow, "
        "...]' = ()) -> None"
    ),
    "RunConfig": (
        "(measures: 'tuple[str, ...]' = ('hit_rate', 'coverage', 'pai'), "
        "strict: 'bool' = True, alpha_mode: 'str' = 'hit_rate', "
        "alpha: 'Optional[float]' = None, target_coverage: 'Optional[float]' = None, "
        "grid_step: 'float' = 0.01, als_floor_enabled: 'bool' = False, "
        "als_floor_epsilon: 'float' = 1e-12, als_restrict_to_hotspots: 'bool' = False, "
        "als_log_base: 'str' = 'e', score_transform: 'str' = 'raw', "
        "utilities: 'Optional[UtilitySpec]' = None, "
        "weights: 'Optional[WeightVector]' = None, orientations: 'Mapping[str, "
        "str]' = <factory>, generator: 'Optional[GeneratorSpec]' = None, "
        "gen_top_k: 'Optional[int]' = None, gen_smoothing: 'float' = 1.0, "
        "ignored_keys: 'tuple[str, ...]' = ()) -> None"
    ),
    "ConfigKey": (
        "(key: 'str', field: 'str', parse: 'Callable[[str, str, str], object]', "
        "bound: 'Optional[tuple[Callable[[object], bool], str]]' = None, "
        "default: 'object' = None) -> None"
    ),
    "Report": (
        "(command: 'str', config_pairs: 'list[tuple[str, Value]]' = <factory>, "
        "inputs: 'list[tuple[str, Value]]' = <factory>, "
        "warnings: 'list[str]' = <factory>, measure_rows: 'list[tuple[str, str, str, "
        "Value]]' = <factory>, summary_rows: 'list[tuple[str, str, Value, "
        "Value]]' = <factory>, alpha_info: 'list[tuple[str, Value]]' = <factory>, "
        "level_rows: 'list[tuple[int, str, float, float, float]]' = <factory>, "
        "combined_rule: 'Optional[str]' = None, combined_rows: 'list[tuple[str, float, "
        "float]]' = <factory>, wsr_rows: 'list[tuple[str, str, str, int, float, str, "
        "float, float]]' = <factory>, generated_files: 'list[str]' = <factory>) -> None"
    ),
}

NAMES = sorted(SAMPLES)


def fields(record):
    return {name: getattr(record, name) for name in type(record).__match_args__}


def test_every_record_has_a_case():
    assert len(SAMPLES) == 24
    assert SAMPLES.keys() == OTHER.keys() == REPRS.keys()


@pytest.mark.parametrize("name", NAMES)
def test_repr(name):
    assert repr(SAMPLES[name]()) == REPRS[name]


@pytest.mark.parametrize("name", NAMES)
def test_fields_are_the_constructor_parameters(name):
    sample = SAMPLES[name]()
    parameters = inspect.signature(type(sample)).parameters
    assert type(sample).__match_args__ == tuple(parameters)


@pytest.mark.parametrize("name", NAMES)
def test_equality(name):
    sample, again, other = SAMPLES[name](), SAMPLES[name](), OTHER[name]()
    assert sample is not again
    assert sample == again and not sample != again
    assert sample != other and not sample == other
    lookalike = SimpleNamespace(**fields(sample))
    assert sample != lookalike and not sample == lookalike
    assert sample.__eq__(lookalike) is NotImplemented


@pytest.mark.parametrize("name", NAMES)
def test_hash(name):
    sample, again = SAMPLES[name](), SAMPLES[name]()
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable type"):
            hash(sample)
    else:
        assert hash(sample) == hash(again)
        assert hash(sample) == hash(tuple(fields(sample).values()))


@pytest.mark.parametrize("name", sorted(set(NAMES) - {"Report"}))
def test_frozen(name):
    sample = SAMPLES[name]()
    before = repr(sample)
    field = type(sample).__match_args__[0]
    for attr in (field, "not_a_field"):
        with pytest.raises(FrozenInstanceError) as info:
            setattr(sample, attr, None)
        assert str(info.value) == f"cannot assign to field {attr!r}"
        with pytest.raises(FrozenInstanceError) as info:
            delattr(sample, attr)
        assert str(info.value) == f"cannot delete field {attr!r}"
    assert repr(sample) == before


def test_report_is_mutable():
    report = SAMPLES["Report"]()
    report.command = "compare"
    report.extra = 1
    del report.extra
    assert report.command == "compare"
    assert Report("x").warnings is not Report("x").warnings


def test_run_config_orientations_are_fresh():
    assert RunConfig().orientations is not RunConfig().orientations


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize(
    "round_trip", [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy, copy.copy],
    ids=["pickle", "deepcopy", "copy"],
)
def test_round_trip(name, round_trip):
    sample = SAMPLES[name]()
    back = round_trip(sample)
    assert type(back) is type(sample)
    assert back == sample and repr(back) == repr(sample)
    assert vars(back) == vars(sample)


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_signature(name):
    assert str(inspect.signature(type(SAMPLES[name]()))) == SIGNATURES[name]
