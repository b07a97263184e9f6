"""Public error branches that no other test reaches, each message whole."""

import os

import pytest

from gridscore import (
    Cell,
    EventSet,
    GridSpec,
    HotspotSelection,
    IngestError,
    LabelConditionalRates,
    PeriodMismatchError,
    ProbabilitySurface,
    ValidationError,
    WeightVector,
    als,
    cumulative_levels,
    hit_rate_from_events,
    ingest,
    optimal_alpha,
    weighted_aggregate,
)

GRID = GridSpec((Cell("c1", 1.0),))
SURFACE = ProbabilitySurface("p1", {"c1": 1.0})


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: cumulative_levels(()), ValidationError,
         "cannot build levels from an empty unit sequence"),
        (lambda: optimal_alpha((), 0.5), ValidationError,
         "no cumulative levels supplied"),
        (lambda: weighted_aggregate({"pai": {}}, WeightVector({"pai": 1.0})),
         ValidationError, "no models to aggregate"),
        (lambda: LabelConditionalRates(1.5, 0.0, 0.5, 0.5, 0.5), ValidationError,
         "p_tp_given_pos must lie in [0, 1], got 1.5"),
        (lambda: ProbabilitySurface("p1", {}), ValidationError,
         "a probability surface needs at least one cell"),
        (lambda: hit_rate_from_events(
            GRID, HotspotSelection("p1", frozenset({"c1"})), EventSet(()), "p2"),
         PeriodMismatchError, "selection is for period 'p1', not 'p2'"),
        (lambda: als(SURFACE, EventSet(()), "p1",
                     restrict_to=HotspotSelection("p2", frozenset({"c1"}))),
         PeriodMismatchError, "restriction is for period 'p2', not 'p1'"),
    ],
    ids=[
        "cumulative_levels", "optimal_alpha", "weighted_aggregate",
        "LabelConditionalRates", "ProbabilitySurface", "hit_rate_from_events", "als",
    ],
)
def test_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_an_event_set_is_not_equal_to_a_tuple():
    assert (EventSet(()) == ()) is False


def test_staged_files_passes_on_an_error_about_another_path(tmp_path):
    elsewhere = str(tmp_path / "elsewhere.csv")
    raised = IngestError(elsewhere, "bad row", line=3)
    with pytest.raises(IngestError) as info:
        with ingest.staged_files(str(tmp_path), ["a.csv"]):
            raise raised
    assert info.value is raised
    assert str(info.value) == f"{elsewhere}:3: bad row"
    assert info.value.__cause__ is None
    assert os.listdir(tmp_path) == []
