"""The config schema: exact error messages, the [config] echo, the README.

Each single-fault config pins its whole message, file name included: the
messages are what a user reads, so any change of wording shows up here.
"""

import re
from pathlib import Path

import pytest

from gridscore.errors import IngestError
from gridscore.ingest import CONFIG_SCHEMA, HEADERS, MEASURE_IDS, load_config

from test_golden import CONFIGS as GOLDEN_CONFIGS
from test_golden import GEN_CONF

README = Path(__file__).resolve().parent.parent / "README.md"

#: name → (config text with exactly one fault, message after "<path>: ").
SINGLE_FAULTS = {
    "bad_bool": ("als.floor = maybe\n", "als.floor: expected on/off, got 'maybe'"),
    "strict_bad_bool": (
        "strict = sometimes\n",
        "strict: expected on/off, got 'sometimes'",
    ),
    "not_a_number": ("ppai.alpha = half\n", "ppai.alpha: not a number: 'half'"),
    "non_finite": (
        "als.floor_epsilon = inf\n",
        "als.floor_epsilon: must be finite, got 'inf'",
    ),
    "nan_utility": (
        "eu.u_tp = nan\neu.u_fp = 0\neu.u_tn = 0\neu.u_fn = 0\n",
        "eu.u_tp: must be finite, got 'nan'",
    ),
    "not_an_integer": ("gen.cells = 2.5\n", "gen.cells: not an integer: '2.5'"),
    "gen_weight_not_a_number": (
        "gen.cells = 2\ngen.weights = 1, x\n",
        "gen.weights: not a number: ' x'",
    ),
    "empty_measures": ("measures = , ,\n", "measures: empty list, nothing to compute"),
    "unknown_measure": (
        "measures = hit_rate,f1,pai\n",
        f"unknown measures: f1 (known: {', '.join(MEASURE_IDS)})",
    ),
    "alpha_range": ("ppai.alpha = 1.5\n", "ppai.alpha must lie in [0, 1], got 1.5"),
    "target_range": (
        "ppai.target_coverage = 1\n",
        "ppai.target_coverage must lie in (0, 1), got 1.0",
    ),
    "grid_step_range": (
        "ppai.grid_step = 0\n",
        "ppai.grid_step must lie in (0, 1), got 0.0",
    ),
    "epsilon_range": (
        "als.floor_epsilon = 0\n",
        "als.floor_epsilon must be positive, got 0.0",
    ),
    "smoothing_range": (
        "gen.smoothing = -0.5\n",
        "gen.smoothing must be >= 0, got -0.5",
    ),
    "alpha_mode_choice": (
        "ppai.alpha_mode = best\n",
        "ppai.alpha_mode must be fixed, hit_rate or grid_search, got 'best'",
    ),
    "log_base_choice": ("als.log_base = 10\n", "als.log_base must be e, got '10'"),
    "transform_choice": (
        "combine.score_transform = zscore\n",
        "combine.score_transform must be raw, standardized or rank, got 'zscore'",
    ),
    "fixed_without_alpha": (
        "measures = ppai\nppai.alpha_mode = fixed\n",
        "ppai.alpha_mode is 'fixed' but ppai.alpha is not set",
    ),
    "grid_search_without_target": (
        "measures = hit_rate,ppai\nppai.alpha_mode = grid_search\n",
        "ppai.alpha_mode is 'grid_search' but ppai.target_coverage is not set",
    ),
    "partial_utilities": (
        "eu.u_tp = 1\neu.u_tn = 0.5\n",
        "utilities are all-or-nothing; missing eu.u_fp, eu.u_fn",
    ),
    "unknown_weight_measure": ("weights.f1 = 1\n", "weights.f1: unknown measure 'f1'"),
    "unknown_orientation_measure": (
        "orientation.f1 = higher\n",
        "orientation.f1: unknown measure 'f1'",
    ),
    "weight_not_a_number": (
        "weights.pai = lots\n",
        "weights.pai: not a number: 'lots'",
    ),
    "weights_sum": (
        "weights.hit_rate = 0.7\nweights.pai = 0.4\n",
        "weights: weights sum to 1.1, not 1",
    ),
    "bad_orientation": (
        "orientation.pai = sideways\n",
        "orientation.pai: expected higher or lower, got 'sideways'",
    ),
    "gen_spec": ("gen.cells = 3\ngen.weights = 1,2\n", "gen: 3 cells but 2 weights"),
    "gen_spec_periods": (
        "gen.periods = 0\n",
        "gen: n_periods must be positive, got 0",
    ),
    "gen_top_k": ("gen.cells = 5\ngen.top_k = 9\n", "gen.top_k must lie in [1, 5], got 9"),
    "gen_top_k_default_cells": (
        "gen.top_k = 0\n",
        "gen.top_k must lie in [1, 100], got 0",
    ),
    "unknown_keys_strict": (
        "no_such_key = 1\nmeasures = pai\nalso.unknown = x\n",
        "unknown config keys: also.unknown, no_such_key",
    ),
    "family_name_without_measure": (
        "weights = 1\norientation = higher\n",
        "unknown config keys: orientation, weights",
    ),
}

#: Run configurations of the benchmark workloads (perfbench/workloads.py),
#: with a short list standing in for the drawn generator weights.
BENCHMARK_CONFIGS = {
    "compare-selections": (
        "measures = accuracy,coverage,fpr,hit_rate,npv,pai,ppai,precision,"
        "sensitivity,ser,specificity\n"
        "eu.u_tp = 1.0\neu.u_fp = -0.25\neu.u_tn = 0.05\neu.u_fn = -1.0\n"
    ),
    "evaluate-surfaces": (
        f"measures = {','.join(MEASURE_IDS)}\n"
        "als.floor = on\nals.floor_epsilon = 1e-12\n"
    ),
    "gen": (
        "gen.cells = 4\ngen.periods = 13\ngen.events_per_period = 2000\n"
        "gen.seed = 1\ngen.weights = 1.5,2.25,1.0000000000000002,7.0\n"
    ),
}


def write(tmp_path, text, name="run.conf"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("name", sorted(SINGLE_FAULTS))
def test_single_fault_message(tmp_path, name):
    text, message = SINGLE_FAULTS[name]
    path = write(tmp_path, text)
    with pytest.raises(IngestError) as info:
        load_config(path)
    assert str(info.value) == f"{path}: {message}"


def test_lenient_mode_lists_ignored_keys(tmp_path):
    path = write(tmp_path, "strict = off\nno_such_key = 1\nals.nope = 2\n")
    assert load_config(path).ignored_keys == ("als.nope", "no_such_key")
    lenient = load_config(write(tmp_path, "no_such_key = 1\n"), cli_strict=False)
    assert lenient.ignored_keys == ("no_such_key",)
    assert load_config(write(tmp_path, "")).ignored_keys == ()


@pytest.mark.parametrize(
    "text",
    [*GOLDEN_CONFIGS.values(), GEN_CONF, *BENCHMARK_CONFIGS.values()],
    ids=[*GOLDEN_CONFIGS, "golden_gen", *BENCHMARK_CONFIGS],
)
def test_config_echo_is_a_fixed_point(tmp_path, text):
    """The [config] pairs, written back as a config file, load to themselves."""
    config = load_config(write(tmp_path, text))
    pairs = config.to_pairs()
    echoed = "".join(f"{k} = {v}\n" for k, v in pairs)
    again = load_config(write(tmp_path, echoed, "echo.conf"))
    assert again.to_pairs() == pairs
    assert again == config


def readme_config_rows():
    """(key, default) for each row of the README's configuration table."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].startswith("`"):
            rows.append((cells[0].strip("`"), cells[1]))
    return rows


def test_readme_table_lists_exactly_the_schema_keys():
    keys = [key for key, _ in readme_config_rows()]
    families = {"weights.<measure>", "orientation.<measure>"}
    assert len(keys) == len(set(keys))
    assert {row.key for row in CONFIG_SCHEMA} == set(keys) - families
    assert families <= set(keys)


def test_readme_input_table_lists_exactly_the_headers():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Input files", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[1].startswith("`"):
            rows.append((cells[0], tuple(cells[1].strip("`").split(","))))
    assert rows == list(HEADERS.items())


def test_readme_measure_table_lists_exactly_the_measures():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Measures", 1)[1].split("\n## ", 1)[0]
    ids = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`"):
            ids.append(cells[0].strip("`"))
    assert sorted(ids) == sorted(MEASURE_IDS)


def test_readme_defaults_are_what_the_report_echoes(tmp_path):
    # gen.* keys are echoed only with a generator; gen.top_k = 1 makes one
    # while leaving every other gen.* key at its default.
    echoed = dict(load_config(write(tmp_path, "")).to_pairs())
    echoed_gen = dict(load_config(write(tmp_path, "gen.top_k = 1\n")).to_pairs())
    checked = 0
    for key, default in readme_config_rows():
        literal = re.fullmatch(r"`([^`]*)`", default)
        if literal is None or key.endswith("<measure>"):
            continue  # no default, or one derived from other settings
        pairs = echoed_gen if key.startswith("gen.") else echoed
        assert pairs[key] == literal.group(1), key
        checked += 1
    assert checked >= 12
