"""Batch command-line front end.

Four subcommands:

* ``evaluate`` — all requested measures per model per period, with
  mean/std summaries across periods.
* ``compare`` — adds measure combination (expected utility or weighted
  sums) and pairwise Wilcoxon signed-rank tests with Bonferroni-adjusted
  p-values.
* ``optimize-alpha`` — the PPAI penalty grid search over a pre-aggregated
  units table.
* ``gen`` — seeded synthetic dataset generation in the ingest formats.

Reports are deterministic: the same inputs, configuration and tool version
always produce the same bytes. Exit status is 0 exactly when a full report
was produced.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import math
import os
import sys
from typing import Iterable, NamedTuple, Optional, Sequence

from . import __version__, combine, metrics, stats, synth
from .alpha_search import (
    DEFAULT_GRID_STEP,
    _columns_of,
    _ordered,
    _prefix_sums,
    _search,
)
from .domain import PeriodId, _PeriodCounts
from .errors import (
    AlphaSearchError,
    DegenerateScoresError,
    GridscoreError,
    IngestError,
    ValidationError,
    ZeroMassError,
)
from .ingest import (
    HEADERS,
    Dataset,
    RunConfig,
    _os_errors,
    _unit_columns,
    atomic_open,
    load_config,
    load_dataset,
    staged_files,
    write_cells,
    write_events,
    write_selections,
    write_surfaces,
)
from .metrics import MEASURES, UNIT_MEASURES
from .report import FORMAT_VERSION, Report, Value


def _dataset_inputs(dataset: Dataset) -> list[tuple[str, Value]]:
    inputs: list[tuple[str, Value]] = [
        ("models", dataset.models()),
        ("periods", dataset.periods()),
    ]
    if dataset.grid is not None:
        inputs.append(("n_cells", len(dataset.grid.cell_ids)))
        inputs.append(("total_area_km2", dataset.grid.total_area_km2))
    if dataset.events is not None:
        inputs.append(("n_events", len(dataset.events)))
        inputs.append(("n_rejected_rows", len(dataset.rejected)))
    if dataset.units is not None:
        inputs.append(("n_units", len(dataset.units)))
    return inputs


def _ignored_keys(config: RunConfig) -> list[str]:
    return [f"config key {key} ignored (unknown)" for key in config.ignored_keys]


def _alpha_search(
    ids: Iterable[str],
    areas: Iterable[float],
    crimes: Iterable[float],
    target: float,
    grid_step: float,
    report: Report,
) -> tuple[tuple[str, ...], list[float], list[float], float]:
    """Run the PPAI alpha grid search over the units' columns; fill the
    [alpha] section. Return the unit ids in search order, each level's
    cumulative area and crime share, and alpha_star.

    The units are shares of one region, as their loader checks.
    """
    ids, areas, crimes, _ = _ordered(ids, areas, crimes)
    cum_areas, cum_crimes = _prefix_sums(areas), _prefix_sums(crimes)
    alpha_star, (lo, hi), target_idx, _ = _search(
        cum_areas, cum_crimes, range(1, len(ids) + 1), target, grid_step
    )
    report.alpha_info = [
        ("alpha_star", alpha_star),
        ("valid_range_high", hi),
        ("valid_range_low", lo),
        ("target_prefix_len", target_idx + 1),
        ("target_cum_area", cum_areas[target_idx]),
        ("target_cum_crime", cum_crimes[target_idx]),
    ]
    return ids, cum_areas, cum_crimes, alpha_star


def _resolve_global_alpha(
    config: RunConfig, dataset: Dataset, report: Report
) -> Optional[float]:
    """The alpha applying to every PPAI row, or None for per-row n/N."""
    if "ppai" not in config.measures:
        return None
    if config.alpha_mode == "fixed":
        return config.alpha
    if config.alpha_mode == "hit_rate":
        return None  # resolved per model and period, to that row's n/N
    # grid_search: needs the pre-aggregated units table to define levels.
    if not dataset.units:
        raise ValidationError(
            "ppai.alpha_mode = grid_search needs a units file to define "
            "the cumulative levels"
        )
    *_, alpha_star = _alpha_search(
        *_columns_of(dataset.units), config.target_coverage, config.grid_step, report
    )
    return alpha_star


class _UnitTally(NamedTuple):
    """Units mode's tally: crime and area shares summed over flagged units."""

    hit_rate: float
    coverage: float


def _measure_rows(
    dataset: Dataset,
    config: RunConfig,
    report: Report,
    global_alpha: Optional[float],
    utilities: Optional[combine.UtilitySpec],
) -> None:
    """Score each (model, period) from one tally: the selection measures,
    the expected utility when ``utilities`` is given, and the ALS. A
    period's events are counted once, on its first use, and that count is
    shared by every model's tally of the period."""
    if dataset.grid is None:
        if utilities is not None:
            raise ValidationError(
                "expected utility needs cell-level data (a contingency "
                "table), not a pre-aggregated units table"
            )
        bad = [m for m in config.measures if m not in UNIT_MEASURES]
        if bad:
            raise ValidationError(
                f"measures {', '.join(bad)} need cell-level data; a units-only "
                f"dataset supports {', '.join(UNIT_MEASURES)}"
            )
        units = dataset.units_by_id()
    elif dataset.events is None:
        raise ValidationError("cell-level evaluation needs an events file")
    scored = [m for m in config.measures if MEASURES[m].formula is not None]
    floor = config.als_floor_epsilon if config.als_floor_enabled else None
    period_counts: dict[PeriodId, _PeriodCounts] = {}
    for model in dataset.models():
        selections = dataset.selections.get(model, {})
        surfaces = dataset.surfaces.get(model, {})
        for period in sorted(set(selections) | set(surfaces)):
            where = f"model {model} period {period}"
            selection = selections.get(period)
            if dataset.grid is None:
                # load_units refused a table summing above 1, and a loaded
                # selection is a non-empty subset of it: neither call raises.
                chosen = [units[uid] for uid in selection.flagged]
                tally = _UnitTally(metrics.hit_rate(chosen), metrics.coverage(chosen))
            else:
                flagged = frozenset() if selection is None else selection.flagged
                if period not in period_counts:
                    period_counts[period] = _PeriodCounts.of(
                        dataset.grid, dataset.events.counts_by_cell(period)
                    )
                tally = period_counts[period].tally(flagged)
            rows: list[tuple[str, Optional[float]]] = []
            if selection is not None:
                if scored and tally.hit_rate is None:
                    report.warnings.append(
                        f"{where}: no events, event-level rates undefined"
                    )
                alpha = tally.hit_rate if global_alpha is None else global_alpha
                rows += [(m, MEASURES[m].formula(tally, alpha)) for m in scored]
            if selection is not None and utilities is not None:
                try:
                    rates = combine.conditional_rates(tally.table)
                except ValidationError as exc:
                    report.warnings.append(
                        f"{where}: expected utility undefined ({exc})"
                    )
                    rows.append(("expected_utility", None))
                else:
                    value = combine.expected_utility(rates, utilities)
                    rows.append(("expected_utility", value))
            if "als" in config.measures and period in surfaces:
                restrict = selection if config.als_restrict_to_hotspots else None
                if config.als_restrict_to_hotspots and selection is None:
                    report.warnings.append(
                        f"{where}: als restriction requested but model has "
                        f"no selection here"
                    )
                in_scope = tally.n_events if restrict is None else tally.hits
                if in_scope:
                    try:
                        value = metrics.als(
                            surfaces[period], dataset.events, period, restrict, floor
                        )
                    except ZeroMassError as exc:
                        raise GridscoreError(f"model {model!r}: {exc}") from exc
                else:
                    value = None
                    report.warnings.append(
                        f"{where}: no events in scope, als undefined"
                    )
                rows.append(("als", value))
            for measure, value in rows:
                if value is not None and not math.isfinite(value):
                    raise ValidationError(
                        f"{where}: {measure} overflows the float range ({value!r})"
                    )
                report.measure_rows.append((model, period, measure, value))


#: measure → model → period → value, over the defined measure rows.
_Series = dict[str, dict[str, dict[PeriodId, float]]]
#: measure → model → mean over periods.
_Means = dict[str, dict[str, float]]


def _collect_series(report: Report) -> _Series:
    series: _Series = {}
    for model, period, measure, value in report.measure_rows:
        if value is not None:
            series.setdefault(measure, {}).setdefault(model, {})[period] = value
    return series


def _summary_rows(report: Report, series: _Series) -> _Means:
    """Fill [summary] from ``series`` and return the means."""
    means: _Means = {}
    for measure, by_model in series.items():
        for model, by_period in by_model.items():
            values = tuple(sorted(by_period.items()))
            ps = stats.PeriodSeries(measure, model, values)
            mean, std = stats.summarize(ps)
            report.summary_rows.append((model, measure, mean, std))
            means.setdefault(measure, {})[model] = mean
    return means


def _weighted_sums(
    config: RunConfig, means: _Means, eligible: list[str]
) -> dict[str, float]:
    """Each eligible model's weighted sum of its transformed measure means."""
    table: dict[str, dict[str, float]] = {}
    for measure in sorted(config.weights.weights):
        scores = {m: means[measure][m] for m in eligible}
        lower = config.orientations.get(measure, "higher") == "lower"
        if config.score_transform == "raw":
            if lower:
                raise ValidationError(
                    f"measure {measure!r} is lower-is-better; raw "
                    f"weighted sums would reward the wrong direction — "
                    f"use the standardized or rank transform"
                )
            table[measure] = scores
        elif config.score_transform == "standardized":
            try:
                z = combine.standardize(scores)
            except DegenerateScoresError as exc:
                raise GridscoreError(f"measure {measure!r}: {exc}") from exc
            table[measure] = {m: -v for m, v in z.items()} if lower else z
        else:  # rank
            table[measure] = combine.rank_models(scores, higher_is_better=not lower)
    return combine.weighted_aggregate(table, config.weights)


def _combined_rows(
    dataset: Dataset, config: RunConfig, report: Report, means: _Means
) -> None:
    """Rank the models into [combined] by the config's rule. A model is
    eligible when every measure of the rule has a mean for it; every other
    model is named under [warnings]."""
    weighted = config.utilities is None and config.weights is not None
    if config.utilities is not None:
        measures = ["expected_utility"]
        rule = "expected_utility(mean over periods)"
        too_few = (
            "expected-utility ranking needs at least two models with a "
            "defined expected utility"
        )
        reason = "no expected utility"
    elif weighted:
        measures = sorted(config.weights.weights)
        rule = f"weighted_sum({config.score_transform})"
        too_few = (
            f"weighted ranking needs at least two models with every "
            f"weighted measure defined ({', '.join(measures)})"
        )
        reason = "missing a weighted measure"
    else:
        # Neither utilities nor weights: rank on the first requested
        # measure's mean, so compare always states a full ordering.
        measures = [config.measures[0]]
        rule = f"rank_by_mean({measures[0]})"
        too_few = (
            f"fallback ranking on {measures[0]!r} needs at least two models "
            f"with a defined value"
        )
        reason = f"no defined {measures[0]}"
    models = set(dataset.models())
    eligible = sorted(models.intersection(*(means.get(m, {}) for m in measures)))
    if len(eligible) < 2:
        raise ValidationError(too_few)
    for model in models.difference(eligible):
        report.warnings.append(
            f"model {model}: excluded from combined ranking ({reason})"
        )
    if weighted:
        scores = _weighted_sums(config, means, eligible)
        # Weighted ranks: small is good. Raw/standardized sums: big is good.
        higher_is_better = config.score_transform != "rank"
    else:
        scores = {model: means[measures[0]][model] for model in eligible}
        higher_is_better = config.orientations.get(measures[0], "higher") == "higher"
    ranks = combine.rank_models(scores, higher_is_better)
    report.combined_rule = rule
    report.combined_rows = [(m, score, ranks[m]) for m, score in scores.items()]


def _wsr_rows(
    dataset: Dataset, config: RunConfig, report: Report, series: _Series
) -> None:
    models = dataset.models()
    measures = list(config.measures)
    if config.utilities is not None:
        measures.append("expected_utility")
    skipped: set[tuple[str, str]] = set()
    for measure in measures:
        by_model = series.get(measure, {})
        tested = []
        for i, model_a in enumerate(models):
            a = by_model.get(model_a, {})
            for model_b in models[i + 1 :]:
                b = by_model.get(model_b, {})
                shared = sorted(a.keys() & b.keys())
                if not shared:
                    skipped.add((model_a, model_b))
                    continue
                pairs = [(a[p], b[p]) for p in shared]
                result = stats.wilcoxon_signed_rank(pairs)
                tested.append((model_a, model_b, result))
        adjusted = stats.bonferroni([r.p_value for _, _, r in tested])
        for (model_a, model_b, result), p_adj in zip(tested, adjusted):
            report.wsr_rows.append(
                (
                    measure,
                    model_a,
                    model_b,
                    result.n_used,
                    result.w_plus,
                    result.method,
                    result.p_value,
                    p_adj,
                )
            )
    for model_a, model_b in skipped:
        report.warnings.append(
            f"wsr skipped for {model_a}/{model_b}: no shared periods with "
            f"defined values"
        )


def _load_run(args) -> tuple[Dataset, RunConfig]:
    # --strict and --lenient are mutually exclusive; neither defers to the file.
    cli_strict = args.strict if args.strict or args.lenient else None
    if args.config is not None:
        config = load_config(args.config, cli_strict=cli_strict)
    else:
        config = RunConfig() if cli_strict is None else RunConfig(strict=cli_strict)
    dataset = load_dataset(
        **{kind: getattr(args, kind) for kind in HEADERS},
        strict=config.strict,
        renormalize_surfaces=args.renormalize_surfaces,
    )
    return dataset, config


def _scored_report(args, command: str) -> tuple[Dataset, RunConfig, Report]:
    """Load a run and fill in what evaluate and compare share, up to the
    per-(model, period) measure rows; compare also scores expected utility."""
    dataset, config = _load_run(args)
    if command == "compare" and len(dataset.models()) < 2:
        raise ValidationError(
            f"compare needs at least two models, found {len(dataset.models())}"
        )
    report = Report(command=command)
    report.config_pairs = config.to_pairs()
    report.inputs = _dataset_inputs(dataset)
    report.warnings += _ignored_keys(config)
    if dataset.rejected:
        report.warnings.append(
            f"{len(dataset.rejected)} event rows dropped (unknown cells)"
        )
    if args.renormalize_surfaces and dataset.surfaces:
        report.warnings.append(
            "surface masses renormalized to sum to 1 (--renormalize-surfaces)"
        )
    global_alpha = _resolve_global_alpha(config, dataset, report)
    utilities = config.utilities if command == "compare" else None
    _measure_rows(dataset, config, report, global_alpha, utilities)
    return dataset, config, report


def cmd_evaluate(args) -> Report:
    _, _, report = _scored_report(args, "evaluate")
    if not report.measure_rows:
        raise ValidationError(
            "nothing to compute: no model has inputs for any requested measure"
        )
    _summary_rows(report, _collect_series(report))
    return report


def cmd_compare(args) -> Report:
    dataset, config, report = _scored_report(args, "compare")
    series = _collect_series(report)
    means = _summary_rows(report, series)
    _combined_rows(dataset, config, report, means)
    _wsr_rows(dataset, config, report, series)
    return report


def cmd_optimize_alpha(args) -> Report:
    units = _unit_columns(args.units)
    report = Report(command="optimize-alpha")
    ids, cum_areas, cum_crimes, alpha_star = _alpha_search(
        *units, args.target, args.grid_step, report
    )
    report.config_pairs = [
        ("ppai.grid_step", args.grid_step),
        ("ppai.target_coverage", args.target),
    ]
    report.inputs = [("n_units", len(ids))]
    ppais = list(map(metrics.ppai, cum_crimes, cum_areas, itertools.repeat(alpha_star)))
    if not all(map(math.isfinite, ppais)):
        level = next(i for i, value in enumerate(ppais) if not math.isfinite(value))
        raise ValidationError(
            f"level {level + 1} (unit {ids[level]!r}): ppai_at_alpha_star overflows "
            f"the float range ({ppais[level]!r})"
        )
    report.level_rows = list(zip(range(1, len(ids) + 1), ids, cum_areas, cum_crimes, ppais))
    return report


def cmd_gen(args) -> Report:
    config = load_config(args.config)
    if config.generator is None:
        raise ValidationError(
            "gen needs a gen.* section in the config (at least one gen key)"
        )
    spec = config.generator
    if args.seed is not None:
        spec = spec._replace(seed=args.seed)
    if spec.n_periods < 2:
        raise ValidationError(
            "gen needs at least two periods: the baselines train on each "
            "period and predict the next"
        )
    try:
        grid = synth.make_grid(spec)
    except ValidationError as exc:
        raise IngestError(args.config, f"gen: {exc}") from exc
    events = synth.generate_events(spec)

    selections: dict[str, dict[str, object]] = {"top_k": {}}
    surfaces: dict[str, dict[str, object]] = {"empirical": {}, "uniform": {}}
    periods = spec.period_ids()
    for prev, period in zip(periods, periods[1:]):
        train = events._only(prev)
        selections["top_k"][period] = synth.top_k_baseline(
            train, grid, config.gen_top_k, period
        )
        try:
            surfaces["empirical"][period] = synth.empirical_surface(
                train, grid, period, smoothing=config.gen_smoothing
            )
        except ValidationError as exc:
            reason = f"gen: surface empirical/{period}: {exc}"
            raise IngestError(args.config, reason) from exc
        surfaces["uniform"][period] = synth.uniform_surface(grid, period)

    with _os_errors(args.out_dir, "write"):
        os.makedirs(args.out_dir, exist_ok=True)
    writers = {
        "cells.csv": lambda p: write_cells(p, grid),
        "events.csv": lambda p: write_events(p, events),
        "selections.csv": lambda p: write_selections(p, selections),
        "surfaces.csv": lambda p: write_surfaces(p, surfaces),
    }
    with staged_files(args.out_dir, sorted(writers)) as staged:
        for name, path in staged.items():
            writers[name](path)

    report = Report(command="gen")
    report.config_pairs = [
        (k, v)
        for k, v in config._replace(generator=spec).to_pairs()
        if k.startswith("gen.")
    ]
    report.inputs = [
        ("n_cells", spec.n_cells),
        ("n_events", len(events)),
        ("n_periods", spec.n_periods),
        ("seed", spec.seed),
    ]
    report.warnings += _ignored_keys(config)
    report.generated_files = list(writers)
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridscore",
        description="Scoring and comparison of gridded hotspot forecasts.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"gridscore {__version__} (report format {FORMAT_VERSION})",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_io(p):
        for kind, header in HEADERS.items():
            p.add_argument(f"--{kind}", help=f"{kind} file ({','.join(header)})")
        p.add_argument("--config", help="run configuration (key = value lines)")
        p.add_argument(
            "--renormalize-surfaces",
            action="store_true",
            help="rescale surface masses to sum to 1 instead of erroring",
        )
        mode = p.add_mutually_exclusive_group()
        mode.add_argument(
            "--strict",
            action="store_true",
            help="reject any invalid row (default)",
        )
        mode.add_argument(
            "--lenient",
            action="store_true",
            help="drop and count event rows whose cell is not in the grid, "
            "and ignore unknown config keys (listed under [warnings]), "
            "instead of failing",
        )
        p.add_argument("--out", help="write the report here instead of stdout")

    p_eval = sub.add_parser("evaluate", help="score each model per period")
    add_io(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_cmp = sub.add_parser(
        "compare", help="combine measures and test model differences"
    )
    add_io(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_opt = sub.add_parser(
        "optimize-alpha", help="grid-search the PPAI penalty exponent"
    )
    p_opt.add_argument("--units", required=True, help="units file")
    p_opt.add_argument(
        "--target",
        required=True,
        type=float,
        help="desired cumulative coverage, a fraction in (0, 1)",
    )
    p_opt.add_argument(
        "--grid-step", type=float, default=DEFAULT_GRID_STEP, help="alpha grid spacing"
    )
    p_opt.add_argument("--out", help="write the report here instead of stdout")
    p_opt.set_defaults(func=cmd_optimize_alpha)

    p_gen = sub.add_parser("gen", help="generate a seeded synthetic dataset")
    p_gen.add_argument("--config", required=True, help="config with a gen.* section")
    p_gen.add_argument("--out-dir", required=True, help="directory for the files")
    p_gen.add_argument(
        "--seed", type=int, help="override gen.seed from the config"
    )
    p_gen.add_argument("--out", help="write the report here instead of stdout")
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; return 0 when a full report was written, else 1.

    The cyclic garbage collector is paused from the parsed arguments to the
    return, because a run builds no reference cycles: every object it makes
    is freed by reference counting alone, and the collector would only walk
    them. ``tests/test_gc_pause.py`` enforces that premise. The collector
    is enabled again on the way out if the caller had it enabled, so calls
    into the library outside ``main`` keep the caller's GC settings.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        text = args.func(args).render()
        if args.out:
            with atomic_open(args.out) as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except AlphaSearchError as exc:
        print(f"gridscore: error: {exc}", file=sys.stderr)
        for alpha, peak in exc.diagnostics[:12]:
            print(f"  alpha {alpha!r} peaked at level {peak}", file=sys.stderr)
        if len(exc.diagnostics) > 12:
            print(f"  ... {len(exc.diagnostics) - 12} more", file=sys.stderr)
        return 1
    except GridscoreError as exc:
        print(f"gridscore: error: {exc}", file=sys.stderr)
        return 1
    finally:
        if gc_was_enabled:
            gc.enable()
    return 0


def run() -> None:
    """The program entry: :func:`main`, then exit with its code.

    Before exiting it moves every object to the collector's permanent
    generation, so the interpreter's shutdown collection walks none of
    them: a run leaves nothing for it to free (see :func:`main`), and the
    walk cost more than the rest of exiting. Library callers and tests
    call :func:`main` and keep their own collector state.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
