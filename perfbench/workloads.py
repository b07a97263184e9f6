"""The benchmark's workloads: seeded inputs, the scoring command, the oracle.

Every workload turns the benchmark seed into input files in three steps:

1. ``draw`` makes the benchmark's own random choices (cell weights, the
   random model, unit areas). It is not timed.
2. ``build`` writes the files through the program: a ``gridscore gen`` run
   plus the ``gridscore.ingest.write_*`` writers and the ``synth``
   baselines. Only these program calls are timed, into ``setup_s``; the
   benchmark's own reading of gen's output in between is not.
3. ``build`` returns the CLI arguments that score the files, and ``check``
   runs the workload's oracle on a report.

The program receives only the generated files. Program calls go through
module attributes (``ingest.write_units``, ``synth.top_k_baseline``) so
that a traced run sees them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

from gridscore import domain, ingest, metrics, synth

import oracles

#: Runs ``gridscore <args>``; raises if the program fails.
GenRunner = Callable[[list[str]], None]


class Clock:
    """Adds up the time spent inside ``with clock:`` blocks."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def __enter__(self) -> "Clock":
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds += perf_counter() - self._start


def pareto_weights(rng: random.Random, n: int) -> list[float]:
    """Heavy-tailed cell propensities, so a few cells draw most events."""
    return [rng.paretovariate(1.5) for _ in range(n)]


def gen_config(cells: int, periods: int, events_per_period: int, seed: int,
               weights: list[float]) -> str:
    return (
        f"gen.cells = {cells}\n"
        f"gen.periods = {periods}\n"
        f"gen.events_per_period = {events_per_period}\n"
        f"gen.seed = {seed}\n"
        f"gen.weights = {','.join(repr(w) for w in weights)}\n"
    )


def run_gen(directory: Path, config: str, gen: GenRunner, clock: Clock) -> None:
    """Write the gen config (untimed), then run ``gridscore gen`` (timed)."""
    conf = directory / "gen.conf"
    conf.write_text(config, encoding="utf-8")
    with clock:
        gen(["gen", "--config", str(conf), "--out-dir", str(directory),
             "--out", str(directory / "gen-report.txt")])


def read_events(directory: Path) -> dict[str, list[tuple[str, str]]]:
    """period → [(event_id, cell_id)], read by the benchmark itself."""
    by_period: dict[str, list[tuple[str, str]]] = {}
    for event_id, cell_id, period in oracles.read_csv(directory / "events.csv"):
        by_period.setdefault(period, []).append((event_id, cell_id))
    return by_period


def read_cell_ids(directory: Path) -> list[str]:
    return [cell_id for cell_id, _ in oracles.read_csv(directory / "cells.csv")]


@dataclass(frozen=True)
class CompareSelections:
    # Per-period event scans in domain and metrics do most of the work here:
    # every (model, period) runs contingency twice (the measures and expected
    # utility) and in_period twice (hit rate and the inline SER count).
    # Loading 100k events is most of the rest; combine and stats also run;
    # there are no surfaces and no alpha search. 24 scored periods keep WSR
    # on its exact path, whose limit is 25.
    name: str = "compare-selections"
    why: str = ("compare, 6 models x 24 periods on 5000 cells and 100k events: "
                "per-period event scans, event loading, expected utility and WSR")
    cells: int = 5000
    periods: int = 25
    events_per_period: int = 4000
    top_ks: tuple[int, ...] = (50, 100, 250, 500, 1000)
    random_k: int = 50
    measures: tuple[str, ...] = (
        "accuracy", "coverage", "fpr", "hit_rate", "npv", "pai", "ppai",
        "precision", "sensitivity", "ser", "specificity",
    )

    def draw(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}/{seed}")
        return {
            "seed": seed,
            "weights": pareto_weights(rng, self.cells),
            # One draw per scored period, as indices into the sorted cell ids.
            "random": [rng.sample(range(self.cells), self.random_k)
                       for _ in range(self.periods - 1)],
        }

    def build(self, directory: Path, draws: dict, gen: GenRunner, clock: Clock) -> list[str]:
        config = gen_config(self.cells, self.periods, self.events_per_period,
                            draws["seed"], draws["weights"])
        run_gen(directory, config, gen, clock)
        events = read_events(directory)
        cell_ids = sorted(read_cell_ids(directory))
        periods = sorted(events)
        with clock:
            grid = domain.GridSpec(tuple(domain.Cell(c, 1.0) for c in cell_ids))
            models: dict[str, dict] = {f"top{k:04d}": {} for k in self.top_ks}
            models[f"rand{self.random_k:04d}"] = {}
            for i, (prev, period) in enumerate(zip(periods, periods[1:])):
                train = domain.EventSet(
                    tuple(domain.Event(e, c, prev) for e, c in events[prev])
                )
                for k in self.top_ks:
                    models[f"top{k:04d}"][period] = synth.top_k_baseline(train, grid, k, period)
                picked = frozenset(cell_ids[j] for j in draws["random"][i])
                models[f"rand{self.random_k:04d}"][period] = domain.HotspotSelection(
                    period, picked
                )
            ingest.write_selections(str(directory / "models.csv"), models)
        conf = directory / "run.conf"
        conf.write_text(
            f"measures = {','.join(self.measures)}\n"
            "eu.u_tp = 1.0\neu.u_fp = -0.25\neu.u_tn = 0.05\neu.u_fn = -1.0\n",
            encoding="utf-8",
        )
        return ["compare", "--cells", str(directory / "cells.csv"),
                "--events", str(directory / "events.csv"),
                "--selections", str(directory / "models.csv"),
                "--config", str(conf)]

    def check(self, directory: Path, report: str) -> list[str]:
        return oracles.check_compare(directory, report, self.measures)


@dataclass(frozen=True)
class EvaluateSurfaces:
    # Loading is nearly the whole run: load_surfaces rebuilds the grid's
    # cell-id set once per surface row (48k rows), so ingest dominates while
    # stats and combine do not run and the event scans are small.
    name: str = "evaluate-surfaces"
    why: str = ("evaluate all 12 measures on gen's own output, 2000 cells and 48k "
                "surface rows: surface loading dominates, ALS scores every event")
    cells: int = 2000
    periods: int = 13
    events_per_period: int = 2000
    floor: float = 1e-12

    def draw(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}/{seed}")
        return {"seed": seed, "weights": pareto_weights(rng, self.cells)}

    def build(self, directory: Path, draws: dict, gen: GenRunner, clock: Clock) -> list[str]:
        config = gen_config(self.cells, self.periods, self.events_per_period,
                            draws["seed"], draws["weights"])
        run_gen(directory, config, gen, clock)
        conf = directory / "run.conf"
        conf.write_text(
            "measures = " + ",".join(ingest.MEASURE_IDS) + "\n"
            f"als.floor = on\nals.floor_epsilon = {self.floor!r}\n",
            encoding="utf-8",
        )
        return ["evaluate", "--cells", str(directory / "cells.csv"),
                "--events", str(directory / "events.csv"),
                "--selections", str(directory / "selections.csv"),
                "--surfaces", str(directory / "surfaces.csv"),
                "--config", str(conf)]

    def check(self, directory: Path, report: str) -> list[str]:
        return oracles.check_evaluate(directory, report, self.floor)


def choose_target(units: list[tuple[str, float, float]]) -> float:
    """A coverage target whose level is the unique PPAI peak for some alpha.

    Levels are the prefixes of the (id, area, crime) units in the search's
    order. For every alpha of the search's default grid (0.01 to 0.99 in
    steps of 0.01) the unique PPAI peak is found; the level that peaks for
    the most alphas becomes the target, and the target coverage is placed
    halfway between its cumulative area and the next level's.
    """
    levels = oracles.exact_levels(units)
    areas = [area for _, area, _ in levels]
    crimes = [crime for _, _, crime in levels]
    votes: dict[int, int] = {}
    for k in range(99):
        alpha = round(0.01 + k * 0.01, 12)
        scores = [c / a**alpha for a, c in zip(areas, crimes)]
        best = max(scores)
        peaks = [i for i, s in enumerate(scores) if s == best]
        # The whole region, the last level, cannot lie below a target.
        if len(peaks) == 1 and peaks[0] + 1 < len(areas):
            votes[peaks[0]] = votes.get(peaks[0], 0) + 1
    if not votes:
        raise ValueError("no alpha on the grid has a unique PPAI peak below the whole region")
    level = min(votes, key=lambda i: (-votes[i], i))
    return (areas[level] + areas[level + 1]) / 2


@dataclass(frozen=True)
class AlphaUnits:
    # No grid and no events reach the scorer: the quadratic prefix sums of
    # cumulative_levels and the per-alpha scan of optimal_alpha dominate,
    # and report renders one [levels] row per unit. The hot cluster of
    # small units is required: on uniformly random units PPAI peaks at the
    # full region and the search has no valid alpha.
    name: str = "alpha-units"
    why: str = ("optimize-alpha over 6000 units whose smallest 5% carry 10x the "
                "crime density: cumulative levels and the alpha grid search dominate")
    units: int = 6000
    hot_share: float = 0.05
    hot_density: float = 10.0
    periods: int = 2
    events_per_period: int = 30000

    def draw(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}/{seed}")
        hot = set(rng.sample(range(self.units), int(self.units * self.hot_share)))
        # Hot units are all smaller than the rest, so they lead the order.
        sizes = [rng.uniform(0.5, 1.0) if i in hot else rng.uniform(1.0, 3.0)
                 for i in range(self.units)]
        weights = [s * (self.hot_density if i in hot else 1.0) for i, s in enumerate(sizes)]
        return {"seed": seed, "sizes": sizes, "weights": weights}

    def build(self, directory: Path, draws: dict, gen: GenRunner, clock: Clock) -> list[str]:
        # The units' crime shares are gen's event counts per cell; each
        # cell becomes one unit with its drawn share of the area.
        config = gen_config(self.units, self.periods, self.events_per_period,
                            draws["seed"], draws["weights"])
        run_gen(directory, config, gen, clock)
        counts: dict[str, int] = {}
        for rows in read_events(directory).values():
            for _, cell_id in rows:
                counts[cell_id] = counts.get(cell_id, 0) + 1
        n_events = sum(counts.values())
        total_size = math.fsum(draws["sizes"])
        rows = [
            (cell_id, size / total_size, counts.get(cell_id, 0) / n_events)
            for cell_id, size in zip(read_cell_ids(directory), draws["sizes"])
        ]
        path = directory / "units.csv"
        with clock:
            units = [metrics.HotspotUnit(*row) for row in rows]
            ingest.write_units(str(path), units)
        # The target comes from the units as written, which round-trip exactly.
        units_read = [(u, float(a), float(c)) for u, a, c in oracles.read_csv(path)]
        return ["optimize-alpha", "--units", str(path),
                "--target", repr(choose_target(units_read))]

    def check(self, directory: Path, report: str) -> list[str]:
        return oracles.check_alpha(directory, report)


WORKLOADS = {w.name: w for w in (CompareSelections(), EvaluateSurfaces(), AlphaUnits())}
