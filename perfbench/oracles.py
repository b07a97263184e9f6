"""Report oracles, written without calling any gridscore function.

Each check reads the raw CSV inputs of a workload, recomputes a few of the
report's numbers by its own arithmetic, and returns a list of problems; an
empty list means the report passed. Exact arithmetic (``fractions``) or
``math.fsum`` is used so that a correct report matches bit for bit, and a
single changed digit in a checked value is a failure.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction
from pathlib import Path

#: Slack the program documents when matching a level against the target.
TARGET_TOL = 1e-12

#: At most this many problems are listed per report.
MAX_PROBLEMS = 20


def read_csv(path: Path) -> list[list[str]]:
    """The data rows of a header-checked CSV file, header dropped."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = [row for row in csv.reader(handle) if row]
    return rows[1:]


def parse_report(text: str) -> dict[str, list[str]]:
    """Section name → its non-blank lines, in order."""
    sections: dict[str, list[str]] = {}
    current = sections.setdefault("", [])
    for line in text.split("\n"):
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], [])
        elif line:
            current.append(line)
    return sections


def _key_values(lines: list[str]) -> dict[str, str]:
    out = {}
    for line in lines:
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def _measure_values(sections: dict[str, list[str]]) -> dict[tuple[str, str, str], str]:
    """(model, period, measure) → value text, from the [measures] table."""
    rows = sections.get("measures", [])[1:]
    out = {}
    for row in rows:
        model, period, measure, value = row.split(",")
        out[(model, period, measure)] = value
    return out


def _events_by_period(directory: Path) -> dict[str, list[str]]:
    """period → the cell of every event in it."""
    by_period: dict[str, list[str]] = {}
    for _, cell_id, period in read_csv(directory / "events.csv"):
        by_period.setdefault(period, []).append(cell_id)
    return by_period


def _compare_value(problems: list[str], where: str, text: str | None, expected: float):
    if text is None:
        problems.append(f"{where}: row missing")
    elif text == "undefined" or float(text) != expected:
        problems.append(f"{where}: report has {text}, oracle has {expected!r}")


def check_compare(directory: Path, report: str, measures: tuple[str, ...]) -> list[str]:
    """hit_rate, coverage and precision of every (model, period), exactly.

    Also checks that every (model, period) carries exactly the requested
    measures plus expected_utility.
    """
    sections = parse_report(report)
    values = _measure_values(sections)
    areas = {cell: Fraction(float(area)) for cell, area in read_csv(directory / "cells.csv")}
    total_area = sum(areas.values())
    events = _events_by_period(directory)
    flagged: dict[tuple[str, str], set[str]] = {}
    for model, period, cell in read_csv(directory / "models.csv"):
        flagged.setdefault((model, period), set()).add(cell)

    problems: list[str] = []
    wanted = set(measures) | {"expected_utility"}
    present: dict[tuple[str, str], set[str]] = {}
    for model, period, measure in values:
        present.setdefault((model, period), set()).add(measure)
    if set(present) != set(flagged):
        problems.append(
            f"[measures] covers {len(present)} (model, period) pairs, "
            f"the inputs define {len(flagged)}"
        )
    for (model, period), cells in sorted(flagged.items()):
        where = f"{model}/{period}"
        if present.get((model, period), set()) != wanted:
            problems.append(f"{where}: measures {sorted(present.get((model, period), ()))}")
        in_period = events.get(period, [])
        hits = sum(1 for cell in in_period if cell in cells)
        _compare_value(
            problems, f"{where} hit_rate",
            values.get((model, period, "hit_rate")), float(Fraction(hits, len(in_period))),
        )
        _compare_value(
            problems, f"{where} coverage",
            values.get((model, period, "coverage")),
            float(sum(areas[c] for c in cells) / total_area),
        )
        hit_cells = set(in_period)
        tp = sum(1 for cell in cells if cell in hit_cells)
        _compare_value(
            problems, f"{where} precision",
            values.get((model, period, "precision")), float(Fraction(tp, len(cells))),
        )
    if not sections.get("wsr"):
        problems.append("[wsr] section missing")
    return problems[:MAX_PROBLEMS]


def check_evaluate(directory: Path, report: str, floor: float) -> list[str]:
    """als of every (model, period): fsum of log(max(mass, floor)) over N."""
    values = _measure_values(parse_report(report))
    events = _events_by_period(directory)
    masses: dict[tuple[str, str], dict[str, float]] = {}
    for model, period, cell, prob in read_csv(directory / "surfaces.csv"):
        masses.setdefault((model, period), {})[cell] = float(prob)

    problems: list[str] = []
    if not masses:
        problems.append("surfaces.csv defines no surfaces")
    for (model, period), mass in sorted(masses.items()):
        cells = events.get(period, [])
        expected = math.fsum(math.log(max(mass[c], floor)) for c in cells) / len(cells)
        _compare_value(
            problems, f"{model}/{period} als", values.get((model, period, "als")), expected
        )
    return problems[:MAX_PROBLEMS]


def exact_levels(units: list[tuple[str, float, float]]) -> list[tuple[str, float, float]]:
    """(unit_id, cum_area, cum_crime) of every prefix of the units.

    Units are (id, area, crime) and are taken in the alpha search's order:
    area ascending, crime descending, then id. Each cumulative sum is exact
    and rounded to a float once.
    """
    levels = []
    cum_area = cum_crime = Fraction(0)
    for unit_id, area, crime in sorted(units, key=lambda u: (u[1], -u[2], u[0])):
        cum_area += Fraction(area)
        cum_crime += Fraction(crime)
        levels.append((unit_id, float(cum_area), float(cum_crime)))
    return levels


def check_alpha(directory: Path, report: str) -> list[str]:
    """Every [levels] row exactly, and alpha_star's unique peak at the target."""
    sections = parse_report(report)
    levels = exact_levels([
        (unit_id, float(area), float(crime))
        for unit_id, area, crime in read_csv(directory / "units.csv")
    ])
    target = float(_key_values(sections.get("config", []))["ppai.target_coverage"])
    alpha = _key_values(sections.get("alpha", [])).get("alpha_star")
    rows = [line.split(",") for line in sections.get("levels", [])[1:]]

    problems: list[str] = []
    if alpha is None:
        return ["[alpha] section has no alpha_star"]
    alpha_star = float(alpha)
    if len(rows) != len(levels):
        problems.append(f"[levels] has {len(rows)} rows for {len(levels)} units")
    target_len = 0
    peak = []
    for i, ((unit_id, area_f, crime_f), row) in enumerate(zip(levels, rows)):
        if area_f <= target + TARGET_TOL:
            target_len = i + 1
        expected = [str(i + 1), unit_id, repr(area_f), repr(crime_f)]
        if row[:4] != expected:
            problems.append(f"[levels] row {i + 1}: {row[:4]} != {expected}")
        score = crime_f / area_f**alpha_star
        if float(row[4]) != score:
            problems.append(f"[levels] row {i + 1}: ppai {row[4]} != {score!r}")
        peak.append(score)
    reported_len = int(_key_values(sections["alpha"]).get("target_prefix_len", "0"))
    if reported_len != target_len:
        problems.append(f"target_prefix_len {reported_len}, oracle has {target_len}")
    elif target_len:
        best = peak[target_len - 1]
        rivals = [s for j, s in enumerate(peak) if j != target_len - 1]
        if rivals and not best > max(rivals):
            problems.append(f"alpha_star {alpha} does not peak uniquely at level {target_len}")
    return problems[:MAX_PROBLEMS]
