"""File formats: loading, cross-validation and (re-)serialization.

All tabular inputs are comma-separated text with a fixed header row:

    cells       cell_id,area_km2
    events      event_id,cell_id,period_id
    selections  model_id,period_id,cell_id      (presence = flagged)
    surfaces    model_id,period_id,cell_id,probability
    units       unit_id,area_fraction,crime_fraction

The run configuration is flat ``key = value`` text with ``#`` comments and
namespaced keys (``ppai.alpha``, ``eu.u_tp``, ``weights.hit_rate``, ...).

Every loader either returns a fully validated object or raises
:class:`IngestError` naming the file, line and problem; nothing partially
constructed ever escapes. Writers emit the exact same formats, and a
load → write → load round trip is the identity on every valid dataset.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import functools
import itertools
import math
import os
import shutil
import tempfile
from array import array
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, TextIO

from ._record import FACTORY, Record, set_field
from .alpha_search import DEFAULT_GRID_STEP, MIN_GRID_STEP
from .combine import UtilitySpec, WeightVector
from .domain import (
    Cell,
    EventSet,
    GridSpec,
    HotspotSelection,
    PeriodId,
    ProbabilitySurface,
    RejectedRow,
    _ascending,
)
from .errors import IngestError, ValidationError
from .metrics import FRACTION_TOL, MEASURES, HotspotUnit
from .report import fmt
from .synth import GeneratorSpec

#: Every measure the toolkit can compute, by report/config identifier.
MEASURE_IDS = tuple(MEASURES)

#: Default orientation: which direction of each measure is better.
DEFAULT_ORIENTATION = {m: row.better for m, row in MEASURES.items()}

#: The header row of each input table, by file kind.
HEADERS = {
    "cells": ("cell_id", "area_km2"),
    "events": ("event_id", "cell_id", "period_id"),
    "selections": ("model_id", "period_id", "cell_id"),
    "surfaces": ("model_id", "period_id", "cell_id", "probability"),
    "units": ("unit_id", "area_fraction", "crime_fraction"),
}

class Dataset(Record):
    """Everything one evaluation run consumes, fully cross-validated.

    ``selections`` and ``surfaces`` are nested model → period mappings.
    In cell mode the grid and events are present and selections flag grid
    cells; in units mode only the pre-aggregated unit table is present and
    selections flag unit ids.
    """

    grid: Optional[GridSpec]
    events: Optional[EventSet]
    selections: Mapping[str, Mapping[PeriodId, HotspotSelection]]
    surfaces: Mapping[str, Mapping[PeriodId, ProbabilitySurface]]
    units: Optional[tuple[HotspotUnit, ...]]
    rejected: tuple[RejectedRow, ...]

    def __init__(
        self,
        grid: Optional[GridSpec],
        events: Optional[EventSet],
        selections: Mapping[str, Mapping[PeriodId, HotspotSelection]],
        surfaces: Mapping[str, Mapping[PeriodId, ProbabilitySurface]],
        units: Optional[tuple[HotspotUnit, ...]],
        rejected: tuple[RejectedRow, ...] = (),
    ) -> None:
        set_field(self, "grid", grid)
        set_field(self, "events", events)
        set_field(self, "selections", selections)
        set_field(self, "surfaces", surfaces)
        set_field(self, "units", units)
        set_field(self, "rejected", rejected)

    def models(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.selections) | set(self.surfaces)))

    def periods(self) -> tuple[PeriodId, ...]:
        tables = (*self.selections.values(), *self.surfaces.values())
        return tuple(sorted(set().union(*tables)))

    def units_by_id(self) -> dict[str, HotspotUnit]:
        return {u.id: u for u in (self.units or ())}


class RunConfig(Record):
    """A fully materialized run configuration; every default is explicit.

    ``to_pairs`` renders the whole thing as unsorted key/value strings,
    which the report's [config] section sorts and echoes so that no silent
    default can shape a number without appearing in the output.
    """

    measures: tuple[str, ...]
    strict: bool
    alpha_mode: str
    alpha: Optional[float]
    target_coverage: Optional[float]
    grid_step: float
    als_floor_enabled: bool
    als_floor_epsilon: float
    als_restrict_to_hotspots: bool
    als_log_base: str
    score_transform: str
    utilities: Optional[UtilitySpec]
    weights: Optional[WeightVector]
    orientations: Mapping[str, str]
    generator: Optional[GeneratorSpec]
    gen_top_k: Optional[int]
    gen_smoothing: float
    ignored_keys: tuple[str, ...]

    def __init__(
        self,
        measures: tuple[str, ...] = ("hit_rate", "coverage", "pai"),
        strict: bool = True,
        alpha_mode: str = "hit_rate",  # fixed | hit_rate | grid_search
        alpha: Optional[float] = None,
        target_coverage: Optional[float] = None,
        grid_step: float = DEFAULT_GRID_STEP,
        als_floor_enabled: bool = False,
        als_floor_epsilon: float = 1e-12,
        als_restrict_to_hotspots: bool = False,
        als_log_base: str = "e",
        score_transform: str = "raw",  # raw | standardized | rank
        utilities: Optional[UtilitySpec] = None,
        weights: Optional[WeightVector] = None,
        orientations: Mapping[str, str] = FACTORY,  # DEFAULT_ORIENTATION's copy
        generator: Optional[GeneratorSpec] = None,
        gen_top_k: Optional[int] = None,  # load_config defaults it with a generator
        gen_smoothing: float = 1.0,
        # Derived, not a config key: unknown keys that lenient mode skipped.
        ignored_keys: tuple[str, ...] = (),
    ) -> None:
        if orientations is FACTORY:
            orientations = dict(DEFAULT_ORIENTATION)
        set_field(self, "measures", measures)
        set_field(self, "strict", strict)
        set_field(self, "alpha_mode", alpha_mode)
        set_field(self, "alpha", alpha)
        set_field(self, "target_coverage", target_coverage)
        set_field(self, "grid_step", grid_step)
        set_field(self, "als_floor_enabled", als_floor_enabled)
        set_field(self, "als_floor_epsilon", als_floor_epsilon)
        set_field(self, "als_restrict_to_hotspots", als_restrict_to_hotspots)
        set_field(self, "als_log_base", als_log_base)
        set_field(self, "score_transform", score_transform)
        set_field(self, "utilities", utilities)
        set_field(self, "weights", weights)
        set_field(self, "orientations", orientations)
        set_field(self, "generator", generator)
        set_field(self, "gen_top_k", gen_top_k)
        set_field(self, "gen_smoothing", gen_smoothing)
        set_field(self, "ignored_keys", ignored_keys)

    def to_pairs(self) -> list[tuple[str, str]]:
        pairs = []
        for row in CONFIG_SCHEMA:
            if row.key.startswith("gen.") and self.generator is None:
                continue
            owner, _, name = row.field.rpartition(".")
            # An unset utilities leaves its keys' values None.
            value = getattr(getattr(self, owner) if owner else self, name, None)
            if value is not None:
                pairs.append((row.key, fmt(value)))
        if self.weights is not None:
            for mid, weight in self.weights.weights.items():
                pairs.append((f"weights.{mid}", fmt(weight)))
        for mid, orientation in self.orientations.items():
            if mid in self.measures:
                pairs.append((f"orientation.{mid}", orientation))
        return pairs


@contextlib.contextmanager
def _os_errors(path: str, verb: str) -> Iterator[None]:
    """Re-raise an OSError from the block as ``<path>: cannot <verb>: <why>``."""
    try:
        yield
    except OSError as exc:
        raise IngestError(path, f"cannot {verb}: {exc.strerror or exc}") from exc


@contextlib.contextmanager
def _read_errors(path: str, reader=None, offset: int = 0) -> Iterator[None]:
    """Re-raise bytes that are not UTF-8, or a CSV error of ``reader``, from
    the block as an :class:`IngestError` naming ``path``; a CSV error at the
    reader's line n is at line ``offset`` + n of the file. An undecodable
    file gets no line number: the decoder reads ahead of the parser."""
    try:
        yield
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        reason = f"not UTF-8 text (cannot decode byte {byte:#04x})"
        raise IngestError(path, reason) from None
    except csv.Error as exc:
        raise IngestError(path, str(exc), line=offset + reader.line_num) from None


def _open(path: str) -> TextIO:
    """``path`` opened for reading as UTF-8 text, a byte order mark skipped."""
    with _os_errors(path, "open"):
        return open(path, newline="", encoding="utf-8-sig")


#: Rows a table is read, checked and written in at a time.
_CHUNK_ROWS = 1024


def _read_chunks(path: str, kind: str):
    """Yield (line_number, rows, columns) for each chunk of a CSV file,
    enforcing its kind's header.

    A chunk is up to ``_CHUNK_ROWS`` rows as read, and ``line_number`` is
    the line of its first row. ``columns`` is the chunk as one sequence per
    header field if the chunk is clean: every row has the header's width
    and its text is printable ASCII with no comma or space, so no field
    needs stripping and no id can print like another. Otherwise it is None,
    and the rows must be normalized by :func:`_checked_rows`.

    Each chunk of lines is split by :func:`_split_lines`, without the csv
    module, and handed out with ``rows`` None, up to the first chunk that
    it refuses. From that chunk on, ``csv.reader`` reads the rest of the
    file (:func:`_csv_chunks`). A read error is raised after the chunk of
    rows read before it, so the first fault of the file is the one reported.
    """
    header = HEADERS[kind]
    with _open(path) as handle, _read_errors(path, reader := csv.reader(handle)):
        try:
            first = next(reader)
        except StopIteration:
            raise IngestError(path, "file is empty, expected a header row") from None
        if [h.strip() for h in first] != list(header):
            raise IngestError(
                path,
                f"bad header {','.join(first)!r}, expected {','.join(header)!r}",
                line=1,
            )
        lineno = 2
        while True:
            lines: list[str] = []
            try:
                lines.extend(itertools.islice(handle, _CHUNK_ROWS))
            except UnicodeDecodeError as exc:
                # csv.reader meets the error where it would have, after the
                # lines read before it.
                rest = itertools.chain(lines, _raising(exc))
                break
            columns = _split_lines(lines, len(header))
            if columns is None:
                rest = itertools.chain(lines, handle)
                break
            yield lineno, None, columns
            if len(lines) < _CHUNK_ROWS:
                return
            lineno += len(lines)
        yield from _csv_chunks(path, len(header), rest, lineno)


def _raising(exc: Exception) -> Iterator:
    """An iterator that raises ``exc`` when first read."""
    raise exc
    yield


def _split_lines(lines: list[str], width: int) -> Optional[tuple]:
    """``lines`` as ``width`` columns, split without the csv module, if the
    split is sure to give the columns that ``csv.reader`` and
    :func:`_clean_columns` would; else None. So every line ends in a line
    feed and holds ``width - 1`` commas, every other character is printable
    ASCII but a space or a quote, and no field is longer than csv's limit.
    """
    text = "".join(lines)
    # Without the characters a field may hold, the text is its commas and line feeds.
    field_bytes = bytes(range(0x21, 0x7F)).translate(None, b'",')
    skeleton = ("," * (width - 1) + "\n").encode() * len(lines)
    if not lines or text.encode().translate(None, field_bytes) != skeleton:
        return None
    fields = text.replace("\n", ",").split(",")
    del fields[-1]  # after the last line feed
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, fields)) > limit:
        return None
    return tuple(fields[i::width] for i in range(width))


def _csv_chunks(path: str, width: int, lines: Iterable[str], lineno: int):
    """Yield (line_number, rows, columns) for each chunk of ``lines``, the
    rest of a file from its line ``lineno``, read by ``csv.reader``, as
    :func:`_read_chunks` does."""
    reader = csv.reader(lines)
    with _read_errors(path, reader, lineno - 1):
        while True:
            rows: list[list[str]] = []
            failure = None
            try:
                rows.extend(itertools.islice(reader, _CHUNK_ROWS))
            except (csv.Error, UnicodeDecodeError) as exc:
                failure = exc
            if rows:
                yield lineno, rows, _clean_columns(rows, width)
            if failure is not None:
                raise failure
            if len(rows) < _CHUNK_ROWS:
                return
            lineno += len(rows)


def _clean_columns(rows: list[list[str]], width: int) -> Optional[tuple]:
    """``rows`` as columns if every row is ``width`` fields wide and every
    character of every field is printable ASCII but a comma or a space;
    else None. Printable ASCII holds no line break and no whitespace but
    the space. A field may be empty: that is a rule of the table, which
    its loader checks."""
    if set(map(len, rows)) != {width}:
        return None
    columns = tuple(zip(*rows))
    text = "".join(map("".join, columns))
    if not (text.isascii() and text.isprintable()) or "," in text or " " in text:
        return None
    return columns


def _checked_rows(path: str, header: Sequence[str], rows: list[list[str]], lineno: int):
    """The line numbers and stripped rows of ``rows`` from line ``lineno``
    on, skipping blank lines, up to the first row of the wrong width, with
    a comma or line break in a field, or with an id that could print like
    another (:func:`_id_fault`); and that row's fault, or None."""
    lines, checked = [], []
    for lineno, row in enumerate(rows, start=lineno):
        if not row:
            continue  # blank line
        if len(row) != len(header):
            reason = f"expected {len(header)} fields, found {len(row)}"
        elif _unsafe("".join(row)):
            name, text = next((h, f) for h, f in zip(header, row) if _unsafe(f))
            reason = f"{name} {text!r} contains a comma or line break, which report"
            reason += " rows cannot carry"
        elif (reason := _id_fault(header, row := list(map(str.strip, row)))) is None:
            lines.append(lineno)
            checked.append(row)
            continue
        return lines, checked, IngestError(path, reason, line=lineno)
    return lines, checked, None


def _id_fault(header: Sequence[str], row: list[str]) -> Optional[str]:
    """Why the first id field of the stripped ``row`` could print like
    another id, or None. An id field is any whose name ends in ``_id``. Its
    text may hold no control, format or separator character but an inner
    space, and must be in Unicode normal form NFC: else ids that differ only
    in invisible characters, or in how an accent is encoded, read the same."""
    for name, text in zip(header, row):
        if not name.endswith("_id") or (text.isascii() and text.isprintable()):
            continue
        import unicodedata

        invisible = ("Cc", "Cf", "Zl", "Zp", "Zs")  # control, format, separators
        odd = [ch for ch in text if ch != " " and unicodedata.category(ch) in invisible]
        if odd:
            why = f"holds U+{ord(odd[0]):04X} (category {unicodedata.category(odd[0])})"
        elif not unicodedata.is_normalized("NFC", text):
            why = "is not in Unicode normal form NFC"
        else:
            continue
        return f"{name} {text!r} {why}, so it may print like another id"
    return None


def _unsafe(text: str) -> bool:
    return "," in text or "\n" in text or "\r" in text


def _load_chunks(path: str, kind: str, add_chunk: Callable, explain: Callable) -> None:
    """Load ``path`` a chunk at a time into a loader's state.

    ``add_chunk(*columns)`` checks a slice of rows in passes over its
    columns and, only if every row passes, adds it and answers True; else
    it leaves the loader's state untouched. A clean chunk needs no
    normalizing; any other is normalized by :func:`_checked_rows`, whose
    width or comma fault is raised after the rows before it are added, so
    the first fault in file order wins. A chunk that ``add_chunk`` refuses
    is bisected through it, left half first, down to the single row that
    ``explain(line_number, row)`` refuses by the first rule it breaks. So
    a chunk of n rows with a fault takes at most 2·log2(n) calls more.
    """
    for lineno, rows, columns in _read_chunks(path, kind):
        fault = None
        if columns is None:
            lines, rows, fault = _checked_rows(path, HEADERS[kind], rows, lineno)
            columns = tuple(zip(*rows))
        else:
            lines = range(lineno, lineno + len(columns[0]))
        if lines and not add_chunk(*columns):
            _bisect(add_chunk, explain, lines, rows or list(zip(*columns)))
        if fault is not None:
            raise fault


def _bisect(add_chunk: Callable, explain: Callable, lines: Sequence, rows: Sequence):
    """Add ``rows``, which ``add_chunk`` refused as one slice: each half in
    turn, left first, whole if ``add_chunk`` takes it, else bisected again,
    down to the row ``explain`` refuses. ``lines`` are their line numbers."""
    if len(rows) == 1:
        return explain(lines[0], rows[0])
    for half in (slice(len(rows) // 2), slice(len(rows) // 2, None)):
        if not add_chunk(*zip(*rows[half])):
            _bisect(add_chunk, explain, lines[half], rows[half])


def _rule_checks(path: str, kind: str, rules: tuple, commit: Callable, numbers: int = 0):
    """The ``add_chunk`` and ``explain`` of :func:`_load_chunks` for a table
    of ``kind``, from its rules, each written once: (test, fault) pairs in
    the order a row's faults are named, after the rule that no field but
    the last ``numbers`` is empty. Those reach the tests and ``commit`` as
    columns of finite floats, or None if a field is not one.

    ``test(*columns)`` answers whether a slice's rows pass; a key's test,
    and a test of known cells, reads the first row only, since ``commit``
    refuses, adding nothing, a slice with a key added before or repeated, or
    with a cell it does not know. ``fault(*row)`` returns the
    message of a row that fails, or raises the ``ValidationError`` that
    words it; ``explain`` raises it as the row's :class:`IngestError`.
    """
    header = HEADERS[kind]
    texts = len(header) - numbers
    empty = f"empty {header[0]}" if texts == 1 else "empty field"
    rules = ((lambda *cols: all(map(all, cols[:texts])), lambda *row: empty), *rules)

    def parsed(columns):
        return (*columns[:texts], *map(_floats, columns[texts:]))

    def add_chunk(*columns):
        columns = parsed(columns)
        return all(test(*columns) for test, _ in rules) and commit(*columns)

    def explain(lineno, row):
        columns = parsed(tuple(zip(row)))
        fault = next(fault for test, fault in rules if not test(*columns))
        try:
            reason = fault(*row)
        except ValidationError as exc:
            reason = str(exc)
        raise IngestError(path, reason, line=lineno)

    return add_chunk, explain


def _number_rule(index: int, name: str) -> tuple[Callable, Callable]:
    """The rule that field ``index``, ``name``, is a finite number."""

    def fault(*row):
        with contextlib.suppress(ValueError):
            float(row[index])
            return f"{name} must be finite, got {row[index]!r}"
        return f"{name} is not a number: {row[index]!r}"

    return (lambda *columns: columns[index] is not None), fault


def _floats(texts: Sequence[str]) -> Optional[list[float]]:
    """The numbers of ``texts``, or None if one is not a finite number."""
    try:
        values = list(map(float, texts))
    except ValueError:
        return None
    return values if all(map(math.isfinite, values)) else None


def _runs(*columns: Sequence) -> Iterator[tuple[tuple, int, int]]:
    """(key, start, stop) of each run of equal consecutive keys, a key being
    the tuple of one item of each of ``columns``. A slice that is one run, as
    most are, is told by one ``count`` per column."""
    size = len(columns[0])
    if size and all(column.count(column[0]) == size for column in columns):
        yield tuple(column[0] for column in columns), 0, size
        return
    stop = 0
    for key, run in itertools.groupby(zip(*columns)):
        start, stop = stop, stop + len(list(run))
        yield key, start, stop


def _id_rule(kind: str, taken: Callable[[], Iterable[str]]) -> tuple[tuple, Callable]:
    """The rule that no id of a ``kind`` table repeats, and the ``take(ids)``
    a commit calls first: it takes a slice's ids and answers True, or takes
    none and answers False if one repeats. While each id is above the one
    before it, none can repeat and only the latest is kept; from the first
    that is not on, a set holds every id, starting with ``taken()``."""
    last = ""
    seen: Optional[set[str]] = None

    def taken_set() -> set[str]:
        nonlocal seen
        if seen is None:
            seen = set(taken())
        return seen

    def take(ids):
        nonlocal last
        if seen is None and last < ids[0] and _ascending(ids):
            last = ids[-1]
            return True
        held = taken_set()
        if not held.isdisjoint(ids):
            return False
        size = len(held)
        held.update(ids)
        if len(held) == size + len(ids):
            return True
        # An id repeats within ``ids``; none of them was in ``held`` before.
        # This costs less than a set of ``ids`` built to check them first.
        held.difference_update(ids)
        return False

    def new(ids, *_):
        return (seen is None and last < ids[0]) or ids[0] not in taken_set()

    return (new, lambda i, *_: f"duplicate {HEADERS[kind][0]} {i!r}"), take


def _load_keyed(path: str, kind: str, make: Callable, accepts: Callable) -> list[list]:
    """An id-keyed table as columns, in file order: its ids, then the
    numbers of each number field. ``make(id, *numbers)`` checks one row,
    and words a row that ``accepts(*number_columns)`` refuses: it passes
    exactly the slices whose every row ``make`` accepts.
    """
    columns: list[list] = [[] for _ in HEADERS[kind]]
    new_id, take = _id_rule(kind, lambda: columns[0])

    def commit(ids, *numbers):
        if not take(ids):
            return False
        for column, values in zip(columns, (ids, *numbers)):
            column.extend(values)
        return True

    rules = (
        new_id,
        *itertools.starmap(_number_rule, enumerate(HEADERS[kind][1:], 1)),
        (lambda _, *numbers: accepts(*numbers), lambda i, *xs: make(i, *map(float, xs))),
    )
    _load_chunks(path, kind, *_rule_checks(path, kind, rules, commit, len(columns) - 1))
    if not columns[0]:
        raise IngestError(path, f"no {kind} defined")
    return columns


def _units_accepted(areas: list[float], crimes: list[float]) -> bool:
    """Whether :class:`HotspotUnit` accepts every one of these finite
    fraction pairs: areas in (0, 1] and crime shares in [0, 1]."""
    return 0 < min(areas) and max(areas) <= 1 and 0 <= min(crimes) and max(crimes) <= 1


def load_cells(path: str) -> GridSpec:
    # Cell accepts exactly the finite areas above 0.
    ids, areas = _load_keyed(path, "cells", Cell, lambda areas: min(areas) > 0)
    try:
        return GridSpec._of_columns(ids, areas)
    except ValidationError as exc:
        raise IngestError(path, str(exc)) from exc


def load_events(
    path: str, grid: GridSpec, strict: bool = True
) -> tuple[EventSet, tuple[RejectedRow, ...]]:
    """Load events against a grid; unknown cells error out in strict mode.

    In lenient mode the offending rows are returned as rejects so the
    caller can count and report them instead of silently losing data.
    """
    known = grid.cell_ids
    by_period: dict[PeriodId, tuple[list[str], list[str]]] = {}
    rejected: list[RejectedRow] = []
    new_id, take = _id_rule("events", lambda: itertools.chain(
        (row.event_id for row in rejected), *(ids for ids, _ in by_period.values())
    ))

    def commit(ids, cells, periods):
        if not take(ids):
            return False
        if not (strict or known.issuperset(cells)):
            # Lenient: rows in unknown cells are dropped, their ids still taken.
            rows = list(zip(ids, cells, periods))
            dropped = [row for row in rows if row[1] not in known]
            rejected.extend(RejectedRow(*row, "unknown cell") for row in dropped)
            ids, cells, periods = tuple(zip(*(r for r in rows if r[1] in known))) or ((),) * 3
        for (period,), start, stop in _runs(periods):
            period_ids, period_cells = by_period.setdefault(period, ([], []))
            period_ids.extend(ids[start:stop])
            period_cells.extend(cells[start:stop])
        return True

    rules = (
        new_id,
        (
            lambda ids, cells, periods: not strict or known.issuperset(cells),
            lambda e, c, p: f"event {e!r} references unknown cell {c!r}",
        ),
    )
    _load_chunks(path, "events", *_rule_checks(path, "events", rules, commit))
    return EventSet._of_columns(by_period), tuple(rejected)


def _load_tables(
    path: str, kind: str, store: "_Flags | _SurfaceMasses", unknown: str, entry: str,
    rules: tuple, make: Callable[[str, PeriodId, object], object],
) -> dict[str, dict[PeriodId, object]]:
    """A table of ``kind`` keyed by (model, period, cell), as model → period
    → ``make(model, period, table)``, sorted; ``table`` is what ``store``
    holds of a (model, period)'s rows. A row's faults are named in order:
    "model <m> ``unknown`` <c>" for a cell ``store`` does not know, then
    ``rules``, then "duplicate ``entry`` m/p/c". A slice is added only if
    ``store`` adds each of its (model, period) runs: none holds a cell it
    does not know, a cell twice, or one it held.

    ``store.known`` holds the known cells; ``store.holds(key, cell)`` answers
    whether ``key``'s table holds ``cell``; ``store.add(key, cells,
    *values)`` adds a run and answers how to take it back, or adds none and
    answers None; and ``store.held`` maps each key to its table.
    """

    def commit(models, periods, cells, *values):
        added = []
        for key, start, stop in _runs(models, periods):
            undo = store.add(key, cells[start:stop], *(v[start:stop] for v in values))
            if undo is None:
                for undo in added:
                    undo()
                return False
            added.append(undo)
        return True

    rules = (
        (
            lambda models, periods, cells, *_: cells[0] in store.known,
            lambda m, p, c, *_: f"model {m!r} {unknown} {c!r}",
        ),
        *rules,
        (
            lambda models, periods, cells, *_: not store.holds((models[0], periods[0]), cells[0]),
            lambda m, p, c, *_: f"duplicate {entry} {m}/{p}/{c}",
        ),
    )
    numbers = len(HEADERS[kind]) - 3
    _load_chunks(path, kind, *_rule_checks(path, kind, rules, commit, numbers))
    held = store.held
    out: dict[str, dict[PeriodId, object]] = {}
    for key in sorted(held):
        out.setdefault(key[0], {})[key[1]] = make(*key, held.pop(key))
    return out


class _Flags:
    """The flagged cells of each (model, period) of a selections table, as
    sets of ids from ``known``."""

    def __init__(self, known: frozenset[str]) -> None:
        self.known = known
        self.held: dict[tuple[str, PeriodId], set[str]] = {}

    def holds(self, key: tuple[str, PeriodId], cell: str) -> bool:
        return cell in self.held.get(key, ())

    def add(self, key: tuple[str, PeriodId], cells: Sequence[str]) -> Optional[Callable]:
        """Add the run ``cells`` of ``key`` and answer how to take it back;
        or add none and answer None if one is unknown, held or repeated."""
        if not self.known.issuperset(cells):
            return None
        flagged = self.held.setdefault(key, set())
        if flagged.isdisjoint(cells):
            size = len(flagged)
            flagged.update(cells)
            if len(flagged) == size + len(cells):
                return functools.partial(flagged.difference_update, cells)
            flagged.difference_update(cells)  # a cell repeats within the run
        return None


class _SurfaceMasses:
    """The masses of each (model, period) of a surfaces table, as arrays in
    the order of a grid's cells, where NaN marks a cell not given yet: no
    mass is NaN, since a probability is a finite number."""

    def __init__(self, grid: GridSpec) -> None:
        self.known = grid._index
        self.ids = tuple(self.known)
        self.blank = array("d", (math.nan,)) * len(self.ids)
        self.held: dict[tuple[str, PeriodId], array] = {}

    def holds(self, key: tuple[str, PeriodId], cell: str) -> bool:
        masses = self.held.get(key)
        return masses is not None and not math.isnan(masses[self.known[cell]])

    def add(
        self, key: tuple[str, PeriodId], cells: Sequence[str], values: Sequence[float]
    ) -> Optional[Callable]:
        """Add the run ``cells`` of ``key``, with masses ``values``, and
        answer how to take it back; or add none and answer None if a cell is
        unknown, given before or repeated."""
        masses = self.held.get(key)
        if masses is None:
            masses = self.held[key] = self.blank[:]
        start = self.known.get(cells[0], 0)
        stop = start + len(cells)
        if self.ids[start:stop] == tuple(cells):
            # The grid's cells from start to stop, in order: one slice, if
            # none of them is set.
            if masses[start:stop].tobytes() != self.blank[start:stop].tobytes():
                return None
            masses[start:stop] = array("d", values)
            return functools.partial(_unset, masses, range(start, stop))
        try:
            positions = list(map(self.known.__getitem__, cells))
        except KeyError:
            return None
        for done, (position, value) in enumerate(zip(positions, values)):
            if not math.isnan(masses[position]):
                _unset(masses, positions[:done])
                return None
            masses[position] = value
        return functools.partial(_unset, masses, positions)


def _unset(masses: array, positions: Iterable[int]) -> None:
    for position in positions:
        masses[position] = math.nan


def load_selections(
    path: str, known_ids: frozenset[str], id_kind: str = "cell"
) -> dict[str, dict[PeriodId, HotspotSelection]]:
    """Load per-model hotspot selections; rows flag cells (or units).

    Always strict: a model flagging an id that does not exist is a modelling
    error, not a data-quality nuisance, so there is no lenient drop here.
    """
    return _load_tables(
        path, "selections", _Flags(known_ids), f"flags unknown {id_kind}", "selection",
        (), lambda model, period, cells: HotspotSelection(period, cells),
    )


def load_surfaces(
    path: str, grid: GridSpec, renormalize: bool = False
) -> dict[str, dict[PeriodId, ProbabilitySurface]]:
    """Load per-model probability surfaces, one complete grid per period."""
    rules = (
        _number_rule(3, "probability"),
        (
            lambda models, periods, cells, values: min(values) >= 0,
            lambda m, p, c, x: f"probability must be non-negative, got {float(x)!r}",
        ),
    )
    store = _SurfaceMasses(grid)
    surface = ProbabilitySurface._renormalized if renormalize else ProbabilitySurface._of_masses

    def make(model_id, period_id, masses):
        # Every row names a known cell once: a NaN is a cell no row named.
        if math.isnan(sum(masses)):
            missing = [c for c, m in zip(store.ids, masses) if math.isnan(m)]
            raise IngestError(
                path,
                f"surface {model_id}/{period_id} misses {len(missing)} cells "
                f"(first: {min(missing)!r})",
            )
        try:
            return surface(period_id, store.known, masses)
        except ValidationError as exc:
            raise IngestError(path, f"surface {model_id}/{period_id}: {exc}") from exc

    return _load_tables(
        path, "surfaces", store, "assigns mass to unknown cell", "surface entry", rules, make,
    )


def _unit_columns(path: str) -> tuple[list[str], list[float], list[float]]:
    """The unit ids, area fractions and crime fractions of ``path``, in file
    order. They are shares of one region, so a table whose area or crime
    fractions sum above 1 is refused."""
    ids, areas, crimes = _load_keyed(path, "units", HotspotUnit, _units_accepted)
    for column, values in (("area_fraction", areas), ("crime_fraction", crimes)):
        total = math.fsum(values)
        if total > 1.0 + FRACTION_TOL:
            raise IngestError(
                path,
                f"{column} sums to {total!r} > 1; the units overlap or their "
                f"fractions are inconsistent",
            )
    return ids, areas, crimes


def load_units(path: str) -> tuple[HotspotUnit, ...]:
    """The units of ``path``, in file order, as :func:`_unit_columns`."""
    return tuple(map(HotspotUnit, *_unit_columns(path)))


def load_dataset(
    cells: Optional[str] = None,
    events: Optional[str] = None,
    selections: Optional[str] = None,
    surfaces: Optional[str] = None,
    units: Optional[str] = None,
    strict: bool = True,
    renormalize_surfaces: bool = False,
) -> Dataset:
    """Load and cross-validate a full dataset from its component files.

    Two shapes are accepted: cell mode (cells + events, plus selections
    and/or surfaces) and units mode (a pre-aggregated unit table, with
    selections flagging unit ids). Either way at least one model must end
    up defined.
    """
    if cells is None and units is None:
        raise ValidationError("a dataset needs a cells file or a units file")
    grid = load_cells(cells) if cells is not None else None
    unit_rows = load_units(units) if units is not None else None

    event_set = None
    rejected: tuple[RejectedRow, ...] = ()
    if events is not None:
        if grid is None:
            raise ValidationError("an events file needs a cells file to resolve against")
        event_set, rejected = load_events(events, grid, strict=strict)

    selection_map: dict[str, dict[PeriodId, HotspotSelection]] = {}
    if selections is not None:
        if grid is not None:
            selection_map = load_selections(selections, grid.cell_ids, "cell")
        else:
            known = frozenset(u.id for u in unit_rows or ())
            selection_map = load_selections(selections, known, "unit")

    surface_map: dict[str, dict[PeriodId, ProbabilitySurface]] = {}
    if surfaces is not None:
        if grid is None:
            raise ValidationError("a surfaces file needs a cells file to resolve against")
        surface_map = load_surfaces(surfaces, grid, renormalize=renormalize_surfaces)

    dataset = Dataset(grid, event_set, selection_map, surface_map, unit_rows, rejected)
    if not dataset.models():
        raise ValidationError("dataset defines no models (no selections and no surfaces)")
    return dataset


# ---------------------------------------------------------------------------
# configuration


def _parse_bool(path: str, key: str, text: str) -> bool:
    lowered = text.lower()
    if lowered in ("on", "true", "yes", "1"):
        return True
    if lowered in ("off", "false", "no", "0"):
        return False
    raise IngestError(path, f"{key}: expected on/off, got {text!r}")


def _config_float(path: str, key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise IngestError(path, f"{key}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise IngestError(path, f"{key}: must be finite, got {text!r}")
    return value


def _config_int(path: str, key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise IngestError(path, f"{key}: not an integer: {text!r}") from None


def _config_text(path: str, key: str, text: str) -> str:
    return text


def _config_floats(path: str, key: str, text: str) -> tuple[float, ...]:
    return tuple(_config_float(path, key, w) for w in text.split(","))


def _config_measures(path: str, key: str, text: str) -> tuple[str, ...]:
    parsed = tuple(m.strip() for m in text.split(",") if m.strip())
    if not parsed:
        raise IngestError(path, f"{key}: empty list, nothing to compute")
    bad = [m for m in parsed if m not in MEASURE_IDS]
    if bad:
        raise IngestError(
            path,
            f"unknown measures: {', '.join(bad)} (known: {', '.join(MEASURE_IDS)})",
        )
    repeated = [m for i, m in enumerate(parsed) if m in parsed[:i]]
    if repeated:
        raise IngestError(path, f"{key}: {repeated[0]} listed twice")
    return parsed


def _one_of(*choices: str) -> tuple[Callable[[object], bool], str]:
    """A bound admitting exactly ``choices``, worded "be a, b or c"."""
    return choices.__contains__, f"be {', '.join(choices[:-1])} or {choices[-1]}"


def _out_of_bound(path: str, key: str, bound: str, value: object) -> IngestError:
    return IngestError(path, f"{key} must {bound}, got {value!r}")


class ConfigKey(Record):
    """One config key: how it is parsed, checked and stored.

    ``field`` is the :class:`RunConfig` attribute holding the value, dotted
    into ``utilities`` / ``generator`` for the ``eu.*`` / ``gen.*`` keys.
    ``bound`` is a (predicate, wording) pair; a parsed value failing the
    predicate is refused with "<key> must <wording>, got <value>".
    ``default`` is given only where no RunConfig field can hold one.
    """

    key: str
    field: str
    parse: Callable[[str, str, str], object]
    bound: Optional[tuple[Callable[[object], bool], str]]
    default: object

    def __init__(
        self,
        key: str,
        field: str,
        parse: Callable[[str, str, str], object],
        bound: Optional[tuple[Callable[[object], bool], str]] = None,
        default: object = None,
    ) -> None:
        set_field(self, "key", key)
        set_field(self, "field", field)
        set_field(self, "parse", parse)
        set_field(self, "bound", bound)
        set_field(self, "default", default)


_UNIT_INTERVAL = (lambda v: 0.0 < v < 1.0, "lie in (0, 1)")

#: Every plain config key. The ``weights.<measure>`` and
#: ``orientation.<measure>`` families are read by :func:`load_config`.
CONFIG_SCHEMA = (
    ConfigKey("measures", "measures", _config_measures),
    ConfigKey("strict", "strict", _parse_bool),
    ConfigKey(
        "ppai.alpha_mode",
        "alpha_mode",
        _config_text,
        _one_of("fixed", "hit_rate", "grid_search"),
    ),
    ConfigKey(
        "ppai.alpha",
        "alpha",
        _config_float,
        (lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]"),
    ),
    ConfigKey("ppai.target_coverage", "target_coverage", _config_float, _UNIT_INTERVAL),
    ConfigKey("ppai.grid_step", "grid_step", _config_float, _UNIT_INTERVAL),
    ConfigKey("als.floor", "als_floor_enabled", _parse_bool),
    ConfigKey(
        "als.floor_epsilon",
        "als_floor_epsilon",
        _config_float,
        (lambda v: v > 0, "be positive"),
    ),
    ConfigKey("als.restrict_to_hotspots", "als_restrict_to_hotspots", _parse_bool),
    ConfigKey("als.log_base", "als_log_base", _config_text, ("e".__eq__, "be e")),
    ConfigKey(
        "combine.score_transform",
        "score_transform",
        _config_text,
        _one_of("raw", "standardized", "rank"),
    ),
    ConfigKey("eu.u_tp", "utilities.u_tp", _config_float),
    ConfigKey("eu.u_fp", "utilities.u_fp", _config_float),
    ConfigKey("eu.u_tn", "utilities.u_tn", _config_float),
    ConfigKey("eu.u_fn", "utilities.u_fn", _config_float),
    ConfigKey("gen.cells", "generator.n_cells", _config_int, default=100),
    ConfigKey("gen.cell_area", "generator.cell_area_km2", _config_float, default=1.0),
    ConfigKey("gen.weights", "generator.weights", _config_floats),
    ConfigKey("gen.periods", "generator.n_periods", _config_int, default=12),
    ConfigKey(
        "gen.events_per_period", "generator.events_per_period", _config_int, default=100
    ),
    ConfigKey("gen.seed", "generator.seed", _config_int, default=0),
    ConfigKey("gen.top_k", "gen_top_k", _config_int),
    ConfigKey(
        "gen.smoothing", "gen_smoothing", _config_float, (lambda v: v >= 0, "be >= 0")
    ),
)

_SCHEMA_BY_KEY = {row.key: row for row in CONFIG_SCHEMA}


def read_config_pairs(path: str) -> dict[str, str]:
    """Raw key → value text from a config file, last assignment winning."""
    pairs: dict[str, str] = {}
    with _open(path) as handle, _read_errors(path):
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise IngestError(
                    path, f"expected 'key = value', got {raw.strip()!r}", line=lineno
                )
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not key:
                raise IngestError(path, "empty key", line=lineno)
            pairs[key] = value
    return pairs


def load_config(path: str, cli_strict: Optional[bool] = None) -> RunConfig:
    """Parse, validate and materialize a run configuration.

    ``cli_strict`` (from --strict/--lenient) overrides the file's own
    ``strict`` key. Unknown keys are errors in strict mode; in lenient mode
    they are ignored and listed in ``ignored_keys``.
    """
    pairs = read_config_pairs(path)
    # RunConfig fields by owner: "" is RunConfig itself.
    values: dict[str, dict[str, object]] = {"": {}, "utilities": {}, "generator": {}}
    weight_map: dict[str, float] = {}
    orientations = dict(DEFAULT_ORIENTATION)
    unknown = []
    for key in sorted(pairs):
        text = pairs[key]
        row = _SCHEMA_BY_KEY.get(key)
        family, _, mid = key.partition(".")
        if row is not None:
            value = row.parse(path, key, text)
            if row.bound is not None and not row.bound[0](value):
                raise _out_of_bound(path, key, row.bound[1], value)
            owner, _, name = row.field.rpartition(".")
            values[owner][name] = value
        elif not key.startswith(("weights.", "orientation.")):
            unknown.append(key)
        elif mid not in MEASURE_IDS:
            raise IngestError(path, f"{key}: unknown measure {mid!r}")
        elif family == "weights":
            weight_map[mid] = _config_float(path, key, text)
        elif text.lower() in ("higher", "lower"):
            orientations[mid] = text.lower()
        else:
            raise IngestError(path, f"{key}: expected higher or lower, got {text!r}")
    if cli_strict is not None:
        values[""]["strict"] = cli_strict
    config = RunConfig(**values[""], orientations=orientations)
    if unknown and config.strict:
        raise IngestError(path, f"unknown config keys: {', '.join(unknown)}")
    # Every alpha mode, not only grid_search, refuses a step the search
    # would: this mirrors the floor of alpha_search._alpha_grid.
    if config.grid_step < MIN_GRID_STEP:
        raise _out_of_bound(
            path, "ppai.grid_step", f"be at least {MIN_GRID_STEP!r}", config.grid_step
        )

    # Weighted measures are computed whether or not they were listed.
    measures = config.measures
    measures += tuple(m for m in sorted(weight_map) if m not in measures)
    needed = {"fixed": "ppai.alpha", "grid_search": "ppai.target_coverage"}
    need = needed.get(config.alpha_mode)
    if "ppai" in measures and need is not None and need not in pairs:
        raise IngestError(
            path, f"ppai.alpha_mode is {config.alpha_mode!r} but {need} is not set"
        )

    utilities = None
    if values["utilities"]:
        missing = [
            row.key
            for row in CONFIG_SCHEMA
            if row.field.startswith("utilities.") and row.key not in pairs
        ]
        if missing:
            raise IngestError(
                path, f"utilities are all-or-nothing; missing {', '.join(missing)}"
            )
        utilities = UtilitySpec(**values["utilities"])

    weights = None
    if weight_map:
        try:
            weights = WeightVector(weight_map)
        except ValidationError as exc:
            raise IngestError(path, f"weights: {exc}") from exc

    generator = None
    gen_top_k = None
    if any(k.startswith("gen.") for k in pairs):
        spec = {
            row.field.rpartition(".")[2]: row.default
            for row in CONFIG_SCHEMA
            if row.default is not None
        }
        spec.update(values["generator"])
        spec.setdefault("weights", (1.0,) * max(spec["n_cells"], 1))
        try:
            generator = GeneratorSpec(**spec)
        except ValidationError as exc:
            raise IngestError(path, f"gen: {exc}") from exc
        n_cells = generator.n_cells
        gen_top_k = config.gen_top_k
        if gen_top_k is None:
            gen_top_k = max(1, n_cells // 10)
        if not 0 < gen_top_k <= n_cells:
            raise _out_of_bound(path, "gen.top_k", f"lie in [1, {n_cells}]", gen_top_k)

    return config._replace(
        measures=measures,
        utilities=utilities,
        weights=weights,
        generator=generator,
        gen_top_k=gen_top_k,
        ignored_keys=tuple(unknown),
    )


# ---------------------------------------------------------------------------
# serialization (used by `gen` and for round-trip guarantees)


@contextlib.contextmanager
def atomic_open(path: str) -> Iterator[TextIO]:
    """A text handle on a staged copy of ``path``: :func:`staged_files` for
    one file, so ``path`` is written completely or not at all, by the same
    target rules. An OSError becomes an :class:`IngestError` naming ``path``.
    """
    name = os.path.basename(path)
    # The directory part keeps its trailing slashes: errors name ``path``.
    with staged_files(path[: len(path) - len(name)], [name]) as staged:
        with _os_errors(path, "write"), open(
            staged[name], "x", newline="", encoding="utf-8"
        ) as handle:
            yield handle


#: The staging directories of the :func:`staged_files` blocks now open.
_open_staging: set[str] = set()


@contextlib.contextmanager
def staged_files(directory: str, names: Sequence[str]) -> Iterator[dict[str, str]]:
    """A staging path for each of the files ``names`` of ``directory``.

    They are staged in a directory inside ``directory``, removed when the
    block ends, and replace their targets only once the block completes, so
    no target changes unless every file was written completely. A target
    that is a directory, or a link to one, is refused before anything is
    written; a link to a file is replaced, not written through. Errors name
    targets, not staging paths.

    Files of a staging directory that an enclosing block has open are its
    staging paths already: they are written in place, and the enclosing
    block replaces their targets.
    """
    if os.path.abspath(directory) in _open_staging:
        yield {name: os.path.join(directory, name) for name in names}
        return
    targets = [os.path.join(directory, name) for name in names]
    for path in targets:
        if os.path.isdir(path):
            raise IngestError(path, f"cannot write: {os.strerror(errno.EISDIR)}")
    # A directory that takes no files fails on the first one.
    with _os_errors(targets[0], "write"):
        staging = os.path.abspath(tempfile.mkdtemp(prefix=".staging-", dir=directory))
    staged = [os.path.join(staging, name) for name in names]
    _open_staging.add(staging)
    try:
        try:
            yield dict(zip(names, staged))
        except IngestError as exc:
            if exc.path not in staged:
                raise
            target = targets[staged.index(exc.path)]
            raise IngestError(target, exc.reason, exc.line) from exc
        for source, target in zip(staged, targets):
            with _os_errors(target, "write"):
                os.replace(source, target)
    finally:
        _open_staging.discard(staging)
        shutil.rmtree(staging, ignore_errors=True)


def _write_csv(path: str, kind: str, rows: Iterable[Sequence[str]]):
    """``kind``'s header, then ``rows`` of strings, as wide as the header,
    written a chunk of rows at a time, byte-identical to ``csv.writer``.

    A chunk none of whose fields holds a comma, quote or line break needs no
    quoting: it is written as one ``",".join`` per row. Any other chunk goes
    through the ``csv.writer``. Only one chunk is held at a time.
    """
    rows = iter(rows)
    with atomic_open(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(HEADERS[kind])
        while chunk := list(itertools.islice(rows, _CHUNK_ROWS)):
            text = "".join(itertools.chain.from_iterable(chunk))
            if _unsafe(text) or '"' in text:
                writer.writerows(chunk)
            else:
                handle.write("\n".join(map(",".join, chunk)) + "\n")


def _by_model_period(tables: Mapping[str, Mapping[PeriodId, object]]) -> Iterator:
    """(model_id, period_id, entry) of a model → period table, sorted."""
    for model_id in sorted(tables):
        for period_id in sorted(tables[model_id]):
            yield model_id, period_id, tables[model_id][period_id]


def _prefixed(model_id: str, period_id: str, *columns: Iterable[str]) -> Iterator:
    """Rows of ``model_id``, ``period_id`` and the items of ``columns``."""
    return zip(itertools.repeat(model_id), itertools.repeat(period_id), *columns)


def write_cells(path: str, grid: GridSpec) -> None:
    _write_csv(path, "cells", zip(grid._areas, map(repr, grid._areas.values())))


def write_events(path: str, events: EventSet) -> None:
    _write_csv(path, "events", events._rows())


def write_selections(
    path: str, selections: Mapping[str, Mapping[PeriodId, HotspotSelection]]
) -> None:
    """Write one row per flagged cell, sorted by model, period and cell.

    An empty selection has no rows, so it does not survive a write.
    """
    _write_csv(path, "selections", itertools.chain.from_iterable(
        _prefixed(model_id, period_id, sorted(selection.flagged))
        for model_id, period_id, selection in _by_model_period(selections)
    ))


def write_surfaces(
    path: str, surfaces: Mapping[str, Mapping[PeriodId, ProbabilitySurface]]
) -> None:
    """Write one row per cell, sorted by model, period and cell. Each
    distinct mass of a surface gets one ``repr``, except on a surface that
    holds a zero: ``0.0 == -0.0``, but their reprs differ, so there every
    row gets its own."""
    # The last surface's id → position map, its cells sorted, and where their
    # masses are: sorted once for the surfaces of one grid, which share it.
    last, cells, positions = None, [], []

    def rows(model_id, period_id, surface):
        nonlocal last, cells, positions
        index, held = surface.mass._index, surface.mass._masses
        if index is not last and index != last:
            last, cells = index, sorted(index)
            positions = list(map(index.__getitem__, cells))
        masses = map(held.__getitem__, positions)
        distinct = set(held)
        if 0.0 in distinct:
            texts = map(repr, masses)
        else:
            texts = map(dict(zip(distinct, map(repr, distinct))).__getitem__, masses)
        return _prefixed(model_id, period_id, cells, texts)

    _write_csv(path, "surfaces", itertools.chain.from_iterable(
        itertools.starmap(rows, _by_model_period(surfaces))
    ))


def write_units(path: str, units: Sequence[HotspotUnit]) -> None:
    _write_csv(
        path,
        "units",
        ((u.id, repr(u.area_fraction), repr(u.crime_fraction)) for u in units),
    )
