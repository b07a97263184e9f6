"""The five table loaders against a reference that checks one row at a time.

The reference reads a table row by row and applies every rule to every row,
in the order a row's faults are named, with none of the loaders' column
passes or bisection. Each loader must return what the reference returns,
or refuse the file with the same message and line.
The tables hold up to three faults, so one chunk may hold several of them;
the first in file order is the one named, and in lenient mode every event
in an unknown cell is a reject. A repeated id or entry may have its first
copy in the left half of a chunk that fails for another row.
"""

import csv
import math
import os
import random
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridscore import (
    Cell,
    Event,
    EventSet,
    GridSpec,
    HotspotSelection,
    HotspotUnit,
    IngestError,
    ProbabilitySurface,
    ValidationError,
    ingest,
)
from gridscore.domain import RejectedRow
from gridscore.metrics import FRACTION_TOL

GRID = GridSpec(tuple(Cell(c, 1.0) for c in ("c1", "c2", "c3")))


def reference_rows(path, kind):
    """(line number, stripped row) of every data row: blank lines skipped,
    and the first row of the wrong width, or with a comma or line break in
    a field, refused."""
    header = ingest.HEADERS[kind]
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        first = next(reader, None)
        if first is None:
            raise IngestError(path, "file is empty, expected a header row")
        if [h.strip() for h in first] != list(header):
            raise IngestError(
                path,
                f"bad header {','.join(first)!r}, expected {','.join(header)!r}",
                line=1,
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise IngestError(
                    path, f"expected {len(header)} fields, found {len(row)}", line=lineno
                )
            for name, text in zip(header, row):
                if "," in text or "\n" in text or "\r" in text:
                    raise IngestError(
                        path,
                        f"{name} {text!r} contains a comma or line break, which "
                        f"report rows cannot carry",
                        line=lineno,
                    )
            yield lineno, [field.strip() for field in row]


def parse_float(path, lineno, name, text):
    try:
        value = float(text)
    except ValueError:
        raise IngestError(path, f"{name} is not a number: {text!r}", line=lineno) from None
    if not math.isfinite(value):
        raise IngestError(path, f"{name} must be finite, got {text!r}", line=lineno)
    return value


def reference_keyed(path, kind, make):
    id_column, *fields = ingest.HEADERS[kind]
    seen, records = set(), []
    for lineno, (row_id, *texts) in reference_rows(path, kind):
        if not row_id:
            raise IngestError(path, f"empty {id_column}", line=lineno)
        if row_id in seen:
            raise IngestError(path, f"duplicate {id_column} {row_id!r}", line=lineno)
        seen.add(row_id)
        numbers = [parse_float(path, lineno, n, t) for n, t in zip(fields, texts)]
        try:
            records.append(make(row_id, *numbers))
        except ValidationError as exc:
            raise IngestError(path, str(exc), line=lineno) from exc
    if not records:
        raise IngestError(path, f"no {kind} defined")
    return records


def reference_cells(path, strict):
    cells = reference_keyed(path, "cells", Cell)
    try:
        return GridSpec(tuple(cells))
    except ValidationError as exc:
        raise IngestError(path, str(exc)) from exc


def reference_units(path, strict):
    units = reference_keyed(path, "units", HotspotUnit)
    for column in ("area_fraction", "crime_fraction"):
        total = math.fsum(getattr(u, column) for u in units)
        if total > 1.0 + FRACTION_TOL:
            raise IngestError(
                path,
                f"{column} sums to {total!r} > 1; the units overlap or their "
                f"fractions are inconsistent",
            )
    return tuple(units)


def reference_events(path, strict):
    seen, kept, rejected = set(), [], []
    for lineno, (event_id, cell_id, period_id) in reference_rows(path, "events"):
        if not event_id or not cell_id or not period_id:
            raise IngestError(path, "empty field", line=lineno)
        if event_id in seen:
            raise IngestError(path, f"duplicate event_id {event_id!r}", line=lineno)
        seen.add(event_id)
        if cell_id in GRID.cell_ids:
            kept.append(Event(event_id, cell_id, period_id))
        elif strict:
            reason = f"event {event_id!r} references unknown cell {cell_id!r}"
            raise IngestError(path, reason, line=lineno)
        else:
            rejected.append(RejectedRow(event_id, cell_id, period_id, "unknown cell"))
    return EventSet(tuple(kept)), tuple(rejected)


def reference_selections(path, strict):
    flagged = {}
    for lineno, (model_id, period_id, cell_id) in reference_rows(path, "selections"):
        if not model_id or not period_id or not cell_id:
            raise IngestError(path, "empty field", line=lineno)
        per = flagged.setdefault((model_id, period_id), set())
        if cell_id in per:
            raise IngestError(
                path, f"duplicate selection {model_id}/{period_id}/{cell_id}", line=lineno
            )
        if cell_id not in GRID.cell_ids:
            raise IngestError(
                path, f"model {model_id!r} flags unknown cell {cell_id!r}", line=lineno
            )
        per.add(cell_id)
    out = {}
    for (model_id, period_id), cells in flagged.items():
        out.setdefault(model_id, {})[period_id] = HotspotSelection(period_id, cells)
    return out


def reference_surfaces(path, strict):
    masses = {}
    for lineno, (model_id, period_id, cell_id, text) in reference_rows(path, "surfaces"):
        if not model_id or not period_id or not cell_id:
            raise IngestError(path, "empty field", line=lineno)
        if cell_id not in GRID.cell_ids:
            raise IngestError(
                path,
                f"model {model_id!r} assigns mass to unknown cell {cell_id!r}",
                line=lineno,
            )
        prob = parse_float(path, lineno, "probability", text)
        if prob < 0:
            raise IngestError(
                path, f"probability must be non-negative, got {prob!r}", line=lineno
            )
        per = masses.setdefault((model_id, period_id), {})
        if cell_id in per:
            raise IngestError(
                path,
                f"duplicate surface entry {model_id}/{period_id}/{cell_id}",
                line=lineno,
            )
        per[cell_id] = prob
    out = {}
    for (model_id, period_id), mass in sorted(masses.items()):
        missing = sorted(GRID.cell_ids - set(mass))
        if missing:
            raise IngestError(
                path,
                f"surface {model_id}/{period_id} misses {len(missing)} cells "
                f"(first: {missing[0]!r})",
            )
        try:
            surface = ProbabilitySurface(period_id, mass)
        except ValidationError as exc:
            raise IngestError(path, f"surface {model_id}/{period_id}: {exc}") from exc
        out.setdefault(model_id, {})[period_id] = surface
    return out


REFERENCE = {
    "cells": reference_cells,
    "units": reference_units,
    "events": reference_events,
    "selections": reference_selections,
    "surfaces": reference_surfaces,
}

LOADERS = {
    "cells": lambda path, strict: ingest.load_cells(path),
    "units": lambda path, strict: ingest.load_units(path),
    "events": lambda path, strict: ingest.load_events(path, GRID, strict),
    "selections": lambda path, strict: ingest.load_selections(path, GRID.cell_ids),
    "surfaces": lambda path, strict: ingest.load_surfaces(path, GRID),
}

#: Per kind, field index -> texts at or past the edge of the field's rules.
NUMBERS = ["x", "", "inf", "nan", "-1", "-0.0", "0", "1", "1.25", "1e400"]
EDGES = {
    "cells": {1: NUMBERS},
    "units": {1: NUMBERS, 2: NUMBERS},
    "events": {1: ["zz", "C1", "c4"]},
    "selections": {2: ["zz", "C1"]},
    "surfaces": {2: ["zz", "C1"], 3: NUMBERS},
}


@st.composite
def valid_rows(draw, kind):
    """Rows of a valid table of ``kind``, in a random order."""
    n = draw(st.integers(0, 16))
    if kind == "cells":
        areas = st.sampled_from(["1.5", "2", "0.25"])
        rows = [[f"c{i}", draw(areas)] for i in range(n)]
    elif kind == "units":
        crimes = st.sampled_from(["0.01", "0", "0.05"])
        rows = [[f"u{i}", "0.01", draw(crimes)] for i in range(n)]
    elif kind == "events":
        cells, periods = st.sampled_from(["c1", "c2", "c3"]), st.sampled_from(["p1", "p2"])
        rows = [[f"e{i:02d}", draw(cells), draw(periods)] for i in range(n)]
    elif kind == "selections":
        keys = [(m, p, c) for m in ("m1", "m2") for p in ("p1", "p2") for c in ("c1", "c2", "c3")]
        rows = list(map(list, draw(st.lists(st.sampled_from(keys), max_size=n, unique=True))))
    else:
        keys = draw(st.lists(st.sampled_from(["m1/p1", "m1/p2", "m2/p1"]), unique=True))
        rows = [
            [*key.split("/"), cell, mass]
            for key in keys
            for cell, mass in zip(("c1", "c2", "c3"), ("0.5", "0.25", "0.25"))
        ]
    # Sorted or shuffled: event ids that ascend take the loader's fast path.
    return rows if draw(st.booleans()) else draw(st.permutations(rows))


def inject(draw, kind, rows):
    """Put one fault into ``rows``, in place."""
    fault = draw(st.sampled_from(
        ["value", "value", "value", "duplicate", "duplicate", "empty", "padded",
         "blank", "wide", "narrow", "comma"]
    ))
    width = len(ingest.HEADERS[kind])
    i = draw(st.sampled_from([i for i, row in enumerate(rows) if len(row) == width]))
    field = draw(st.integers(0, len(rows[i]) - 1))
    if fault == "value":
        field = draw(st.sampled_from(sorted(EDGES[kind])))
        rows[i][field] = draw(st.sampled_from(EDGES[kind][field]))
    elif fault == "duplicate":
        # The first copy is at i; the repeat lands anywhere after it, so a
        # chunk that fails may hold the first copy in its left half.
        rows.insert(draw(st.integers(i + 1, len(rows))), list(rows[i]))
    elif fault == "empty":
        rows[i][field] = ""
    elif fault == "padded":
        rows[i][field] = draw(st.sampled_from([" ", "\t", "　"])) + rows[i][field]
    elif fault == "blank":
        rows.insert(i, [])
    elif fault == "wide":
        rows[i].append("x")
    elif fault == "narrow":
        rows[i].pop()
    else:
        rows[i][field] = f'"{rows[i][field]},x"'


@st.composite
def tables(draw, kind):
    """The text of a table of ``kind`` with up to three faults."""
    rows = draw(valid_rows(kind))
    for _ in range(draw(st.integers(0, 3))):
        if any(len(row) == len(ingest.HEADERS[kind]) for row in rows):
            inject(draw, kind, rows)
    header = ",".join(ingest.HEADERS[kind])
    return "".join(f"{line}\n" for line in [header, *map(",".join, rows)])


def outcome(load, path, strict):
    try:
        return load(path, strict)
    except (IngestError, ValidationError) as exc:
        return type(exc), str(exc)


def check(kind, text, strict, chunk):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, f"{kind}.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        expected = outcome(REFERENCE[kind], path, strict)
        with mock.patch.object(ingest, "_CHUNK_ROWS", chunk):
            assert outcome(LOADERS[kind], path, strict) == expected


@pytest.mark.parametrize("kind", LOADERS)
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_each_loader_loads_as_the_reference(kind, data):
    text = data.draw(tables(kind))
    strict = data.draw(st.booleans())
    chunk = data.draw(st.sampled_from([1, 2, 3, 1024]))
    check(kind, text, strict, chunk)


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("chunk", [1, 2, 3, 1024])
@pytest.mark.parametrize(
    "kind, rows",
    [
        # The first copy is in the left half of the one failing chunk, and a
        # fault of another rule lies between it and its repeat.
        ("cells", ["c1,1", "c2,1", "c3,x", "c4,1", "c1,1", "c5,0"]),
        ("units", ["u1,0.1,0.1", "u2,0.1,2", "u3,0.1,0.1", "u1,0.1,0.1"]),
        ("events", ["e1,c1,p1", "e2,zz,p1", "e3,c2,p1", "e1,c3,p2", "e4,zz,p2"]),
        ("events", ["e5,c1,p1", "e2,zz,p1", "e3,c2,p1", "e2,c3,p2", "e1,yy,p2"]),
        ("selections", ["m1,p1,c1", "m1,p1,zz", "m1,p2,c1", "m1,p1,c1"]),
        ("surfaces", ["m1,p1,c1,0.5", "m1,p1,c2,-1", "m1,p1,c3,0.25", "m1,p1,c1,0.25"]),
    ],
)
def test_a_repeat_of_a_row_in_the_left_half_of_a_failing_chunk(kind, rows, chunk, strict):
    header = ",".join(ingest.HEADERS[kind])
    check(kind, "".join(f"{line}\n" for line in [header, *rows]), strict, chunk)


@pytest.mark.parametrize("spread", [True, False])
@pytest.mark.parametrize("k", [0, 1, 10, 100])
def test_a_faulty_chunk_takes_at_most_2k_log2_n_column_checks(tmp_path, monkeypatch, spread, k):
    # One 1024-row chunk of events, k of them in an unknown cell: evenly
    # spread, or at random rows. In lenient mode a reject is not a fault,
    # so the chunk takes one check; in strict mode the first unknown cell
    # is refused, and only that row is bisected down to.
    n = 1024
    rows = [[f"e{i:04d}", f"c{1 + i % 3}", "p1"] for i in range(n)]
    faulty = range(0, n, n // k)[:k] if spread and k else random.Random(k).sample(range(n), k)
    for i in faulty:
        rows[i][1] = "zz"
    path = tmp_path / "events.csv"
    path.write_text("".join(f"{','.join(row)}\n" for row in [ingest.HEADERS["events"], *rows]))
    calls = []
    load_chunks = ingest._load_chunks

    def counted(path, kind, add_chunk, explain):
        def add(*columns):
            calls.append(len(columns[0]))
            return add_chunk(*columns)

        return load_chunks(path, kind, add, explain)

    monkeypatch.setattr(ingest, "_load_chunks", counted)
    events, rejected = ingest.load_events(str(path), GRID, strict=False)
    assert sorted(int(r.event_id[1:]) for r in rejected) == sorted(faulty)
    assert len(events) == n - k
    assert calls == [n]

    calls.clear()
    if k == 0:
        ingest.load_events(str(path), GRID, strict=True)
        assert calls == [n]
        return
    first = min(faulty)
    with pytest.raises(IngestError) as caught:
        ingest.load_events(str(path), GRID, strict=True)
    assert str(caught.value) == (
        f"{path}:{first + 2}: event 'e{first:04d}' references unknown cell 'zz'"
    )
    assert len(calls) <= 2 * math.ceil(math.log2(n)) + 1
