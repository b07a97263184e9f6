"""Each loader reads a chunk alike whether or not the reader found it clean.

A clean chunk goes to the loader's column checks as read. Any other chunk is
first normalized row by row, blank lines skipped and fields stripped, and
then goes to the same column checks; a row of the wrong width or with a
comma in a field ends it, and is refused after the rows before it. Here
every loader reads a random table twice: as is, and with
``ingest._split_lines`` and ``ingest._clean_columns`` answering None, so
that every chunk is read by ``csv.reader`` and normalized. The two loads must return equal results and rejects, or refuse
the file with the same message and line. The tables are valid, or hold one
injected fault; small chunk sizes mix clean and faulty chunks.
"""

import os
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridscore import Cell, GridSpec, IngestError, ValidationError, ingest

GRID = GridSpec(tuple(Cell(c, 1.0) for c in ("c1", "c2", "c3")))

LOADERS = {
    "cells": lambda path, strict: ingest.load_cells(path),
    "units": lambda path, strict: ingest.load_units(path),
    "events": lambda path, strict: ingest.load_events(path, GRID, strict),
    "selections": lambda path, strict: ingest.load_selections(path, GRID.cell_ids),
    "surfaces": lambda path, strict: ingest.load_surfaces(path, GRID),
}

#: Per kind, field index -> texts at or past the edge of the field's rules:
#: unknown cells, and numbers that do not parse, are not finite, or lie at
#: or outside the bounds of their range.
NUMBERS = ["x", "inf", "nan", "-1", "-0.0", "0", "1", "1.25"]
EDGES = {
    "cells": {1: NUMBERS},
    "units": {1: NUMBERS, 2: NUMBERS},
    "events": {1: ["zz", "C1"]},
    "selections": {2: ["zz", "C1"]},
    "surfaces": {2: ["zz", "C1"], 3: NUMBERS},
}


@st.composite
def valid_rows(draw, kind):
    """Rows of a valid table of ``kind``, in a random order."""
    n = draw(st.integers(0, 12))
    if kind == "cells":
        areas = st.sampled_from(["1.5", "2", "0.25"])
        rows = [[f"c{i}", draw(areas)] for i in range(n)]
    elif kind == "units":
        crimes = st.sampled_from(["0.01", "0", "0.05"])
        rows = [[f"u{i}", "0.01", draw(crimes)] for i in range(n)]
    elif kind == "events":
        cells, periods = st.sampled_from(["c1", "c2", "c3"]), st.sampled_from(["p1", "p2"])
        rows = [[f"e{i}", draw(cells), draw(periods)] for i in range(n)]
    elif kind == "selections":
        keys = [(m, p, c) for m in ("m1", "m2") for p in ("p1", "p2") for c in ("c1", "c2", "c3")]
        rows = list(map(list, draw(st.lists(st.sampled_from(keys), max_size=n, unique=True))))
    else:
        # Whole surfaces: every cell of each (model, period) once.
        keys = draw(st.lists(st.sampled_from(["m1/p1", "m1/p2", "m2/p1"]), unique=True))
        rows = [
            [*key.split("/"), cell, mass]
            for key in keys
            for cell, mass in zip(("c1", "c2", "c3"), ("0.5", "0.25", "0.25"))
        ]
    return draw(st.permutations(rows))


@st.composite
def tables(draw, kind):
    """The text of a table of ``kind``: valid, or with one fault."""
    rows = draw(valid_rows(kind))
    fault = draw(st.sampled_from([None, "layout", "duplicate", "value", "value"]))
    if fault == "layout":
        fault = draw(st.sampled_from(["blank", "padded", "empty", "wide", "narrow", "comma"]))
    if rows and fault is not None:
        i = draw(st.integers(0, len(rows) - 1))
        field = draw(st.integers(0, len(rows[i]) - 1))
        if fault == "value":
            field = draw(st.sampled_from(sorted(EDGES[kind])))
            rows[i][field] = draw(st.sampled_from(EDGES[kind][field]))
        elif fault == "blank":
            rows.insert(i, [])
        elif fault == "padded":
            rows[i][field] = draw(st.sampled_from([" ", "\t", "　"])) + rows[i][field]
        elif fault == "empty":
            rows[i][field] = ""
        elif fault == "wide":
            rows[i].append("x")
        elif fault == "narrow":
            rows[i].pop()
        elif fault == "comma":
            rows[i][field] = f'"{rows[i][field]},x"'
        else:
            rows.insert(draw(st.integers(i + 1, len(rows))), list(rows[i]))
    header = ",".join(ingest.HEADERS[kind])
    return "".join(f"{line}\n" for line in [header, *map(",".join, rows)])


def outcome(kind, path, strict):
    try:
        return LOADERS[kind](path, strict)
    except (IngestError, ValidationError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("kind", LOADERS)
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_the_row_checks_load_as_the_column_checks(kind, data):
    text = data.draw(tables(kind))
    strict = data.draw(st.booleans())
    chunk = data.draw(st.sampled_from([1, 2, 3, 1024]))
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, f"{kind}.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        with mock.patch.object(ingest, "_CHUNK_ROWS", chunk):
            as_is = outcome(kind, path, strict)
            with mock.patch.object(ingest, "_split_lines", lambda lines, width: None), \
                    mock.patch.object(ingest, "_clean_columns", lambda rows, width: None):
                row_by_row = outcome(kind, path, strict)
    assert as_is == row_by_row
