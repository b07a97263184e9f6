"""Faults at the reader's chunk boundary keep their message and line.

The loaders check each 1024-row chunk in passes over its columns, and only
a chunk that fails a check is bisected through the same checks, down to
the row that fails. Every fault kind is placed at data row 1023, 1024 or
1025 (lines 1024 to 1026): the last rows of the first chunk and the first
row of the second. A duplicate repeats a row of the first chunk, so at
1025 it is found across chunks. Blank lines and padded fields are not
faults: a file holding one loads as the clean file does, and a fault after
it keeps its own line.
"""

import math
import random

import pytest

from gridscore import HotspotUnit, IngestError, ValidationError, assign_events
from gridscore.ingest import (
    _load_keyed,
    _units_accepted,
    load_cells,
    load_events,
    load_selections,
    load_surfaces,
    load_units,
)

ROWS = (1023, 1024, 1025)

#: 600 grid cells; each surface is one (model, period) over all of them.
CELLS = [f"c{i:04d}" for i in range(1, 601)]
MASS = repr(1 / len(CELLS))


def cell_of(i):
    return CELLS[(i - 1) % len(CELLS)]


class Table:
    """A valid file of ``n`` data rows, and how to load it."""

    def __init__(self, header, row, n, load):
        self.header, self.row, self.n, self.load = header, row, n, load

    def lines(self):
        return [self.row(i) for i in range(1, self.n + 1)]


def load_with_grid(loader):
    def load(path, tmp_path):
        grid = load_cells(write(tmp_path / "grid.csv", "cell_id,area_km2",
                                [f"{c},1.0" for c in CELLS]))
        return loader(path, grid)
    return load


TABLES = {
    "cells": Table(
        "cell_id,area_km2",
        lambda i: f"c{i:04d},1.5",
        1100,
        lambda path, _: load_cells(path),
    ),
    "units": Table(
        "unit_id,area_fraction,crime_fraction",
        lambda i: f"u{i:04d},0.0005,0.0005",
        1100,
        lambda path, _: load_units(path),
    ),
    # Period p1 holds rows 1 to 700, period p2 the rest.
    "events": Table(
        "event_id,cell_id,period_id",
        lambda i: f"e{i:05d},{cell_of(i)},p{1 + i // 701}",
        1100,
        load_with_grid(load_events),
    ),
    # Model m1 flags 600 cells in p1 (rows 1 to 600), then m2 flags 500 in p1.
    "selections": Table(
        "model_id,period_id,cell_id",
        lambda i: f"m{1 + i // 601},p1,{cell_of(i)}",
        1100,
        load_with_grid(lambda path, grid: load_selections(path, grid.cell_ids)),
    ),
    # Surface m1/p1 on rows 1 to 600, m1/p2 on 601 to 1200.
    "surfaces": Table(
        "model_id,period_id,cell_id,probability",
        lambda i: f"m1,p{1 + i // 601},{cell_of(i)},{MASS}",
        1200,
        load_with_grid(load_surfaces),
    ),
}

#: (table, fault) -> (the faulty row i, the message it gets).
FAULTS = {
    ("cells", "empty field"): (lambda i: ",1.5", lambda i: "empty cell_id"),
    ("cells", "duplicate"): (lambda i: "c0005,1.5", lambda i: "duplicate cell_id 'c0005'"),
    ("cells", "not a number"): (
        lambda i: f"c{i:04d},wide", lambda i: "area_km2 is not a number: 'wide'"),
    ("cells", "not finite"): (
        lambda i: f"c{i:04d},inf", lambda i: "area_km2 must be finite, got 'inf'"),
    ("cells", "out of range"): (
        lambda i: f"c{i:04d},0",
        lambda i: f"cell 'c{i:04d}': area must be a positive finite number, got 0.0"),
    ("cells", "wrong width"): (
        lambda i: f"c{i:04d},1.5,x", lambda i: "expected 2 fields, found 3"),
    ("units", "empty field"): (lambda i: ",0.0005,0.0005", lambda i: "empty unit_id"),
    ("units", "duplicate"): (
        lambda i: "u0005,0.0005,0.0005", lambda i: "duplicate unit_id 'u0005'"),
    ("units", "not a number"): (
        lambda i: f"u{i:04d},0.0005,lots",
        lambda i: "crime_fraction is not a number: 'lots'"),
    ("units", "not finite"): (
        lambda i: f"u{i:04d},nan,0.0005", lambda i: "area_fraction must be finite, got 'nan'"),
    ("units", "out of range"): (
        lambda i: f"u{i:04d},0,0.0005",
        lambda i: f"unit 'u{i:04d}': area_fraction must be in (0, 1], got 0.0"),
    # The rules of HotspotUnit and Cell, which the column checks restate: a
    # refused value sends the chunk into the bisection.
    ("units", "area above 1"): (
        lambda i: f"u{i:04d},1.5,0.0005",
        lambda i: f"unit 'u{i:04d}': area_fraction must be in (0, 1], got 1.5"),
    ("units", "crime below 0"): (
        lambda i: f"u{i:04d},0.0005,-0.25",
        lambda i: f"unit 'u{i:04d}': crime_fraction must be in [0, 1], got -0.25"),
    ("units", "crime above 1"): (
        lambda i: f"u{i:04d},0.0005,1.25",
        lambda i: f"unit 'u{i:04d}': crime_fraction must be in [0, 1], got 1.25"),
    ("units", "nan crime"): (
        lambda i: f"u{i:04d},0.0005,nan", lambda i: "crime_fraction must be finite, got 'nan'"),
    ("cells", "negative area"): (
        lambda i: f"c{i:04d},-1.5",
        lambda i: f"cell 'c{i:04d}': area must be a positive finite number, got -1.5"),
    ("units", "wrong width"): (
        lambda i: f"u{i:04d},0.0005", lambda i: "expected 3 fields, found 2"),
    ("events", "empty field"): (lambda i: f"e{i:05d},,p2", lambda i: "empty field"),
    ("events", "duplicate"): (
        lambda i: "e00005,c0001,p2", lambda i: "duplicate event_id 'e00005'"),
    ("events", "unknown cell"): (
        lambda i: f"e{i:05d},zz,p2",
        lambda i: f"event 'e{i:05d}' references unknown cell 'zz'"),
    ("events", "wrong width"): (
        lambda i: f"e{i:05d},c0001", lambda i: "expected 3 fields, found 2"),
    ("selections", "empty field"): (lambda i: f"m2,,{cell_of(i)}", lambda i: "empty field"),
    ("selections", "duplicate"): (
        lambda i: "m2,p1,c0001", lambda i: "duplicate selection m2/p1/c0001"),
    ("selections", "unknown cell"): (
        lambda i: "m2,p1,zz", lambda i: "model 'm2' flags unknown cell 'zz'"),
    ("selections", "wrong width"): (
        lambda i: f"m2,p1,{cell_of(i)},x", lambda i: "expected 3 fields, found 4"),
    ("surfaces", "empty field"): (lambda i: f",p2,{cell_of(i)},{MASS}", lambda i: "empty field"),
    ("surfaces", "duplicate"): (
        lambda i: f"m1,p2,c0001,{MASS}", lambda i: "duplicate surface entry m1/p2/c0001"),
    ("surfaces", "unknown cell"): (
        lambda i: f"m1,p2,zz,{MASS}",
        lambda i: "model 'm1' assigns mass to unknown cell 'zz'"),
    ("surfaces", "not a number"): (
        lambda i: f"m1,p2,{cell_of(i)},some",
        lambda i: "probability is not a number: 'some'"),
    ("surfaces", "not finite"): (
        lambda i: f"m1,p2,{cell_of(i)},-inf",
        lambda i: "probability must be finite, got '-inf'"),
    ("surfaces", "out of range"): (
        lambda i: f"m1,p2,{cell_of(i)},-0.5",
        lambda i: "probability must be non-negative, got -0.5"),
    ("surfaces", "wrong width"): (
        lambda i: f"m1,p2,{cell_of(i)}", lambda i: "expected 4 fields, found 3"),
}


def write(path, header, lines, encoding="utf-8"):
    path.write_bytes(("\n".join([header, *lines]) + "\n").encode(encoding))
    return str(path)


def message(load, path, tmp_path):
    with pytest.raises(IngestError) as info:
        load(path, tmp_path)
    return str(info.value)


@pytest.mark.parametrize("row", ROWS)
@pytest.mark.parametrize("table, fault", FAULTS)
def test_a_fault_at_the_boundary_keeps_its_line(tmp_path, table, fault, row):
    spec = TABLES[table]
    bad_row, reason = FAULTS[table, fault]
    lines = spec.lines()
    lines[row - 1] = bad_row(row)
    path = write(tmp_path / f"{table}.csv", spec.header, lines)
    assert message(spec.load, path, tmp_path) == f"{path}:{row + 1}: {reason(row)}"


@pytest.mark.parametrize("row", ROWS)
@pytest.mark.parametrize("line", ["u{i:04d},0.0005,-0.0", "u{i:04d},1.0,0.0005"])
def test_units_the_rules_accept_load_at_the_boundary(tmp_path, line, row):
    # Crime -0.0 and area 1.0 pass HotspotUnit's rules, and so the chunk's
    # pre-check. (A table holding area 1.0 and more units then sums above 1,
    # which load_units refuses after the rows are read.)
    spec = TABLES["units"]
    lines = spec.lines()
    lines[row - 1] = line.format(i=row)
    path = write(tmp_path / "units.csv", spec.header, lines)
    columns = _load_keyed(path, "units", HotspotUnit, _units_accepted)
    ids, areas, crimes = zip(*(text.split(",") for text in lines))
    assert columns == [list(ids), list(map(float, areas)), list(map(float, crimes))]
    signs = [math.copysign(1.0, crime) for crime in columns[2]]
    assert signs.count(-1.0) == line.count("-0.0")
    if "-0.0" in line:
        assert load_units(path)[row - 1] == HotspotUnit(f"u{row:04d}", 0.0005, -0.0)


def padded(line):
    first, *rest = line.split(",")
    return ",".join([f" {first}\t", *rest[:-1], f"　{rest[-1]} "])


@pytest.mark.parametrize("row", ROWS)
@pytest.mark.parametrize("table", TABLES)
def test_blank_lines_and_padded_fields_load_as_the_clean_file(tmp_path, table, row):
    spec = TABLES[table]
    clean = spec.load(write(tmp_path / "clean.csv", spec.header, spec.lines()), tmp_path)
    lines = spec.lines()
    lines[row - 1] = padded(lines[row - 1])
    lines.insert(row - 1, "")
    path = write(tmp_path / f"{table}.csv", spec.header, lines)
    assert spec.load(path, tmp_path) == clean


@pytest.mark.parametrize("row", ROWS)
@pytest.mark.parametrize("table", TABLES)
def test_a_fault_after_a_blank_line_keeps_its_line(tmp_path, table, row):
    # The blank line takes line row + 1, and the wrong-width row after it
    # is data row ``row`` on line row + 2.
    spec = TABLES[table]
    bad_row, reason = FAULTS[table, "wrong width"]
    lines = spec.lines()
    lines[row - 1] = bad_row(row)
    lines.insert(row - 1, "")
    path = write(tmp_path / f"{table}.csv", spec.header, lines)
    assert message(spec.load, path, tmp_path) == f"{path}:{row + 2}: {reason(row)}"


@pytest.mark.parametrize("table", ["events", "selections", "surfaces"])
def test_shuffled_rows_load_as_the_file_in_order(tmp_path, table):
    """Shuffled, a chunk holds many short runs of each (model, period) and
    each period's event ids out of order."""
    spec = TABLES[table]
    lines = spec.lines()
    clean = spec.load(write(tmp_path / "clean.csv", spec.header, lines), tmp_path)
    random.Random(table).shuffle(lines)
    path = write(tmp_path / f"{table}.csv", spec.header, lines)
    assert spec.load(path, tmp_path) == clean


class TestFirstFaultWins:
    """An events file is checked a chunk at a time, in file order, and a
    chunk that fails a column check is bisected, left half first: the first
    fault of the file is the one reported, whichever check would have found
    a later one first."""

    EVENTS = TABLES["events"]

    def lines(self, n=2500):
        # Three chunks; the duplicate of e00005 is data row 500, in chunk 1.
        lines = [self.EVENTS.row(i) for i in range(1, n + 1)]
        lines[499] = f"e00005,{cell_of(500)},p1"
        return lines

    def test_before_an_undecodable_byte_in_chunk_3(self, tmp_path):
        lines = self.lines()
        lines[2199] = "e02200,c\xff01,p3"
        path = write(tmp_path / "events.csv", self.EVENTS.header, lines, "latin-1")
        assert message(self.EVENTS.load, path, tmp_path) == (
            f"{path}:501: duplicate event_id 'e00005'")

    def test_before_an_unknown_cell_in_chunk_3(self, tmp_path):
        lines = self.lines()
        lines[2199] = "e02200,zz,p3"
        path = write(tmp_path / "events.csv", self.EVENTS.header, lines)
        assert message(self.EVENTS.load, path, tmp_path) == (
            f"{path}:501: duplicate event_id 'e00005'")

    def test_the_undecodable_byte_alone(self, tmp_path):
        lines = self.EVENTS.lines() + [self.EVENTS.row(i) for i in range(1101, 2501)]
        lines[2199] = "e02200,c\xff01,p3"
        path = write(tmp_path / "events.csv", self.EVENTS.header, lines, "latin-1")
        assert message(self.EVENTS.load, path, tmp_path) == (
            f"{path}: not UTF-8 text (cannot decode byte 0xff)")


@pytest.mark.parametrize("row", [1023, 1024])
def test_the_id_of_a_lenient_reject_is_taken(tmp_path, row):
    # Row ``row`` is rejected in chunk 1; its id repeats at 1025, in chunk 2.
    spec = TABLES["events"]
    lines = spec.lines()
    lines[row - 1] = f"e{row:05d},zz,p2"
    lines[1024] = f"e{row:05d},{cell_of(1025)},p2"
    path = write(tmp_path / "events.csv", spec.header, lines)
    load = load_with_grid(lambda path, grid: load_events(path, grid, strict=False))
    assert message(load, path, tmp_path) == f"{path}:1026: duplicate event_id 'e{row:05d}'"


@pytest.mark.parametrize("strict", [True, False])
def test_an_unknown_cell_row_repeating_an_id_of_chunk_1(tmp_path, strict):
    # The duplicate check comes first: the row is refused in either mode.
    spec = TABLES["events"]
    lines = spec.lines()
    lines[1024] = "e00005,zz,p2"
    path = write(tmp_path / "events.csv", spec.header, lines)
    load = load_with_grid(lambda path, grid: load_events(path, grid, strict=strict))
    assert message(load, path, tmp_path) == f"{path}:1026: duplicate event_id 'e00005'"


@pytest.mark.parametrize("strict", [False, True])
def test_lenient_events_across_three_chunks_are_those_of_assign_events(tmp_path, strict):
    spec = TABLES["events"]
    rows = [spec.row(i).split(",") for i in range(1, 2501)]
    for i in (3, 1023, 1024, 1025, 2048, 2049, 2400):
        rows[i - 1][1] = f"zz{i}"
    path = write(tmp_path / "events.csv", spec.header, map(",".join, rows))
    grid = load_cells(write(tmp_path / "grid.csv", "cell_id,area_km2",
                            [f"{c},1.0" for c in CELLS]))
    if strict:
        # The loader words the first unknown cell, on line 4, as the library.
        with pytest.raises(ValidationError) as expected:
            assign_events(grid, map(tuple, rows))
        with pytest.raises(IngestError) as got:
            load_events(path, grid)
        assert str(got.value) == f"{path}:4: {expected.value}"
        return
    events, rejected = load_events(path, grid, strict=False)
    assert (events, rejected) == assign_events(grid, map(tuple, rows), strict=False)
    assert [r.event_id for r in rejected] == [
        "e00003", "e01023", "e01024", "e01025", "e02048", "e02049", "e02400"]
    assert len(events) == 2500 - 7
