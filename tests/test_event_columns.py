"""Columnar events and the chunked reader against the row-at-a-time code.

``assign_events`` and ``load_events`` hold events as per-period columns and
build no ``Event``; the reference here builds the ``Event`` objects and an
``EventSet`` from them, as the public constructor does, and also checks the
canonical order and the per-cell counts from scratch. ``load_events`` is
held to a reader, row checks and assignment that take every check on every
row, one row at a time, at several chunk sizes, on files with blank lines,
padded fields and faults of every kind.
"""

import csv
import itertools
import operator
import os
import tempfile
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridscore import (
    Cell,
    Event,
    EventSet,
    GridSpec,
    IngestError,
    ValidationError,
    assign_events,
    ingest,
)
from gridscore.domain import RejectedRow

GRID = GridSpec(tuple(Cell(c, 1.0) for c in ("c1", "c2", "c3")))
CANONICAL = operator.attrgetter("period", "event_id", "cell_id")


def assert_same_event_set(got, reference):
    """Every observable of two event sets agrees, ``got``'s lazily built
    events asked for only after its columns have answered."""
    periods = reference.periods()
    assert got.periods() == periods
    assert len(got) == len(reference)
    for period in periods + ("absent",):
        assert got.count(period) == reference.count(period)
        assert list(got.counts_by_cell(period).items()) == list(
            reference.counts_by_cell(period).items()
        )
    assert list(got.counts_by_cell().items()) == list(reference.counts_by_cell().items())
    assert got == reference and reference == got
    assert hash(got) == hash(reference)
    assert [got.in_period(p) for p in periods + ("absent",)] == [
        reference.in_period(p) for p in periods + ("absent",)
    ]
    assert got.events == reference.events
    assert repr(got) == repr(reference)
    # The reference itself is the canonical order and its counts.
    events = tuple(sorted(reference.events, key=CANONICAL))
    assert reference.events == events
    assert list(reference.counts_by_cell().items()) == list(
        Counter(e.cell_id for e in events).items()
    )


IDS = st.sampled_from([f"e{i}" for i in range(12)])
CELLS = st.sampled_from(["c1", "c2", "c3", "zz"])
PERIODS = st.sampled_from(["p1", "p2", "p10", "p3"])
RAW_ROWS = st.lists(st.tuples(IDS, CELLS, PERIODS), max_size=30)


def reference_assign(grid, rows, strict):
    kept, rejected = [], []
    for event_id, cell_id, period in rows:
        if cell_id in grid.cell_ids:
            kept.append(Event(event_id, cell_id, period))
        elif strict:
            raise ValidationError(f"event {event_id!r} references unknown cell {cell_id!r}")
        else:
            rejected.append(RejectedRow(event_id, cell_id, period, "unknown cell"))
    return EventSet(tuple(kept)), tuple(rejected)


class TestAssignEvents:
    @settings(max_examples=300, deadline=None)
    @given(RAW_ROWS, st.booleans())
    def test_equals_an_event_set_of_events(self, rows, strict):
        consumed = []

        def stream():
            for row in rows:
                consumed.append(row)
                yield row

        try:
            expected = reference_assign(GRID, rows, strict)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as info:
                assign_events(GRID, stream(), strict)
            assert str(info.value) == str(exc)
            # Raised on the offending row: nothing after it was read.
            assert consumed[-1][1] not in GRID.cell_ids
            assert all(c in GRID.cell_ids for _, c, _ in consumed[:-1])
            return
        events, rejected = assign_events(GRID, stream(), strict)
        assert rejected == expected[1]
        assert_same_event_set(events, expected[0])
        # The one constructor puts columns given in any order in canonical
        # order: here the kept rows in input order, periods as first seen.
        columns = {}
        for event_id, cell_id, period in rows:
            if cell_id in GRID.cell_ids:
                ids, cells = columns.setdefault(period, ([], []))
                ids.append(event_id)
                cells.append(cell_id)
        assert_same_event_set(EventSet._of_columns(columns), expected[0])

    def test_repeated_ids_keep_the_cell_order(self):
        rows = [("e1", "c3", "p1"), ("e1", "c1", "p1"), ("e1", "c2", "p1")]
        events, _ = assign_events(GRID, rows)
        assert [e.cell_id for e in events.events] == ["c1", "c2", "c3"]
        assert_same_event_set(events, reference_assign(GRID, rows, True)[0])

    def test_an_empty_set_equals_the_empty_public_one(self):
        events, rejected = assign_events(GRID, [])
        assert rejected == ()
        assert_same_event_set(events, EventSet(()))

    def test_event_sets_stay_immutable(self):
        events, _ = assign_events(GRID, [("e1", "c1", "p1")])
        with pytest.raises(AttributeError):
            events.events = ()
        with pytest.raises(AttributeError):
            del events._columns
        assert len(events) == 1

    def test_events_are_built_once(self):
        rows = [("e2", "c1", "p2"), ("e3", "c3", "p1"), ("e1", "c2", "p1")]
        for events in (assign_events(GRID, rows)[0], EventSet(Event(*r) for r in rows)):
            assert events.events is events.events
            assert events.in_period("p1") == events.events[:2]

    def test_events_do_not_call_a_wrapped_in_period(self, monkeypatch):
        """A profiler may wrap ``in_period`` with code that reads
        ``events``; ``events`` must not call ``in_period`` back."""
        rows = [("e2", "c1", "p2"), ("e3", "c3", "p1"), ("e1", "c2", "p1")]
        periods = ("p1", "p2", "absent")
        plain, _ = assign_events(GRID, rows)
        expected = [plain.in_period(p) for p in periods], plain.events
        in_period, visited = EventSet.in_period, []

        def counted(self, period):
            visited.append(len(self.events))
            return in_period(self, period)

        monkeypatch.setattr(EventSet, "in_period", counted)
        traced, _ = assign_events(GRID, rows)
        assert [traced.in_period(p) for p in periods] == expected[0]
        assert traced.events == expected[1]
        assert visited == [3, 3, 3]


# ---------------------------------------------------------------------------
# load_events against the row-at-a-time reader


def reference_read_table(path, kind):
    """The reader one row at a time: every check on every row."""
    header = ingest.HEADERS[kind]
    with ingest._open(path) as handle, ingest._read_errors(
        path, reader := csv.reader(handle)
    ):
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
        width = len(header)
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width:
                if not row:
                    continue
                raise IngestError(
                    path, f"expected {width} fields, found {len(row)}", line=lineno
                )
            if ingest._unsafe("".join(row)):
                name, text = next(
                    (h, f) for h, f in zip(header, row) if ingest._unsafe(f)
                )
                raise IngestError(
                    path,
                    f"{name} {text!r} contains a comma or line break, which "
                    f"report rows cannot carry",
                    line=lineno,
                )
            yield lineno, list(map(str.strip, row))


def reference_load_events(path, grid, strict):
    lineno = 0

    def rows():
        nonlocal lineno
        seen = set()
        for lineno, (event_id, cell_id, period_id) in reference_read_table(
            path, "events"
        ):
            if not event_id or not cell_id or not period_id:
                raise IngestError(path, "empty field", line=lineno)
            if event_id in seen:
                raise IngestError(path, f"duplicate event_id {event_id!r}", line=lineno)
            seen.add(event_id)
            yield event_id, cell_id, period_id

    try:
        return reference_assign(grid, rows(), strict)
    except ValidationError as exc:
        raise IngestError(path, str(exc), line=lineno) from exc


def outcome(load, path, strict):
    try:
        return load(path, GRID, strict)
    except IngestError as exc:
        return str(exc)


@st.composite
def event_lines(draw, faults):
    """One line of an events file: a row, maybe padded, or a blank line;
    with ``faults``, also rows the loader refuses."""
    event_id = draw(st.sampled_from([f"e{i}" for i in range(8)])) if faults else None
    cell = draw(CELLS if faults else st.sampled_from(["c1", "c2", "c3"]))
    fields = [event_id, cell, draw(PERIODS)]
    kinds = ["row"] * 6 + ["padded", "blank"]
    if faults:
        kinds += ["empty", "wide", "comma"]
    kind = draw(st.sampled_from(kinds))
    if kind == "blank":
        return ""
    if kind == "padded":
        pad = draw(st.sampled_from([" ", "\t", "\xa0", "\u3000"]))
        fields = [f"{pad}{f}" if f is not None else f for f in fields]
        fields[-1] += pad
    elif kind == "empty":
        fields[draw(st.integers(0, 2))] = " "
    elif kind == "wide":
        fields.append("x")
    elif kind == "comma":
        fields[1] = '"c1,c2"'
    return fields


@st.composite
def event_files(draw):
    faults = draw(st.booleans())
    lines = draw(st.lists(event_lines(faults), max_size=25))
    out = []
    for n, fields in enumerate(lines):
        if fields == "":
            out.append("")
            continue
        if fields[0] is None:
            fields[0] = f"u{n}"
        out.append(",".join(fields))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return "event_id,cell_id,period_id" + ending + "".join(x + ending for x in out)


class TestLoadEvents:
    @settings(max_examples=300, deadline=None)
    @given(event_files(), st.booleans())
    def test_equals_the_row_at_a_time_loader(self, text, strict):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "events.csv")
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            expected = outcome(reference_load_events, path, strict)
            for chunk in (1, 2, 3, 5, 1024):
                with mock.patch.object(ingest, "_CHUNK_ROWS", chunk):
                    got = outcome(ingest.load_events, path, strict)
                if isinstance(expected, str):
                    assert got == expected
                else:
                    assert got[1] == expected[1]
                    assert_same_event_set(got[0], expected[0])

    @pytest.mark.parametrize("chunk", [2, 3, 4])
    def test_rows_on_both_sides_of_a_chunk_boundary(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(ingest, "_CHUNK_ROWS", chunk)
        path = tmp_path / "events.csv"
        path.write_text(
            "event_id,cell_id,period_id\n"
            "e1,c1,p2\n e2 ,c2,p1\n\ne3,c3 ,p2\ne4,c1,p1\n\n\ne5,c2,p1\ne6,c3,p3\n",
            encoding="utf-8",
        )
        events, rejected = ingest.load_events(str(path), GRID)
        reference = EventSet(tuple(itertools.starmap(Event, [
            ("e1", "c1", "p2"), ("e2", "c2", "p1"), ("e3", "c3", "p2"),
            ("e4", "c1", "p1"), ("e5", "c2", "p1"), ("e6", "c3", "p3"),
        ])))
        assert rejected == ()
        assert_same_event_set(events, reference)

    def test_a_lenient_file_builds_one_event_set(self, tmp_path, monkeypatch):
        # Each of the three 2-row chunks holds a row in an unknown cell.
        monkeypatch.setattr(ingest, "_CHUNK_ROWS", 2)
        path = tmp_path / "events.csv"
        path.write_text(
            "event_id,cell_id,period_id\n"
            "e1,c1,p1\ne2,zz,p1\ne3,zz,p2\ne4,c2,p2\ne5,c3,p1\ne6,zz,p1\n",
            encoding="utf-8",
        )
        of_columns, built = EventSet._of_columns, []

        def counted(cls, columns):
            built.append(columns)
            return of_columns(columns)

        monkeypatch.setattr(EventSet, "_of_columns", classmethod(counted))
        events, rejected = ingest.load_events(str(path), GRID, strict=False)
        assert len(built) == 1
        assert [r.event_id for r in rejected] == ["e2", "e3", "e6"]
        assert len(events) == 3

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 1024])
    @pytest.mark.parametrize(
        "rows, message",
        [
            ("e1,c1,p1\ne2,c2,p1\ne3,c3,p1\ne1,c1,p2\n", "5: duplicate event_id 'e1'"),
            ("e1,c1,p1\ne2,c2,p1\n\ne3,zz,p1\n",
             "5: event 'e3' references unknown cell 'zz'"),
            ("e1,c1,p1\ne2,c2,p1\ne3,c3,p1\ne4,c1\n", "5: expected 3 fields, found 2"),
            ("e1,c1,p1\ne2,c2,p1\ne3,c3,p1\ne4,\"c,1\",p1\n",
             "5: cell_id 'c,1' contains a comma or line break, which report rows "
             "cannot carry"),
        ],
    )
    def test_a_fault_keeps_its_line_at_any_chunk_size(
        self, tmp_path, monkeypatch, chunk, rows, message
    ):
        monkeypatch.setattr(ingest, "_CHUNK_ROWS", chunk)
        path = tmp_path / "events.csv"
        path.write_text("event_id,cell_id,period_id\n" + rows, encoding="utf-8")
        with pytest.raises(IngestError) as info:
            ingest.load_events(str(path), GRID)
        assert str(info.value) == f"{path}:{message}"
