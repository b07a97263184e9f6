"""The reader's two paths hand out the same chunks.

``ingest._read_chunks`` splits a chunk of lines itself while its text is
plain (``ingest._split_lines``), and reads the rest of the file with
``csv.reader`` from the first chunk that is not. Here each drawn file is
read twice: as is, and with ``_split_lines`` answering None, so that
``csv.reader`` reads every chunk. The two reads must hand out the same line
numbers and columns (or rows, for a chunk that is not clean), and end with
the same :class:`IngestError`, if any.

The drawn files hold quotes, commas and spaces inside fields, ``\\r\\n`` and
``\\r`` line ends, blank lines, rows of the wrong width, a missing final
newline, NUL, non-ASCII text, byte order marks, bytes that are not UTF-8,
and fields at and past csv's field size limit.
"""

import csv
import os
import tempfile
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridscore import IngestError, ingest

HEADER = ",".join(ingest.HEADERS["events"])

#: Field text: mostly plain, now and then a character that makes a chunk
#: unclean or changes how csv reads it.
PLAIN = st.text("abc019_-.:", min_size=0, max_size=4)
ODD = st.sampled_from(['"', '""', " ", ",", "\x00", "\t", "\xe9", "\ufeff", "\u3000", "\r"])


@st.composite
def files(draw):
    """The bytes of an events file, and the field size limit to read it by."""
    limit = draw(st.sampled_from([8, 16, csv.field_size_limit()]))
    lines = [HEADER]
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "wide", "narrow", "long", "odd"]))
        if kind == "blank":
            lines.append("")
            continue
        width = {"wide": 4, "narrow": 2}.get(kind, 3)
        fields = [draw(PLAIN) for _ in range(width)]
        if kind == "long":
            fields[draw(st.integers(0, 2))] = "x" * (limit + draw(st.integers(-1, 1)))
        elif kind == "odd":
            i = draw(st.integers(0, 2))
            fields[i] = draw(ODD) + fields[i] + draw(st.sampled_from(["", '"']))
        lines.append(",".join(fields))
    ends = [draw(st.sampled_from(["\n"] * 8 + ["\r\n", "\r"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""  # no final newline
    text = "".join(map(str.__add__, lines, ends))
    data = (draw(st.sampled_from(["", "\ufeff"])) + text).encode("utf-8")
    if draw(st.integers(0, 7)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data, limit


def chunks(path):
    """What ``_read_chunks`` hands out for ``path``: each chunk's line, and
    its columns or, if it has none, its rows; then the error it ends with."""
    out = []
    try:
        for lineno, rows, columns in ingest._read_chunks(path, "events"):
            if columns is None:
                out.append(("rows", lineno, rows))
            else:
                out.append(("columns", lineno, tuple(map(tuple, columns))))
    except IngestError as exc:
        return out, str(exc)
    return out, None


@settings(max_examples=500, deadline=None)
@given(drawn=files(), chunk=st.sampled_from([1, 2, 3, 5, 1024]))
@example(drawn=(f"{HEADER}\ne1,c1,p1\ne2,c2,p2".encode(), 16), chunk=1024)
@example(drawn=(f"{HEADER}\r\ne1,c1,p1\r\n".encode(), 16), chunk=1)
def test_the_split_path_reads_as_csv_does(drawn, chunk):
    data, limit = drawn
    before = csv.field_size_limit(limit)
    try:
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "events.csv")
            with open(path, "wb") as handle:
                handle.write(data)
            with mock.patch.object(ingest, "_CHUNK_ROWS", chunk):
                as_is = chunks(path)
                with mock.patch.object(ingest, "_split_lines", lambda lines, width: None):
                    by_csv = chunks(path)
    finally:
        csv.field_size_limit(before)
    assert as_is == by_csv


def test_a_field_at_the_limit_is_split_and_one_past_it_is_refused(tmp_path):
    limit = csv.field_size_limit()
    path = tmp_path / "events.csv"
    path.write_text(f"{HEADER}\ne1,{'x' * limit},p1\n")
    assert chunks(str(path)) == ([("columns", 2, (("e1",), ("x" * limit,), ("p1",)))], None)
    path.write_text(f"{HEADER}\ne1,c1,p1\ne2,{'x' * (limit + 1)},p1\n")
    assert chunks(str(path)) == (
        [("columns", 2, (("e1",), ("c1",), ("p1",)))],
        f"{path}:3: field larger than field limit ({limit})",
    )


def test_a_csv_error_after_the_switch_names_the_line_of_the_file(tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "_CHUNK_ROWS", 2)
    path = tmp_path / "events.csv"
    long = "x" * (csv.field_size_limit() + 1)
    path.write_text(f"{HEADER}\ne1,c1,p1\ne2,c1,p1\ne3,\"c1\",p1\n e4,c1,p1\ne5,{long},p1\n")
    out, error = chunks(str(path))
    # Lines 2-3 are split; csv.reader reads from line 4 and fails on its third.
    assert [kind for kind, *_ in out] == ["columns", "rows"]
    assert error == f"{path}:6: field larger than field limit ({csv.field_size_limit()})"
