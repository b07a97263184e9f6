import csv
import io
import os
import random
import string
import sys
import tempfile
import tracemalloc

import numpy as np
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
    assign_events,
    coverage,
    hit_rate,
    ingest,
)
from gridscore.ingest import (
    DEFAULT_ORIENTATION,
    MEASURE_IDS,
    RunConfig,
    load_cells,
    load_config,
    load_dataset,
    load_events,
    load_selections,
    load_surfaces,
    load_units,
    read_config_pairs,
    write_cells,
    write_events,
    write_selections,
    write_surfaces,
    write_units,
)
from gridscore.alpha_search import cumulative_levels, order_units
from gridscore.metrics import FRACTION_TOL

from conftest import AREA_FRACTIONS, CRIME_FRACTIONS


def w(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


CELLS_CSV = "cell_id,area_km2\nc1,1.0\nc2,1.0\nc3,2.0\n"
EVENTS_CSV = "event_id,cell_id,period_id\ne1,c1,p1\ne2,c2,p1\ne3,c1,p2\n"
SELECTIONS_CSV = "model_id,period_id,cell_id\nm1,p1,c1\nm1,p2,c2\nm2,p1,c3\n"


class TestLoadCells:
    def test_good_file(self, tmp_path):
        grid = load_cells(w(tmp_path / "cells.csv", CELLS_CSV))
        assert len(grid.cells) == 3
        assert grid.total_area_km2 == 4.0

    def test_bad_header(self, tmp_path):
        path = w(tmp_path / "cells.csv", "cell,area\nc1,1.0\n")
        with pytest.raises(IngestError, match="header"):
            load_cells(path)

    def test_duplicate_id_cites_line(self, tmp_path):
        path = w(tmp_path / "cells.csv", "cell_id,area_km2\nc1,1.0\nc1,2.0\n")
        with pytest.raises(IngestError, match=r"csv:3:"):
            load_cells(path)

    def test_non_numeric_area(self, tmp_path):
        path = w(tmp_path / "cells.csv", "cell_id,area_km2\nc1,wide\n")
        with pytest.raises(IngestError, match="not a number"):
            load_cells(path)

    def test_zero_area(self, tmp_path):
        path = w(tmp_path / "cells.csv", "cell_id,area_km2\nc1,0.0\n")
        with pytest.raises(IngestError):
            load_cells(path)

    def test_wrong_field_count(self, tmp_path):
        path = w(tmp_path / "cells.csv", "cell_id,area_km2\nc1,1.0,extra\n")
        with pytest.raises(IngestError, match="fields"):
            load_cells(path)

    def test_empty_file(self, tmp_path):
        path = w(tmp_path / "cells.csv", "")
        with pytest.raises(IngestError, match="empty"):
            load_cells(path)

    def test_header_only(self, tmp_path):
        path = w(tmp_path / "cells.csv", "cell_id,area_km2\n")
        with pytest.raises(IngestError, match="no cells"):
            load_cells(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = w(tmp_path / "cells.csv", "cell_id,area_km2\nc1,1.0\n\nc2,1.0\n")
        assert len(load_cells(path).cells) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="cannot open"):
            load_cells(str(tmp_path / "nope.csv"))

    def test_byte_order_mark_accepted(self, tmp_path):
        path = w(tmp_path / "cells.csv", "\ufeff" + CELLS_CSV)
        assert [c.id for c in load_cells(path).cells] == ["c1", "c2", "c3"]

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("c1,1.0\n,2.0\n", "3: empty cell_id"),
            ("c1,1.0\nc1,2.0\n", "3: duplicate cell_id 'c1'"),
            ("c1,wide\n", "2: area_km2 is not a number: 'wide'"),
            ("c1,inf\n", "2: area_km2 must be finite, got 'inf'"),
            ("c1,nan\n", "2: area_km2 must be finite, got 'nan'"),
            ("c1,0\n", "2: cell 'c1': area must be a positive finite number, got 0.0"),
            ("c1,-1.5\n", "2: cell 'c1': area must be a positive finite number, got -1.5"),
            ("", " no cells defined"),
            # Two faults: the first bad row wins, and within a row the id
            # is checked before the number.
            ("c1,1.0\nc1,wide\n", "3: duplicate cell_id 'c1'"),
            ("c1,wide\nc1,1.0\n", "2: area_km2 is not a number: 'wide'"),
            ("c1,0\n,1.0\n", "2: cell 'c1': area must be a positive finite number, got 0.0"),
            ("c1,1.0\nc2,-1\nc1,1.0\n",
             "3: cell 'c2': area must be a positive finite number, got -1.0"),
        ],
    )
    def test_first_fault_and_its_line(self, tmp_path, rows, message):
        path = w(tmp_path / "cells.csv", "cell_id,area_km2\n" + rows)
        with pytest.raises(IngestError) as info:
            load_cells(path)
        assert str(info.value) == f"{path}:{message}"


@pytest.mark.parametrize(
    "loader",
    [load_cells, load_units, lambda p: load_events(p, GridSpec((Cell("c1", 1.0),)))],
    ids=["cells", "units", "events"],
)
@pytest.mark.parametrize(
    "target, reason",
    [("nope.csv", "No such file or directory"), (".", "Is a directory")],
    ids=["missing", "directory"],
)
def test_unopenable_input(tmp_path, loader, target, reason):
    path = str(tmp_path / target)
    with pytest.raises(IngestError) as info:
        loader(path)
    assert str(info.value) == f"{path}: cannot open: {reason}"


class TestLoadEvents:
    def test_good_file(self, tmp_path):
        grid = load_cells(w(tmp_path / "cells.csv", CELLS_CSV))
        events, rejected = load_events(
            w(tmp_path / "events.csv", EVENTS_CSV), grid
        )
        assert len(events) == 3
        assert rejected == ()
        assert events.periods() == ("p1", "p2")

    def test_unknown_cell_strict(self, tmp_path):
        grid = load_cells(w(tmp_path / "cells.csv", CELLS_CSV))
        path = w(
            tmp_path / "events.csv",
            # The first bad row is reported, not the later duplicate id.
            "event_id,cell_id,period_id\ne1,c1,p1\ne2,zz,p1\ne1,c2,p1\n",
        )
        with pytest.raises(IngestError) as info:
            load_events(path, grid, strict=True)
        assert str(info.value) == f"{path}:3: event 'e2' references unknown cell 'zz'"

    def test_unknown_cell_lenient(self, tmp_path):
        grid = load_cells(w(tmp_path / "cells.csv", CELLS_CSV))
        path = w(
            tmp_path / "events.csv",
            "event_id,cell_id,period_id\ne1,c1,p1\ne2,zz,p1\n",
        )
        events, rejected = load_events(path, grid, strict=False)
        assert len(events) == 1
        assert len(rejected) == 1
        assert rejected[0].event_id == "e2"
        assert rejected[0].reason == "unknown cell"

    def test_lenient_rejects_are_those_of_assign_events(self, tmp_path):
        grid = load_cells(w(tmp_path / "cells.csv", CELLS_CSV))
        rows = [("e1", "c1", "p1"), ("e2", "zz", "p1"), ("e3", "c2", "p2"),
                ("e4", "yy", "p2"), ("e5", "zz", "p1")]
        path = w(
            tmp_path / "events.csv",
            "event_id,cell_id,period_id\n" + "".join(f"{','.join(r)}\n" for r in rows),
        )
        loaded = load_events(path, grid, strict=False)
        assert loaded == assign_events(grid, rows, strict=False)
        assert [r.event_id for r in loaded[1]] == ["e2", "e4", "e5"]

    @pytest.mark.parametrize(
        "rows, kept",
        [("e1,c1,p1\ne2,zz,p1\ne3,c2,p1\n", 2), ("e1,c1,p1\n\ne3,c2,p1\n", 2),
         ("e1,c1,p1\n e2,c2,p1\ne3,c2,p1\n", 3)],
        ids=["unknown-cell", "blank-line", "padded-field"],
    )
    def test_a_file_that_needs_the_row_checks_is_read_once(
        self, tmp_path, monkeypatch, rows, kept
    ):
        grid = load_cells(w(tmp_path / "cells.csv", CELLS_CSV))
        path = w(tmp_path / "events.csv", "event_id,cell_id,period_id\n" + rows)
        calls = []
        read_chunks = ingest._read_chunks

        def counted(*args):
            calls.append(args)
            return read_chunks(*args)

        monkeypatch.setattr(ingest, "_read_chunks", counted)
        events, _ = load_events(path, grid, strict=False)
        assert calls == [(path, "events")]
        assert len(events) == kept

    def test_duplicate_event_id(self, tmp_path):
        grid = load_cells(w(tmp_path / "cells.csv", CELLS_CSV))
        path = w(
            tmp_path / "events.csv",
            "event_id,cell_id,period_id\ne1,c1,p1\ne1,c2,p1\n",
        )
        with pytest.raises(IngestError, match="duplicate event_id"):
            load_events(path, grid)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("e1,c1,p1\n,c2,p1\n", "3: empty field"),
            ("e1,,p1\n", "2: empty field"),
            ("e1,c1,\n", "2: empty field"),
            ("e1,c1,p1\ne1,c2,p2\n", "3: duplicate event_id 'e1'"),
            ("e1,zz,p1\n", "2: event 'e1' references unknown cell 'zz'"),
            ("e1,c1,p1,x\n", "2: expected 3 fields, found 4"),
            # Two faults: the first bad row wins, and within a row the
            # duplicate id is found before the unknown cell.
            ("e1,c1,p1\ne1,zz,p1\n", "3: duplicate event_id 'e1'"),
            ("e1,zz,p1\ne1,c1,p1\n", "2: event 'e1' references unknown cell 'zz'"),
            ("e1,c1,p1\ne2,c1,\ne2,zz,p1\n", "3: empty field"),
        ],
    )
    def test_first_fault_and_its_line(self, tmp_path, rows, message):
        grid = load_cells(w(tmp_path / "cells.csv", CELLS_CSV))
        path = w(tmp_path / "events.csv", "event_id,cell_id,period_id\n" + rows)
        with pytest.raises(IngestError) as info:
            load_events(path, grid)
        assert str(info.value) == f"{path}:{message}"

    def test_header_only_file_has_no_events(self, tmp_path):
        grid = load_cells(w(tmp_path / "cells.csv", CELLS_CSV))
        path = w(tmp_path / "events.csv", "event_id,cell_id,period_id\n")
        assert load_events(path, grid) == (EventSet(()), ())


class TestReaderOrderOfErrors:
    """Rows are read a chunk at a time, but faults are reported in file order."""

    HEADER = "event_id,cell_id,period_id\n"
    OVERLONG = "e9," + "x" * 200_000 + ",p1\n"

    @pytest.mark.parametrize(
        "later",
        [OVERLONG, "e9,c\xff1,p1\n"],
        ids=["csv-error", "undecodable-byte"],
    )
    def test_a_loader_fault_before_a_read_error_in_the_same_chunk(
        self, tmp_path, monkeypatch, later
    ):
        # 1500 rows of 22 bytes keep the bad bytes well past the decoder's
        # 8 KiB read-ahead from row 3, and all in the first chunk.
        monkeypatch.setattr(ingest, "_CHUNK_ROWS", 2048)
        good = "".join(f"event{i:010d},c1,p1\n" for i in range(1500))
        path = tmp_path / "events.csv"
        path.write_bytes(
            (self.HEADER + "e1,c1,p1\n,c2,p1\n" + good).encode()
            + later.encode("latin-1")
        )
        grid = load_cells(w(tmp_path / "cells.csv", CELLS_CSV))
        with pytest.raises(IngestError) as info:
            load_events(str(path), grid)
        assert str(info.value) == f"{path}:3: empty field"

    def test_rows_before_a_csv_error_are_handed_out_first(self, tmp_path):
        path = w(tmp_path / "events.csv",
                 self.HEADER + "e1,c1,p1\n\n e2,c2,p1\n" + self.OVERLONG + "e3,c3,p1\n")
        seen = []
        with pytest.raises(IngestError) as info:
            for chunk in ingest._read_chunks(path, "events"):
                seen.append(chunk)
        # The raw rows, blank and padded ones too, as no chunk of columns.
        assert seen == [(2, [["e1", "c1", "p1"], [], [" e2", "c2", "p1"]], None)]
        assert str(info.value) == f"{path}:5: field larger than field limit (131072)"

    def test_a_clean_field_is_printable_ascii_but_comma_and_space(self):
        chars = list(map(chr, range(sys.maxunicode + 1)))
        clean = [ch for ch in chars if ingest._clean_columns([[f"a{ch}b"]], 1)]
        assert clean == [ch for ch in map(chr, range(0x20, 0x7F)) if ch not in ", "]
        # So no field that str.strip would change is clean.
        assert not [ch for ch in chars if ch.strip() == "" and ch in clean]
        assert ingest._clean_columns([["a", ""]], 2) == (("a",), ("",))


class TestIdsThatPrintAlike:
    """An id may hold no control, format or separator character but an inner
    space, and must be in NFC; number fields keep their own rules."""

    @pytest.mark.parametrize(
        "char, category",
        [("\x01", "Cc"), ("\x85", "Cc"), ("\u200b", "Cf"), ("\ufeff", "Cf"),
         ("\u2028", "Zl"), ("\u2029", "Zp"), ("\u00a0", "Zs"), ("\u3000", "Zs")],
    )
    def test_each_refused_category(self, tmp_path, char, category):
        path = w(tmp_path / "cells.csv", f"cell_id,area_km2\nc1,1\nc{char}2,1\n")
        with pytest.raises(IngestError) as info:
            load_cells(path)
        assert str(info.value) == (
            f"{path}:3: cell_id {f'c{char}2'!r} holds U+{ord(char):04X} "
            f"(category {category}), so it may print like another id"
        )

    def test_refused_in_lenient_mode_too(self, tmp_path):
        grid = load_cells(w(tmp_path / "cells.csv", CELLS_CSV))
        events = "event_id,cell_id,period_id\ne1,c1,p1\ne2,c1,p\u200b1\n"
        path = w(tmp_path / "events.csv", events)
        with pytest.raises(IngestError, match=r":3: period_id 'p\\u200b1' holds U\+200B"):
            load_events(path, grid, strict=False)

    def test_inner_spaces_padding_and_nfc_accents_load(self, tmp_path):
        cells = "cell_id,area_km2\nmodel A,1\n\u3000caf\u00e9 ,1\n"
        path = w(tmp_path / "cells.csv", cells)
        assert load_cells(path).cell_ids == {"model A", "caf\u00e9"}

    def test_a_number_field_is_not_an_id(self, tmp_path):
        path = w(tmp_path / "cells.csv", "cell_id,area_km2\nc1,1\u200b\n")
        with pytest.raises(IngestError, match=r":2: area_km2 is not a number"):
            load_cells(path)


class TestLoadSelections:
    def test_good_file(self, tmp_path):
        known = frozenset({"c1", "c2", "c3"})
        sel = load_selections(
            w(tmp_path / "sel.csv", SELECTIONS_CSV), known
        )
        assert set(sel) == {"m1", "m2"}
        assert sel["m1"]["p1"].flagged == frozenset({"c1"})
        assert sel["m1"]["p2"].flagged == frozenset({"c2"})
        assert sel["m2"]["p1"].flagged == frozenset({"c3"})

    def test_unknown_id_always_an_error(self, tmp_path):
        path = w(
            tmp_path / "sel.csv", "model_id,period_id,cell_id\nm1,p1,zz\n"
        )
        with pytest.raises(IngestError, match="unknown cell"):
            load_selections(path, frozenset({"c1"}))

    def test_unit_kind_named_in_error(self, tmp_path):
        path = w(
            tmp_path / "sel.csv", "model_id,period_id,cell_id\nm1,p1,zz\n"
        )
        with pytest.raises(IngestError, match="unknown unit"):
            load_selections(path, frozenset({"u1"}), id_kind="unit")

    def test_duplicate_row(self, tmp_path):
        path = w(
            tmp_path / "sel.csv",
            "model_id,period_id,cell_id\nm1,p1,c1\nm1,p1,c1\n",
        )
        with pytest.raises(IngestError, match="duplicate selection"):
            load_selections(path, frozenset({"c1"}))

    @pytest.mark.parametrize(
        "rows, kind, message",
        [
            # The same cell under another model or period is no duplicate.
            ("A,p1,c1\nA,p1,c2\nB,p1,c1\nA,p2,c1\nA,p1,c1\n", "cell",
             "6: duplicate selection A/p1/c1"),
            ("A,p1,c1\nA,p1,zz\n", "cell", "3: model 'A' flags unknown cell 'zz'"),
            ("A,p1,c1\nA,p1,c1\nA,p1,zz\n", "cell", "3: duplicate selection A/p1/c1"),
            ("A,p1,c1\nA,p1,zz\nA,p1,c1\n", "cell",
             "3: model 'A' flags unknown cell 'zz'"),
            ("A,p1,zz\nA,p1,zz\n", "cell", "2: model 'A' flags unknown cell 'zz'"),
            ("A,p1,c1\nA,p1,c9\n", "unit", "3: model 'A' flags unknown unit 'c9'"),
        ],
    )
    def test_first_fault_and_its_line(self, tmp_path, rows, kind, message):
        """Single and two-fault files: the first faulty row is reported."""
        path = w(tmp_path / "sel.csv", "model_id,period_id,cell_id\n" + rows)
        with pytest.raises(IngestError) as info:
            load_selections(path, frozenset({"c1", "c2"}), id_kind=kind)
        assert str(info.value) == f"{path}:{message}"

    @pytest.mark.parametrize(
        "row, field",
        [('"m,x",p1,c1', "model_id 'm,x'"), ('m1,"p\n1",c1', "period_id 'p\\n1'")],
    )
    def test_ids_the_report_cannot_carry(self, tmp_path, row, field):
        """A comma or line break in an id would break the report's rows."""
        path = w(tmp_path / "sel.csv", f"model_id,period_id,cell_id\nm1,p1,c1\n{row}\n")
        with pytest.raises(IngestError) as info:
            load_selections(path, frozenset({"c1"}))
        assert str(info.value) == (
            f"{path}:3: {field} contains a comma or line break, which report "
            f"rows cannot carry"
        )


class TestLoadSurfaces:
    def surface_csv(self, rows):
        return "model_id,period_id,cell_id,probability\n" + "".join(
            f"{m},{p},{c},{v}\n" for m, p, c, v in rows
        )

    def test_good_file(self, tmp_path):
        grid = load_cells(w(tmp_path / "cells.csv", CELLS_CSV))
        text = self.surface_csv(
            [("m1", "p1", "c1", 0.5), ("m1", "p1", "c2", 0.25), ("m1", "p1", "c3", 0.25)]
        )
        surfaces = load_surfaces(w(tmp_path / "s.csv", text), grid)
        assert surfaces["m1"]["p1"].mass["c1"] == 0.5

    def test_incomplete_surface(self, tmp_path):
        grid = load_cells(w(tmp_path / "cells.csv", CELLS_CSV))
        text = self.surface_csv([("m1", "p1", "c1", 1.0)])
        with pytest.raises(IngestError, match="misses"):
            load_surfaces(w(tmp_path / "s.csv", text), grid)

    def test_mass_not_summing_to_one(self, tmp_path):
        grid = load_cells(w(tmp_path / "cells.csv", CELLS_CSV))
        text = self.surface_csv(
            [("m1", "p1", "c1", 0.5), ("m1", "p1", "c2", 0.3), ("m1", "p1", "c3", 0.3)]
        )
        with pytest.raises(IngestError, match="sum"):
            load_surfaces(w(tmp_path / "s.csv", text), grid)

    def test_renormalize_rescues_unnormalized_mass(self, tmp_path):
        grid = load_cells(w(tmp_path / "cells.csv", CELLS_CSV))
        text = self.surface_csv(
            [("m1", "p1", "c1", 5.0), ("m1", "p1", "c2", 3.0), ("m1", "p1", "c3", 2.0)]
        )
        surfaces = load_surfaces(w(tmp_path / "s.csv", text), grid, renormalize=True)
        np.testing.assert_allclose(surfaces["m1"]["p1"].mass["c1"], 0.5, atol=1e-12)

    def test_negative_probability(self, tmp_path):
        grid = load_cells(w(tmp_path / "cells.csv", CELLS_CSV))
        text = self.surface_csv(
            [("m1", "p1", "c1", 1.2), ("m1", "p1", "c2", -0.2), ("m1", "p1", "c3", 0.0)]
        )
        with pytest.raises(IngestError, match="non-negative"):
            load_surfaces(w(tmp_path / "s.csv", text), grid)

    def test_duplicate_entry(self, tmp_path):
        grid = load_cells(w(tmp_path / "cells.csv", CELLS_CSV))
        text = self.surface_csv(
            [("m1", "p1", "c1", 0.5), ("m1", "p1", "c1", 0.5)]
        )
        with pytest.raises(IngestError, match="duplicate surface"):
            load_surfaces(w(tmp_path / "s.csv", text), grid)

    @pytest.mark.parametrize(
        "rows, renormalize, message",
        [
            ("m1,p1,c1,1.0\nm1,p1,,0.5\n", False, "3: empty field"),
            ("m1,p1,zz,1.0\n", False, "2: model 'm1' assigns mass to unknown cell 'zz'"),
            ("m1,p1,c1,half\n", False, "2: probability is not a number: 'half'"),
            ("m1,p1,c1,inf\n", False, "2: probability must be finite, got 'inf'"),
            ("m1,p1,c1,-0.2\n", False, "2: probability must be non-negative, got -0.2"),
            ("m1,p1,c1,0.5\nm1,p1,c2,0.5\nm1,p1,c1,0.5\n", False,
             "4: duplicate surface entry m1/p1/c1"),
            # Surfaces are checked whole in (model, period) order, after
            # every row has been read.
            ("m2,p1,c1,1.0\nm1,p1,c3,1.0\n", False,
             " surface m1/p1 misses 2 cells (first: 'c1')"),
            ("m1,p1,c1,0.5\nm1,p1,c2,0.3\nm1,p1,c3,0.3\n", False,
             " surface m1/p1: surface masses sum to 1.1, not 1 within 1e-06"),
            ("m1,p1,c1,0\nm1,p1,c2,0\nm1,p1,c3,0\n", True,
             " surface m1/p1: cannot renormalize: masses sum to zero"),
            # Two faults in one row: the probability is read before the
            # duplicate check, and the cell is checked before the probability.
            ("m1,p1,c1,0.5\nm1,p1,c1,-1\n", False,
             "3: probability must be non-negative, got -1.0"),
            ("m1,p1,zz,half\n", False, "2: model 'm1' assigns mass to unknown cell 'zz'"),
        ],
    )
    def test_first_fault_and_its_line(self, tmp_path, rows, renormalize, message):
        grid = load_cells(w(tmp_path / "cells.csv", CELLS_CSV))
        path = w(tmp_path / "s.csv", "model_id,period_id,cell_id,probability\n" + rows)
        with pytest.raises(IngestError) as info:
            load_surfaces(path, grid, renormalize=renormalize)
        assert str(info.value) == f"{path}:{message}"


class TestLoadUnits:
    def test_fifteen_unit_table(self, tmp_path, fifteen_units):
        text = "unit_id,area_fraction,crime_fraction\n" + "".join(
            f"h{i:02d},{a},{n}\n"
            for i, (a, n) in enumerate(zip(AREA_FRACTIONS, CRIME_FRACTIONS), 1)
        )
        units = load_units(w(tmp_path / "units.csv", text))
        assert units == fifteen_units
        np.testing.assert_allclose(hit_rate(units), 0.83, atol=1e-12)
        np.testing.assert_allclose(coverage(units), 0.42, atol=1e-12)

    def test_duplicate_unit(self, tmp_path):
        text = "unit_id,area_fraction,crime_fraction\nu1,0.1,0.2\nu1,0.1,0.2\n"
        with pytest.raises(IngestError, match="duplicate unit_id"):
            load_units(w(tmp_path / "units.csv", text))

    def test_out_of_range_fraction(self, tmp_path):
        text = "unit_id,area_fraction,crime_fraction\nu1,1.7,0.2\n"
        with pytest.raises(IngestError):
            load_units(w(tmp_path / "units.csv", text))

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("u1,0.1,0.2\n,0.1,0.2\n", "3: empty unit_id"),
            ("u1,0.1,0.2\nu1,0.1,0.2\n", "3: duplicate unit_id 'u1'"),
            ("u1,wide,0.2\n", "2: area_fraction is not a number: 'wide'"),
            ("u1,0.1,lots\n", "2: crime_fraction is not a number: 'lots'"),
            ("u1,inf,0.2\n", "2: area_fraction must be finite, got 'inf'"),
            ("u1,0.1,-inf\n", "2: crime_fraction must be finite, got '-inf'"),
            ("u1,1.7,0.2\n", "2: unit 'u1': area_fraction must be in (0, 1], got 1.7"),
            ("u1,0,0.2\n", "2: unit 'u1': area_fraction must be in (0, 1], got 0.0"),
            ("u1,0.1,-0.1\n",
             "2: unit 'u1': crime_fraction must be in [0, 1], got -0.1"),
            ("", " no units defined"),
            # Two faults: the first bad row wins; within a row the id comes
            # first, then the fields in header order, then the ranges.
            ("u1,0.1,0.2\nu1,x,y\n", "3: duplicate unit_id 'u1'"),
            ("u1,x,y\n", "2: area_fraction is not a number: 'x'"),
            ("u1,2,nan\n", "2: crime_fraction must be finite, got 'nan'"),
            ("u1,2,-1\n", "2: unit 'u1': area_fraction must be in (0, 1], got 2.0"),
            ("u1,0.1,0.2\nu2,0.1,2\n,0.1,0.2\n",
             "3: unit 'u2': crime_fraction must be in [0, 1], got 2.0"),
            # Shares of one region: a column summing above 1 is refused after
            # the rows, area first.
            ("a,0.3,0.9\nb,0.6,0.9\nc,0.9,0.2\n",
             " area_fraction sums to 1.8 > 1; the units overlap or their "
             "fractions are inconsistent"),
            ("a,0.5,0.7\nb,0.5,0.6\n",
             " crime_fraction sums to 1.2999999999999998 > 1; the units overlap "
             "or their fractions are inconsistent"),
            ("a,0.9,0.2\nb,0.9,x\n", "3: crime_fraction is not a number: 'x'"),
        ],
    )
    def test_first_fault_and_its_line(self, tmp_path, rows, message):
        path = w(tmp_path / "units.csv", "unit_id,area_fraction,crime_fraction\n" + rows)
        with pytest.raises(IngestError) as info:
            load_units(path)
        assert str(info.value) == f"{path}:{message}"

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 0.2, exclude_min=True),
                              st.floats(0.0, 0.2)), min_size=1, max_size=12))
    def test_refused_exactly_when_the_last_level_exceeds_one(
        self, tmp_path_factory, rows
    ):
        """The loader's one ``fsum`` per column is the alpha search's last
        level, bit for bit: the table is refused exactly when that level
        exceeds 1, and the message names its total."""
        units = tuple(HotspotUnit(f"u{i}", a, c) for i, (a, c) in enumerate(rows))
        path = str(tmp_path_factory.mktemp("units") / "units.csv")
        write_units(path, units)
        last = cumulative_levels(order_units(units))[-1]
        over = [
            (column, total)
            for column, total in (
                ("area_fraction", last.cum_area), ("crime_fraction", last.cum_crime)
            )
            if total > 1.0 + FRACTION_TOL
        ]
        if not over:
            assert load_units(path) == units
            return
        column, total = over[0]
        with pytest.raises(IngestError) as info:
            load_units(path)
        assert info.value.reason == (
            f"{column} sums to {total!r} > 1; the units overlap or their "
            f"fractions are inconsistent"
        )


class TestLoadDataset:
    def test_cell_mode(self, tmp_path):
        ds = load_dataset(
            cells=w(tmp_path / "cells.csv", CELLS_CSV),
            events=w(tmp_path / "events.csv", EVENTS_CSV),
            selections=w(tmp_path / "sel.csv", SELECTIONS_CSV),
        )
        assert ds.models() == ("m1", "m2")
        assert ds.periods() == ("p1", "p2")
        assert ds.grid is not None
        assert ds.units is None

    def test_units_mode(self, tmp_path):
        units = "unit_id,area_fraction,crime_fraction\nu1,0.1,0.3\nu2,0.2,0.2\n"
        sel = "model_id,period_id,cell_id\nm1,p1,u1\nm2,p1,u2\n"
        ds = load_dataset(
            units=w(tmp_path / "units.csv", units),
            selections=w(tmp_path / "sel.csv", sel),
        )
        assert ds.models() == ("m1", "m2")
        assert ds.grid is None
        assert ds.units_by_id()["u1"].crime_fraction == 0.3

    def test_selection_of_unknown_unit(self, tmp_path):
        units = "unit_id,area_fraction,crime_fraction\nu1,0.1,0.3\n"
        sel = "model_id,period_id,cell_id\nm1,p1,u9\n"
        with pytest.raises(IngestError, match="unknown unit"):
            load_dataset(
                units=w(tmp_path / "units.csv", units),
                selections=w(tmp_path / "sel.csv", sel),
            )

    def test_needs_cells_or_units(self, tmp_path):
        with pytest.raises(ValidationError):
            load_dataset(selections=w(tmp_path / "sel.csv", SELECTIONS_CSV))

    def test_events_need_cells(self, tmp_path):
        units = "unit_id,area_fraction,crime_fraction\nu1,0.1,0.3\n"
        with pytest.raises(ValidationError, match="cells"):
            load_dataset(
                units=w(tmp_path / "units.csv", units),
                events=w(tmp_path / "events.csv", EVENTS_CSV),
            )

    def test_no_models_defined(self, tmp_path):
        with pytest.raises(ValidationError, match="no models"):
            load_dataset(
                cells=w(tmp_path / "cells.csv", CELLS_CSV),
                events=w(tmp_path / "events.csv", EVENTS_CSV),
            )


class TestConfigPairs:
    def test_comments_blank_lines_and_last_wins(self, tmp_path):
        text = (
            "# a comment\n"
            "\n"
            "measures = hit_rate   # trailing comment\n"
            "measures = pai,coverage\n"
        )
        pairs = read_config_pairs(w(tmp_path / "run.conf", text))
        assert pairs == {"measures": "pai,coverage"}

    def test_line_without_equals(self, tmp_path):
        with pytest.raises(IngestError, match="key = value"):
            read_config_pairs(w(tmp_path / "run.conf", "just some words\n"))

    def test_empty_key(self, tmp_path):
        with pytest.raises(IngestError, match="empty key"):
            read_config_pairs(w(tmp_path / "run.conf", "= value\n"))

    def test_byte_order_mark_accepted(self, tmp_path):
        path = w(tmp_path / "run.conf", "\ufeffmeasures = pai\n")
        assert read_config_pairs(path) == {"measures": "pai"}
        assert load_config(path).measures == ("pai",)


class TestLoadConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        config = load_config(w(tmp_path / "run.conf", ""))
        assert config == RunConfig()
        assert config.measures == ("hit_rate", "coverage", "pai")
        assert config.strict is True
        assert config.alpha_mode == "hit_rate"

    def test_unknown_key_strict(self, tmp_path):
        path = w(tmp_path / "run.conf", "no_such_key = 1\n")
        with pytest.raises(IngestError, match="no_such_key"):
            load_config(path)

    def test_unknown_key_lenient(self, tmp_path):
        path = w(tmp_path / "run.conf", "strict = off\nno_such_key = 1\n")
        config = load_config(path)
        assert config.strict is False

    def test_cli_strict_overrides_file(self, tmp_path):
        path = w(tmp_path / "run.conf", "strict = off\nno_such_key = 1\n")
        with pytest.raises(IngestError, match="no_such_key"):
            load_config(path, cli_strict=True)

    def test_unknown_measure(self, tmp_path):
        path = w(tmp_path / "run.conf", "measures = hit_rate,f1\n")
        with pytest.raises(IngestError, match="f1"):
            load_config(path)

    def test_empty_measures(self, tmp_path):
        path = w(tmp_path / "run.conf", "measures =\n")
        with pytest.raises(IngestError, match="empty"):
            load_config(path)

    def test_fixed_alpha_requires_value(self, tmp_path):
        path = w(
            tmp_path / "run.conf",
            "measures = ppai\nppai.alpha_mode = fixed\n",
        )
        with pytest.raises(IngestError, match="ppai.alpha"):
            load_config(path)

    def test_grid_search_requires_target(self, tmp_path):
        path = w(
            tmp_path / "run.conf",
            "measures = ppai\nppai.alpha_mode = grid_search\n",
        )
        with pytest.raises(IngestError, match="target_coverage"):
            load_config(path)

    def test_alpha_bounds(self, tmp_path):
        path = w(tmp_path / "run.conf", "ppai.alpha = 1.5\n")
        with pytest.raises(IngestError, match="\\[0, 1\\]"):
            load_config(path)

    def test_utilities_all_or_nothing(self, tmp_path):
        path = w(tmp_path / "run.conf", "eu.u_tp = 1\neu.u_fp = -0.5\n")
        with pytest.raises(IngestError, match="all-or-nothing"):
            load_config(path)

    def test_full_utilities(self, tmp_path):
        path = w(
            tmp_path / "run.conf",
            "eu.u_tp = 1\neu.u_fp = -0.5\neu.u_tn = 1\neu.u_fn = -1\n",
        )
        config = load_config(path)
        assert config.utilities is not None
        assert config.utilities.u_fp == -0.5

    def test_weights_extend_measures(self, tmp_path):
        path = w(
            tmp_path / "run.conf",
            "measures = hit_rate\nweights.hit_rate = 0.7\nweights.precision = 0.3\n",
        )
        config = load_config(path)
        assert config.weights is not None
        assert "precision" in config.measures

    def test_weights_must_sum_to_one(self, tmp_path):
        path = w(
            tmp_path / "run.conf",
            "weights.hit_rate = 0.7\nweights.precision = 0.4\n",
        )
        with pytest.raises(IngestError, match="weights"):
            load_config(path)

    def test_weight_for_unknown_measure(self, tmp_path):
        path = w(tmp_path / "run.conf", "weights.f1 = 1.0\n")
        with pytest.raises(IngestError, match="f1"):
            load_config(path)

    def test_orientation_override(self, tmp_path):
        path = w(tmp_path / "run.conf", "orientation.pai = lower\n")
        config = load_config(path)
        assert config.orientations["pai"] == "lower"
        assert config.orientations["hit_rate"] == "higher"

    def test_orientation_validation(self, tmp_path):
        path = w(tmp_path / "run.conf", "orientation.pai = sideways\n")
        with pytest.raises(IngestError, match="higher or lower"):
            load_config(path)

    def test_default_orientation_table(self):
        assert DEFAULT_ORIENTATION["fpr"] == "lower"
        assert all(
            v == "higher" for k, v in DEFAULT_ORIENTATION.items() if k != "fpr"
        )

    def test_measure_ids_keep_their_order(self):
        # The "unknown measures ... (known: ...)" error lists them so.
        assert MEASURE_IDS == (
            "accuracy", "als", "coverage", "fpr", "hit_rate", "npv",
            "pai", "ppai", "precision", "sensitivity", "ser", "specificity",
        )
        assert tuple(DEFAULT_ORIENTATION) == MEASURE_IDS

    def test_bad_transform(self, tmp_path):
        path = w(tmp_path / "run.conf", "combine.score_transform = zscore\n")
        with pytest.raises(IngestError, match="score_transform"):
            load_config(path)

    def test_generator_defaults(self, tmp_path):
        path = w(tmp_path / "run.conf", "gen.seed = 42\n")
        config = load_config(path)
        g = config.generator
        assert g is not None
        assert g.seed == 42
        assert g.n_cells == 100
        assert g.n_periods == 12
        assert g.events_per_period == 100
        assert g.weights == (1.0,) * 100

    def test_generator_weight_length_mismatch(self, tmp_path):
        path = w(tmp_path / "run.conf", "gen.cells = 3\ngen.weights = 1,2\n")
        with pytest.raises(IngestError, match="gen"):
            load_config(path)

    def test_gen_top_k_bounds(self, tmp_path):
        path = w(tmp_path / "run.conf", "gen.cells = 5\ngen.top_k = 9\n")
        with pytest.raises(IngestError, match="top_k"):
            load_config(path)

    def test_config_echo_pairs(self, tmp_path):
        path = w(
            tmp_path / "run.conf",
            "measures = hit_rate,fpr\nppai.alpha = 0.5\nppai.alpha_mode = fixed\n",
        )
        pairs = dict(load_config(path).to_pairs())
        assert pairs["als.log_base"] == "e"
        assert pairs["ppai.alpha"] == "0.5"
        assert pairs["orientation.fpr"] == "lower"
        assert pairs["orientation.hit_rate"] == "higher"
        # orientations echoed only for the measures actually selected
        assert "orientation.pai" not in pairs


class TestWriters:
    def build(self):
        grid = GridSpec(cells=(Cell("c1", 1.0), Cell("c2", 1.5)))
        events = EventSet(
            events=(Event("e1", "c1", "p1"), Event("e2", "c2", "p1"))
        )
        selections = {
            "m1": {"p1": HotspotSelection(period="p1", flagged=frozenset({"c1"}))}
        }
        surfaces = {
            "m1": {"p1": ProbabilitySurface(period="p1", mass={"c1": 0.75, "c2": 0.25})}
        }
        units = (HotspotUnit("u1", 0.25, 0.5), HotspotUnit("u2", 0.1, 0.1))
        return grid, events, selections, surfaces, units

    def test_round_trip(self, tmp_path):
        grid, events, selections, surfaces, units = self.build()
        paths = {name: str(tmp_path / f"{name}.csv") for name in
                 ("cells", "events", "selections", "surfaces", "units")}
        write_cells(paths["cells"], grid)
        write_events(paths["events"], events)
        write_selections(paths["selections"], selections)
        write_surfaces(paths["surfaces"], surfaces)
        write_units(paths["units"], units)

        assert load_cells(paths["cells"]) == grid
        loaded_events, _ = load_events(paths["events"], grid)
        assert loaded_events == events
        assert load_selections(paths["selections"], grid.cell_ids) == selections
        assert load_surfaces(paths["surfaces"], grid) == surfaces
        assert load_units(paths["units"]) == units

    def test_writes_are_deterministic(self, tmp_path):
        grid, events, selections, surfaces, units = self.build()
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_surfaces(a, surfaces)
        write_surfaces(b, surfaces)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_writers_hold_no_table_whole(self, tmp_path):
        """100k surface rows, then 50k selection rows, each written within
        1 MiB of traced memory: the rows are streamed, not listed."""
        cells = [f"c{i:04d}" for i in range(5000)]
        mass = dict.fromkeys(cells, 1 / len(cells))
        periods = [f"p{k:02d}" for k in range(10)]
        surfaces = {
            m: {p: ProbabilitySurface(period=p, mass=mass) for p in periods}
            for m in ("m1", "m2")
        }
        selections = {
            m: {
                p: HotspotSelection(period=p, flagged=frozenset(cells[:2500]))
                for p in periods
            }
            for m in ("m1", "m2")
        }
        for write, tables in ((write_surfaces, surfaces), (write_selections, selections)):
            tracemalloc.start()
            try:
                write(str(tmp_path / "out.csv"), tables)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2**20, (write.__name__, peak)

    def test_float_fields_round_trip_exactly(self, tmp_path):
        # repr() emits the shortest string that parses back to the same float
        units = (HotspotUnit("u1", 0.1 + 0.2, 1 / 3),)
        path = str(tmp_path / "units.csv")
        write_units(path, units)
        assert load_units(path) == units


# Ids the formats carry unchanged: no comma, line break or surrounding space.
SAFE_IDS = st.text(string.ascii_letters + string.digits + "_-.", min_size=1, max_size=6)


def finite_floats(low, high, **bounds):
    return st.floats(low, high, allow_nan=False, allow_infinity=False,
                     allow_subnormal=True, **bounds)


@st.composite
def grids(draw):
    # Areas up to 1e300 keep the grid's summed area finite.
    ids = draw(st.lists(SAFE_IDS, min_size=1, max_size=8, unique=True))
    area = finite_floats(0.0, 1e300, exclude_min=True)
    return GridSpec(tuple(Cell(cell_id, draw(area)) for cell_id in ids))


def by_model_and_period(draw, make):
    """A non-empty model -> period -> make(period) mapping."""
    periods = st.lists(SAFE_IDS, min_size=1, max_size=3, unique=True)
    return {
        model_id: {period: make(period) for period in draw(periods)}
        for model_id in draw(st.lists(SAFE_IDS, min_size=1, max_size=3, unique=True))
    }


def round_trip(write, load, obj):
    """``obj`` written to a fresh file and loaded back."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "table.csv")
        write(path, obj)
        return load(path)


class TestRoundTripProperties:
    """load(write(x)) == x for every valid object of each file type."""

    @settings(max_examples=100, deadline=None)
    @given(grids())
    def test_cells(self, grid):
        assert round_trip(write_cells, load_cells, grid) == grid

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_events(self, data):
        grid = data.draw(grids())
        cell = st.sampled_from([c.id for c in grid.cells])
        ids = data.draw(st.lists(SAFE_IDS, max_size=10, unique=True))
        events = EventSet(tuple(
            Event(event_id, data.draw(cell), data.draw(SAFE_IDS)) for event_id in ids
        ))
        loaded = round_trip(write_events, lambda p: load_events(p, grid), events)
        assert loaded == (events, ())

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_selections(self, data):
        grid = data.draw(grids())
        flagged = st.frozensets(st.sampled_from([c.id for c in grid.cells]), min_size=1)
        selections = by_model_and_period(
            data.draw, lambda period: HotspotSelection(period, data.draw(flagged))
        )
        loaded = round_trip(
            write_selections, lambda p: load_selections(p, grid.cell_ids), selections
        )
        assert loaded == selections

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_surfaces(self, data):
        grid = data.draw(grids())
        ids = [c.id for c in grid.cells]
        weights = st.lists(finite_floats(0.0, 1.0), min_size=len(ids), max_size=len(ids))
        positive = weights.filter(lambda ws: sum(ws) > 0)
        surfaces = by_model_and_period(
            data.draw,
            lambda period: ProbabilitySurface.renormalized(
                period, dict(zip(ids, data.draw(positive)))
            ),
        )
        loaded = round_trip(write_surfaces, lambda p: load_surfaces(p, grid), surfaces)
        assert loaded == surfaces

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_units(self, data):
        ids = data.draw(st.lists(SAFE_IDS, min_size=1, max_size=8, unique=True))
        # Shares of one region: neither column may sum above 1.
        area = finite_floats(0.0, 1.0 / len(ids), exclude_min=True)
        crime = finite_floats(0.0, 1.0 / len(ids))
        units = tuple(HotspotUnit(u, data.draw(area), data.draw(crime)) for u in ids)
        assert round_trip(write_units, load_units, units) == units


def csv_writer_text(header, rows):
    """What ``csv.writer`` writes for ``header`` and ``rows``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


# Fields the writer must quote, or may leave bare, beside plain ones.
AWKWARD_FIELDS = st.text(
    st.sampled_from([",", '"', "\r", "\n", " ", "a", "7", "é", "€"])
    | st.characters(blacklist_categories=("Cs",)),
    max_size=4,
)


class TestChunkedCsvWriter:
    """``_write_csv`` writes a clean chunk with ``str.join`` and any other
    through ``csv.writer``; the file is the real writer's, byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_rows=st.sampled_from([1023, 1024, 1025]),
        filler=st.tuples(*[st.text(" aé€0", max_size=3)] * 4),
        placed=st.lists(
            st.tuples(st.integers(0, 1024), st.tuples(*[AWKWARD_FIELDS] * 4)),
            max_size=4,
        ),
    )
    def test_matches_csv_writer(self, n_rows, filler, placed):
        rows = [(f"m{i}", *filler[1:]) if i % 3 else filler for i in range(n_rows)]
        for at, row in placed:
            rows[at % n_rows] = row
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "surfaces.csv")
            ingest._write_csv(path, "surfaces", iter(rows))
            with open(path, "rb") as handle:
                written = handle.read()
        expected = csv_writer_text(ingest.HEADERS["surfaces"], rows)
        assert written == expected.encode("utf-8")

    def test_carriage_return_follows_the_writer(self, tmp_path):
        # Under a "\n" terminator Python 3.11's writer leaves "\r" unquoted;
        # whatever it does, the file follows it.
        rows = [("m", "p", "c\rd", "0.5")] * 3
        path = str(tmp_path / "surfaces.csv")
        ingest._write_csv(path, "surfaces", rows)
        expected = csv_writer_text(ingest.HEADERS["surfaces"], rows)
        assert open(path, "rb").read() == expected.encode("utf-8")

    def test_surface_with_signed_zeros(self, tmp_path):
        # 0.0 == -0.0, but each keeps its own repr in the file.
        zeros = ProbabilitySurface("p1", {"a": 0.0, "b": -0.0, "c": 0.5, "d": 0.5})
        halves = ProbabilitySurface("p1", {"a": 0.25, "b": 0.25, "c": 0.25, "d": 0.25})
        path = str(tmp_path / "surfaces.csv")
        write_surfaces(path, {"z": {"p1": zeros}, "h": {"p1": halves}})
        expected = csv_writer_text(ingest.HEADERS["surfaces"], [
            (model, "p1", cell, repr(surface.mass[cell]))
            for model, surface in (("h", halves), ("z", zeros))
            for cell in "abcd"
        ])
        assert open(path, encoding="utf-8").read() == expected
        assert "z,p1,b,-0.0\n" in expected and "z,p1,a,0.0\n" in expected


class TestSurfaceStorage:
    """Loaded surfaces hold their masses as floats in grid order."""

    def test_loaded_surfaces_retain_at_most_16_bytes_a_row(self, tmp_path):
        from gridscore.cli import main

        conf = w(tmp_path / "gen.conf",
                 "gen.cells = 3000\ngen.periods = 4\ngen.events_per_period = 50\n")
        assert main(["gen", "--config", conf, "--out-dir", str(tmp_path),
                     "--out", str(tmp_path / "gen.txt")]) == 0
        grid = load_cells(str(tmp_path / "cells.csv"))
        path = str(tmp_path / "surfaces.csv")
        ordered = load_surfaces(path, grid)  # also warms every lazy import and cache
        rows = sum(map(len, ordered.values())) * len(grid.cell_ids)
        tracemalloc.start()
        try:
            again = load_surfaces(path, grid)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert again == ordered
        assert retained <= 16 * rows, (retained, rows)
        # The same rows shuffled: no run is the grid's cells in order, so
        # every mass takes the scatter path.
        with open(path, encoding="utf-8") as handle:
            header, *lines = handle.readlines()
        random.Random(3).shuffle(lines)
        shuffled = w(tmp_path / "shuffled.csv", header + "".join(lines))
        assert load_surfaces(shuffled, grid) == ordered

    def test_masses_whose_sum_overflows_are_refused_by_range(self, tmp_path):
        grid = load_cells(w(tmp_path / "cells.csv", CELLS_CSV))
        path = w(tmp_path / "surfaces.csv", "model_id,period_id,cell_id,probability\n"
                 "m1,p1,c1,1e308\nm1,p1,c2,1e308\nm1,p1,c3,0\n")
        with pytest.raises(IngestError) as info:
            load_surfaces(path, grid)
        assert str(info.value) == (
            f"{path}: surface m1/p1: surface mass for cell 'c1' is 1e+308, outside [0, 1]"
        )
