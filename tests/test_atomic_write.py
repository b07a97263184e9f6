"""A write that fails partway leaves the old file and no temporary file."""

import pytest

from gridscore import Event, EventSet
from gridscore.cli import main
from gridscore.ingest import write_events
from gridscore.report import Report


def test_failed_report_write_keeps_the_old_out_file(tmp_path, monkeypatch):
    units = tmp_path / "units.csv"
    units.write_text(
        "unit_id,area_fraction,crime_fraction\nu1,0.5,0.7\nu2,0.5,0.3\n",
        encoding="utf-8",
    )
    out = tmp_path / "report.txt"
    out.write_text("old report\n", encoding="utf-8")
    # A lone surrogate cannot be encoded, so the write fails midway.
    monkeypatch.setattr(Report, "render", lambda self: "# partial\n\ud800\n")
    with pytest.raises(UnicodeEncodeError):
        main(["optimize-alpha", "--units", str(units), "--target", "0.5",
              "--out", str(out)])
    assert out.read_text(encoding="utf-8") == "old report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.txt", "units.csv"]


def test_failed_csv_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("old\n", encoding="utf-8")
    events = EventSet(tuple(
        [Event(f"e{i}", "c1", "p1") for i in range(1000)] + [Event("z\ud800", "c1", "p1")]
    ))
    with pytest.raises(UnicodeEncodeError):
        write_events(str(path), events)
    assert path.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["events.csv"]


def test_successful_write_replaces_the_file(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("old\n", encoding="utf-8")
    write_events(str(path), EventSet((Event("e1", "c1", "p1"),)))
    assert path.read_text(encoding="utf-8") == "event_id,cell_id,period_id\ne1,c1,p1\n"
    assert [p.name for p in tmp_path.iterdir()] == ["events.csv"]
