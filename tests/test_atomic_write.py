"""A write that fails partway leaves the old file and no temporary file,
and a target that cannot be written is an error naming it."""

import errno
import os

import pytest

from gridscore import Event, EventSet, IngestError, cli, ingest
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


def units_file(tmp_path):
    path = tmp_path / "units.csv"
    path.write_text(
        "unit_id,area_fraction,crime_fraction\nu1,0.5,0.7\nu2,0.5,0.3\n",
        encoding="utf-8",
    )
    return str(path)


@pytest.mark.parametrize(
    "out, reason",
    [("missing/report.txt", "No such file or directory"), ("taken", "Is a directory")],
    ids=["missing-directory", "out-is-a-directory"],
)
def test_unwritable_out_is_an_error(tmp_path, capsys, out, reason):
    (tmp_path / "taken").mkdir()
    (tmp_path / "taken" / "keep.txt").write_text("kept\n", encoding="utf-8")
    target = str(tmp_path / out)
    code = main(["optimize-alpha", "--units", units_file(tmp_path), "--target", "0.5",
                 "--out", target])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"gridscore: error: {target}: cannot write: {reason}\n"
    # No temporary file is left behind, and the directory keeps its contents.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken", "units.csv"]
    assert [p.name for p in (tmp_path / "taken").iterdir()] == ["keep.txt"]


def test_out_dir_that_is_a_file_is_an_error(tmp_path, capsys):
    config = tmp_path / "gen.conf"
    config.write_text("gen.cells = 4\ngen.periods = 2\n", encoding="utf-8")
    out_dir = tmp_path / "data"
    out_dir.write_text("not a directory\n", encoding="utf-8")
    code = main(["gen", "--config", str(config), "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"gridscore: error: {out_dir}: cannot write: File exists\n"
    assert out_dir.read_text(encoding="utf-8") == "not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "gen.conf"]


def test_writer_into_a_missing_directory_is_an_error(tmp_path):
    path = str(tmp_path / "missing" / "events.csv")
    with pytest.raises(IngestError) as info:
        write_events(path, EventSet((Event("e1", "c1", "p1"),)))
    assert str(info.value) == f"{path}: cannot write: No such file or directory"
    assert list(tmp_path.iterdir()) == []


def full_disk(path, surfaces):
    """A surfaces writer that runs out of space partway."""
    with ingest.atomic_open(path) as handle:
        handle.write("model_id,")
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("fault", ["surfaces-is-a-directory", "disk-full-on-surfaces"])
def test_gen_writes_its_files_as_a_set(tmp_path, capsys, monkeypatch, fault):
    config = tmp_path / "gen.conf"
    config.write_text("gen.cells = 4\ngen.periods = 2\n", encoding="utf-8")
    out_dir = tmp_path / "data"
    out_dir.mkdir()
    (out_dir / "cells.csv").write_text("old cells\n", encoding="utf-8")
    if fault == "surfaces-is-a-directory":
        (out_dir / "surfaces.csv").mkdir()
        reason = "Is a directory"
    else:
        monkeypatch.setattr(cli, "write_surfaces", full_disk)
        reason = "No space left on device"
    before = sorted(p.name for p in out_dir.iterdir())
    code = main(["gen", "--config", str(config), "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    target = out_dir / "surfaces.csv"
    assert captured.err == f"gridscore: error: {target}: cannot write: {reason}\n"
    assert (out_dir / "cells.csv").read_text(encoding="utf-8") == "old cells\n"
    assert sorted(p.name for p in out_dir.iterdir()) == before


def test_out_as_a_bare_file_name(tmp_path, capsys, monkeypatch):
    units = units_file(tmp_path)
    monkeypatch.chdir(tmp_path)
    code = main(["optimize-alpha", "--units", units, "--target", "0.5",
                 "--out", "report.txt"])
    assert (code, capsys.readouterr().err) == (0, "")
    assert (tmp_path / "report.txt").read_text(encoding="utf-8").startswith(
        "# gridscore report\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.txt", "units.csv"]


def test_out_linked_to_a_directory_is_refused(tmp_path, capsys):
    units = units_file(tmp_path)
    (tmp_path / "taken").mkdir()
    (tmp_path / "taken" / "keep.txt").write_text("kept\n", encoding="utf-8")
    link = tmp_path / "report.txt"
    link.symlink_to(tmp_path / "taken", target_is_directory=True)
    code = main(["optimize-alpha", "--units", units, "--target", "0.5",
                 "--out", str(link)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == f"gridscore: error: {link}: cannot write: Is a directory\n"
    assert os.readlink(link) == str(tmp_path / "taken")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.txt", "taken", "units.csv"]
    assert [p.name for p in (tmp_path / "taken").iterdir()] == ["keep.txt"]


def test_out_linked_to_a_file_replaces_the_link(tmp_path, capsys):
    units = units_file(tmp_path)
    other = tmp_path / "other.txt"
    other.write_text("other\n", encoding="utf-8")
    link = tmp_path / "report.txt"
    link.symlink_to(other)
    code = main(["optimize-alpha", "--units", units, "--target", "0.5",
                 "--out", str(link)])
    assert (code, capsys.readouterr().err) == (0, "")
    assert not link.is_symlink()
    assert link.read_text(encoding="utf-8").startswith("# gridscore report\n")
    assert other.read_text(encoding="utf-8") == "other\n"


def test_gen_target_linked_to_a_directory_is_refused(tmp_path, capsys):
    config = tmp_path / "gen.conf"
    config.write_text("gen.cells = 4\ngen.periods = 2\n", encoding="utf-8")
    out_dir = tmp_path / "data"
    out_dir.mkdir()
    (tmp_path / "taken").mkdir()
    (out_dir / "events.csv").symlink_to(tmp_path / "taken", target_is_directory=True)
    code = main(["gen", "--config", str(config), "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    target = out_dir / "events.csv"
    assert (code, captured.out) == (1, "")
    assert captured.err == f"gridscore: error: {target}: cannot write: Is a directory\n"
    assert [p.name for p in out_dir.iterdir()] == ["events.csv"]
    assert os.readlink(target) == str(tmp_path / "taken")
    assert list((tmp_path / "taken").iterdir()) == []


def test_a_writer_that_raises_leaves_no_staging_directory(tmp_path):
    (tmp_path / "a.csv").write_text("old a\n", encoding="utf-8")
    with pytest.raises(RuntimeError):
        with ingest.staged_files(str(tmp_path), ["a.csv", "b.csv"]) as staged:
            with open(staged["a.csv"], "w", encoding="utf-8") as handle:
                handle.write("new a\n")
            raise RuntimeError("writer failed")
    assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]
    assert (tmp_path / "a.csv").read_text(encoding="utf-8") == "old a\n"


def test_gen_stages_its_files_once(tmp_path, capsys, monkeypatch):
    config = tmp_path / "gen.conf"
    config.write_text("gen.cells = 4\ngen.periods = 2\n", encoding="utf-8")
    made = []
    mkdtemp = ingest.tempfile.mkdtemp

    def counted(*args, **kwargs):
        made.append(kwargs["dir"])
        return mkdtemp(*args, **kwargs)

    monkeypatch.setattr(ingest.tempfile, "mkdtemp", counted)
    out_dir = tmp_path / "data"
    code = main(["gen", "--config", str(config), "--out-dir", str(out_dir),
                 "--out", str(tmp_path / "report.txt")])
    assert (code, capsys.readouterr().err) == (0, "")
    # One staging directory for the four data files, one for the report.
    assert made == [str(out_dir), str(tmp_path) + os.sep]
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "cells.csv", "events.csv", "selections.csv", "surfaces.csv"
    ]
