"""The Python-level work of each command grows linearly.

A ``sys.settrace`` hook counts the line events in gridscore's own code while
``cli.main`` runs ``evaluate``, ``compare``, ``optimize-alpha`` and ``gen`` on
inputs of n, 4n and 16n cells or units, with n events a period. The count
is the same on every run, unlike a time. If the work per cell is constant,
the increment from 4n to 16n is 4 times the one from n to 4n; a loop that
grows as n² makes it 16. No absolute count is asserted, so code may be
added or removed freely.

``evaluate`` reads the surfaces file as ``gen`` wrote it, where each
(model, period) lists the grid's cells in order, and with its rows
shuffled, where every mass takes the loader's one-at-a-time path.
``compare`` needs a second selections model beside ``gen``'s ``top_k``,
and ``optimize-alpha`` a hot cluster of small units, or the run has no
defined ranking or no valid alpha.

``compare``, ``optimize-alpha`` and ``gen`` read and write 64 rows a chunk
here, not 1024. A chunk's fixed cost is most of their Python-level work,
and at these sizes a file of 1024-row chunks has 1, 2 or 8 of them where
its rows grow 4 and 16 fold, which bends the ratio; 64-row chunks grow
with the rows.
"""

import math
import os
import random
import sys

import pytest

import gridscore
from gridscore import cli, ingest

PACKAGE = os.path.dirname(gridscore.__file__)
SIZES = (500, 2000, 8000)


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(ingest, "_CHUNK_ROWS", 64)


def line_events(argv):
    """The line events in gridscore code while ``cli.main(argv)`` runs."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        code = cli.main(argv)
    finally:
        sys.settrace(previous)
    assert code == 0
    return count


def dataset(root, cells):
    """Write a ``gen`` dataset of ``cells`` cells under ``root``, with its
    surfaces shuffled beside them, and a config that scores ALS."""
    directory = root / str(cells)
    directory.mkdir()
    conf = directory / "gen.conf"
    conf.write_text(f"gen.cells = {cells}\ngen.periods = 4\ngen.events_per_period = {cells}\n")
    assert cli.main(["gen", "--config", str(conf), "--out-dir", str(directory),
                     "--out", str(directory / "gen.txt")]) == 0
    header, *rows = (directory / "surfaces.csv").read_text().splitlines(keepends=True)
    random.Random(cells).shuffle(rows)
    (directory / "shuffled.csv").write_text(header + "".join(rows))
    (directory / "run.conf").write_text("measures = als,hit_rate,pai\nals.floor = on\n")
    return directory


def counts(argvs):
    """The line events of each of ``argvs``, the first run once before, to
    pay for lazy imports."""
    line_events(argvs[0])
    return [line_events(argv) for argv in argvs]


def assert_linear(counted):
    small, middle, large = counted
    ratio = (large - middle) / (middle - small)
    assert 3.5 <= ratio <= 4.5, counted


def loaded(command, directory, **files):
    """The argv of ``command`` on the dataset in ``directory``, with the
    file of each kind named in ``files``."""
    argv = [command, "--config", str(directory / "run.conf"),
            "--out", str(directory / "report.txt")]
    for kind, name in files.items():
        argv += [f"--{kind}", str(directory / name)]
    return argv


@pytest.mark.parametrize("surfaces", ["surfaces.csv", "shuffled.csv"])
def test_evaluate_with_surfaces_is_linear(tmp_path, surfaces):
    directories = [dataset(tmp_path, cells) for cells in SIZES]
    assert_linear(counts([
        loaded("evaluate", d, cells="cells.csv", events="events.csv",
               selections="selections.csv", surfaces=surfaces)
        for d in directories
    ]))


@pytest.mark.usefixtures("small_chunks")
def test_compare_is_linear(tmp_path):
    argvs = []
    for cells in SIZES:
        directory = dataset(tmp_path, cells)
        # A second model, flagging every other cell that top_k flags.
        header, *rows = (directory / "selections.csv").read_text().splitlines(keepends=True)
        half = [row.replace("top_k,", "half,", 1) for row in rows[::2]]
        (directory / "two.csv").write_text(header + "".join(rows + half))
        (directory / "run.conf").write_text(
            "measures = hit_rate,pai,accuracy\n"
            "eu.u_tp = 1.0\neu.u_fp = -0.25\neu.u_tn = 0.05\neu.u_fn = -1.0\n"
        )
        argvs.append(loaded("compare", directory, cells="cells.csv", events="events.csv",
                            selections="two.csv"))
    assert_linear(counts(argvs))


@pytest.mark.usefixtures("small_chunks")
def test_optimize_alpha_is_linear(tmp_path):
    argvs = []
    for n in SIZES:
        # The smallest 5% of the units carry 10 times the crime density, so
        # PPAI peaks at the end of that cluster for some alpha.
        rng = random.Random(n)
        hot = n // 20
        sizes = sorted(rng.uniform(0.5, 1.0) for _ in range(hot))
        sizes += sorted(rng.uniform(1.0, 3.0) for _ in range(n - hot))
        weights = [size * (10.0 if i < hot else 1.0) for i, size in enumerate(sizes)]
        area, crime = math.fsum(sizes), math.fsum(weights)
        path = tmp_path / f"units{n}.csv"
        path.write_text("unit_id,area_fraction,crime_fraction\n" + "".join(
            f"u{i:05d},{size / area!r},{weight / crime!r}\n"
            for i, (size, weight) in enumerate(zip(sizes, weights))
        ))
        # Between the cluster's coverage and the next level's.
        target = (math.fsum(sizes[:hot]) + sizes[hot] / 2) / area
        argvs.append(["optimize-alpha", "--units", str(path), "--target", repr(target),
                      "--out", str(tmp_path / f"alpha{n}.txt")])
    assert_linear(counts(argvs))


@pytest.mark.usefixtures("small_chunks")
def test_gen_is_linear(tmp_path):
    argvs = []
    for cells in SIZES:
        directory = tmp_path / str(cells)
        directory.mkdir()
        conf = directory / "gen.conf"
        conf.write_text(
            f"gen.cells = {cells}\ngen.periods = 4\ngen.events_per_period = {cells}\n"
        )
        argvs.append(["gen", "--config", str(conf), "--out-dir", str(directory),
                      "--out", str(directory / "gen.txt")])
    assert_linear(counts(argvs))
