"""The Python-level work of ``evaluate`` with surfaces grows linearly.

A ``sys.settrace`` hook counts the line events in gridscore's own code while
``cli.main`` runs ``evaluate`` on ``gen`` datasets of n, 4n and 16n cells,
with n events a period. The count is the same on every run, unlike a
time. If the work per cell is constant, the increment from 4n to 16n is 4
times the one from n to 4n; a loop that grows as n² makes it 16. No
absolute count is asserted, so code may be added or removed freely.

The surfaces file is read as ``gen`` wrote it, where each (model, period)
lists the grid's cells in order, and with its rows shuffled, where every
mass takes the loader's one-at-a-time path.
"""

import os
import random
import sys

import pytest

import gridscore
from gridscore import cli

PACKAGE = os.path.dirname(gridscore.__file__)
SIZES = (500, 2000, 8000)


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


@pytest.mark.parametrize("surfaces", ["surfaces.csv", "shuffled.csv"])
def test_evaluate_with_surfaces_is_linear(tmp_path, surfaces):
    counts = []
    for cells in SIZES:
        directory = dataset(tmp_path, cells)
        argv = ["evaluate", "--config", str(directory / "run.conf"),
                "--out", str(directory / "report.txt")]
        for kind, name in (("cells", "cells.csv"), ("events", "events.csv"),
                           ("selections", "selections.csv"), ("surfaces", surfaces)):
            argv += [f"--{kind}", str(directory / name)]
        if not counts:
            line_events(argv)  # the first call pays for lazy imports
        counts.append(line_events(argv))
    small, middle, large = counts
    ratio = (large - middle) / (middle - small)
    assert 3.5 <= ratio <= 4.5, counts
