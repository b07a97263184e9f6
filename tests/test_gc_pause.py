"""``cli.main`` pauses the cyclic garbage collector for a command, and
``cli.run`` freezes it before the program exits.

That is safe only while a run builds no reference cycles, since a cycle
made while the collector is paused lives on until it next runs. The
acyclicity tests hold every command to that: whatever a run leaves for the
collector is the argument parser's own, the same at any dataset size.
"""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gridscore import cli
from gridscore.cli import main

UNITS = "unit_id,area_fraction,crime_fraction\nu1,0.1,0.3\nu2,0.2,0.2\nu3,0.7,0.5\n"


@pytest.fixture
def gc_state():
    """Restore the collector's state however the test leaves it."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def surprise(args):
    raise RuntimeError("unexpected")


def outcome(name, tmp_path, monkeypatch):
    """Run main so that it ends by ``name``; return its exit code."""
    units = tmp_path / "units.csv"
    units.write_text(UNITS, encoding="utf-8")
    argv = ["optimize-alpha", "--units", str(units), "--target", "0.1",
            "--out", str(tmp_path / "report.txt")]
    if name == "report":
        return main(argv)
    if name == "gridscore-error":
        return main(["optimize-alpha", "--units", str(tmp_path / "missing.csv"),
                     "--target", "0.5"])
    if name == "alpha-search-error":
        return main(["optimize-alpha", "--units", str(units), "--target", "0.5"])
    if name == "unexpected-exception":
        monkeypatch.setattr(cli, "cmd_optimize_alpha", surprise)
        with pytest.raises(RuntimeError):
            main(argv)
        return None
    with pytest.raises(SystemExit):
        main(["optimize-alpha", "--no-such-flag"])
    return None


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "name, code",
    [
        ("report", 0),
        ("gridscore-error", 1),
        ("alpha-search-error", 1),
        ("unexpected-exception", None),
        ("argparse-exit", None),
    ],
)
def test_main_leaves_the_callers_gc_state(
    tmp_path, capsys, monkeypatch, gc_state, enabled, name, code
):
    if enabled:
        gc.enable()
    else:
        gc.disable()
    assert outcome(name, tmp_path, monkeypatch) == code
    assert gc.isenabled() is enabled


def test_the_command_runs_with_the_collector_paused(tmp_path, monkeypatch, gc_state):
    seen = []

    def command(args):
        seen.append(gc.isenabled())
        raise RuntimeError("stop")

    monkeypatch.setattr(cli, "cmd_optimize_alpha", command)
    gc.enable()
    with pytest.raises(RuntimeError):
        main(["optimize-alpha", "--units", "units.csv", "--target", "0.5"])
    assert seen == [False]
    assert gc.isenabled()


# ---------------------------------------------------------------------------
# acyclicity


def write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def cell_files(root, n, lenient=False):
    """``n`` cells, three periods of ``5n`` events, two models of selections
    with a fifth of the grid each, and a config with utilities. ``lenient``
    adds an event on an unknown cell and an unknown config key, so that a
    lenient run has rejected rows and warnings."""
    root.mkdir()
    cells = [f"c{i:04d}" for i in range(n)]
    periods = ["p1", "p2", "p3"]
    events = [
        f"e{p}-{j},{cells[(j * j + k) % n]},{p}"
        for k, p in enumerate(periods)
        for j in range(5 * n)
    ]
    events += ["stray,nowhere,p1"] if lenient else []
    selections = [
        f"{model},{p},{cells[(i * step + k) % n]}"
        for model, step in (("A", 1), ("B", 3))
        for k, p in enumerate(periods)
        for i in range(n // 5)
    ]
    return [
        "--cells", write(root / "cells.csv", ["cell_id,area_km2"]
                         + [f"{c},{1 + i % 3}.0" for i, c in enumerate(cells)]),
        "--events", write(root / "events.csv", ["event_id,cell_id,period_id"] + events),
        "--selections", write(root / "selections.csv",
                              ["model_id,period_id,cell_id"] + selections),
        "--config", write(root / "run.conf", [
            "measures = hit_rate, coverage, pai, ppai",
            "eu.u_tp = 1", "eu.u_fp = -0.2", "eu.u_tn = 0.1", "eu.u_fn = -1",
        ] + (["no.such_key = 1"] if lenient else [])),
    ]


def units_file(root, n):
    root.mkdir()
    area = [1 + i % 4 for i in range(n)]
    crime = [(5 - i % 4) ** 2 for i in range(n)]
    return [
        "--units", write(root / "units.csv", ["unit_id,area_fraction,crime_fraction"]
                         + [f"u{i:04d},{a / sum(area)!r},{c / sum(crime)!r}"
                            for i, (a, c) in enumerate(zip(area, crime))]),
        "--target", "0.3",
    ]


def gen_config(root, n):
    root.mkdir()
    return [
        "--config", write(root / "gen.conf", [f"gen.cells = {n}", "gen.periods = 3",
                                              f"gen.events_per_period = {5 * n}"]),
        "--out-dir", str(root / "data"),
    ]


COMMANDS = {
    "evaluate": lambda root, n: ["evaluate", *cell_files(root, n)],
    "compare": lambda root, n: ["compare", "--lenient", *cell_files(root, n, True)],
    "optimize-alpha": lambda root, n: ["optimize-alpha", *units_file(root, n)],
    "gen": lambda root, n: ["gen", *gen_config(root, n)],
}


def left_for_the_collector(argv):
    """What the collector finds unreachable after ``main(argv)``: with
    ``DEBUG_SAVEALL`` it keeps those objects in ``gc.garbage``."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv + ["--out", os.devnull]) == 0
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_run_builds_no_reference_cycles(tmp_path, capsys, gc_state, command):
    gc.enable()
    build = COMMANDS[command]
    left_for_the_collector(build(tmp_path / "warm", 20))  # first-call imports
    small = left_for_the_collector(build(tmp_path / "small", 20))
    large = left_for_the_collector(build(tmp_path / "large", 60))
    types = {type(o) for o in small + large}
    assert [t for t in types if t.__module__.startswith("gridscore")] == []
    assert len(small) == len(large)
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# the program entry

SRC = Path(__file__).resolve().parent.parent / "src"


def entry_argv(name, tmp_path):
    units = tmp_path / "units.csv"
    units.write_text(UNITS, encoding="utf-8")
    return {
        "report": ["optimize-alpha", "--units", str(units), "--target", "0.1"],
        "gridscore-error": ["optimize-alpha", "--units", str(tmp_path / "missing.csv"),
                            "--target", "0.5"],
        "argparse-exit": ["optimize-alpha", "--no-such-flag"],
    }[name]


@pytest.mark.parametrize(
    "name, code", [("report", 0), ("gridscore-error", 1), ("argparse-exit", 2)]
)
def test_the_program_exits_as_main_returns(tmp_path, capsys, name, code):
    """``python -m gridscore.cli`` runs ``cli.run``, which freezes the
    collector before exiting: the same output as ``main`` in process, and
    main's code as the exit status."""
    argv = entry_argv(name, tmp_path)
    try:
        returned = main(argv)
    except SystemExit as exc:
        returned = exc.code
    expected = capsys.readouterr()
    done = subprocess.run(
        [sys.executable, "-m", "gridscore.cli", *argv],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert (returned, done.returncode) == (code, code)
    assert (done.stdout, done.stderr) == (expected.out, expected.err)
