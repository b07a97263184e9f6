"""Golden reports: fixed CLI runs over a small seeded dataset, byte for byte.

The dataset is a ``gridscore gen`` run plus a few hand-made rows for the
edge cases of per-(model, period) scoring:

* model ``everywhere`` flags every cell in p2, so its expected utility is
  undefined (no negatively labelled cells);
* model ``quiet`` flags one cell without p2 events and carries a surface
  for p2, so its hotspot-restricted ALS scope is empty; it also flags a
  cell in p9, a period with no events at all;
* the generated ``empirical`` and ``uniform`` surfaces have no selection,
  so ALS restricted to hotspots falls back to every event with a warning.

The files under ``tests/golden/`` are never rewritten by the tests. A diff
against one is a changed number, warning or format, not a refactoring.
"""

import csv
import hashlib
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from gridscore import HotspotSelection
from gridscore.cli import main
from gridscore.ingest import write_selections

GOLDEN = Path(__file__).parent / "golden"

GEN_CONF = (
    "gen.cells = 20\n"
    "gen.cell_area = 0.5\n"
    "gen.periods = 5\n"
    "gen.events_per_period = 12\n"
    "gen.seed = 5\n"
    "gen.weights = 9,8,7,6,5,5,4,4,3,3,2,2,2,1,1,1,1,1,1,1\n"
)

EU = "eu.u_tp = 10\neu.u_fp = -1\neu.u_tn = 0.5\neu.u_fn = -5\n"

CONFIGS = {
    "evaluate_cells": (
        "measures = accuracy,als,coverage,fpr,hit_rate,npv,pai,ppai,"
        "precision,sensitivity,ser,specificity\n"
        "als.floor = on\n"
        "als.restrict_to_hotspots = on\n"
    ),
    "evaluate_eu": (
        "measures = hit_rate,coverage,pai,ppai,ser\n"
        "ppai.alpha_mode = fixed\n"
        "ppai.alpha = 0.5\n" + EU
    ),
    "compare_eu_weights": (
        "measures = hit_rate,accuracy\n"
        "weights.precision = 0.25\n"
        "weights.ser = 0.75\n" + EU
    ),
    "compare_weights": (
        "measures = hit_rate\n"
        "weights.fpr = 0.4\n"
        "weights.hit_rate = 0.6\n"
        "combine.score_transform = standardized\n"
    ),
    "compare_fallback": "measures = precision,hit_rate\n",
    "evaluate_units": (
        "measures = hit_rate,coverage,pai,ppai\n"
        "ppai.alpha_mode = grid_search\n"
        "ppai.target_coverage = 0.3\n"
        "ppai.grid_step = 0.05\n"
    ),
}


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))[1:]


def append_rows(path, rows):
    with open(path, "a", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def build_dataset(root, run=main):
    """Generate the dataset under ``root`` with ``run``, the CLI's ``main``
    or a stand-in for it; return the gen report text."""
    (root / "gen.conf").write_text(GEN_CONF, encoding="utf-8")
    data = root / "data"
    assert run(["gen", "--config", str(root / "gen.conf"), "--out-dir", str(data),
                 "--out", str(root / "gen.txt")]) == 0

    cells = sorted(cell for cell, _ in read_rows(data / "cells.csv"))
    events = read_rows(data / "events.csv")
    quiet = min(set(cells) - {cell for _, cell, period in events if period == "p2"})
    append_rows(data / "selections.csv", [
        *(("everywhere", "p2", cell) for cell in cells),
        ("quiet", "p2", quiet),
        ("quiet", "p9", cells[0]),
    ])
    append_rows(data / "surfaces.csv", [
        ("quiet", period, cell, mass)
        for model, period, cell, mass in read_rows(data / "surfaces.csv")
        if model == "uniform" and period == "p2"
    ])

    # One unit per cell: its share of the area and of all events.
    hits = {cell: 0 for cell in cells}
    for _, cell, _ in events:
        hits[cell] += 1
    with open(root / "units.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("unit_id", "area_fraction", "crime_fraction"))
        for cell in cells:
            writer.writerow((cell, repr(1 / len(cells)), repr(hits[cell] / len(events))))
    return (root / "gen.txt").read_text(encoding="utf-8")


def render(root, name, run=main):
    """Run golden case ``name`` with ``run`` against the dataset under ``root``."""
    if name == "gen":
        return (root / "gen.txt").read_text(encoding="utf-8")
    data = root / "data"
    out = root / f"{name}.txt"
    if name == "optimize_alpha":
        argv = ["optimize-alpha", "--units", str(root / "units.csv"),
                "--target", "0.3", "--grid-step", "0.05"]
    else:
        conf = root / f"{name}.conf"
        conf.write_text(CONFIGS[name], encoding="utf-8")
        command, _, mode = name.partition("_")
        if mode == "units":
            inputs = ["--units", str(root / "units.csv")]
        else:
            inputs = ["--cells", str(data / "cells.csv"), "--events", str(data / "events.csv")]
            if mode != "eu":
                inputs += ["--surfaces", str(data / "surfaces.csv")]
        argv = [command, *inputs, "--selections", str(data / "selections.csv"),
                "--config", str(conf)]
    assert run([*argv, "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


CASES = ("gen", "optimize_alpha", *CONFIGS)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    build_dataset(root)
    return root


@pytest.mark.parametrize("name", CASES)
def test_report_matches_golden(dataset, name):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert render(dataset, name) == expected


def other_interpreters():
    """Each ``python3.N`` on PATH, N >= 11, but the running one's, that
    starts: one that fails ``-c pass`` (a version manager's shim for a
    version it does not have selected, say) counts as absent."""
    found = []
    for minor in range(11, 100):
        path = shutil.which(f"python3.{minor}")
        if minor != sys.version_info.minor and path and subprocess.run(
            [path, "-c", "pass"], capture_output=True, timeout=60
        ).returncode == 0:
            found.append(path)
    return found


def test_other_interpreters_write_the_golden_bytes(tmp_path):
    """The dataset and every golden report, made by another interpreter's
    CLI, are byte for byte the goldens."""
    pythons = other_interpreters()
    if not pythons:
        pytest.skip("no other python3.N (N >= 11) on PATH")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    for python in pythons:

        def run(argv):
            return subprocess.run(
                [python, "-m", "gridscore.cli", *argv], env=env, timeout=120
            ).returncode

        root = tmp_path / Path(python).name
        root.mkdir()
        build_dataset(root, run)
        for name in CASES:
            assert render(root, name, run) == (GOLDEN / f"{name}.txt").read_text(
                encoding="utf-8"
            ), (python, name)


#: ``gridscore gen`` configs whose output is pinned by sha256 below.
GEN_VARIANTS = {
    "golden": GEN_CONF,
    "no_events": GEN_CONF.replace(
        "gen.events_per_period = 12\n", "gen.events_per_period = 0\n"
    ),
    # 12 events a period reach at most 12 of the 20 cells: the top 15 take
    # in quiet cells.
    "top_k_above_busy_cells": GEN_CONF + "gen.top_k = 15\n",
}

#: sha256 of each file gen writes, and of its report, per config.
GEN_SHA256 = {
    "golden": {
        "cells.csv": "62c5ef0104afdf01c873d9b6aab5de574ff17dcae80c33f86d68c605ca4e5491",
        "events.csv": "0407ae51c70e213f4048db8f75f3e059046068e2d8280b1bc35af29839c15f26",
        "selections.csv": "e37172aafec0dd1c98a76f0ff2afd2f46a9372ec88b492bb46cd0aa5af0af45b",
        "surfaces.csv": "32b68ad5a8a576834f9ff232cdf01affb29f3839a3a997280c3f37072c781e34",
        "report": "2727aae37eddb56a3bfd14801b0c0ffb890fc7cced4c38a68966653afc69eae1",
    },
    "no_events": {
        "cells.csv": "62c5ef0104afdf01c873d9b6aab5de574ff17dcae80c33f86d68c605ca4e5491",
        "events.csv": "d84ccb30c6866216f58c0a4d5789b4ee41130a3ba258c8a824ba5a8366c19c18",
        "selections.csv": "bb5bfa32f6ab28e38e6a46e4be0d0614f8e9c70c727ea3db224f12aba1150700",
        "surfaces.csv": "62010a8ee4b00d296938884f0930d457d8d97e0a05e1e8e793885af0d1040ce2",
        "report": "22c9534030437250710a8961b4b60100f59429f134fe8a1ec8572942a6f86a74",
    },
    "top_k_above_busy_cells": {
        "cells.csv": "62c5ef0104afdf01c873d9b6aab5de574ff17dcae80c33f86d68c605ca4e5491",
        "events.csv": "0407ae51c70e213f4048db8f75f3e059046068e2d8280b1bc35af29839c15f26",
        "selections.csv": "fa3e1a4b87d52006cbebf3a5a7545424f1ad37e1cb644359425545d0ce2b509c",
        "surfaces.csv": "32b68ad5a8a576834f9ff232cdf01affb29f3839a3a997280c3f37072c781e34",
        "report": "2d06a27139b8fcf975d0b49533f0c2a7cc1f08f961647f58d8cdb07c87bb58df",
    },
}


@pytest.mark.parametrize("name", GEN_VARIANTS)
def test_gen_output_is_pinned(tmp_path, name):
    (tmp_path / "gen.conf").write_text(GEN_VARIANTS[name], encoding="utf-8")
    data, report = tmp_path / "data", tmp_path / "gen.txt"
    assert main(["gen", "--config", str(tmp_path / "gen.conf"), "--out-dir", str(data),
                 "--out", str(report)]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in data.iterdir()}
    digests["report"] = hashlib.sha256(report.read_bytes()).hexdigest()
    assert digests == GEN_SHA256[name]


def test_goldens_cover_the_scoring_edge_cases():
    text = {name: (GOLDEN / f"{name}.txt").read_text(encoding="utf-8") for name in CASES}
    cells, compare = text["evaluate_cells"], text["compare_eu_weights"]
    assert "model quiet period p9: no events, event-level rates undefined" in cells
    assert "model quiet period p2: no events in scope, als undefined" in cells
    assert ("model uniform period p2: als restriction requested but model has "
            "no selection here") in cells
    assert "model everywhere period p2: expected utility undefined" in compare
    assert "expected_utility" not in text["evaluate_eu"]
    assert "[alpha]" in text["evaluate_units"] and "[levels]" in text["optimize_alpha"]


#: A ``gridscore gen`` dataset each of whose four files spans at least three
#: of the reader's 1024-row chunks: 2100 cells, 4 × 1500 events, 3 × 700
#: cells flagged by the top-k model alone and 2 × 3 × 2100 surface rows.
MULTI_CHUNK_CONF = (
    "gen.cells = 2100\n"
    "gen.periods = 4\n"
    "gen.events_per_period = 1500\n"
    "gen.top_k = 700\n"
    "gen.seed = 17\n"
    f"gen.weights = {','.join(str(1 + i % 7) for i in range(2100))}\n"
)

#: sha256 of the multi-chunk dataset's evaluate and compare reports.
MULTI_CHUNK_SHA256 = {
    "evaluate": "77bad135e264afb97cc330b48e7525eeb4c2c028566d6241d3c83e2d55a77538",
    "compare": "0048111fec2aa4313ada6a5b306cbafd62a05bc0e851a840a702558f2bf769d7",
}

MULTI_CHUNK_RUNS = {
    "evaluate": CONFIGS["evaluate_cells"].replace("als.restrict_to_hotspots = on\n", ""),
    "compare": "measures = hit_rate,pai,precision,fpr\n" + EU,
}


@pytest.mark.parametrize("command", MULTI_CHUNK_RUNS)
def test_multi_chunk_reports_are_pinned(tmp_path, command):
    (tmp_path / "gen.conf").write_text(MULTI_CHUNK_CONF, encoding="utf-8")
    data = tmp_path / "data"
    assert main(["gen", "--config", str(tmp_path / "gen.conf"), "--out-dir", str(data),
                 "--out", str(tmp_path / "gen.txt")]) == 0
    selections: dict = {}
    for model, period, cell in read_rows(data / "selections.csv"):
        selections.setdefault(model, {}).setdefault(period, set()).add(cell)
    # A second model flags 650 cells drawn at random in each period.
    cells = sorted(cell for cell, _ in read_rows(data / "cells.csv"))
    rng = random.Random(3)
    selections["sampled"] = {period: rng.sample(cells, 650) for period in selections["top_k"]}
    write_selections(str(data / "selections.csv"), {
        model: {p: HotspotSelection(p, frozenset(c)) for p, c in by_period.items()}
        for model, by_period in selections.items()
    })
    (tmp_path / "run.conf").write_text(MULTI_CHUNK_RUNS[command], encoding="utf-8")
    out = tmp_path / "report.txt"
    argv = [command, "--config", str(tmp_path / "run.conf"), "--out", str(out)]
    for kind in ("cells", "events", "selections", "surfaces"):
        argv += [f"--{kind}", str(data / f"{kind}.csv")]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == MULTI_CHUNK_SHA256[command]


#: A units table spanning three of the reader's 1024-row chunks: 3000
#: units whose 60 smallest carry about 12 times the crime density.
MULTI_CHUNK_UNITS = 3000

#: The coverage whose level (56 units) is the unique PPAI peak for 12 grid
#: alphas of the default grid.
MULTI_CHUNK_TARGET = "0.006"

#: sha256 of the optimize-alpha report and of a units-mode evaluate with
#: ``ppai.alpha_mode = grid_search`` over the multi-chunk units table.
MULTI_CHUNK_ALPHA_SHA256 = {
    "optimize-alpha": "2ef7a8c1f7911aeda4170374bb612d3c32875d389a3734a8f1825b9d57d49395",
    "evaluate": "1e61eac2d383d5cf3435bd45fc0e334234099b65c64fe400a60a389a5cffe296",
}


def write_multi_chunk_units(root):
    """Write the multi-chunk units table and a selections file over it."""
    rng = random.Random(19)
    hot = set(rng.sample(range(MULTI_CHUNK_UNITS), 60))
    sizes = [rng.uniform(0.4, 0.8) if i in hot else rng.uniform(1.0, 3.0)
             for i in range(MULTI_CHUNK_UNITS)]
    weights = [s * (12.0 if i in hot else 1.0) * rng.uniform(0.5, 1.5)
               for i, s in enumerate(sizes)]
    total_size, total_weight = math.fsum(sizes), math.fsum(weights)
    ids = [f"u{i:04d}" for i in range(MULTI_CHUNK_UNITS)]
    with open(root / "units.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("unit_id", "area_fraction", "crime_fraction"))
        for unit_id, size, weight in zip(ids, sizes, weights):
            writer.writerow((unit_id, repr(size / total_size), repr(weight / total_weight)))
    # Model hot flags the hot units in p1; model sampled flags 700 units
    # drawn at random in each of p1 and p2.
    with open(root / "selections.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("model_id", "period_id", "cell_id"))
        writer.writerows(("hot", "p1", ids[i]) for i in sorted(hot))
        for period in ("p1", "p2"):
            writer.writerows(("sampled", period, unit_id)
                             for unit_id in sorted(rng.sample(ids, 700)))


@pytest.mark.parametrize("command", MULTI_CHUNK_ALPHA_SHA256)
def test_multi_chunk_alpha_reports_are_pinned(tmp_path, command):
    write_multi_chunk_units(tmp_path)
    units, out = str(tmp_path / "units.csv"), tmp_path / "report.txt"
    if command == "optimize-alpha":
        argv = [command, "--units", units, "--target", MULTI_CHUNK_TARGET]
    else:
        (tmp_path / "run.conf").write_text(
            "measures = hit_rate,coverage,pai,ppai\n"
            "ppai.alpha_mode = grid_search\n"
            f"ppai.target_coverage = {MULTI_CHUNK_TARGET}\n",
            encoding="utf-8",
        )
        argv = [command, "--units", units, "--selections", str(tmp_path / "selections.csv"),
                "--config", str(tmp_path / "run.conf")]
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == MULTI_CHUNK_ALPHA_SHA256[command]


#: Sections rendered as a header row plus comma-separated data rows.
TABLES = ("levels", "measures", "summary", "combined", "wsr")


@pytest.mark.parametrize("name", CASES)
def test_table_rows_are_as_wide_as_their_header(name):
    sections, current = {}, None
    for line in (GOLDEN / f"{name}.txt").read_text(encoding="utf-8").splitlines():
        if line.startswith("["):
            current = sections.setdefault(line.strip("[]"), [])
        elif line and current is not None and " = " not in line:
            current.append(line.split(","))
    for table in TABLES:
        header, *rows = sections.get(table) or [[]]
        assert all(len(row) == len(header) for row in rows), (name, table)


#: Runs whose bytes must not depend on row order or on string hashing.
INVARIANT_RUNS = {
    "evaluate": CONFIGS["evaluate_cells"] + EU,
    "compare_eu": CONFIGS["compare_eu_weights"],
    "compare_standardized": CONFIGS["compare_weights"],
    "compare_fallback": CONFIGS["compare_fallback"],
}

RUN_ALL = """
import sys
from gridscore.cli import main
root = sys.argv[1]
for name in sys.argv[2:]:
    command = name.partition("_")[0]
    argv = [command, "--config", f"{root}/{name}.conf", "--out", f"{root}/{name}.txt"]
    for kind in ("cells", "events", "selections", "surfaces"):
        argv += [f"--{kind}", f"{root}/{kind}.csv"]
    assert main(argv) == 0
"""


def test_reports_ignore_row_order_and_hash_seed(dataset, tmp_path):
    """Each run, in a fresh interpreter with its own PYTHONHASHSEED, reads
    the data files with their rows shuffled by that seed."""
    reports = []
    for seed in (0, 1, 2):
        root = tmp_path / f"seed{seed}"
        root.mkdir()
        rng = random.Random(seed)
        for kind in ("cells", "events", "selections", "surfaces"):
            header, *rows = (dataset / "data" / f"{kind}.csv").read_text(
                encoding="utf-8").splitlines(keepends=True)
            rng.shuffle(rows)
            (root / f"{kind}.csv").write_text(header + "".join(rows), encoding="utf-8")
        for name, conf in INVARIANT_RUNS.items():
            (root / f"{name}.conf").write_text(conf, encoding="utf-8")
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", RUN_ALL, str(root), *INVARIANT_RUNS],
                       env=env, check=True)
        reports.append({name: (root / f"{name}.txt").read_bytes()
                        for name in INVARIANT_RUNS})
    assert reports[0] == reports[1] == reports[2]
    golden = {"compare_eu": "compare_eu_weights",
              "compare_standardized": "compare_weights",
              "compare_fallback": "compare_fallback"}
    for name, case in golden.items():
        assert reports[0][name] == (GOLDEN / f"{case}.txt").read_bytes()
