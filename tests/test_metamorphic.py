"""Metamorphic relations from the paper's definitions, checked at the CLI.

Each relation runs ``evaluate`` or ``compare`` on drawn datasets, changes
the input in a way whose effect on the report the definitions fix, and
compares the reports. No oracle is needed.

Area scale: coverage, PAI and PPAI are ratios of areas, and ALS and the
confusion-matrix rates use no area at all, so scaling every cell area by
2**k changes only ``total_area_km2``, by 2**k, and each SER value, per row
and in the summary, by 2**-k. A power-of-two scale is exact while no value
under- or overflows, so the drawn areas keep clear of both ends of the
float range.

Renaming: no measure reads an id, and every order in the report is that of
the ids, so renaming every model, period, cell and event id by a bijection
that keeps their order renames the report, its warnings and its refusals,
and changes no number.

Swapping two models: renaming m1 as m2 and m2 as m1 negates each of their
per-period differences, so their WSR row mirrors. Its W+ becomes
n_used(n_used + 1)/2 - W+, the exact p-value stays bit-identical because
the null distribution of W+ is symmetric, and the normal approximation's
p-value agrees within rounding. A row with a third model is renamed.
"""

import contextlib
import io
import itertools
import math
import os
import re
import string
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from gridscore import cli
from gridscore.ingest import HEADERS, MEASURE_IDS

CONFIG = f"measures = {','.join(MEASURE_IDS)}\nals.floor = on\n"


def table(kind, rows):
    return "".join(f"{','.join(map(str, row))}\n" for row in [HEADERS[kind], *rows])


@st.composite
def datasets(draw, cells=(1, 6), periods=(1, 3), models=(1, 2), flagged=0):
    """Cells with their areas, and the events, selections and surfaces: a
    number of cells, periods and selection models in the ranges ``cells``,
    ``periods`` and ``models``, up to twelve events a period, and at least
    ``flagged`` cells flagged in each (model, period)."""
    cells = [f"c{i}" for i in range(draw(st.integers(*cells)))]
    areas = draw(st.lists(
        st.floats(2.0**-30, 2.0**30), min_size=len(cells), max_size=len(cells)
    ))
    periods = [f"p{i}" for i in range(1, draw(st.integers(*periods)) + 1)]
    events = [
        (f"e{i}", draw(st.sampled_from(cells)), draw(st.sampled_from(periods)))
        for i in range(draw(st.integers(0, 12 * len(periods))))
    ]
    selections = [
        (model, period, cell)
        for model in ("m1", "m2", "m3")[: draw(st.integers(*models))]
        for period in periods
        for cell in draw(st.lists(st.sampled_from(cells), min_size=flagged, unique=True))
    ]
    # Surfaces from small whole-number weights, renormalized on load; the
    # first cell's is positive, and a zero mass leaves ALS to its floor.
    surfaces = [
        (model, period, cell, draw(st.integers(cell == cells[0], 4)))
        for model in ("s1", "s2")[: draw(st.integers(0, 2))]
        for period in periods
        for cell in cells
    ]
    return cells, areas, {
        "events": table("events", events),
        "selections": table("selections", selections),
        "surfaces": table("surfaces", surfaces),
        "conf": CONFIG,
    }


def run(command, root, cells, areas, files):
    """(exit code, stdout, stderr) of ``command`` on the dataset, its files
    written to the directory ``root``."""
    files = dict(files, cells=table("cells", zip(cells, map(repr, areas))))
    argv = [command, "--renormalize-surfaces"]
    for kind, text in files.items():
        path = os.path.join(root, kind)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        argv += ["--config" if kind == "conf" else f"--{kind}", path]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_scaled(base, scaled, factor):
    """Every line of ``scaled`` is that of ``base``, but for the total area,
    scaled by ``factor``, and the SER values, scaled by 1 / ``factor``."""
    base_lines, scaled_lines = base.splitlines(), scaled.splitlines()
    assert len(base_lines) == len(scaled_lines)
    section = None
    for before, after in zip(base_lines, scaled_lines):
        if before.startswith("["):
            section = before
        fields = before.split(",")
        if before.startswith("total_area_km2 = "):
            key, _, value = after.partition(" = ")
            assert key == "total_area_km2"
            assert float(value) == float(before.partition(" = ")[2]) * factor
        elif (section, fields[2:3]) == ("[measures]", ["ser"]) or (
            section == "[summary]" and fields[1:2] == ["ser"]
        ):
            # model, period, measure, value / model, measure, mean, std
            keys = 3 if section == "[measures]" else 2
            new = after.split(",")
            assert new[:keys] == fields[:keys]
            for old_value, new_value in zip(fields[keys:], new[keys:], strict=True):
                if old_value == "undefined":
                    assert new_value == old_value
                else:
                    assert float(new_value) == float(old_value) / factor
        else:
            assert after == before


@settings(max_examples=40, deadline=None)
@given(dataset=datasets())
def test_area_scale(dataset):
    cells, areas, files = dataset
    with tempfile.TemporaryDirectory() as root:
        code, base, err = run("evaluate", root, cells, areas, files)
        for k in itertools.chain(range(-4, 0), range(1, 5)):
            factor = 2.0**k
            scaled = run("evaluate", root, cells, [area * factor for area in areas], files)
            assert scaled[0] == code and scaled[2] == err
            assert_scaled(base, scaled[1], factor)


#: The ids ``datasets`` draws: cells, events, models and periods. Models are
#: named m (selections) or s (surfaces), and the two are one id space.
IDS = re.compile(r"\b[cemps]\d+\b")


def rename(text, names):
    """``text`` with each id in ``names`` replaced by its new name."""
    return IDS.sub(lambda match: names.get(match[0], match[0]), text)


def ids_by_kind(cells, files):
    """The drawn ids of each kind, sorted."""
    kinds = {}
    for name in set(cells).union(*(IDS.findall(text) for text in files.values())):
        kinds.setdefault(name[0].replace("s", "m"), []).append(name)
    return [sorted(names) for names in kinds.values()]


def order_preserving(data, names):
    """A drawn bijection of the sorted ids ``names`` onto ids of letters,
    in the same order. Letters sort after every separator a warning puts
    after an id, so sorted warnings keep their order too."""
    new = data.draw(st.lists(
        st.text(string.ascii_letters, min_size=1, max_size=3),
        min_size=len(names), max_size=len(names), unique=True,
    ))
    return dict(zip(names, sorted(new)))


@settings(max_examples=40, deadline=None)
@given(dataset=datasets(), command=st.sampled_from(["evaluate", "compare"]), data=st.data())
def test_renaming(dataset, command, data):
    cells, areas, files = dataset
    names = {}
    for kind in ids_by_kind(cells, files):
        names.update(order_preserving(data, kind))
    renamed = {kind: rename(text, names) for kind, text in files.items()}
    with tempfile.TemporaryDirectory() as root:
        base = run(command, root, cells, areas, files)
        new = run(command, root, [names[c] for c in cells], areas, renamed)
    assert new == (base[0], rename(base[1], names), rename(base[2], names))


def wsr_rows(report):
    """The rows of the [wsr] section of ``report``, if any, split into fields."""
    section = report.partition("\n[wsr]\n")[2].partition("\n\n")[0]
    return [line.split(",") for line in section.splitlines()[1:]]


@settings(max_examples=40, deadline=None)
# Over 25 periods that flag some of four or more cells, most rows have more
# differences than stats.EXACT_LIMIT and take the normal approximation.
@given(dataset=st.one_of(
    datasets(models=(2, 3)),
    datasets(cells=(4, 6), periods=(26, 30), models=(2, 3), flagged=1),
))
def test_swapping_two_models(dataset):
    cells, areas, files = dataset
    swap = {"m1": "m2", "m2": "m1"}
    with tempfile.TemporaryDirectory() as root:
        code, base, _ = run("compare", root, cells, areas, files)
        swapped = run("compare", root, cells, areas, {
            kind: rename(text, swap) for kind, text in files.items()
        })
    assert swapped[0] == code
    if code != 0:
        return
    # Each row of the swapped run, keyed by measure and model pair.
    rows = {tuple(row[:3]): row[3:] for row in wsr_rows(swapped[1])}
    assert len(rows) == len(wsr_rows(base))
    for measure, a, b, *result in wsr_rows(base):
        if {a, b} != {"m1", "m2"}:
            pair = sorted(swap.get(m, m) for m in (a, b))
            assert rows[(measure, *pair)] == result
            continue
        n_used, w_plus, method, p, p_adj = rows[(measure, a, b)]
        assert (n_used, method) == (result[0], result[2])
        n = int(n_used)
        assert float(w_plus) == n * (n + 1) / 2 - float(result[1])
        if method == "exact":
            assert [p, p_adj] == result[3:]
        else:
            for new, old in zip([p, p_adj], result[3:]):
                assert math.isclose(float(new), float(old), rel_tol=1e-9, abs_tol=1e-15)


#: The sections that adding a model may change: [inputs] counts the rows of
#: each file, [warnings] gains the new model's, the [combined] scores and
#: ranks are relative to every model, and [wsr] gains the new model's pairs
#: and a Bonferroni factor that counts them.
MAY_MOVE = {"[inputs]", "[warnings]", "[combined]", "[wsr]"}


def sections(report):
    """The blocks of ``report``, by their first line: the preamble's is
    ``# gridscore report``, a section's is its ``[name]``."""
    return {block.split("\n", 1)[0]: block for block in report.split("\n\n")}


@settings(max_examples=40, deadline=None)
@given(dataset=datasets(), command=st.sampled_from(["evaluate", "compare"]), data=st.data())
def test_adding_a_model(dataset, command, data):
    cells, areas, files = dataset
    periods = sorted(set(re.findall(r"\bp\d+\b", files["events"] + files["selections"]
                                    + files["surfaces"]))) or ["p1"]
    # The new model m4 flags cells and has surfaces in every period, drawn
    # as datasets draws them.
    flagged = [
        ("m4", period, cell)
        for period in periods
        for cell in data.draw(st.lists(st.sampled_from(cells), unique=True))
    ]
    masses = [
        ("m4", period, cell, data.draw(st.integers(cell == cells[0], 4)))
        for period in periods
        for cell in cells
    ]
    added = dict(
        files,
        selections=files["selections"] + table("selections", flagged).partition("\n")[2],
        surfaces=files["surfaces"] + table("surfaces", masses).partition("\n")[2],
    )
    with tempfile.TemporaryDirectory() as root:
        code, base, _ = run(command, root, cells, areas, files)
        new_code, new, err = run(command, root, cells, areas, added)
    if code != 0:
        return
    assert new_code == 0, err
    base, new = sections(base), sections(new)
    assert base.keys() - MAY_MOVE <= new.keys()
    for name in base.keys() - MAY_MOVE:
        if name in ("[measures]", "[summary]"):
            rows = [line for line in new[name].split("\n") if not line.startswith("m4,")]
            assert "\n".join(rows) == base[name]
        else:
            assert new[name] == base[name]
    for name in new.keys() - base.keys() - MAY_MOVE:
        assert name in ("[measures]", "[summary]")
