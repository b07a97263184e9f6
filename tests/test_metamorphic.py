"""Metamorphic relations from the paper's definitions, checked at the CLI.

Each relation runs ``evaluate`` on drawn datasets, changes the input in a
way whose effect on the report the definitions fix, and compares the whole
reports. No oracle is needed.

Area scale: coverage, PAI and PPAI are ratios of areas, and ALS and the
confusion-matrix rates use no area at all, so scaling every cell area by
2**k changes only ``total_area_km2``, by 2**k, and each SER value, per row
and in the summary, by 2**-k. A power-of-two scale is exact while no value
under- or overflows, so the drawn areas keep clear of both ends of the
float range.
"""

import contextlib
import io
import itertools
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from gridscore import cli
from gridscore.ingest import HEADERS, MEASURE_IDS

CONFIG = f"measures = {','.join(MEASURE_IDS)}\nals.floor = on\n"


def table(kind, rows):
    return "".join(f"{','.join(map(str, row))}\n" for row in [HEADERS[kind], *rows])


@st.composite
def datasets(draw):
    """Cells with their areas, and the events, selections and surfaces."""
    cells = [f"c{i}" for i in range(draw(st.integers(1, 6)))]
    areas = draw(st.lists(
        st.floats(2.0**-30, 2.0**30), min_size=len(cells), max_size=len(cells)
    ))
    periods = [f"p{i}" for i in range(1, draw(st.integers(1, 3)) + 1)]
    events = [
        (f"e{i}", draw(st.sampled_from(cells)), draw(st.sampled_from(periods)))
        for i in range(draw(st.integers(0, 12)))
    ]
    selections = [
        (model, period, cell)
        for model in ("m1", "m2")[: draw(st.integers(1, 2))]
        for period in periods
        for cell in draw(st.lists(st.sampled_from(cells), unique=True))
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


def evaluate(root, cells, areas, files):
    """(exit code, stdout, stderr) of ``evaluate`` on the dataset, its files
    written to the directory ``root``."""
    files = dict(files, cells=table("cells", zip(cells, map(repr, areas))))
    argv = ["evaluate", "--renormalize-surfaces"]
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
        code, base, err = evaluate(root, cells, areas, files)
        for k in itertools.chain(range(-4, 0), range(1, 5)):
            factor = 2.0**k
            scaled = evaluate(root, cells, [area * factor for area in areas], files)
            assert scaled[0] == code and scaled[2] == err
            assert_scaled(base, scaled[1], factor)
