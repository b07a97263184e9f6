"""Finite inputs give a finite report or a refusal, never a traceback.

Small datasets and configs are drawn and run through ``cli.main``. Every
number comes from extreme finite floats and every id from a pool that holds
format characters and NFD forms. Whatever the input, the run exits 0 or 1,
its stderr is empty or a ``gridscore: error:`` line, and a report it writes
holds no ``inf`` or ``nan`` and no id that prints like another. The
reproducers of each fault of this kind are explicit examples.
"""

import contextlib
import io
import os
import re
import tempfile
import unicodedata

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gridscore import cli, ingest
from gridscore.ingest import CONFIG_SCHEMA, HEADERS, MEASURE_IDS
from gridscore.metrics import UNIT_MEASURES

EXTREMES = (1.0, 0.0, 5e-324, 2.2e-308, 1e-300, 1e300, 1.7976931348623157e308)
IDS = ("a", "b", "m", "x y", "caf\u00e9")
# A zero-width space, a byte order mark, and the NFD twin of an NFC id.
ODD_IDS = ("m\u200b", "\ufeffm", "cafe\u0301")


def table(kind, rows):
    """The text of a ``kind`` table of ``rows``."""
    return "".join(f"{','.join(map(str, row))}\n" for row in [HEADERS[kind], *rows])


def case(command, *flags, **files):
    """One run: a command, its flags and its files by kind, as text."""
    return command, flags, files


TWO_CELLS = table("cells", [("c1", 1), ("c2", 1)])
TWO_EVENTS = table("events", [("e1", "c1", "p1"), ("e2", "c2", "p1")])
ONE_SELECTION = table("selections", [("m", "p1", "c1")])
SUBNORMAL_CELLS = table("cells", [("c1", 5e-324), ("c2", 1)])
GEN_WEIGHTS = "gen.cells = 2\ngen.weights = 1e308, 1e308\ngen.periods = 2\n"
WEIGHTED_PPAI = "measures = hit_rate\nweights.hit_rate = 0.5\nweights.ppai = 0.5\n"
GRID_SEARCH_UNITS = {
    "units": table("units", [("u1", 0.1, 0.5), ("u2", 0.3, 0.2), ("u3", 0.6, 0.3)]),
    "selections": table("selections", [("A", "p1", "u1"), ("B", "p1", "u2")]),
    "conf": WEIGHTED_PPAI + "ppai.alpha_mode = grid_search\n",
}

REPRODUCERS = [
    # Sums past the largest float.
    case("evaluate", cells=table("cells", [("c1", 1e308), ("c2", 1e308)]),
         events=TWO_EVENTS, selections=ONE_SELECTION),
    case("gen", conf="gen.cells = 3\ngen.cell_area = 1e308\n"),
    case("evaluate", cells=TWO_CELLS, events=TWO_EVENTS, selections=ONE_SELECTION,
         conf="weights.hit_rate = 1e308\nweights.pai = 1e308\n"),
    case("evaluate", "--renormalize-surfaces", cells=TWO_CELLS, events=TWO_EVENTS,
         surfaces=table("surfaces", [("m", "p1", c, 1e308) for c in ("c1", "c2")])),
    # Measures that overflow over a subnormal area, over one and two periods.
    case("evaluate", cells=SUBNORMAL_CELLS, events=TWO_EVENTS,
         selections=ONE_SELECTION, conf="measures = pai\n"),
    case("evaluate", cells=SUBNORMAL_CELLS,
         events=table("events", [("e1", "c1", "p1"), ("e2", "c2", "p1"),
                                 ("e3", "c1", "p2"), ("e4", "c2", "p2")]),
         selections=table("selections", [("m", "p1", "c1"), ("m", "p2", "c1")]),
         conf="measures = pai\n"),
    case("evaluate", cells=table("cells", [("c1", 5e-324), ("c2", 5e-324)]),
         events=TWO_EVENTS, selections=ONE_SELECTION, conf="measures = ser\n"),
    # Ids that print alike.
    case("evaluate", cells=TWO_CELLS, events=TWO_EVENTS,
         selections=table("selections", [("m", "p1", "c1"), ("m\u200b", "p1", "c2")])),
    case("evaluate", cells=table("cells", [("caf\u00e9", 1), ("cafe\u0301", 1)]),
         events=table("events", [("e1", "caf\u00e9", "p1")]),
         selections=table("selections", [("m", "p1", "caf\u00e9")])),
    # gen: weights whose running sum overflows, and surfaces that cannot
    # be renormalized.
    case("gen", conf=GEN_WEIGHTS + "gen.events_per_period = 10\n"),
    case("gen", conf="gen.cells = 2\ngen.smoothing = 1e308\n"),
    case("gen", conf="gen.events_per_period = 0\ngen.smoothing = 0\n"),
    # Found by this test: a SER summary whose sum passes the float range,
    # and a level's PPAI past it.
    case("evaluate", cells=table("cells", [("c1", 2.2e-308), ("c2", 1)]),
         events=table("events", [("e1", "c1", "p1"), ("e2", "c1", "p1"),
                                 ("e3", "c1", "p2"), ("e4", "c1", "p2")]),
         selections=table("selections", [("m", "p1", "c1"), ("m", "p2", "c1")]),
         conf="measures = ser\n"),
    case("optimize-alpha", "--target", "0.5",
         units=table("units", [("a", 1.0, 2.2e-308), ("b", 5e-324, 1.0)])),
    # A ppai that is weighted but not listed, with no key for its alpha mode:
    # the fixed mode scored it at alpha = n/N, and the grid search crashed.
    case("compare", cells=table("cells", [("c1", 1.0), ("c2", 1.0), ("c3", 2.0)]),
         events=table("events", [("e1", "c1", "p1"), ("e2", "c1", "p1"),
                                 ("e3", "c2", "p1"), ("e4", "c3", "p1")]),
         selections=table("selections", [("A", "p1", "c1"), ("B", "p1", "c2")]),
         conf=WEIGHTED_PPAI + "ppai.alpha_mode = fixed\n"),
    case("evaluate", **GRID_SEARCH_UNITS),
    case("compare", **GRID_SEARCH_UNITS),
    # Two finite expected utilities whose sample deviation is not finite;
    # finite SER scores whose standardizing squared a difference past the
    # float range; and three expected utilities whose halves summed past it.
    case("compare", cells=TWO_CELLS,
         events=table("events", [("e1", "c1", "p1"), ("e2", "c1", "p2")]),
         selections=table("selections", [("A", "p1", "c1"), ("A", "p2", "c2"),
                                         ("B", "p1", "c2"), ("B", "p2", "c1")]),
         conf="measures = hit_rate\neu.u_tp = 1.7e308\neu.u_fp = -1.7e308\n"
         "eu.u_tn = 1.7e308\neu.u_fn = -1.7e308\n"),
    case("compare", cells=table("cells", [("c1", 1e-300), ("c2", 1.0)]),
         events=table("events", [("e1", "c1", "p1")]),
         selections=table("selections", [("A", "p1", "c1"), ("B", "p1", "c2")]),
         conf="measures = hit_rate\nweights.ser = 0.5\nweights.hit_rate = 0.5\n"
         "combine.score_transform = standardized\n"),
    case("compare", cells=TWO_CELLS,
         events=table("events", [("e1", "c1", "p1"), ("e2", "c1", "p2"),
                                 ("e3", "c1", "p3")]),
         selections=table("selections", [(m, p, c) for m, c in (("A", "c1"), ("B", "c2"))
                                         for p in ("p1", "p2", "p3")]),
         conf="measures = hit_rate\n"
         + "".join(f"eu.u_{k} = 1.7e308\n" for k in ("tp", "fp", "tn", "fn"))),
]

numbers = st.sampled_from(EXTREMES)
# The extremes with either sign, and 0.5, which lies inside every unit interval.
SIGNED = (*EXTREMES, *(-x for x in EXTREMES), 0.5)
positive = st.sampled_from(EXTREMES[:1] + EXTREMES[2:])
# The extremes that a units table's fractions may take.
shares = st.sampled_from(EXTREMES[:1] + EXTREMES[2:5])


def rarely(draw):
    """True for about one draw in four."""
    return draw(st.sampled_from([False, False, False, True]))


def distinct(strategy, low, high):
    return st.lists(strategy, min_size=low, max_size=high, unique=True)


def values(key):
    """The values drawn for config ``key``, as text: on or off for a flag,
    ``SIGNED`` for a number, small counts for a whole number, and for a word
    each one its bound's wording names; only those inside the bound, and
    none for a key of another parser."""
    if key.parse is ingest._parse_bool:
        pool = ["on", "off"]
    elif key.parse in (ingest._config_float, ingest._config_floats):
        pool = list(SIGNED)
    elif key.parse is ingest._config_int:
        pool = list(range(5))
    elif key.parse is ingest._config_text:
        pool = re.findall(r"\w+", key.bound[1])
    else:  # a parser this test does not know yet
        pool = []
    if key.bound is not None:
        pool = [v for v in pool if key.bound[0](v)]
    return [v if isinstance(v, str) else repr(v) for v in pool]


#: The keys a drawn config holds besides its measures: every key of the
#: schema but ``gen.*``.
RUN_KEYS = [k for k in CONFIG_SCHEMA if k.key != "measures" and not k.key.startswith("gen.")]


@st.composite
def configs(draw, ids=MEASURE_IDS):
    """Config text: some of the measures ``ids``, at times weights and an
    orientation of them, and at times each key of ``RUN_KEYS``. The
    utilities come all four or none, and they need cell-level data, so
    with the units measures they are left out."""
    measures = st.sampled_from(ids)
    lines = [f"measures = {','.join(draw(distinct(measures, 1, len(ids))))}"]
    if draw(st.booleans()):
        # One weight of 1, and at times a second one, drawn.
        first, *second = draw(distinct(measures, 1, 2))
        lines.append(f"weights.{first} = 1")
        lines += [f"weights.{m} = {draw(positive)!r}" for m in second]
    if rarely(draw):
        direction = draw(st.sampled_from(["higher", "lower"]))
        lines.append(f"orientation.{draw(measures)} = {direction}")
    utilities = ids == MEASURE_IDS and draw(st.booleans())
    for key in RUN_KEYS:
        if utilities if key.field.startswith("utilities.") else rarely(draw):
            lines.append(f"{key.key} = {draw(st.sampled_from(values(key)))}")
    return "".join(f"{line}\n" for line in lines)


@st.composite
def cell_cases(draw):
    """An evaluate or compare run on a grid of up to three cells."""
    odd = rarely(draw)
    ids = st.sampled_from(IDS + ODD_IDS if odd else IDS)
    cells = draw(distinct(ids, 1, 3))
    periods = draw(distinct(st.sampled_from(("p1", "p2", "p\u200b1")[: 2 + odd]), 1, 2))
    command = draw(st.sampled_from(["evaluate", "compare"]))
    models = draw(distinct(ids, 1 + (command == "compare"), 2))  # compare needs two
    events = [
        (draw(ids) if rarely(draw) else f"e{i}",
         draw(st.sampled_from(cells + ["zz"])),
         draw(st.sampled_from(periods)))
        for i in range(draw(st.integers(0, 4)))
    ]
    places = [(p, c) for p in periods for c in cells]
    files = {
        "cells": table("cells", [(c, draw(numbers)) for c in cells]),
        "events": table("events", events),
        "conf": draw(configs()),
    }
    tables = draw(st.sampled_from(["selections", "surfaces", "selections surfaces"]))
    if "selections" in tables:
        flagged = distinct(st.sampled_from(places), 1, len(places))
        rows = [(m, *place) for m in models for place in draw(flagged)]
        files["selections"] = table("selections", rows)
    if "surfaces" in tables:
        rows = [(m, *place, draw(numbers)) for m in models for place in places]
        files["surfaces"] = table("surfaces", rows)
    flags = draw(distinct(st.sampled_from(["--renormalize-surfaces", "--lenient"]), 0, 2))
    return case(command, *flags, **files)


@st.composite
def unit_cases(draw):
    """An optimize-alpha run on up to three units."""
    ids = st.sampled_from(IDS + ODD_IDS if rarely(draw) else IDS)
    units = draw(distinct(ids, 1, 3))
    rows = [(u, draw(numbers), draw(numbers)) for u in units]
    target = draw(st.sampled_from(["0.5", "1e-300", "0.9999999999999999"]))
    return case("optimize-alpha", "--target", target, units=table("units", rows))


@st.composite
def unit_mode_cases(draw):
    """An evaluate or compare run on up to three units. Their fractions are
    extremes a units table may hold, so that the run reaches its config."""
    ids = st.sampled_from(IDS + ODD_IDS if rarely(draw) else IDS)
    units = draw(distinct(ids, 1, 3))
    command = draw(st.sampled_from(["evaluate", "compare"]))
    models = draw(distinct(ids, 1 + (command == "compare"), 2))
    flagged = distinct(st.sampled_from(units), 1, len(units))
    return case(
        command,
        units=table("units", [(u, draw(shares), draw(shares)) for u in units]),
        selections=table("selections", [(m, "p1", u) for m in models for u in draw(flagged)]),
        conf=draw(configs(UNIT_MEASURES)),
    )


#: The gen keys that set the dataset's shape, drawn within it.
GEN_SHAPE = ("gen.cells", "gen.weights", "gen.periods", "gen.events_per_period")


@st.composite
def gen_cases(draw):
    """A gen run of up to three cells and three periods, and at times each
    other ``gen.*`` key of the schema."""
    n = draw(st.integers(1, 3))
    lines = [
        f"gen.cells = {n}",
        f"gen.weights = {', '.join(repr(draw(numbers)) for _ in range(n))}",
        f"gen.periods = {draw(st.integers(2, 3))}",
        f"gen.events_per_period = {draw(st.integers(0, 3))}",
    ]
    for key in CONFIG_SCHEMA:
        if key.key.startswith("gen.") and key.key not in GEN_SHAPE and draw(st.booleans()):
            lines.append(f"{key.key} = {draw(st.sampled_from(values(key)))}")
    return case("gen", conf="".join(f"{line}\n" for line in lines))


def run(command, flags, files):
    """(exit code, stdout, stderr) of ``command`` on ``files``."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as root:
        argv = [command, *flags]
        for kind, text in files.items():
            path = os.path.join(root, kind)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            argv += ["--config" if kind == "conf" else f"--{kind}", path]
        if command == "gen":
            argv += ["--out-dir", os.path.join(root, "out")]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=st.one_of(cell_cases(), unit_cases(), unit_mode_cases(), gen_cases()))
@example(case=REPRODUCERS[0])
@example(case=REPRODUCERS[1])
@example(case=REPRODUCERS[2])
@example(case=REPRODUCERS[3])
@example(case=REPRODUCERS[4])
@example(case=REPRODUCERS[5])
@example(case=REPRODUCERS[6])
@example(case=REPRODUCERS[7])
@example(case=REPRODUCERS[8])
@example(case=REPRODUCERS[9])
@example(case=REPRODUCERS[10])
@example(case=REPRODUCERS[11])
@example(case=REPRODUCERS[12])
@example(case=REPRODUCERS[13])
@example(case=REPRODUCERS[14])
@example(case=REPRODUCERS[15])
@example(case=REPRODUCERS[16])
@example(case=REPRODUCERS[17])
@example(case=REPRODUCERS[18])
@example(case=REPRODUCERS[19])
def test_a_finite_report_or_a_refusal(case):
    code, out, err = run(*case)
    assert code in (0, 1)
    assert err == "" or err.startswith("gridscore: error:")
    assert "Traceback" not in err
    if code == 0:
        assert not {"inf", "-inf", "nan"} & set(re.split(r"[\s,=]+", out))
        # No id in it prints like another.
        assert unicodedata.is_normalized("NFC", out)
        assert all(line.isprintable() for line in out.splitlines())


def test_every_schema_key_is_drawn():
    """Every key but the measures and the gen keys that set the dataset's
    shape, which are drawn by hand, has values to draw from."""
    by_hand = {"measures", *GEN_SHAPE}
    assert by_hand <= set(ingest._SCHEMA_BY_KEY)
    assert [k.key for k in CONFIG_SCHEMA if k.key not in by_hand and not values(k)] == []
