"""Report.render formats its tables a column at a time, as fmt would.

A column of exactly float, int or str values is formatted by one ``map``;
every other column goes through :func:`fmt`. Either way the bytes must be
those of formatting every value with :func:`fmt`.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import gridscore.report
from gridscore.report import Report, fmt


class Loud(float):
    """A float subclass whose repr is not float's."""

    def __repr__(self):
        return f"loud{float.__repr__(self)}"


class Tag(str):
    """A str subclass whose str is not the text itself."""

    def __str__(self):
        return f"tag:{str.__str__(self)}"


FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.1 + 0.2, 5e-324, 1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)
TEXTS = st.text(alphabet="abcxyz_", min_size=1, max_size=6)
VALUES = st.one_of(
    FLOATS,
    st.integers(-10**20, 10**20),
    TEXTS,
    st.none(),
    st.booleans(),
    st.tuples(TEXTS, FLOATS, st.integers(0, 9)),
    FLOATS.map(Loud),
    TEXTS.map(Tag),
)

#: A column drawn from one plain type, or from any mix of values.
COLUMNS = st.one_of(
    st.sampled_from([FLOATS, st.integers(), TEXTS]).flatmap(st.lists),
    st.lists(VALUES),
)


@st.composite
def tables(draw, width):
    """Rows of ``width`` columns, led by a unique key column (as in a
    report, where the leading columns identify a row, so no sort compares
    the values after them)."""
    n = draw(st.integers(0, 12))
    columns = [draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))]
    for _ in range(width - 1):
        column = draw(COLUMNS)
        columns.append((column * n)[:n] if column else [None] * n)
    return list(zip(*columns))


def reference_render(report):
    """The report rendered with every table value formatted by fmt."""
    with mock.patch.object(gridscore.report, "_column_texts", lambda column: map(fmt, column)):
        return report.render()


@settings(max_examples=150, deadline=None)
@given(tables(5), tables(4), tables(3), tables(8))
def test_render_formats_every_value_as_fmt(levels, measures, combined, wsr):
    report = Report(
        "evaluate",
        level_rows=levels,
        measure_rows=measures,
        combined_rows=combined,
        wsr_rows=wsr,
    )
    text = report.render()
    assert text == reference_render(report)
    for rows in (levels, measures, combined, wsr):
        lines = [",".join(map(fmt, row)) for row in sorted(rows)]
        assert "\n".join(lines) in text
