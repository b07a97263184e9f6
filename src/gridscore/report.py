"""Deterministic plain-text reports.

A report is structured text: a preamble, then named ``[sections]`` holding
either ``key = value`` lines (sorted) or a small DSV table with a header
row. :meth:`Report.render` alone sorts every section and writes every
value with :func:`fmt` (floats by repr(), the shortest round-tripping form),
so a given input, configuration and tool version renders to the same bytes.

Rates with a zero denominator appear as the literal token ``undefined`` —
never 0, never NaN.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

from . import __version__
from ._record import FACTORY, Record

FORMAT_VERSION = 1

Value = Union[bool, float, int, str, tuple, None]


def fmt(value: Value) -> str:
    """One value as reports and config echoes show it: floats by repr, None
    as 'undefined', booleans as on/off, a tuple's items joined by commas."""
    if value is None:
        return "undefined"
    if isinstance(value, bool):  # before str(), which would give True/False
        return "on" if value else "off"
    if isinstance(value, tuple):
        return ",".join(map(fmt, value))
    return repr(value) if isinstance(value, float) else str(value)


#: What :func:`fmt` does to a value of exactly one of these types.
_PLAIN = {float: float.__repr__, int: int.__repr__, str: str}


def _column_texts(column: Sequence[Value]) -> Iterable[str]:
    """:func:`fmt` of every value of a table column. A column of one plain
    type (exactly float, int or str; not bool or a subclass) is formatted
    by one ``map`` of what :func:`fmt` calls for that type."""
    kinds = set(map(type, column))
    plain = _PLAIN.get(kinds.pop()) if len(kinds) == 1 else None
    return map(plain or fmt, column)


class Report(Record):
    """Everything a command produced, ready to render deterministically.

    Unlike the other records a report is filled in after it is built, so it
    can be changed and has no hash. Each list field left out starts empty.
    """

    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        command: str,
        config_pairs: list[tuple[str, Value]] = FACTORY,
        inputs: list[tuple[str, Value]] = FACTORY,
        warnings: list[str] = FACTORY,
        # model_id, period_id, measure, value
        measure_rows: list[tuple[str, str, str, Value]] = FACTORY,
        # model_id, measure, mean, std
        summary_rows: list[tuple[str, str, Value, Value]] = FACTORY,
        alpha_info: list[tuple[str, Value]] = FACTORY,
        # prefix_len, unit_id, cum_area, cum_crime, ppai_at_alpha_star
        level_rows: list[tuple[int, str, float, float, float]] = FACTORY,
        combined_rule: Optional[str] = None,
        # model_id, score, rank
        combined_rows: list[tuple[str, float, float]] = FACTORY,
        # measure, model_a, model_b, n_used, w_plus, method, p, p_bonferroni
        wsr_rows: list[tuple[str, str, str, int, float, str, float, float]] = FACTORY,
        generated_files: list[str] = FACTORY,
    ) -> None:
        def given(value: list) -> list:
            return [] if value is FACTORY else value

        self.command = command
        self.config_pairs = given(config_pairs)
        self.inputs = given(inputs)
        self.warnings = given(warnings)
        self.measure_rows = given(measure_rows)
        self.summary_rows = given(summary_rows)
        self.alpha_info = given(alpha_info)
        self.level_rows = given(level_rows)
        self.combined_rule = combined_rule
        self.combined_rows = given(combined_rows)
        self.wsr_rows = given(wsr_rows)
        self.generated_files = given(generated_files)

    def render(self) -> str:
        """The preamble, then one ``[name]`` block per section: [config] and
        [inputs] always, every other section only when it has rows. Each
        section is sorted on raw values, so numbers sort as numbers, and
        each value is written with :func:`fmt`. Keys are unique and a
        table's leading columns identify a row, so no sort compares values."""

        def pairs(items: list[tuple[str, Value]]) -> list[str]:
            return [f"{key} = {fmt(value)}" for key, value in sorted(items)]

        def table(rows: Sequence[tuple]) -> list[str]:
            # One column at a time, then joined back into rows.
            columns = map(_column_texts, zip(*sorted(rows)))
            return list(map(",".join, zip(*columns)))

        sections = [
            ("config", [], pairs(self.config_pairs)),
            ("inputs", [], pairs(self.inputs)),
            ("warnings", [], sorted(self.warnings) or ["none"]),
            ("alpha", [], pairs(self.alpha_info)),
            ("levels", ["prefix_len,unit_id,cum_area,cum_crime,ppai_at_alpha_star"],
             table(self.level_rows)),
            ("measures", ["model_id,period_id,measure,value"],
             table(self.measure_rows)),
            ("summary", ["model_id,measure,mean,std"], table(self.summary_rows)),
            ("combined", [f"rule = {self.combined_rule}", "model_id,score,rank"],
             table(self.combined_rows)),
            ("wsr", ["measure,model_a,model_b,n_used,w_plus,method,p,p_bonferroni"],
             table(self.wsr_rows)),
            ("files", [], sorted(self.generated_files)),
        ]
        lines = [
            "# gridscore report",
            f"format_version = {FORMAT_VERSION}",
            f"tool_version = {__version__}",
            f"command = {self.command}",
            "",
        ]
        for name, header, rows in sections:
            if rows or name in ("config", "inputs"):
                lines += [f"[{name}]", *header, *rows, ""]
        return "\n".join(lines)
