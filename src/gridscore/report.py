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

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

from . import __version__

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


@dataclass
class Report:
    """Everything a command produced, ready to render deterministically."""

    command: str
    config_pairs: list[tuple[str, Value]] = field(default_factory=list)
    inputs: list[tuple[str, Value]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    # model_id, period_id, measure, value
    measure_rows: list[tuple[str, str, str, Value]] = field(default_factory=list)
    # model_id, measure, mean, std
    summary_rows: list[tuple[str, str, Value, Value]] = field(default_factory=list)
    alpha_info: list[tuple[str, Value]] = field(default_factory=list)
    # prefix_len, unit_id, cum_area, cum_crime, ppai_at_alpha_star
    level_rows: list[tuple[int, str, float, float, float]] = field(
        default_factory=list
    )
    combined_rule: Optional[str] = None
    # model_id, score, rank
    combined_rows: list[tuple[str, float, float]] = field(default_factory=list)
    # measure, model_a, model_b, n_used, w_plus, method, p, p_bonferroni
    wsr_rows: list[
        tuple[str, str, str, int, float, str, float, float]
    ] = field(default_factory=list)
    generated_files: list[str] = field(default_factory=list)

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
