"""Exception types shared across the package."""

from __future__ import annotations


class GridscoreError(ValueError):
    """Base class for every error raised by this package."""


class ValidationError(GridscoreError):
    """A domain object or operation input violates a stated invariant."""


class PeriodMismatchError(ValidationError):
    """An operation was handed objects belonging to different periods."""


class ZeroMassError(GridscoreError):
    """An observed event sits on a cell to which the model assigned zero mass.

    Carries the offending cell id so a report can point at the cell rather
    than at the aggregate score.
    """

    def __init__(self, cell_id: str, period: str):
        self.cell_id = cell_id
        self.period = period
        super().__init__(
            f"zero probability mass at event cell {cell_id!r} in period "
            f"{period!r}; enable a floor to score this model anyway"
        )


class DegenerateScoresError(GridscoreError):
    """All models scored identically, so z-scoring is impossible.

    Rank aggregation still works on constant scores; callers should fall
    back to it.
    """


class AlphaSearchError(GridscoreError):
    """The alpha grid search could not produce a usable result.

    ``diagnostics`` holds one ``(alpha, peak_prefix_len)`` pair per grid
    point so the caller can see which level dominated where.
    """

    def __init__(self, message: str, diagnostics: tuple = ()):
        self.diagnostics = tuple(diagnostics)
        super().__init__(message)


class IngestError(GridscoreError):
    """A data or config file failed to parse or cross-validate.

    The message always names the file and, where meaningful, the line
    number and field, so the offending row can be found by hand.
    """

    def __init__(self, path: str, message: str, line: int | None = None):
        self.path = str(path)
        self.reason = message
        self.line = line
        where = f"{path}:{line}" if line is not None else str(path)
        super().__init__(f"{where}: {message}")
