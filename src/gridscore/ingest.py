"""File formats: loading, cross-validation and (re-)serialization.

All tabular inputs are comma-separated text with a fixed header row:

    cells       cell_id,area_km2
    events      event_id,cell_id,period_id
    selections  model_id,period_id,cell_id      (presence = flagged)
    surfaces    model_id,period_id,cell_id,probability
    units       unit_id,area_fraction,crime_fraction

The run configuration is flat ``key = value`` text with ``#`` comments and
namespaced keys (``ppai.alpha``, ``eu.u_tp``, ``weights.hit_rate``, ...).

Every loader either returns a fully validated object or raises
:class:`IngestError` naming the file, line and problem; nothing partially
constructed ever escapes. Writers emit the exact same formats, and a
load → write → load round trip is the identity on every valid dataset.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Sequence, TextIO

from .combine import UtilitySpec, WeightVector
from .domain import (
    Cell,
    Event,
    EventSet,
    GridSpec,
    HotspotSelection,
    PeriodId,
    ProbabilitySurface,
    RejectedRow,
)
from .errors import IngestError, ValidationError
from .metrics import HotspotUnit
from .synth import GeneratorSpec

#: Every measure the toolkit can compute, by report/config identifier.
MEASURE_IDS = (
    "accuracy",
    "als",
    "coverage",
    "fpr",
    "hit_rate",
    "npv",
    "pai",
    "ppai",
    "precision",
    "sensitivity",
    "ser",
    "specificity",
)

#: Measures computable from a pre-aggregated units table (no grid needed).
UNIT_MEASURES = ("hit_rate", "coverage", "pai", "ppai")

#: Default orientation: is a larger value better? (fpr is the odd one out.)
DEFAULT_ORIENTATION = {m: ("lower" if m == "fpr" else "higher") for m in MEASURE_IDS}

_SIMPLE_KEYS = (
    "measures",
    "strict",
    "ppai.alpha_mode",
    "ppai.alpha",
    "ppai.target_coverage",
    "ppai.grid_step",
    "als.floor",
    "als.floor_epsilon",
    "als.restrict_to_hotspots",
    "combine.score_transform",
    "eu.u_tp",
    "eu.u_fp",
    "eu.u_tn",
    "eu.u_fn",
    "gen.cells",
    "gen.cell_area",
    "gen.weights",
    "gen.periods",
    "gen.events_per_period",
    "gen.seed",
    "gen.top_k",
    "gen.smoothing",
)


@dataclass(frozen=True)
class Dataset:
    """Everything one evaluation run consumes, fully cross-validated.

    ``selections`` and ``surfaces`` are nested model → period mappings.
    In cell mode the grid and events are present and selections flag grid
    cells; in units mode only the pre-aggregated unit table is present and
    selections flag unit ids.
    """

    grid: Optional[GridSpec]
    events: Optional[EventSet]
    selections: Mapping[str, Mapping[PeriodId, HotspotSelection]]
    surfaces: Mapping[str, Mapping[PeriodId, ProbabilitySurface]]
    units: Optional[tuple[HotspotUnit, ...]]
    rejected: tuple[RejectedRow, ...] = ()

    def models(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.selections) | set(self.surfaces)))

    def periods(self) -> tuple[PeriodId, ...]:
        out: set[PeriodId] = set()
        for by_period in self.selections.values():
            out.update(by_period)
        for by_period in self.surfaces.values():
            out.update(by_period)
        return tuple(sorted(out))

    def units_by_id(self) -> dict[str, HotspotUnit]:
        return {u.id: u for u in (self.units or ())}


@dataclass(frozen=True)
class RunConfig:
    """A fully materialized run configuration; every default is explicit.

    ``to_pairs`` renders the whole thing as sorted key/value strings, which
    the report layer echoes verbatim so that no silent default can shape a
    number without appearing in the output.
    """

    measures: tuple[str, ...] = ("hit_rate", "coverage", "pai")
    strict: bool = True
    alpha_mode: str = "hit_rate"  # fixed | hit_rate | grid_search
    alpha: Optional[float] = None
    target_coverage: Optional[float] = None
    grid_step: float = 0.01
    als_floor_enabled: bool = False
    als_floor_epsilon: float = 1e-12
    als_restrict_to_hotspots: bool = False
    score_transform: str = "raw"  # raw | standardized | rank
    utilities: Optional[UtilitySpec] = None
    weights: Optional[WeightVector] = None
    orientations: Mapping[str, str] = field(
        default_factory=lambda: dict(DEFAULT_ORIENTATION)
    )
    generator: Optional[GeneratorSpec] = None
    gen_top_k: Optional[int] = None  # load_config defaults it with a generator
    gen_smoothing: float = 1.0

    def to_pairs(self) -> list[tuple[str, str]]:
        pairs = [
            ("als.floor", "on" if self.als_floor_enabled else "off"),
            ("als.floor_epsilon", repr(self.als_floor_epsilon)),
            ("als.log_base", "e"),
            (
                "als.restrict_to_hotspots",
                "on" if self.als_restrict_to_hotspots else "off",
            ),
            ("combine.score_transform", self.score_transform),
            ("measures", ",".join(self.measures)),
            ("ppai.alpha_mode", self.alpha_mode),
            ("ppai.grid_step", repr(self.grid_step)),
            ("strict", "on" if self.strict else "off"),
        ]
        if self.alpha is not None:
            pairs.append(("ppai.alpha", repr(self.alpha)))
        if self.target_coverage is not None:
            pairs.append(("ppai.target_coverage", repr(self.target_coverage)))
        if self.utilities is not None:
            u = self.utilities
            pairs += [
                ("eu.u_fn", repr(u.u_fn)),
                ("eu.u_fp", repr(u.u_fp)),
                ("eu.u_tn", repr(u.u_tn)),
                ("eu.u_tp", repr(u.u_tp)),
            ]
        if self.weights is not None:
            for mid in sorted(self.weights.weights):
                pairs.append((f"weights.{mid}", repr(self.weights.weights[mid])))
        for mid in sorted(self.orientations):
            if mid in self.measures:
                pairs.append((f"orientation.{mid}", self.orientations[mid]))
        if self.generator is not None:
            g = self.generator
            pairs += [
                ("gen.cell_area", repr(g.cell_area_km2)),
                ("gen.cells", str(g.n_cells)),
                ("gen.events_per_period", str(g.events_per_period)),
                ("gen.periods", str(g.n_periods)),
                ("gen.seed", str(g.seed)),
                ("gen.smoothing", repr(self.gen_smoothing)),
                ("gen.top_k", str(self.gen_top_k)),
                ("gen.weights", ",".join(repr(w) for w in g.weights)),
            ]
        return sorted(pairs)


def _read_table(path: str, header: Sequence[str]):
    """Yield (line_number, row) for a CSV file, enforcing the exact header."""
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise IngestError(path, f"cannot open: {exc.strerror or exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            first = next(reader)
        except StopIteration:
            raise IngestError(path, "file is empty, expected a header row") from None
        if [h.strip() for h in first] != list(header):
            raise IngestError(
                path,
                f"bad header {','.join(first)!r}, expected {','.join(header)!r}",
                line=1,
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue  # blank line
            if len(row) != len(header):
                raise IngestError(
                    path,
                    f"expected {len(header)} fields, found {len(row)}",
                    line=lineno,
                )
            yield lineno, [f.strip() for f in row]


def _parse_float(path: str, lineno: int, field_name: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise IngestError(
            path, f"{field_name} is not a number: {text!r}", line=lineno
        ) from None
    if not math.isfinite(value):
        raise IngestError(
            path, f"{field_name} must be finite, got {text!r}", line=lineno
        )
    return value


def load_cells(path: str) -> GridSpec:
    cells = []
    seen: set[str] = set()
    for lineno, (cell_id, area_text) in _read_table(path, ("cell_id", "area_km2")):
        if not cell_id:
            raise IngestError(path, "empty cell_id", line=lineno)
        if cell_id in seen:
            raise IngestError(path, f"duplicate cell_id {cell_id!r}", line=lineno)
        seen.add(cell_id)
        area = _parse_float(path, lineno, "area_km2", area_text)
        try:
            cells.append(Cell(cell_id, area))
        except ValidationError as exc:
            raise IngestError(path, str(exc), line=lineno) from exc
    if not cells:
        raise IngestError(path, "no cells defined")
    return GridSpec(cells=tuple(cells))


def load_events(
    path: str, grid: GridSpec, strict: bool = True
) -> tuple[EventSet, tuple[RejectedRow, ...]]:
    """Load events against a grid; unknown cells error out in strict mode.

    In lenient mode the offending rows are returned as rejects so the
    caller can count and report them instead of silently losing data.
    """
    known = grid.cell_ids
    events = []
    rejected = []
    seen: set[str] = set()
    header = ("event_id", "cell_id", "period_id")
    for lineno, (event_id, cell_id, period_id) in _read_table(path, header):
        if not event_id or not cell_id or not period_id:
            raise IngestError(path, "empty field", line=lineno)
        if event_id in seen:
            raise IngestError(path, f"duplicate event_id {event_id!r}", line=lineno)
        seen.add(event_id)
        if cell_id not in known:
            if strict:
                raise IngestError(
                    path,
                    f"event {event_id!r} references unknown cell {cell_id!r}",
                    line=lineno,
                )
            rejected.append(RejectedRow(event_id, cell_id, period_id, "unknown cell"))
            continue
        events.append(Event(event_id, cell_id, period_id))
    return EventSet(tuple(events)), tuple(rejected)


def load_selections(
    path: str, known_ids: frozenset[str], id_kind: str = "cell"
) -> dict[str, dict[PeriodId, HotspotSelection]]:
    """Load per-model hotspot selections; rows flag cells (or units).

    Always strict: a model flagging an id that does not exist is a modelling
    error, not a data-quality nuisance, so there is no lenient drop here.
    """
    flagged: dict[tuple[str, PeriodId], set[str]] = {}
    seen: set[tuple[str, str, str]] = set()
    header = ("model_id", "period_id", "cell_id")
    for lineno, (model_id, period_id, cell_id) in _read_table(path, header):
        if not model_id or not period_id or not cell_id:
            raise IngestError(path, "empty field", line=lineno)
        key = (model_id, period_id, cell_id)
        if key in seen:
            raise IngestError(
                path,
                f"duplicate selection {model_id}/{period_id}/{cell_id}",
                line=lineno,
            )
        seen.add(key)
        if cell_id not in known_ids:
            raise IngestError(
                path,
                f"model {model_id!r} flags unknown {id_kind} {cell_id!r}",
                line=lineno,
            )
        flagged.setdefault((model_id, period_id), set()).add(cell_id)
    out: dict[str, dict[PeriodId, HotspotSelection]] = {}
    for (model_id, period_id), cells in sorted(flagged.items()):
        out.setdefault(model_id, {})[period_id] = HotspotSelection(
            period=period_id, flagged=frozenset(cells)
        )
    return out


def load_surfaces(
    path: str, grid: GridSpec, renormalize: bool = False
) -> dict[str, dict[PeriodId, ProbabilitySurface]]:
    """Load per-model probability surfaces, one complete grid per period."""
    masses: dict[tuple[str, PeriodId], dict[str, float]] = {}
    header = ("model_id", "period_id", "cell_id", "probability")
    for lineno, (model_id, period_id, cell_id, prob_text) in _read_table(
        path, header
    ):
        if not model_id or not period_id or not cell_id:
            raise IngestError(path, "empty field", line=lineno)
        if cell_id not in grid.cell_ids:
            raise IngestError(
                path,
                f"model {model_id!r} assigns mass to unknown cell {cell_id!r}",
                line=lineno,
            )
        prob = _parse_float(path, lineno, "probability", prob_text)
        if prob < 0:
            raise IngestError(
                path, f"probability must be non-negative, got {prob!r}", line=lineno
            )
        per = masses.setdefault((model_id, period_id), {})
        if cell_id in per:
            raise IngestError(
                path,
                f"duplicate surface entry {model_id}/{period_id}/{cell_id}",
                line=lineno,
            )
        per[cell_id] = prob
    out: dict[str, dict[PeriodId, ProbabilitySurface]] = {}
    for (model_id, period_id), mass in sorted(masses.items()):
        missing = sorted(grid.cell_ids - set(mass))
        if missing:
            raise IngestError(
                path,
                f"surface {model_id}/{period_id} misses {len(missing)} cells "
                f"(first: {missing[0]!r})",
            )
        try:
            if renormalize:
                surface = ProbabilitySurface.renormalized(period_id, mass)
            else:
                surface = ProbabilitySurface(period_id, mass)
        except ValidationError as exc:
            raise IngestError(
                path, f"surface {model_id}/{period_id}: {exc}"
            ) from exc
        out.setdefault(model_id, {})[period_id] = surface
    return out


def load_units(path: str) -> tuple[HotspotUnit, ...]:
    units = []
    seen: set[str] = set()
    header = ("unit_id", "area_fraction", "crime_fraction")
    for lineno, (unit_id, area_text, crime_text) in _read_table(path, header):
        if not unit_id:
            raise IngestError(path, "empty unit_id", line=lineno)
        if unit_id in seen:
            raise IngestError(path, f"duplicate unit_id {unit_id!r}", line=lineno)
        seen.add(unit_id)
        area = _parse_float(path, lineno, "area_fraction", area_text)
        crime = _parse_float(path, lineno, "crime_fraction", crime_text)
        try:
            units.append(HotspotUnit(unit_id, area, crime))
        except ValidationError as exc:
            raise IngestError(path, str(exc), line=lineno) from exc
    if not units:
        raise IngestError(path, "no units defined")
    return tuple(units)


def load_dataset(
    cells: Optional[str] = None,
    events: Optional[str] = None,
    selections: Optional[str] = None,
    surfaces: Optional[str] = None,
    units: Optional[str] = None,
    strict: bool = True,
    renormalize_surfaces: bool = False,
) -> Dataset:
    """Load and cross-validate a full dataset from its component files.

    Two shapes are accepted: cell mode (cells + events, plus selections
    and/or surfaces) and units mode (a pre-aggregated unit table, with
    selections flagging unit ids). Either way at least one model must end
    up defined.
    """
    if cells is None and units is None:
        raise ValidationError("a dataset needs a cells file or a units file")
    grid = load_cells(cells) if cells is not None else None
    unit_rows = load_units(units) if units is not None else None

    event_set = None
    rejected: tuple[RejectedRow, ...] = ()
    if events is not None:
        if grid is None:
            raise ValidationError("an events file needs a cells file to resolve against")
        event_set, rejected = load_events(events, grid, strict=strict)

    selection_map: dict[str, dict[PeriodId, HotspotSelection]] = {}
    if selections is not None:
        if grid is not None:
            selection_map = load_selections(selections, grid.cell_ids, "cell")
        else:
            known = frozenset(u.id for u in unit_rows or ())
            selection_map = load_selections(selections, known, "unit")

    surface_map: dict[str, dict[PeriodId, ProbabilitySurface]] = {}
    if surfaces is not None:
        if grid is None:
            raise ValidationError("a surfaces file needs a cells file to resolve against")
        surface_map = load_surfaces(surfaces, grid, renormalize=renormalize_surfaces)

    dataset = Dataset(
        grid=grid,
        events=event_set,
        selections=selection_map,
        surfaces=surface_map,
        units=unit_rows,
        rejected=rejected,
    )
    if not dataset.models():
        raise ValidationError(
            "dataset defines no models (no selections and no surfaces)"
        )
    return dataset


# ---------------------------------------------------------------------------
# configuration


def _parse_bool(path: str, key: str, text: str) -> bool:
    lowered = text.lower()
    if lowered in ("on", "true", "yes", "1"):
        return True
    if lowered in ("off", "false", "no", "0"):
        return False
    raise IngestError(path, f"{key}: expected on/off, got {text!r}")


def _config_float(path: str, key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise IngestError(path, f"{key}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise IngestError(path, f"{key}: must be finite, got {text!r}")
    return value


def _config_int(path: str, key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise IngestError(path, f"{key}: not an integer: {text!r}") from None


def read_config_pairs(path: str) -> dict[str, str]:
    """Raw key → value text from a config file, last assignment winning."""
    pairs: dict[str, str] = {}
    try:
        handle = open(path, encoding="utf-8")
    except OSError as exc:
        raise IngestError(path, f"cannot open: {exc.strerror or exc}") from exc
    with handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise IngestError(
                    path, f"expected 'key = value', got {raw.strip()!r}", line=lineno
                )
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not key:
                raise IngestError(path, "empty key", line=lineno)
            pairs[key] = value
    return pairs


def load_config(path: str, cli_strict: Optional[bool] = None) -> RunConfig:
    """Parse, validate and materialize a run configuration.

    ``cli_strict`` (from --strict/--lenient) overrides the file's own
    ``strict`` key. Unknown keys are errors in strict mode; in lenient mode
    they are ignored.
    """
    pairs = read_config_pairs(path)
    strict = True
    if "strict" in pairs:
        strict = _parse_bool(path, "strict", pairs["strict"])
    if cli_strict is not None:
        strict = cli_strict

    known_prefixes = ("weights.", "orientation.")
    unknown = [
        k
        for k in sorted(pairs)
        if k not in _SIMPLE_KEYS and not k.startswith(known_prefixes)
    ]
    if unknown and strict:
        raise IngestError(path, f"unknown config keys: {', '.join(unknown)}")

    measures = ("hit_rate", "coverage", "pai")
    if "measures" in pairs:
        parsed = tuple(m.strip() for m in pairs["measures"].split(",") if m.strip())
        if not parsed:
            raise IngestError(path, "measures: empty list, nothing to compute")
        bad = [m for m in parsed if m not in MEASURE_IDS]
        if bad:
            raise IngestError(
                path,
                f"unknown measures: {', '.join(bad)} "
                f"(known: {', '.join(MEASURE_IDS)})",
            )
        measures = parsed

    alpha_mode = pairs.get("ppai.alpha_mode", "hit_rate")
    if alpha_mode not in ("fixed", "hit_rate", "grid_search"):
        raise IngestError(
            path,
            f"ppai.alpha_mode must be fixed, hit_rate or grid_search, "
            f"got {alpha_mode!r}",
        )
    alpha = None
    if "ppai.alpha" in pairs:
        alpha = _config_float(path, "ppai.alpha", pairs["ppai.alpha"])
        if not (0.0 <= alpha <= 1.0):
            raise IngestError(path, f"ppai.alpha must lie in [0, 1], got {alpha!r}")
    target_coverage = None
    if "ppai.target_coverage" in pairs:
        target_coverage = _config_float(
            path, "ppai.target_coverage", pairs["ppai.target_coverage"]
        )
        if not (0.0 < target_coverage < 1.0):
            raise IngestError(
                path,
                f"ppai.target_coverage must lie in (0, 1), got {target_coverage!r}",
            )
    grid_step = 0.01
    if "ppai.grid_step" in pairs:
        grid_step = _config_float(path, "ppai.grid_step", pairs["ppai.grid_step"])
        if not (0.0 < grid_step < 1.0):
            raise IngestError(
                path, f"ppai.grid_step must lie in (0, 1), got {grid_step!r}"
            )
    if "ppai" in measures:
        if alpha_mode == "fixed" and alpha is None:
            raise IngestError(
                path, "ppai.alpha_mode is 'fixed' but ppai.alpha is not set"
            )
        if alpha_mode == "grid_search" and target_coverage is None:
            raise IngestError(
                path,
                "ppai.alpha_mode is 'grid_search' but ppai.target_coverage "
                "is not set",
            )

    als_floor = False
    if "als.floor" in pairs:
        als_floor = _parse_bool(path, "als.floor", pairs["als.floor"])
    als_epsilon = 1e-12
    if "als.floor_epsilon" in pairs:
        als_epsilon = _config_float(
            path, "als.floor_epsilon", pairs["als.floor_epsilon"]
        )
        if not als_epsilon > 0:
            raise IngestError(
                path, f"als.floor_epsilon must be positive, got {als_epsilon!r}"
            )
    als_restrict = False
    if "als.restrict_to_hotspots" in pairs:
        als_restrict = _parse_bool(
            path, "als.restrict_to_hotspots", pairs["als.restrict_to_hotspots"]
        )

    transform = pairs.get("combine.score_transform", "raw")
    if transform not in ("raw", "standardized", "rank"):
        raise IngestError(
            path,
            f"combine.score_transform must be raw, standardized or rank, "
            f"got {transform!r}",
        )

    eu_keys = ("eu.u_tp", "eu.u_fp", "eu.u_tn", "eu.u_fn")
    present = [k for k in eu_keys if k in pairs]
    utilities = None
    if present:
        missing = [k for k in eu_keys if k not in pairs]
        if missing:
            raise IngestError(
                path, f"utilities are all-or-nothing; missing {', '.join(missing)}"
            )
        utilities = UtilitySpec(
            u_tp=_config_float(path, "eu.u_tp", pairs["eu.u_tp"]),
            u_fp=_config_float(path, "eu.u_fp", pairs["eu.u_fp"]),
            u_tn=_config_float(path, "eu.u_tn", pairs["eu.u_tn"]),
            u_fn=_config_float(path, "eu.u_fn", pairs["eu.u_fn"]),
        )

    weight_map = {}
    for key in sorted(pairs):
        if not key.startswith("weights."):
            continue
        mid = key[len("weights.") :]
        if mid not in MEASURE_IDS:
            raise IngestError(path, f"{key}: unknown measure {mid!r}")
        weight_map[mid] = _config_float(path, key, pairs[key])
    weights = None
    if weight_map:
        try:
            weights = WeightVector(weight_map)
        except ValidationError as exc:
            raise IngestError(path, f"weights: {exc}") from exc
        # Weighted measures are computed whether or not they were listed.
        measures = measures + tuple(
            m for m in sorted(weight_map) if m not in measures
        )

    orientations = dict(DEFAULT_ORIENTATION)
    for key in sorted(pairs):
        if not key.startswith("orientation."):
            continue
        mid = key[len("orientation.") :]
        if mid not in MEASURE_IDS:
            raise IngestError(path, f"{key}: unknown measure {mid!r}")
        value = pairs[key].lower()
        if value not in ("higher", "lower"):
            raise IngestError(
                path, f"{key}: expected higher or lower, got {pairs[key]!r}"
            )
        orientations[mid] = value

    generator = None
    gen_top_k = None
    gen_smoothing = 1.0
    if any(k.startswith("gen.") for k in pairs):
        n_cells = _config_int(path, "gen.cells", pairs.get("gen.cells", "100"))
        cell_area = _config_float(
            path, "gen.cell_area", pairs.get("gen.cell_area", "1.0")
        )
        n_periods = _config_int(path, "gen.periods", pairs.get("gen.periods", "12"))
        events_per_period = _config_int(
            path, "gen.events_per_period", pairs.get("gen.events_per_period", "100")
        )
        seed = _config_int(path, "gen.seed", pairs.get("gen.seed", "0"))
        if "gen.weights" in pairs:
            weight_list = tuple(
                _config_float(path, "gen.weights", w)
                for w in pairs["gen.weights"].split(",")
            )
        else:
            weight_list = tuple(1.0 for _ in range(max(n_cells, 1)))
        try:
            generator = GeneratorSpec(
                n_cells=n_cells,
                cell_area_km2=cell_area,
                weights=weight_list,
                n_periods=n_periods,
                events_per_period=events_per_period,
                seed=seed,
            )
        except ValidationError as exc:
            raise IngestError(path, f"gen: {exc}") from exc
        gen_top_k = max(1, n_cells // 10)
        if "gen.top_k" in pairs:
            gen_top_k = _config_int(path, "gen.top_k", pairs["gen.top_k"])
            if not 0 < gen_top_k <= n_cells:
                raise IngestError(
                    path, f"gen.top_k must lie in [1, {n_cells}], got {gen_top_k!r}"
                )
        if "gen.smoothing" in pairs:
            gen_smoothing = _config_float(path, "gen.smoothing", pairs["gen.smoothing"])
            if gen_smoothing < 0:
                raise IngestError(
                    path, f"gen.smoothing must be >= 0, got {gen_smoothing!r}"
                )

    return RunConfig(
        measures=measures,
        strict=strict,
        alpha_mode=alpha_mode,
        alpha=alpha,
        target_coverage=target_coverage,
        grid_step=grid_step,
        als_floor_enabled=als_floor,
        als_floor_epsilon=als_epsilon,
        als_restrict_to_hotspots=als_restrict,
        score_transform=transform,
        utilities=utilities,
        weights=weights,
        orientations=orientations,
        generator=generator,
        gen_top_k=gen_top_k,
        gen_smoothing=gen_smoothing,
    )


# ---------------------------------------------------------------------------
# serialization (used by `gen` and for round-trip guarantees)


@contextlib.contextmanager
def atomic_open(path: str) -> Iterator[TextIO]:
    """A text handle on a temporary file that replaces ``path`` on success.

    The file is written completely or not at all: on any exception the
    temporary file is removed and ``path`` keeps its old contents.
    """
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    handle = open(tmp, "x", newline="", encoding="utf-8")
    try:
        with handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[str]]):
    with atomic_open(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def write_cells(path: str, grid: GridSpec) -> None:
    _write_csv(
        path,
        ("cell_id", "area_km2"),
        ((c.id, repr(c.area_km2)) for c in sorted(grid.cells, key=lambda c: c.id)),
    )


def write_events(path: str, events: EventSet) -> None:
    _write_csv(
        path,
        ("event_id", "cell_id", "period_id"),
        ((e.event_id, e.cell_id, e.period) for e in events.events),
    )


def write_selections(
    path: str, selections: Mapping[str, Mapping[PeriodId, HotspotSelection]]
) -> None:
    rows = []
    for model_id in sorted(selections):
        for period_id in sorted(selections[model_id]):
            for cell_id in sorted(selections[model_id][period_id].flagged):
                rows.append((model_id, period_id, cell_id))
    _write_csv(path, ("model_id", "period_id", "cell_id"), rows)


def write_surfaces(
    path: str, surfaces: Mapping[str, Mapping[PeriodId, ProbabilitySurface]]
) -> None:
    rows = []
    for model_id in sorted(surfaces):
        for period_id in sorted(surfaces[model_id]):
            mass = surfaces[model_id][period_id].mass
            for cell_id in sorted(mass):
                rows.append((model_id, period_id, cell_id, repr(mass[cell_id])))
    _write_csv(path, ("model_id", "period_id", "cell_id", "probability"), rows)


def write_units(path: str, units: Sequence[HotspotUnit]) -> None:
    _write_csv(
        path,
        ("unit_id", "area_fraction", "crime_fraction"),
        (
            (u.id, repr(u.area_fraction), repr(u.crime_fraction))
            for u in sorted(units, key=lambda u: u.id)
        ),
    )
