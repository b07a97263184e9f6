"""End-to-end tests driving the `gridscore` CLI in-process."""

import math

import numpy as np
import pytest

from gridscore import cli
from gridscore.cli import main
from gridscore.domain import Cell, Event, EventSet
from gridscore.metrics import FRACTION_TOL
from gridscore.report import fmt

from conftest import AREA_FRACTIONS, CRIME_FRACTIONS, MODEL_UNITS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(text):
    """Split a rendered report into {section: [lines]} plus the preamble."""
    sections = {"_preamble": []}
    current = "_preamble"
    for line in text.splitlines():
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections[current] = []
        elif line:
            sections[current].append(line)
    return sections


def measure_table(sections):
    """[measures] rows as {(model, period, measure): float-or-None}."""
    out = {}
    for line in sections["measures"][1:]:
        model, period, measure, value = line.split(",")
        out[(model, period, measure)] = (
            None if value == "undefined" else float(value)
        )
    return out


def kv(lines):
    out = {}
    for line in lines:
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


@pytest.fixture(scope="session")
def units_files(tmp_path_factory):
    """The 15-unit worked example plus the four models' selections."""
    root = tmp_path_factory.mktemp("units_mode")
    units = root / "units.csv"
    units.write_text(
        "unit_id,area_fraction,crime_fraction\n"
        + "".join(
            f"h{i:02d},{a},{n}\n"
            for i, (a, n) in enumerate(zip(AREA_FRACTIONS, CRIME_FRACTIONS), 1)
        ),
        encoding="utf-8",
    )
    sel = root / "selections.csv"
    sel.write_text(
        "model_id,period_id,cell_id\n"
        + "".join(
            f"{model},p1,h{i:02d}\n"
            for model, ids in sorted(MODEL_UNITS.items())
            for i in ids
        ),
        encoding="utf-8",
    )
    return str(units), str(sel), root


@pytest.fixture(scope="session")
def two_model_cell_files(tmp_path_factory):
    """Cell-level realization of the two-model utility example.

    2000 unit cells; each model flags the first 100 cells in its own test
    period. Events put one crime in just enough flagged and unflagged
    cells to land on the published conditional rates: model A 85/15/30/70,
    model B 75/25/45/55 (percent), both with a 5% positive share.
    """
    root = tmp_path_factory.mktemp("cell_mode")
    ids = [f"c{i:04d}" for i in range(1, 2001)]
    (root / "cells.csv").write_text(
        "cell_id,area_km2\n" + "".join(f"{c},1.0\n" for c in ids),
        encoding="utf-8",
    )
    flagged = ids[:100]
    (root / "selections.csv").write_text(
        "model_id,period_id,cell_id\n"
        + "".join(f"A,pa,{c}\n" for c in flagged)
        + "".join(f"B,pb,{c}\n" for c in flagged),
        encoding="utf-8",
    )
    lines = ["event_id,cell_id,period_id\n"]
    counter = 0
    for c in flagged[:85] + ids[100:1430]:  # tp=85, fn=1330
        counter += 1
        lines.append(f"ea{counter:04d},{c},pa\n")
    counter = 0
    for c in flagged[:75] + ids[100:1145]:  # tp=75, fn=1045
        counter += 1
        lines.append(f"eb{counter:04d},{c},pb\n")
    (root / "events.csv").write_text("".join(lines), encoding="utf-8")
    return root


def write_conf(root, name, text):
    path = root / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestEvaluateUnitsMode:
    def test_default_measures(self, capsys, units_files):
        units, sel, _ = units_files
        code, out, err = run(
            capsys, "evaluate", "--units", units, "--selections", sel
        )
        assert code == 0
        assert err == ""
        sections = parse_report(out)
        values = measure_table(sections)
        np.testing.assert_allclose(values[("M-I", "p1", "pai")], 9.0, atol=5e-4)
        np.testing.assert_allclose(values[("M-II", "p1", "pai")], 10.0, atol=5e-4)
        np.testing.assert_allclose(values[("M-III", "p1", "pai")], 2.0909, atol=5e-4)
        np.testing.assert_allclose(values[("M-IV", "p1", "pai")], 0.6667, atol=5e-4)
        assert kv(sections["inputs"])["models"] == "M-I,M-II,M-III,M-IV"

    def test_ppai_own_hit_rate(self, capsys, units_files, tmp_path):
        units, sel, _ = units_files
        conf = write_conf(tmp_path, "run.conf", "measures = ppai\n")
        code, out, _ = run(
            capsys,
            "evaluate", "--units", units, "--selections", sel, "--config", conf,
        )
        assert code == 0
        values = measure_table(parse_report(out))
        np.testing.assert_allclose(values[("M-I", "p1", "ppai")], 0.6958, atol=5e-4)
        np.testing.assert_allclose(values[("M-II", "p1", "ppai")], 0.1584, atol=5e-4)
        np.testing.assert_allclose(values[("M-III", "p1", "ppai")], 0.3821, atol=5e-4)
        np.testing.assert_allclose(values[("M-IV", "p1", "ppai")], 0.1209, atol=5e-4)

    def test_ppai_grid_search_mode(self, capsys, units_files, tmp_path):
        units, sel, _ = units_files
        conf = write_conf(
            tmp_path,
            "run.conf",
            "measures = ppai\n"
            "ppai.alpha_mode = grid_search\n"
            "ppai.target_coverage = 0.02\n",
        )
        code, out, _ = run(
            capsys,
            "evaluate", "--units", units, "--selections", sel, "--config", conf,
        )
        assert code == 0
        sections = parse_report(out)
        alpha = kv(sections["alpha"])
        assert float(alpha["alpha_star"]) == 0.9
        assert float(alpha["valid_range_low"]) <= 0.87
        assert float(alpha["valid_range_high"]) >= 0.92
        values = measure_table(sections)
        np.testing.assert_allclose(values[("M-I", "p1", "ppai")], 6.3380, atol=5e-4)
        np.testing.assert_allclose(values[("M-II", "p1", "ppai")], 6.3096, atol=5e-4)
        np.testing.assert_allclose(values[("M-III", "p1", "ppai")], 1.6767, atol=5e-4)
        np.testing.assert_allclose(values[("M-IV", "p1", "ppai")], 0.5515, atol=5e-4)

    def test_single_period_summary_has_undefined_std(self, capsys, units_files):
        units, sel, _ = units_files
        code, out, _ = run(
            capsys, "evaluate", "--units", units, "--selections", sel
        )
        assert code == 0
        sections = parse_report(out)
        assert any(line.endswith(",undefined") for line in sections["summary"][1:])

    def test_cell_measures_rejected_in_units_mode(
        self, capsys, units_files, tmp_path
    ):
        units, sel, _ = units_files
        conf = write_conf(tmp_path, "run.conf", "measures = precision\n")
        code, out, err = run(
            capsys,
            "evaluate", "--units", units, "--selections", sel, "--config", conf,
        )
        assert code == 1
        assert out == ""
        assert "cell-level" in err

    @pytest.mark.parametrize(
        "measures, refused",
        [
            ("precision", "precision"),
            ("hit_rate,als,ser", "als, ser"),
            ("hit_rate,precision,als,ser", "precision, als, ser"),
        ],
    )
    def test_units_mode_refusal_names_the_cell_measures(
        self, capsys, units_files, tmp_path, measures, refused
    ):
        units, sel, _ = units_files
        conf = write_conf(tmp_path, "run.conf", f"measures = {measures}\n")
        code, out, err = run(
            capsys,
            "evaluate", "--units", units, "--selections", sel, "--config", conf,
        )
        assert code == 1
        assert out == ""
        assert err == (
            f"gridscore: error: measures {refused} need cell-level data; a "
            "units-only dataset supports hit_rate, coverage, pai, ppai\n"
        )

    def test_fraction_sum_above_one_is_refused_at_load(self, capsys, tmp_path):
        # Model A's p2 selection is the whole table, so the loader refuses
        # the file before any model's hit rate could exceed 1.
        units = write_conf(
            tmp_path,
            "units.csv",
            "unit_id,area_fraction,crime_fraction\nu1,0.5,0.7\nu2,0.5,0.6\n",
        )
        sel = write_conf(
            tmp_path, "sel.csv", "model_id,period_id,cell_id\nA,p1,u1\nA,p2,u1\nA,p2,u2\n"
        )
        code, out, err = run(capsys, "evaluate", "--units", units, "--selections", sel)
        assert (code, out) == (1, "")
        assert err == (
            f"gridscore: error: {units}: crime_fraction sums to 1.2999999999999998 "
            "> 1; the units overlap or their fractions are inconsistent\n"
        )

    def test_whole_table_at_the_fraction_tolerance_scores(self, capsys, tmp_path):
        # The crime column sums to exactly 1 + FRACTION_TOL, which the
        # loader accepts; a selection of every unit sums no higher.
        crime = 1.0 + FRACTION_TOL - 0.5
        assert math.fsum([0.5, crime]) == 1.0 + FRACTION_TOL
        units = write_conf(
            tmp_path,
            "units.csv",
            f"unit_id,area_fraction,crime_fraction\nu1,0.5,0.5\nu2,0.5,{crime!r}\n",
        )
        sel = write_conf(
            tmp_path, "sel.csv", "model_id,period_id,cell_id\nA,p1,u1\nA,p1,u2\n"
        )
        code, out, err = run(capsys, "evaluate", "--units", units, "--selections", sel)
        assert (code, err) == (0, "")
        assert parse_report(out)["measures"] == [
            "model_id,period_id,measure,value",
            "A,p1,coverage,1.0",
            f"A,p1,hit_rate,{1.0 + FRACTION_TOL!r}",
            f"A,p1,pai,{1.0 + FRACTION_TOL!r}",
        ]

    def test_report_written_to_file(self, capsys, units_files, tmp_path):
        units, sel, _ = units_files
        out_path = tmp_path / "report.txt"
        code, out, _ = run(
            capsys,
            "evaluate", "--units", units, "--selections", sel,
            "--out", str(out_path),
        )
        assert code == 0
        assert out == ""
        text = out_path.read_text(encoding="utf-8")
        assert text.startswith("# gridscore report\n")
        assert text.endswith("\n")

    def test_byte_identical_reruns(self, capsys, units_files, tmp_path):
        units, sel, _ = units_files
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            code, _, _ = run(
                capsys,
                "evaluate", "--units", units, "--selections", sel,
                "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestEvaluateCellMode:
    def test_event_level_rates(self, capsys, two_model_cell_files, tmp_path):
        root = two_model_cell_files
        conf = write_conf(
            tmp_path, "run.conf", "measures = hit_rate,precision,accuracy,fpr\n"
        )
        code, out, _ = run(
            capsys,
            "evaluate",
            "--cells", str(root / "cells.csv"),
            "--events", str(root / "events.csv"),
            "--selections", str(root / "selections.csv"),
            "--config", conf,
        )
        assert code == 0
        values = measure_table(parse_report(out))
        np.testing.assert_allclose(values[("A", "pa", "hit_rate")], 0.0601, atol=5e-4)
        np.testing.assert_allclose(values[("B", "pb", "hit_rate")], 0.0670, atol=5e-4)
        np.testing.assert_allclose(values[("A", "pa", "precision")], 0.85, atol=1e-12)
        np.testing.assert_allclose(values[("B", "pb", "precision")], 0.75, atol=1e-12)
        np.testing.assert_allclose(
            values[("A", "pa", "accuracy")], (85 + 570) / 2000, atol=1e-12
        )
        np.testing.assert_allclose(
            values[("A", "pa", "fpr")], 1 - 570 / 585, atol=1e-12
        )

    def test_lenient_mode_counts_rejects(self, capsys, tmp_path):
        (tmp_path / "cells.csv").write_text(
            "cell_id,area_km2\nc1,1.0\nc2,1.0\n", encoding="utf-8"
        )
        (tmp_path / "events.csv").write_text(
            "event_id,cell_id,period_id\ne1,c1,p1\ne2,zz,p1\n", encoding="utf-8"
        )
        (tmp_path / "selections.csv").write_text(
            "model_id,period_id,cell_id\nm1,p1,c1\n", encoding="utf-8"
        )
        code, out, _ = run(
            capsys,
            "evaluate",
            "--cells", str(tmp_path / "cells.csv"),
            "--events", str(tmp_path / "events.csv"),
            "--selections", str(tmp_path / "selections.csv"),
            "--lenient",
        )
        assert code == 0
        sections = parse_report(out)
        assert kv(sections["inputs"])["n_rejected_rows"] == "1"
        assert any("dropped" in line for line in sections["warnings"])

    def test_lenient_mode_warns_of_ignored_config_keys(self, capsys, tmp_path):
        (tmp_path / "cells.csv").write_text(
            "cell_id,area_km2\nc1,1.0\nc2,1.0\n", encoding="utf-8"
        )
        (tmp_path / "events.csv").write_text(
            "event_id,cell_id,period_id\ne1,c1,p1\n", encoding="utf-8"
        )
        (tmp_path / "selections.csv").write_text(
            "model_id,period_id,cell_id\nm1,p1,c1\nm2,p1,c2\n", encoding="utf-8"
        )
        conf = write_conf(tmp_path, "run.conf", "strict = off\nno_such_key = 1\n")
        inputs = [
            "--cells", str(tmp_path / "cells.csv"),
            "--events", str(tmp_path / "events.csv"),
            "--selections", str(tmp_path / "selections.csv"),
            "--config", conf,
        ]
        for command in ("evaluate", "compare"):
            code, out, _ = run(capsys, command, *inputs)
            assert code == 0
            sections = parse_report(out)
            assert sections["warnings"] == ["config key no_such_key ignored (unknown)"]
            assert "no_such_key" not in "\n".join(sections["config"])

    def test_strict_mode_fails_on_unknown_cell(self, capsys, tmp_path):
        (tmp_path / "cells.csv").write_text(
            "cell_id,area_km2\nc1,1.0\n", encoding="utf-8"
        )
        (tmp_path / "events.csv").write_text(
            "event_id,cell_id,period_id\ne1,zz,p1\n", encoding="utf-8"
        )
        (tmp_path / "selections.csv").write_text(
            "model_id,period_id,cell_id\nm1,p1,c1\n", encoding="utf-8"
        )
        code, out, err = run(
            capsys,
            "evaluate",
            "--cells", str(tmp_path / "cells.csv"),
            "--events", str(tmp_path / "events.csv"),
            "--selections", str(tmp_path / "selections.csv"),
        )
        assert code == 1
        assert "unknown cell" in err

    def test_als_on_surfaces_only(self, capsys, tmp_path):
        (tmp_path / "cells.csv").write_text(
            "cell_id,area_km2\nc1,1.0\nc2,1.0\n", encoding="utf-8"
        )
        (tmp_path / "events.csv").write_text(
            "event_id,cell_id,period_id\ne1,c1,p1\ne2,c2,p1\n", encoding="utf-8"
        )
        (tmp_path / "surfaces.csv").write_text(
            "model_id,period_id,cell_id,probability\n"
            "m1,p1,c1,0.5\nm1,p1,c2,0.5\n",
            encoding="utf-8",
        )
        conf = write_conf(tmp_path, "run.conf", "measures = als\n")
        code, out, _ = run(
            capsys,
            "evaluate",
            "--cells", str(tmp_path / "cells.csv"),
            "--events", str(tmp_path / "events.csv"),
            "--surfaces", str(tmp_path / "surfaces.csv"),
            "--config", conf,
        )
        assert code == 0
        values = measure_table(parse_report(out))
        np.testing.assert_allclose(
            values[("m1", "p1", "als")], np.log(0.5), atol=1e-12
        )

    def test_ser_is_hits_per_flagged_km2(self, capsys, tmp_path):
        # Coverage times total area, 0.7 / 9.1 * 9.1, is 0.7000000000000001.
        (tmp_path / "cells.csv").write_text(
            "cell_id,area_km2\na,0.7\nb,8.4\n", encoding="utf-8"
        )
        (tmp_path / "events.csv").write_text(
            "event_id,cell_id,period_id\n"
            + "".join(f"e{i},a,p1\n" for i in range(5)),
            encoding="utf-8",
        )
        (tmp_path / "selections.csv").write_text(
            "model_id,period_id,cell_id\nm1,p1,a\n", encoding="utf-8"
        )
        conf = write_conf(tmp_path, "run.conf", "measures = ser\n")
        code, out, _ = run(
            capsys,
            "evaluate",
            "--cells", str(tmp_path / "cells.csv"),
            "--events", str(tmp_path / "events.csv"),
            "--selections", str(tmp_path / "selections.csv"),
            "--config", conf,
        )
        assert code == 0
        assert "m1,p1,ser,7.142857142857143" in parse_report(out)["measures"]

    def test_renormalized_surfaces_are_named_in_the_report(self, capsys, tmp_path):
        (tmp_path / "cells.csv").write_text(
            "cell_id,area_km2\nc1,1.0\nc2,1.0\n", encoding="utf-8"
        )
        (tmp_path / "events.csv").write_text(
            "event_id,cell_id,period_id\ne1,c1,p1\n", encoding="utf-8"
        )
        conf = write_conf(tmp_path, "run.conf", "measures = als\n")
        reports = {}
        for name, masses in (("scaled", (0.6, 0.6)), ("normalized", (0.5, 0.5))):
            surfaces = tmp_path / f"{name}.csv"
            surfaces.write_text(
                "model_id,period_id,cell_id,probability\n"
                f"m1,p1,c1,{masses[0]}\nm1,p1,c2,{masses[1]}\n",
                encoding="utf-8",
            )
            code, out, _ = run(
                capsys,
                "evaluate",
                "--cells", str(tmp_path / "cells.csv"),
                "--events", str(tmp_path / "events.csv"),
                "--surfaces", str(surfaces),
                "--config", conf,
                *(["--renormalize-surfaces"] if name == "scaled" else []),
            )
            assert code == 0
            reports[name] = parse_report(out)
        scaled, normalized = reports["scaled"], reports["normalized"]
        assert scaled["measures"] == normalized["measures"]
        assert normalized["warnings"] == ["none"]
        assert scaled["warnings"] == [
            "surface masses renormalized to sum to 1 (--renormalize-surfaces)"
        ]

    def test_zero_mass_error_names_the_model(self, capsys, tmp_path):
        (tmp_path / "cells.csv").write_text(
            "cell_id,area_km2\nc1,1.0\nc2,1.0\n", encoding="utf-8"
        )
        (tmp_path / "events.csv").write_text(
            "event_id,cell_id,period_id\ne1,c1,p1\ne2,c2,p1\n", encoding="utf-8"
        )
        (tmp_path / "surfaces.csv").write_text(
            "model_id,period_id,cell_id,probability\n"
            "m1,p1,c1,0.5\nm1,p1,c2,0.5\nm2,p1,c1,1.0\nm2,p1,c2,0.0\n",
            encoding="utf-8",
        )
        conf = write_conf(tmp_path, "run.conf", "measures = als\n")
        code, out, err = run(
            capsys,
            "evaluate",
            "--cells", str(tmp_path / "cells.csv"),
            "--events", str(tmp_path / "events.csv"),
            "--surfaces", str(tmp_path / "surfaces.csv"),
            "--config", conf,
        )
        assert code == 1
        assert out == ""
        assert err == (
            "gridscore: error: model 'm2': zero probability mass at event cell "
            "'c2' in period 'p1'; enable a floor to score this model anyway\n"
        )

    def test_repeated_measure_is_refused(self, capsys, tmp_path):
        """A measure listed twice would list its rows twice."""
        cells = write_conf(tmp_path, "cells.csv", "cell_id,area_km2\na,1\nb,1\nc,1\n")
        events = write_conf(
            tmp_path, "events.csv", "event_id,cell_id,period_id\ne1,a,p1\ne2,b,p1\ne3,c,p1\n"
        )
        sel = write_conf(tmp_path, "sel.csv", "model_id,period_id,cell_id\nA,p1,a\nB,p1,b\n")
        conf = write_conf(tmp_path, "run.conf", "measures = hit_rate,hit_rate,als\n")
        code, out, err = run(
            capsys, "evaluate", "--cells", cells, "--events", events,
            "--selections", sel, "--config", conf,
        )
        assert (code, out) == (1, "")
        assert err == f"gridscore: error: {conf}: measures: hit_rate listed twice\n"

    def test_no_models_is_an_error(self, capsys, tmp_path):
        (tmp_path / "cells.csv").write_text(
            "cell_id,area_km2\nc1,1.0\n", encoding="utf-8"
        )
        (tmp_path / "events.csv").write_text(
            "event_id,cell_id,period_id\ne1,c1,p1\n", encoding="utf-8"
        )
        code, out, err = run(
            capsys,
            "evaluate",
            "--cells", str(tmp_path / "cells.csv"),
            "--events", str(tmp_path / "events.csv"),
        )
        assert code == 1
        assert "no models" in err

    def test_cell_mode_needs_events(self, capsys, two_model_cell_files):
        root = two_model_cell_files
        code, out, err = run(
            capsys,
            "evaluate",
            "--cells", str(root / "cells.csv"),
            "--selections", str(root / "selections.csv"),
        )
        assert (code, out) == (1, "")
        assert err == "gridscore: error: cell-level evaluation needs an events file\n"


class TestCompare:
    def test_expected_utility_ranking(self, capsys, two_model_cell_files, tmp_path):
        root = two_model_cell_files
        conf = write_conf(
            tmp_path,
            "run.conf",
            "measures = hit_rate,precision\n"
            "eu.u_tp = 1\neu.u_fp = -0.5\neu.u_tn = 1\neu.u_fn = -1\n",
        )
        code, out, _ = run(
            capsys,
            "compare",
            "--cells", str(root / "cells.csv"),
            "--events", str(root / "events.csv"),
            "--selections", str(root / "selections.csv"),
            "--config", conf,
        )
        assert code == 0
        sections = parse_report(out)
        assert sections["combined"][0] == "rule = expected_utility(mean over periods)"
        rows = {
            line.split(",")[0]: line.split(",")[1:]
            for line in sections["combined"][2:]
        }
        assert abs(float(rows["A"][0]) - (-0.34125)) <= 1e-12
        assert abs(float(rows["B"][0]) - (-0.06375)) <= 1e-12
        assert rows["B"][1] == "1.0"
        assert rows["A"][1] == "2.0"
        # the per-period expected_utility rows also land in [measures]
        values = measure_table(sections)
        assert ("A", "pa", "expected_utility") in values
        # disjoint periods: the signed-rank test has nothing to pair
        assert any("wsr skipped" in line for line in sections["warnings"])

    def test_weighted_ranking_raw(self, capsys, two_model_cell_files, tmp_path):
        root = two_model_cell_files
        conf = write_conf(
            tmp_path,
            "run.conf",
            "measures = hit_rate,precision\n"
            "weights.hit_rate = 0.7\nweights.precision = 0.3\n",
        )
        code, out, _ = run(
            capsys,
            "compare",
            "--cells", str(root / "cells.csv"),
            "--events", str(root / "events.csv"),
            "--selections", str(root / "selections.csv"),
            "--config", conf,
        )
        assert code == 0
        sections = parse_report(out)
        assert sections["combined"][0] == "rule = weighted_sum(raw)"
        rows = {
            line.split(",")[0]: line.split(",")[1:]
            for line in sections["combined"][2:]
        }
        # full-precision aggregate: 0.7*(85/1415) + 0.3*0.85 etc.
        np.testing.assert_allclose(
            float(rows["A"][0]), 0.7 * (85 / 1415) + 0.3 * 0.85, atol=1e-12
        )
        np.testing.assert_allclose(
            float(rows["B"][0]), 0.7 * (75 / 1120) + 0.3 * 0.75, atol=1e-12
        )
        assert rows["A"][1] == "1.0"
        assert rows["B"][1] == "2.0"

    def test_weighted_ranking_rank_transform(
        self, capsys, two_model_cell_files, tmp_path
    ):
        root = two_model_cell_files
        conf = write_conf(
            tmp_path,
            "run.conf",
            "measures = hit_rate,precision\n"
            "weights.hit_rate = 0.7\nweights.precision = 0.3\n"
            "combine.score_transform = rank\n",
        )
        code, out, _ = run(
            capsys,
            "compare",
            "--cells", str(root / "cells.csv"),
            "--events", str(root / "events.csv"),
            "--selections", str(root / "selections.csv"),
            "--config", conf,
        )
        assert code == 0
        sections = parse_report(out)
        assert sections["combined"][0] == "rule = weighted_sum(rank)"
        rows = {
            line.split(",")[0]: line.split(",")[1:]
            for line in sections["combined"][2:]
        }
        # A: rank 2 on hit_rate, 1 on precision -> 0.7*2 + 0.3*1 = 1.7
        # B: the mirror image -> 1.3; smaller aggregated rank wins
        np.testing.assert_allclose(float(rows["A"][0]), 1.7, atol=1e-12)
        np.testing.assert_allclose(float(rows["B"][0]), 1.3, atol=1e-12)
        assert rows["B"][1] == "1.0"
        assert rows["A"][1] == "2.0"

    def test_raw_weighting_of_lower_is_better_measure_refused(
        self, capsys, two_model_cell_files, tmp_path
    ):
        root = two_model_cell_files
        conf = write_conf(
            tmp_path,
            "run.conf",
            "measures = fpr,hit_rate\n"
            "weights.fpr = 0.5\nweights.hit_rate = 0.5\n",
        )
        code, out, err = run(
            capsys,
            "compare",
            "--cells", str(root / "cells.csv"),
            "--events", str(root / "events.csv"),
            "--selections", str(root / "selections.csv"),
            "--config", conf,
        )
        assert code == 1
        assert "lower-is-better" in err

    def test_fallback_rule_ranks_first_measure(
        self, capsys, two_model_cell_files
    ):
        root = two_model_cell_files
        code, out, _ = run(
            capsys,
            "compare",
            "--cells", str(root / "cells.csv"),
            "--events", str(root / "events.csv"),
            "--selections", str(root / "selections.csv"),
        )
        assert code == 0
        sections = parse_report(out)
        assert sections["combined"][0] == "rule = rank_by_mean(hit_rate)"

    def test_needs_two_models(self, capsys, units_files, tmp_path):
        units, _, _ = units_files
        sel = tmp_path / "sel.csv"
        sel.write_text(
            "model_id,period_id,cell_id\nM-I,p1,h01\n", encoding="utf-8"
        )
        code, out, err = run(
            capsys, "compare", "--units", units, "--selections", str(sel)
        )
        assert code == 1
        assert "two models" in err

    def test_utilities_rejected_in_units_mode(self, capsys, units_files, tmp_path):
        units, sel, _ = units_files
        conf = write_conf(
            tmp_path,
            "run.conf",
            "eu.u_tp = 1\neu.u_fp = -0.5\neu.u_tn = 1\neu.u_fn = -1\n",
        )
        code, out, err = run(
            capsys,
            "compare", "--units", units, "--selections", sel, "--config", conf,
        )
        assert code == 1
        assert err == (
            "gridscore: error: expected utility needs cell-level data (a "
            "contingency table), not a pre-aggregated units table\n"
        )

    def test_wilcoxon_over_shared_periods(self, capsys, tmp_path):
        # X strictly beats Y in all five periods; Z ties X everywhere.
        periods = [f"p{i}" for i in range(1, 6)]
        (tmp_path / "cells.csv").write_text(
            "cell_id,area_km2\n" + "".join(f"c{i},1.0\n" for i in range(1, 5)),
            encoding="utf-8",
        )
        sel_lines = ["model_id,period_id,cell_id\n"]
        for p in periods:
            sel_lines.append(f"X,{p},c1\n")
            sel_lines.append(f"Y,{p},c2\n")
            sel_lines.append(f"Z,{p},c1\n")
        (tmp_path / "selections.csv").write_text(
            "".join(sel_lines), encoding="utf-8"
        )
        ev_lines = ["event_id,cell_id,period_id\n"]
        counter = 0
        for p in periods:
            for cell in ("c1", "c1", "c2", "c3"):
                counter += 1
                ev_lines.append(f"e{counter:03d},{cell},{p}\n")
        (tmp_path / "events.csv").write_text("".join(ev_lines), encoding="utf-8")
        conf = write_conf(tmp_path, "run.conf", "measures = hit_rate\n")
        code, out, _ = run(
            capsys,
            "compare",
            "--cells", str(tmp_path / "cells.csv"),
            "--events", str(tmp_path / "events.csv"),
            "--selections", str(tmp_path / "selections.csv"),
            "--config", conf,
        )
        assert code == 0
        sections = parse_report(out)
        rows = {}
        for line in sections["wsr"][1:]:
            measure, a, b, n_used, w_plus, method, p, p_adj = line.split(",")
            rows[(measure, a, b)] = (
                int(n_used), float(w_plus), method, float(p), float(p_adj)
            )
        assert rows[("hit_rate", "X", "Y")] == (5, 15.0, "exact", 0.0625, 0.1875)
        assert rows[("hit_rate", "X", "Z")] == (0, 0.0, "exact", 1.0, 1.0)
        assert rows[("hit_rate", "Y", "Z")][3] == 0.0625

    def test_one_event_scan_per_scored_period(self, capsys, tmp_path, monkeypatch):
        """Every model's tally of a period shares one counts_by_cell scan."""
        (tmp_path / "cells.csv").write_text(
            "cell_id,area_km2\n" + "".join(f"c{i},1.0\n" for i in range(1, 5)),
            encoding="utf-8",
        )
        scored = [f"p{i}" for i in range(1, 5)]
        (tmp_path / "selections.csv").write_text(
            "model_id,period_id,cell_id\n"
            + "".join(f"{m},{p},{c}\n" for p in scored
                      for m, c in (("X", "c1"), ("Y", "c2"), ("Z", "c3"))),
            encoding="utf-8",
        )
        # p5 has events but no selection, so nothing scores it.
        (tmp_path / "events.csv").write_text(
            "event_id,cell_id,period_id\n"
            + "".join(f"e{p}{c},{c},{p}\n" for p in scored + ["p5"]
                      for c in ("c1", "c2", "c4")),
            encoding="utf-8",
        )
        scans = []
        counts_by_cell = EventSet.counts_by_cell

        def counted(events, period=None):
            scans.append(period)
            return counts_by_cell(events, period)

        monkeypatch.setattr(EventSet, "counts_by_cell", counted)
        code, _, err = run(
            capsys,
            "compare",
            "--cells", str(tmp_path / "cells.csv"),
            "--events", str(tmp_path / "events.csv"),
            "--selections", str(tmp_path / "selections.csv"),
        )
        assert code == 0, err
        assert sorted(scans) == scored

    @pytest.mark.parametrize("command", ["compare", "evaluate", "gen"])
    @pytest.mark.parametrize(
        "record, sample", [(Event, ("e", "c1", "p1")), (Cell, ("c1", 1.0))],
        ids=["Event", "Cell"],
    )
    def test_no_event_objects_are_built(
        self, capsys, tmp_path, monkeypatch, command, record, sample
    ):
        """Events stay columns from the file to the report, ALS included,
        and from gen's draws to its files; the grid stays an id → area map."""
        cells = [f"c{i}" for i in range(1, 5)]
        periods = ["p1", "p2", "p3"]
        files = {
            "cells": "cell_id,area_km2\n" + "".join(f"{c},1.0\n" for c in cells),
            "events": "event_id,cell_id,period_id\n"
            + "".join(f"e{p}{c},{c},{p}\n" for p in periods for c in cells[:3]),
            "selections": "model_id,period_id,cell_id\n"
            + "".join(f"{m},{p},{c}\n" for p in periods
                      for m, c in (("X", "c1"), ("Y", "c2"))),
            "surfaces": "model_id,period_id,cell_id,probability\n"
            + "".join(f"{m},{p},{c},0.25\n" for m in ("X", "Y")
                      for p in periods for c in cells),
        }
        argv = [command, "--config", write_conf(
            tmp_path, "run.conf", "measures = hit_rate,pai,ser,als\n"
        )]
        for kind, text in files.items():
            argv.append(f"--{kind}={write_conf(tmp_path, f'{kind}.csv', text)}")
        if command == "gen":
            argv = [command, "--out-dir", str(tmp_path / "gen"), "--config", write_conf(
                tmp_path, "gen.conf", "gen.cells = 20\ngen.periods = 3\n"
            )]
        built = []
        init = record.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(record, "__init__", counted)
        record(*sample)
        assert len(built) == 1
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert ("als" in out) is (command != "gen")
        assert len(built) == 1


    def test_series_collected_once(self, capsys, two_model_cell_files, monkeypatch):
        """[summary], [combined] and [wsr] all read one collected series."""
        root = two_model_cell_files
        calls = []
        collect = cli._collect_series
        monkeypatch.setattr(
            cli, "_collect_series", lambda report: calls.append(1) or collect(report)
        )
        code, _, err = run(
            capsys,
            "compare",
            "--cells", str(root / "cells.csv"),
            "--events", str(root / "events.csv"),
            "--selections", str(root / "selections.csv"),
        )
        assert code == 0, err
        assert len(calls) == 1


class TestCombinedRules:
    """Each ranking rule's refusals, and the models it leaves out.

    Models X, Y and Z flag one cell each of one period (Z the same cell as
    X, so they tie on every measure); S has only a surface, so no selection
    measure or expected utility is defined for it.
    """

    EU = "eu.u_tp = 1\neu.u_fp = -0.5\neu.u_tn = 1\neu.u_fn = -1\n"

    def files(self, root, models, conf):
        (root / "cells.csv").write_text(
            "cell_id,area_km2\n" + "".join(f"c{i},1.0\n" for i in range(1, 5)),
            encoding="utf-8",
        )
        (root / "events.csv").write_text(
            "event_id,cell_id,period_id\n"
            "e1,c1,p1\ne2,c1,p1\ne3,c2,p1\ne4,c3,p1\n",
            encoding="utf-8",
        )
        flags = {"X": "c1", "Y": "c2", "Z": "c1"}
        (root / "selections.csv").write_text(
            "model_id,period_id,cell_id\n"
            + "".join(f"{m},p1,{flags[m]}\n" for m in models if m in flags),
            encoding="utf-8",
        )
        (root / "surfaces.csv").write_text(
            "model_id,period_id,cell_id,probability\n"
            + "".join(f"S,p1,c{i},0.25\n" for i in range(1, 5)),
            encoding="utf-8",
        )
        argv = ["compare", "--config", write_conf(root, "run.conf", conf)]
        for name in ("cells", "events", "selections", "surfaces"):
            argv += [f"--{name}", str(root / f"{name}.csv")]
        return argv

    @pytest.mark.parametrize(
        "models, conf, message",
        [
            pytest.param(
                "XS", "measures = hit_rate\n" + EU,
                "expected-utility ranking needs at least two models with a "
                "defined expected utility",
                id="eu-too-few",
            ),
            pytest.param(
                "XS", "measures = hit_rate\nweights.hit_rate = 1\n",
                "weighted ranking needs at least two models with every "
                "weighted measure defined (hit_rate)",
                id="weights-too-few",
            ),
            pytest.param(
                "XS", "measures = hit_rate\n",
                "fallback ranking on 'hit_rate' needs at least two models "
                "with a defined value",
                id="fallback-too-few",
            ),
            pytest.param(
                "XY", "measures = hit_rate\nweights.fpr = 0.5\n"
                "weights.hit_rate = 0.5\n",
                "measure 'fpr' is lower-is-better; raw weighted sums would "
                "reward the wrong direction — use the standardized or rank "
                "transform",
                id="raw-lower-is-better",
            ),
            pytest.param(
                "XS", "measures = hit_rate\nweights.fpr = 0.5\n"
                "weights.hit_rate = 0.5\n",
                "weighted ranking needs at least two models with every "
                "weighted measure defined (fpr, hit_rate)",
                id="raw-lower-is-better-too-few",
            ),
            pytest.param(
                "XZ", "measures = hit_rate\nweights.hit_rate = 1\n"
                "combine.score_transform = standardized\n",
                "measure 'hit_rate': scores are constant across models, "
                "standardization is undefined; rank the models instead",
                id="standardized-constant",
            ),
        ],
    )
    def test_refusal_messages(self, capsys, tmp_path, models, conf, message):
        code, out, err = run(capsys, *self.files(tmp_path, models, conf))
        assert (code, out, err) == (1, "", f"gridscore: error: {message}\n")

    @pytest.mark.parametrize(
        "conf, reason",
        [
            ("measures = hit_rate\n" + EU, "no expected utility"),
            ("measures = hit_rate\nweights.hit_rate = 1\n",
             "missing a weighted measure"),
            ("measures = hit_rate\n", "no defined hit_rate"),
        ],
        ids=["eu", "weights", "fallback"],
    )
    def test_every_rule_names_its_excluded_models(
        self, capsys, tmp_path, conf, reason
    ):
        code, out, err = run(capsys, *self.files(tmp_path, "XYS", conf))
        assert code == 0, err
        sections = parse_report(out)
        assert f"model S: excluded from combined ranking ({reason})" in (
            sections["warnings"]
        )
        assert [row.split(",")[0] for row in sections["combined"][2:]] == ["X", "Y"]


class TestOptimizeAlpha:
    def test_worked_example(self, capsys, units_files):
        units, _, _ = units_files
        code, out, _ = run(
            capsys, "optimize-alpha", "--units", units, "--target", "0.02"
        )
        assert code == 0
        sections = parse_report(out)
        alpha = kv(sections["alpha"])
        assert float(alpha["alpha_star"]) == 0.9
        assert alpha["target_prefix_len"] == "2"
        assert len(sections["levels"]) == 16  # header + 15 rows
        first = sections["levels"][1].split(",")
        assert first[0] == "1"
        assert first[1] == "h01"

    def test_infeasible_target_prints_diagnostics(self, capsys, tmp_path):
        units = tmp_path / "units.csv"
        units.write_text(
            "unit_id,area_fraction,crime_fraction\na,0.01,0.05\nb,0.01,0.05\n",
            encoding="utf-8",
        )
        code, out, err = run(
            capsys, "optimize-alpha", "--units", str(units), "--target", "0.01"
        )
        assert code == 1
        assert out == ""
        assert "no alpha on the grid" in err
        assert "peaked at level" in err

    def test_target_out_of_range(self, capsys, units_files):
        units, _, _ = units_files
        code, _, err = run(
            capsys, "optimize-alpha", "--units", units, "--target", "1.5"
        )
        assert code == 1
        assert "target" in err


class TestGen:
    CONF = (
        "gen.cells = 10\n"
        "gen.periods = 4\n"
        "gen.events_per_period = 25\n"
        "gen.seed = 11\n"
        "gen.weights = 8,5,4,4,3,3,2,2,2,1\n"
        "gen.top_k = 3\n"
    )

    def test_generates_dataset_files(self, capsys, tmp_path):
        conf = write_conf(tmp_path, "gen.conf", self.CONF)
        out_dir = tmp_path / "data"
        code, out, _ = run(
            capsys, "gen", "--config", conf, "--out-dir", str(out_dir)
        )
        assert code == 0
        sections = parse_report(out)
        assert sections["files"] == [
            "cells.csv", "events.csv", "selections.csv", "surfaces.csv"
        ]
        for name in sections["files"]:
            assert (out_dir / name).exists()
        assert kv(sections["inputs"])["n_events"] == "100"

    def test_zero_events_per_period(self, capsys, tmp_path):
        conf = write_conf(
            tmp_path, "gen.conf",
            self.CONF.replace("events_per_period = 25", "events_per_period = 0"),
        )
        out_dir = tmp_path / "data"
        code, out, err = run(
            capsys, "gen", "--config", conf, "--out-dir", str(out_dir)
        )
        assert (code, err) == (0, "")
        assert kv(parse_report(out)["inputs"])["n_events"] == "0"
        assert (out_dir / "events.csv").read_text() == "event_id,cell_id,period_id\n"

    def test_generated_dataset_evaluates(self, capsys, tmp_path):
        conf = write_conf(tmp_path, "gen.conf", self.CONF)
        out_dir = tmp_path / "data"
        code, _, _ = run(
            capsys, "gen", "--config", conf, "--out-dir", str(out_dir)
        )
        assert code == 0
        eval_conf = write_conf(
            tmp_path, "eval.conf", "measures = hit_rate,coverage,pai,als\n"
        )
        code, out, _ = run(
            capsys,
            "evaluate",
            "--cells", str(out_dir / "cells.csv"),
            "--events", str(out_dir / "events.csv"),
            "--selections", str(out_dir / "selections.csv"),
            "--surfaces", str(out_dir / "surfaces.csv"),
            "--config", eval_conf,
        )
        assert code == 0
        sections = parse_report(out)
        # three periods of predictions (p2..p4) for top_k, empirical, uniform
        models = kv(sections["inputs"])["models"].split(",")
        assert models == ["empirical", "top_k", "uniform"]

    def test_seed_override(self, capsys, tmp_path):
        conf = write_conf(tmp_path, "gen.conf", self.CONF)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        code, out_a, _ = run(
            capsys, "gen", "--config", conf, "--out-dir", str(a_dir), "--seed", "99"
        )
        assert code == 0
        assert kv(parse_report(out_a)["inputs"])["seed"] == "99"
        code, _, _ = run(
            capsys, "gen", "--config", conf, "--out-dir", str(b_dir)
        )
        assert code == 0
        assert (
            (a_dir / "events.csv").read_bytes()
            != (b_dir / "events.csv").read_bytes()
        )

    def test_ignored_config_key_warning(self, capsys, tmp_path):
        conf = write_conf(
            tmp_path, "gen.conf", self.CONF + "strict = off\ngen.colour = red\n"
        )
        code, out, _ = run(
            capsys, "gen", "--config", conf, "--out-dir", str(tmp_path / "data")
        )
        assert code == 0
        assert parse_report(out)["warnings"] == [
            "config key gen.colour ignored (unknown)"
        ]

    def test_needs_gen_section(self, capsys, tmp_path):
        conf = write_conf(tmp_path, "gen.conf", "measures = pai\n")
        code, _, err = run(
            capsys, "gen", "--config", conf, "--out-dir", str(tmp_path / "x")
        )
        assert code == 1
        assert "gen" in err

    def test_needs_two_periods(self, capsys, tmp_path):
        conf = write_conf(tmp_path, "gen.conf", "gen.periods = 1\n")
        code, _, err = run(
            capsys, "gen", "--config", conf, "--out-dir", str(tmp_path / "x")
        )
        assert code == 1
        assert "two periods" in err


class TestMisc:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("gridscore ")
        assert "report format" in out

    def test_report_preamble(self, capsys, units_files):
        units, sel, _ = units_files
        _, out, _ = run(
            capsys, "evaluate", "--units", units, "--selections", sel
        )
        lines = out.splitlines()
        assert lines[0] == "# gridscore report"
        assert lines[1] == "format_version = 1"
        assert lines[2].startswith("tool_version = ")
        assert lines[3] == "command = evaluate"

    def test_fmt_renders_booleans_and_tuples(self):
        assert (fmt(True), fmt(False)) == ("on", "off")
        assert fmt(("hit_rate", 0.1 + 0.2, 2, True, None)) == (
            "hit_rate,0.30000000000000004,2,on,undefined"
        )
        assert fmt(()) == ""
        assert (fmt(None), fmt(1), fmt(1.0), fmt("e")) == ("undefined", "1", "1.0", "e")


class TestWholeStderr:
    """Refusals pinned to their whole stderr: exit 1, no report."""

    def files(self, root, **extra):
        """A three-cell dataset plus ``extra`` files, written as UTF-8 text
        or as raw bytes; returns every path by name."""
        texts = {
            "cells": "cell_id,area_km2\nc1,1.0\nc2,2.0\nc3,1.5\n",
            "events": "event_id,cell_id,period_id\ne1,c1,p1\ne2,c2,p1\n",
            "selections": "model_id,period_id,cell_id\nA,p1,c1\nA,p2,c2\n",
            "units": "unit_id,area_fraction,crime_fraction\n"
            "u1,0.1,0.3\nu2,0.2,0.2\nu3,0.7,0.5\n",
            **extra,
        }
        paths = {}
        for name, body in texts.items():
            path = root / name
            if isinstance(body, bytes):
                path.write_bytes(body)
            else:
                path.write_text(body, encoding="utf-8")
            paths[name] = str(path)
        return paths

    def refused(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        return err

    def test_grid_step_flag_below_minimum(self, capsys, tmp_path):
        f = self.files(tmp_path)
        err = self.refused(
            capsys, "optimize-alpha", "--units", f["units"], "--target", "0.3",
            "--grid-step", "1e-13",
        )
        assert err == "gridscore: error: grid_step must be at least 0.0001, got 1e-13\n"

    def test_grid_step_key_below_minimum(self, capsys, tmp_path):
        f = self.files(
            tmp_path,
            selections="model_id,period_id,cell_id\nM,p1,u1\n",
            conf="measures = ppai\nppai.alpha_mode = grid_search\n"
            "ppai.target_coverage = 0.5\nppai.grid_step = 1e-13\n",
        )
        err = self.refused(
            capsys, "evaluate", "--units", f["units"],
            "--selections", f["selections"], "--config", f["conf"],
        )
        assert err == (
            f"gridscore: error: {f['conf']}: ppai.grid_step must be at least 0.0001, "
            "got 1e-13\n"
        )

    def test_grid_step_key_below_minimum_in_the_default_mode(self, capsys, tmp_path):
        f = self.files(
            tmp_path,
            selections="model_id,period_id,cell_id\nM,p1,u1\n",
            conf="measures = ppai\nppai.grid_step = 1e-13\n",
        )
        err = self.refused(
            capsys, "evaluate", "--units", f["units"],
            "--selections", f["selections"], "--config", f["conf"],
        )
        assert err == (
            f"gridscore: error: {f['conf']}: ppai.grid_step must be at least 0.0001, "
            "got 1e-13\n"
        )

    # A weighted measure is scored whether or not it is listed, so a weighted
    # ppai needs its alpha mode's key as a listed one does.
    def test_fixed_alpha_mode_for_a_weighted_ppai(self, capsys, tmp_path):
        f = self.files(
            tmp_path,
            cells="cell_id,area_km2\nc1,1.0\nc2,1.0\nc3,2.0\n",
            events="event_id,cell_id,period_id\ne1,c1,p1\ne2,c1,p1\ne3,c2,p1\ne4,c3,p1\n",
            selections="model_id,period_id,cell_id\nA,p1,c1\nB,p1,c2\n",
            conf="measures = hit_rate\nppai.alpha_mode = fixed\n"
            "weights.hit_rate = 0.5\nweights.ppai = 0.5\n",
        )
        err = self.refused(
            capsys, "compare", "--cells", f["cells"], "--events", f["events"],
            "--selections", f["selections"], "--config", f["conf"],
        )
        assert err == (
            f"gridscore: error: {f['conf']}: ppai.alpha_mode is 'fixed' but "
            "ppai.alpha is not set\n"
        )

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_grid_search_alpha_mode_for_a_weighted_ppai(self, capsys, tmp_path, command):
        f = self.files(
            tmp_path,
            units="unit_id,area_fraction,crime_fraction\n"
            "u1,0.1,0.5\nu2,0.3,0.2\nu3,0.6,0.3\n",
            selections="model_id,period_id,cell_id\nA,p1,u1\nB,p1,u2\n",
            conf="measures = hit_rate\nppai.alpha_mode = grid_search\n"
            "weights.hit_rate = 0.5\nweights.ppai = 0.5\n",
        )
        err = self.refused(
            capsys, command, "--units", f["units"],
            "--selections", f["selections"], "--config", f["conf"],
        )
        assert err == (
            f"gridscore: error: {f['conf']}: ppai.alpha_mode is 'grid_search' but "
            "ppai.target_coverage is not set\n"
        )

    def test_grid_step_at_minimum_is_accepted(self, capsys, tmp_path):
        f = self.files(tmp_path)
        code, out, _ = run(
            capsys, "optimize-alpha", "--units", f["units"], "--target", "0.1",
            "--grid-step", "0.0001",
        )
        assert code == 0
        assert "ppai.grid_step = 0.0001" in out.splitlines()

    def test_undecodable_data_file(self, capsys, tmp_path):
        f = self.files(tmp_path, events=b"event_id,cell_id,period_id\ne1,c\xff1,p1\n")
        err = self.refused(
            capsys, "evaluate", "--cells", f["cells"], "--events", f["events"],
            "--selections", f["selections"],
        )
        assert err == (
            f"gridscore: error: {f['events']}: not UTF-8 text "
            f"(cannot decode byte 0xff)\n"
        )

    def test_undecodable_config_file(self, capsys, tmp_path):
        f = self.files(tmp_path, conf=b"measures = p\xffai\n")
        err = self.refused(
            capsys, "evaluate", "--cells", f["cells"], "--events", f["events"],
            "--selections", f["selections"], "--config", f["conf"],
        )
        assert err == (
            f"gridscore: error: {f['conf']}: not UTF-8 text "
            f"(cannot decode byte 0xff)\n"
        )

    def test_field_over_the_csv_limit(self, capsys, tmp_path):
        long_id = "x" * 131_073
        f = self.files(
            tmp_path,
            events=f"event_id,cell_id,period_id\ne1,c1,p1\ne2,{long_id},p1\n",
        )
        err = self.refused(
            capsys, "evaluate", "--cells", f["cells"], "--events", f["events"],
            "--selections", f["selections"],
        )
        assert err == (
            f"gridscore: error: {f['events']}:3: field larger than field limit "
            f"(131072)\n"
        )

    def test_grid_search_needs_units(self, capsys, tmp_path):
        f = self.files(
            tmp_path,
            conf="measures = ppai\nppai.alpha_mode = grid_search\n"
            "ppai.target_coverage = 0.5\n",
        )
        err = self.refused(
            capsys, "evaluate", "--cells", f["cells"], "--events", f["events"],
            "--selections", f["selections"], "--config", f["conf"],
        )
        assert err == (
            "gridscore: error: ppai.alpha_mode = grid_search needs a units file "
            "to define the cumulative levels\n"
        )

    def test_surfaces_only_with_default_measures(self, capsys, tmp_path):
        f = self.files(
            tmp_path,
            surfaces="model_id,period_id,cell_id,probability\n"
            "A,p1,c1,0.5\nA,p1,c2,0.25\nA,p1,c3,0.25\n",
        )
        err = self.refused(
            capsys, "evaluate", "--cells", f["cells"], "--events", f["events"],
            "--surfaces", f["surfaces"],
        )
        assert err == (
            "gridscore: error: nothing to compute: no model has inputs for any "
            "requested measure\n"
        )

    def test_selection_with_empty_period(self, capsys, tmp_path):
        f = self.files(
            tmp_path, selections="model_id,period_id,cell_id\nA,p1,c1\nA,,c2\n"
        )
        err = self.refused(
            capsys, "evaluate", "--cells", f["cells"], "--events", f["events"],
            "--selections", f["selections"],
        )
        assert err == f"gridscore: error: {f['selections']}:3: empty field\n"

    def test_units_with_surfaces(self, capsys, tmp_path):
        f = self.files(
            tmp_path,
            surfaces="model_id,period_id,cell_id,probability\nA,p1,u1,1.0\n",
        )
        err = self.refused(
            capsys, "evaluate", "--units", f["units"], "--surfaces", f["surfaces"],
        )
        assert err == (
            "gridscore: error: a surfaces file needs a cells file to resolve "
            "against\n"
        )

    # Shares of one region cannot sum above 1: areas 1.8 and crimes 2.0 here.
    OVERFULL_UNITS = (
        "unit_id,area_fraction,crime_fraction\na,0.3,0.9\nb,0.6,0.9\nc,0.9,0.2\n"
    )

    def test_optimize_alpha_refuses_units_summing_above_one(self, capsys, tmp_path):
        f = self.files(tmp_path, units=self.OVERFULL_UNITS)
        err = self.refused(
            capsys, "optimize-alpha", "--units", f["units"], "--target", "0.3",
        )
        assert err == (
            f"gridscore: error: {f['units']}: area_fraction sums to 1.8 > 1; the "
            f"units overlap or their fractions are inconsistent\n"
        )

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_every_command_refuses_units_summing_above_one(
        self, capsys, tmp_path, command
    ):
        f = self.files(
            tmp_path,
            units=self.OVERFULL_UNITS,
            selections="model_id,period_id,cell_id\nM,p1,a\nN,p1,b\n",
        )
        err = self.refused(
            capsys, command, "--units", f["units"], "--selections", f["selections"],
        )
        assert err == (
            f"gridscore: error: {f['units']}: area_fraction sums to 1.8 > 1; the "
            f"units overlap or their fractions are inconsistent\n"
        )

    def test_grid_search_refuses_crime_summing_above_one(self, capsys, tmp_path):
        f = self.files(
            tmp_path,
            units="unit_id,area_fraction,crime_fraction\n"
            "a,0.3,0.9\nb,0.6,0.9\nc,0.1,0.2\n",
            selections="model_id,period_id,cell_id\nM,p1,a\n",
            conf="measures = ppai\nppai.alpha_mode = grid_search\n"
            "ppai.target_coverage = 0.5\n",
        )
        err = self.refused(
            capsys, "evaluate", "--units", f["units"],
            "--selections", f["selections"], "--config", f["conf"],
        )
        assert err == (
            f"gridscore: error: {f['units']}: crime_fraction sums to 2.0 > 1; the "
            f"units overlap or their fractions are inconsistent\n"
        )

    def test_grid_search_refuses_area_summing_above_one(self, capsys, tmp_path):
        f = self.files(
            tmp_path,
            units=self.OVERFULL_UNITS,
            selections="model_id,period_id,cell_id\nM,p1,a\nN,p1,b\n",
            conf="measures = ppai\nppai.alpha_mode = grid_search\n"
            "ppai.target_coverage = 0.5\n",
        )
        err = self.refused(
            capsys, "compare", "--units", f["units"],
            "--selections", f["selections"], "--config", f["conf"],
        )
        assert err == (
            f"gridscore: error: {f['units']}: area_fraction sums to 1.8 > 1; the "
            f"units overlap or their fractions are inconsistent\n"
        )

    # Sums past the largest float are refused where they are taken.
    def test_cell_areas_summing_past_the_float_range(self, capsys, tmp_path):
        f = self.files(tmp_path, cells="cell_id,area_km2\nc1,1e308\nc2,1e308\n")
        err = self.refused(
            capsys, "evaluate", "--cells", f["cells"], "--events", f["events"],
            "--selections", f["selections"],
        )
        assert err == (
            f"gridscore: error: {f['cells']}: cell areas sum beyond the float range\n"
        )

    def test_gen_cell_areas_summing_past_the_float_range(self, capsys, tmp_path):
        f = self.files(tmp_path, conf="gen.cells = 3\ngen.cell_area = 1e308\n")
        err = self.refused(
            capsys, "gen", "--config", f["conf"], "--out-dir", str(tmp_path / "out"),
        )
        assert err == (
            f"gridscore: error: {f['conf']}: gen: cell areas sum beyond the float range\n"
        )
        assert not (tmp_path / "out").exists()

    def test_renormalized_masses_summing_past_the_float_range(self, capsys, tmp_path):
        f = self.files(
            tmp_path,
            surfaces="model_id,period_id,cell_id,probability\n"
            "A,p1,c1,1e308\nA,p1,c2,1e308\nA,p1,c3,1e308\n",
        )
        err = self.refused(
            capsys, "evaluate", "--cells", f["cells"], "--events", f["events"],
            "--surfaces", f["surfaces"], "--renormalize-surfaces",
        )
        assert err == (
            f"gridscore: error: {f['surfaces']}: surface A/p1: cannot renormalize: "
            f"masses sum beyond the float range\n"
        )

    # A subnormal area makes PAI and SER overflow, though their true values
    # are finite: a measure that is not finite is refused where it is made.
    SUBNORMAL_CELLS = "cell_id,area_km2\nc1,5e-324\nc2,1\n"

    @pytest.mark.parametrize(
        "events, selections",
        [
            ("e1,c1,p1\ne2,c2,p1\n", "m,p1,c1\n"),
            # Over two periods the summary's stdev would raise on the inf.
            ("e1,c1,p1\ne2,c2,p1\ne3,c1,p2\ne4,c2,p2\n", "m,p1,c1\nm,p2,c1\n"),
        ],
        ids=["one_period", "two_periods"],
    )
    def test_pai_over_a_subnormal_area(self, capsys, tmp_path, events, selections):
        f = self.files(
            tmp_path,
            cells=self.SUBNORMAL_CELLS,
            events=f"event_id,cell_id,period_id\n{events}",
            selections=f"model_id,period_id,cell_id\n{selections}",
            conf="measures = pai\n",
        )
        err = self.refused(
            capsys, "evaluate", "--cells", f["cells"], "--events", f["events"],
            "--selections", f["selections"], "--config", f["conf"],
        )
        assert err == (
            "gridscore: error: model m period p1: pai overflows the float range (inf)\n"
        )

    def test_ser_over_subnormal_areas(self, capsys, tmp_path):
        f = self.files(
            tmp_path,
            cells="cell_id,area_km2\nc1,5e-324\nc2,5e-324\n",
            events="event_id,cell_id,period_id\ne1,c1,p1\ne2,c2,p1\n",
            selections="model_id,period_id,cell_id\nm,p1,c1\n",
            conf="measures = ser\n",
        )
        err = self.refused(
            capsys, "evaluate", "--cells", f["cells"], "--events", f["events"],
            "--selections", f["selections"], "--config", f["conf"],
        )
        assert err == (
            "gridscore: error: model m period p1: ser overflows the float range (inf)\n"
        )

    # Two finite expected utilities whose sample deviation is not finite.
    def test_summary_std_past_the_float_range(self, capsys, tmp_path):
        f = self.files(
            tmp_path,
            cells="cell_id,area_km2\nc1,1.0\nc2,1.0\n",
            events="event_id,cell_id,period_id\ne1,c1,p1\ne2,c1,p2\n",
            selections="model_id,period_id,cell_id\nA,p1,c1\nA,p2,c2\nB,p1,c2\nB,p2,c1\n",
            conf="measures = hit_rate\neu.u_tp = 1.7e308\neu.u_fp = -1.7e308\n"
            "eu.u_tn = 1.7e308\neu.u_fn = -1.7e308\n",
        )
        err = self.refused(
            capsys, "compare", "--cells", f["cells"], "--events", f["events"],
            "--selections", f["selections"], "--config", f["conf"],
        )
        assert err == (
            "gridscore: error: model A: expected_utility std overflows the float range\n"
        )

    # Not refusals: finite scores whose sums or squares pass the float range
    # still give a finite summary mean and finite z-scores.
    def test_standardized_scores_past_the_float_range(self, capsys, tmp_path):
        f = self.files(
            tmp_path,
            cells="cell_id,area_km2\nc1,1e-300\nc2,1.0\n",
            events="event_id,cell_id,period_id\ne1,c1,p1\n",
            selections="model_id,period_id,cell_id\nA,p1,c1\nB,p1,c2\n",
            conf="measures = hit_rate\nweights.ser = 0.5\nweights.hit_rate = 0.5\n"
            "combine.score_transform = standardized\n",
        )
        code, out, err = run(
            capsys, "compare", "--cells", f["cells"], "--events", f["events"],
            "--selections", f["selections"], "--config", f["conf"],
        )
        assert (code, err) == (0, "")
        assert "A,p1,ser,9.999999999999999e+299\n" in out
        assert "model_id,score,rank\nA,1.0,1.0\nB,-1.0,2.0\n" in out

    def test_summary_mean_of_three_sums_past_the_float_range(self, capsys, tmp_path):
        f = self.files(
            tmp_path,
            cells="cell_id,area_km2\nc1,1.0\nc2,1.0\n",
            events="event_id,cell_id,period_id\ne1,c1,p1\ne2,c1,p2\ne3,c1,p3\n",
            selections="model_id,period_id,cell_id\n"
            + "".join(f"{m},p{i},{c}\n" for m, c in (("A", "c1"), ("B", "c2"))
                      for i in (1, 2, 3)),
            conf="measures = hit_rate\n"
            + "".join(f"eu.u_{k} = 1.7e308\n" for k in ("tp", "fp", "tn", "fn")),
        )
        code, out, err = run(
            capsys, "compare", "--cells", f["cells"], "--events", f["events"],
            "--selections", f["selections"], "--config", f["conf"],
        )
        assert (code, err) == (0, "")
        assert "A,expected_utility,1.6999999999999997e+308,0.0\n" in out

    def test_weights_summing_past_the_float_range(self, capsys, tmp_path):
        f = self.files(tmp_path, conf="weights.hit_rate = 1e308\nweights.pai = 1e308\n")
        err = self.refused(
            capsys, "evaluate", "--cells", f["cells"], "--events", f["events"],
            "--selections", f["selections"], "--config", f["conf"],
        )
        assert err == (
            f"gridscore: error: {f['conf']}: weights: weights sum beyond the float range\n"
        )

    def test_level_ppai_past_the_float_range(self, capsys, tmp_path):
        units = "unit_id,area_fraction,crime_fraction\na,1.0,2.2e-308\nb,5e-324,1.0\n"
        f = self.files(tmp_path, units=units)
        err = self.refused(
            capsys, "optimize-alpha", "--units", f["units"], "--target", "0.5"
        )
        assert err == (
            "gridscore: error: level 1 (unit 'b'): ppai_at_alpha_star overflows the "
            "float range (inf)\n"
        )

    # Ids that differ only in characters that print as nothing, or in how an
    # accent is encoded, would give report rows that read the same.
    def test_model_ids_that_differ_in_a_zero_width_space(self, capsys, tmp_path):
        f = self.files(
            tmp_path, selections="model_id,period_id,cell_id\nm,p1,c1\nm\u200b,p1,c2\n"
        )
        err = self.refused(
            capsys, "evaluate", "--cells", f["cells"], "--events", f["events"],
            "--selections", f["selections"],
        )
        assert err == (
            f"gridscore: error: {f['selections']}:3: model_id 'm\\u200b' holds U+200B "
            f"(category Cf), so it may print like another id\n"
        )

    def test_cell_ids_that_differ_in_normal_form(self, capsys, tmp_path):
        f = self.files(
            tmp_path,
            cells="cell_id,area_km2\ncaf\u00e9,1\ncafe\u0301,1\n",
            events="event_id,cell_id,period_id\ne1,caf\u00e9,p1\n",
            selections="model_id,period_id,cell_id\nm,p1,caf\u00e9\n",
        )
        err = self.refused(
            capsys, "evaluate", "--cells", f["cells"], "--events", f["events"],
            "--selections", f["selections"],
        )
        assert err == (
            f"gridscore: error: {f['cells']}:3: cell_id 'cafe\u0301' is not in Unicode "
            f"normal form NFC, so it may print like another id\n"
        )

    def test_gen_weights_summing_past_the_float_range(self, capsys, tmp_path):
        # Drawn against an infinite running sum, every event fell in the last cell.
        f = self.files(
            tmp_path,
            conf="gen.cells = 2\ngen.weights = 1e308, 1e308\ngen.periods = 2\n"
            "gen.events_per_period = 10\n",
        )
        err = self.refused(
            capsys, "gen", "--config", f["conf"], "--out-dir", str(tmp_path / "out"),
        )
        assert err == (
            f"gridscore: error: {f['conf']}: gen: weights sum beyond the float range\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "conf, reason",
        [
            ("gen.cells = 2\ngen.smoothing = 1e308\n", "masses sum beyond the float range"),
            ("gen.events_per_period = 0\ngen.smoothing = 0\n", "masses sum to zero"),
        ],
        ids=["overflow", "zero"],
    )
    def test_gen_surface_that_cannot_renormalize(self, capsys, tmp_path, conf, reason):
        f = self.files(tmp_path, conf=conf)
        err = self.refused(
            capsys, "gen", "--config", f["conf"], "--out-dir", str(tmp_path / "out"),
        )
        assert err == (
            f"gridscore: error: {f['conf']}: gen: surface empirical/p02: cannot "
            f"renormalize: {reason}\n"
        )
        assert not (tmp_path / "out").exists()
