"""End-to-end tests of the command-line interface on temp directories."""
import csv
import hashlib
import json
import math
import re
import subprocess
import sys
from enum import IntEnum
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loqec import ExperimentConfig, LoqecError, cli, hom_scan

MANIFESTS = Path(__file__).resolve().parent.parent / "scripts" / "manifests"


def write_manifest(path, document):
    path.write_text(json.dumps(document, indent=2), encoding="utf-8")
    return path


def base_manifest(out_dir, **experiment):
    experiment.setdefault("qubit_hwp_angle", 22.5)
    experiment.setdefault("overlap_v", 0.922)
    experiment.setdefault("seed", 7)
    return {
        "config_version": 1,
        "experiment": experiment,
        "outputs": {"directory": str(out_dir), "format": "csv"},
    }


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


class TestRunSweep:
    def test_writes_csv_and_summary(self, tmp_path):
        manifest = write_manifest(tmp_path / "m.json", base_manifest(tmp_path / "out"))
        assert cli.main(["run-sweep", "--config", str(manifest), "--quiet"]) == 0
        data = tmp_path / "out" / "sweep.csv"
        summary = tmp_path / "out" / "sweep_summary.json"
        assert data.exists() and summary.exists()
        header = data.read_text(encoding="utf-8").splitlines()[0]
        assert header == "theta_deg,p_d1_d2,p_d1_d3,counts_d1_d2,counts_d1_d3"
        rows = read_rows(data)
        assert len(rows) == 19
        record = json.loads(summary.read_text(encoding="utf-8"))
        assert record["curves"]["d1_d2"]["visibility"] == pytest.approx(0.922, abs=1e-9)
        assert record["success_probability"] == pytest.approx(0.5, abs=1e-12)

    def test_angle_range_expansion(self, tmp_path):
        document = base_manifest(tmp_path / "out")
        document["experiment"]["thetas"] = {"start": -90, "stop": 90, "step": 5}
        manifest = write_manifest(tmp_path / "m.json", document)
        assert cli.main(["run-sweep", "--config", str(manifest), "--quiet"]) == 0
        rows = read_rows(tmp_path / "out" / "sweep.csv")
        assert len(rows) == 37
        assert float(rows[0]["theta_deg"]) == -90.0
        assert float(rows[-1]["theta_deg"]) == 90.0

    def test_outputs_are_deterministic(self, tmp_path):
        manifest = write_manifest(tmp_path / "m.json", base_manifest(tmp_path / "a"))
        cli.main(["run-sweep", "--config", str(manifest), "--quiet"])
        again = base_manifest(tmp_path / "b")
        manifest_b = write_manifest(tmp_path / "m2.json", again)
        cli.main(["run-sweep", "--config", str(manifest_b), "--quiet"])
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == (
            tmp_path / "b" / "sweep.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "sweep_summary.json").read_bytes() == (
            tmp_path / "b" / "sweep_summary.json"
        ).read_bytes()

    def test_seed_override_changes_counts_only(self, tmp_path):
        manifest = write_manifest(tmp_path / "m.json", base_manifest(tmp_path / "a"))
        cli.main(["run-sweep", "--config", str(manifest), "--quiet"])
        manifest_b = write_manifest(tmp_path / "m2.json", base_manifest(tmp_path / "b"))
        cli.main(["run-sweep", "--config", str(manifest_b), "--seed", "12345", "--quiet"])
        rows_a = read_rows(tmp_path / "a" / "sweep.csv")
        rows_b = read_rows(tmp_path / "b" / "sweep.csv")
        assert [r["p_d1_d2"] for r in rows_a] == [r["p_d1_d2"] for r in rows_b]
        assert [r["counts_d1_d2"] for r in rows_a] != [r["counts_d1_d2"] for r in rows_b]
        summary = json.loads((tmp_path / "b" / "sweep_summary.json").read_text())
        assert summary["seed"] == 12345

    def test_json_format_document_shape(self, tmp_path):
        document = base_manifest(tmp_path / "out")
        document["outputs"]["format"] = "json"
        manifest = write_manifest(tmp_path / "m.json", document)
        assert cli.main(["run-sweep", "--config", str(manifest), "--quiet"]) == 0
        record = json.loads((tmp_path / "out" / "sweep.json").read_text(encoding="utf-8"))
        assert set(record) == {"schema_version", "config", "rows", "summary"}
        assert record["schema_version"] == 2
        assert record["config"]["overlap_v"] == 0.922
        assert len(record["rows"]) == 19
        first = record["rows"][0]
        assert set(first) == {
            "theta_deg",
            "p_d1_d2",
            "p_d1_d3",
            "counts_d1_d2",
            "counts_d1_d3",
        }

    def test_multiple_named_runs(self, tmp_path):
        document = {
            "config_version": 1,
            "runs": [
                {
                    "name": "reflect-and-transmit",
                    "experiment": {"qubit_hwp_angle": 22.5, "overlap_v": 0.922, "pc_enabled": False},
                },
                {
                    "name": "corrected",
                    "experiment": {"qubit_hwp_angle": 22.5, "overlap_v": 0.922, "pc_enabled": True},
                },
            ],
            "outputs": {"directory": str(tmp_path / "out"), "format": "csv"},
        }
        manifest = write_manifest(tmp_path / "m.json", document)
        assert cli.main(["run-sweep", "--config", str(manifest), "--quiet"]) == 0
        for name in ("reflect-and-transmit", "corrected"):
            summary = json.loads(
                (tmp_path / "out" / f"{name}_summary.json").read_text(encoding="utf-8")
            )
            assert summary["curves"]["d1_d3"]["visibility"] == pytest.approx(0.922, abs=1e-9)
        uncorrected = json.loads(
            (tmp_path / "out" / "reflect-and-transmit_summary.json").read_text()
        )
        corrected = json.loads((tmp_path / "out" / "corrected_summary.json").read_text())
        assert uncorrected["curves"]["d1_d3"]["phase_deg"] == pytest.approx(-45.0, abs=0.1)
        assert corrected["curves"]["d1_d3"]["phase_deg"] == pytest.approx(45.0, abs=0.1)

    def test_output_flag_overrides_manifest(self, tmp_path):
        manifest = write_manifest(tmp_path / "m.json", base_manifest(tmp_path / "ignored"))
        target = tmp_path / "flag"
        assert cli.main(
            ["run-sweep", "--config", str(manifest), "--output", str(target), "--quiet"]
        ) == 0
        assert (target / "sweep.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_decohered_run_reports_flat_curves(self, tmp_path):
        document = base_manifest(tmp_path / "out", overlap_v=0.0, qubit_hwp_angle=22.5)
        manifest = write_manifest(tmp_path / "m.json", document)
        cli.main(["run-sweep", "--config", str(manifest), "--quiet"])
        summary = json.loads((tmp_path / "out" / "sweep_summary.json").read_text())
        assert abs(summary["curves"]["d1_d2"]["visibility"]) < 1e-9
        assert abs(summary["curves"]["d1_d3"]["visibility"]) < 1e-9


    def test_failing_run_leaves_no_output(self, tmp_path, capsys):
        """Runs are all computed before any file is written."""
        document = {
            "config_version": 1,
            "runs": [
                {"name": "ok", "experiment": {}},
                {"name": "rank-deficient", "experiment": {"thetas": [0, 90, 180]}},
            ],
            "outputs": {"directory": str(tmp_path / "out"), "format": "csv"},
        }
        manifest = write_manifest(tmp_path / "m.json", document)
        assert cli.main(["run-sweep", "--config", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: runs[1] (rank-deficient): analyzer grid is rank-deficient")
        assert not (tmp_path / "out").exists()

    def test_failing_single_experiment_is_named(self, tmp_path, capsys):
        document = {"config_version": 1, "experiment": {"thetas": [0, 90, 180]}}
        manifest = write_manifest(tmp_path / "m.json", document)
        assert cli.main(["run-sweep", "--config", str(manifest), "--output", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: experiment: analyzer grid is rank-deficient")

    def test_unwritable_output_is_an_error_line(self, tmp_path, capsys):
        blocker = tmp_path / "afile"
        blocker.write_text("", encoding="utf-8")
        manifest = write_manifest(tmp_path / "m.json", base_manifest(tmp_path / "out"))
        code = cli.main(
            ["run-sweep", "--config", str(manifest), "--output", str(blocker / "sub")]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"error: cannot write {blocker / 'sub'}")
        assert captured.out == ""

    @pytest.mark.parametrize("key,value", [("seed", -5), ("pair_rate", 1e30)])
    def test_unsampleable_settings_are_error_lines(self, tmp_path, capsys, key, value):
        document = base_manifest(tmp_path / "out", **{key: value})
        manifest = write_manifest(tmp_path / "m.json", document)
        assert cli.main(["run-sweep", "--config", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: experiment:") and key in err
        assert not (tmp_path / "out").exists()

    def test_a_huge_finite_angle_is_swept(self, tmp_path):
        document = base_manifest(tmp_path / "out", thetas=[0.0, 45.0, 1e308])
        manifest = write_manifest(tmp_path / "m.json", document)
        assert cli.main(["run-sweep", "--config", str(manifest), "--quiet"]) == 0
        assert [row["theta_deg"] for row in read_rows(tmp_path / "out" / "sweep.csv")] == [
            "0.0", "45.0", "1e+308",
        ]
        record = json.loads((tmp_path / "out" / "sweep_summary.json").read_text())
        assert math.isfinite(record["curves"]["d1_d2"]["visibility"])

    def test_json_writer_refuses_non_finite_numbers(self):
        with pytest.raises(ValueError):
            cli._dump_json({"visibility": math.nan})


class Level(IntEnum):
    ONE = 1


def json_outcome(dump, document):
    """The text ``dump`` writes for ``document``, or the type of what it raises."""
    try:
        return dump(document)
    except (TypeError, ValueError) as exc:
        return type(exc)


def reference_dump(document):
    return json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"


_keys = st.text(max_size=6) | st.sampled_from(['"', "\\", "\n", "%", "%r", "%%s", "é", "ключ", "\ud800", "\x00"])
_numbers = (
    st.integers()
    | st.sampled_from([2**63, -(2**63) - 1, 2**64 + 1, 10**40, 0, -1])
    | st.floats()
    | st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf])
)
_scalars = (
    _numbers | st.booleans() | st.none() | _keys
    | st.sampled_from([np.float64(0.1), np.float64(math.nan), np.int64(3), Level.ONE])
)
_values = st.recursive(
    _scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_keys, children, max_size=4)
        | st.dictionaries(st.integers() | st.floats() | st.booleans() | st.none(), children, max_size=3)
    ),
    max_leaves=20,
)


@st.composite
def _tables(draw):
    """A list of dicts that share one key set of numbers, maybe with one odd cell."""
    keys = draw(st.lists(_keys, min_size=1, max_size=5, unique=True))
    rows = [
        {key: draw(st.integers() | st.floats(allow_nan=False, allow_infinity=False)) for key in keys}
        for _ in range(draw(st.integers(1, 5)))
    ]
    odd = draw(st.sampled_from([None, True, False, math.nan, -math.inf]))
    if draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        row[draw(st.sampled_from(keys))] = odd
    if draw(st.booleans()):  # the same key set in another insertion order
        rows[-1] = dict(reversed(list(rows[-1].items())))
    return rows


class TestJsonWriter:
    """``cli._dump_json`` writes what json's indented encoder writes, and
    refuses what it refuses with the same exception type."""

    @settings(max_examples=400, deadline=None)
    @given(_values | _tables() | st.dictionaries(_keys, _tables() | _values, max_size=4))
    def test_matches_json_dumps(self, document):
        assert json_outcome(cli._dump_json, document) == json_outcome(reference_dump, document)

    @pytest.mark.parametrize("document", [
        {}, [], (), {"a": {}, "b": [[], {}]}, [[[]]], {"rows": [{}, {}]},
        [{"x": 1, "y": 2.5}, {"y": -0.0, "x": 2**70}], [{"a%": 1.0}, {"a%": 2}],
        [{"a": 1}, {"b": 1}], [{"a": 1.0}, {"a": True}], [1, 2.0, 1e308, 1e308],
        {"pc": True, "none": None, "f": np.float64(0.1), "e": Level.ONE},
        [{"v": math.nan}], {"k": [1.0, math.inf]}, {1: "a", "1": "b"}, {"a": object()},
    ])
    def test_matches_json_dumps_on_edge_documents(self, document):
        assert json_outcome(cli._dump_json, document) == json_outcome(reference_dump, document)


class TestManifestValidation:
    def error_of(self, capsys, args):
        code = cli.main(args)
        captured = capsys.readouterr()
        assert code == 1
        return captured.err

    def test_unknown_experiment_key_is_named(self, tmp_path, capsys):
        document = base_manifest(tmp_path / "out")
        document["experiment"]["qubit_hwp"] = 3.0
        manifest = write_manifest(tmp_path / "m.json", document)
        err = self.error_of(capsys, ["run-sweep", "--config", str(manifest)])
        assert "qubit_hwp" in err
        assert "experiment" in err

    def test_unknown_top_level_key_is_named(self, tmp_path, capsys):
        document = base_manifest(tmp_path / "out")
        document["extra"] = {}
        manifest = write_manifest(tmp_path / "m.json", document)
        err = self.error_of(capsys, ["run-sweep", "--config", str(manifest)])
        assert "extra" in err

    def test_missing_config_version_rejected(self, tmp_path, capsys):
        document = base_manifest(tmp_path / "out")
        del document["config_version"]
        manifest = write_manifest(tmp_path / "m.json", document)
        err = self.error_of(capsys, ["run-sweep", "--config", str(manifest)])
        assert "config_version" in err

    def test_wrong_config_version_rejected(self, tmp_path, capsys):
        document = base_manifest(tmp_path / "out")
        document["config_version"] = 2
        manifest = write_manifest(tmp_path / "m.json", document)
        err = self.error_of(capsys, ["run-sweep", "--config", str(manifest)])
        assert "config_version" in err

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_config_version_must_be_the_integer_one(self, tmp_path, capsys, version):
        document = base_manifest(tmp_path / "out")
        document["config_version"] = version
        manifest = write_manifest(tmp_path / "m.json", document)
        err = self.error_of(capsys, ["run-sweep", "--config", str(manifest)])
        assert err == f"error: manifest.config_version: expected the integer 1, got {version!r}\n"
        assert not (tmp_path / "out").exists()

    def test_invalid_json_reported(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text("{not json", encoding="utf-8")
        err = self.error_of(capsys, ["run-sweep", "--config", str(manifest)])
        assert "not valid JSON" in err

    def test_non_utf8_manifest_reported(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_bytes(b'{"config_version": 1, "x": "\xff"}')
        err = self.error_of(capsys, ["run-sweep", "--config", str(manifest)])
        assert err.startswith("error: manifest")
        assert "not valid JSON" in err and "utf-8" in err

    def test_deeply_nested_manifest_reported(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text("[" * 100_000, encoding="utf-8")
        err = self.error_of(capsys, ["run-sweep", "--config", str(manifest)])
        assert err.startswith("error: manifest")
        assert "not valid JSON" in err and "recursion" in err

    def test_missing_file_reported(self, tmp_path, capsys):
        err = self.error_of(capsys, ["run-sweep", "--config", str(tmp_path / "nope.json")])
        assert "cannot read" in err

    def test_out_of_range_value_is_located(self, tmp_path, capsys):
        document = base_manifest(tmp_path / "out", overlap_v=1.5)
        manifest = write_manifest(tmp_path / "m.json", document)
        err = self.error_of(capsys, ["run-sweep", "--config", str(manifest)])
        assert "experiment" in err and "overlap_v" in err

    def test_integer_beyond_the_float_range_is_located(self, tmp_path, capsys):
        document = base_manifest(tmp_path / "out", overlap_v=10**400)
        manifest = write_manifest(tmp_path / "m.json", document)
        err = self.error_of(capsys, ["run-sweep", "--config", str(manifest)])
        assert err.startswith("error: experiment:") and "overlap_v" in err
        assert "1329-bit integer" in err
        assert not (tmp_path / "out").exists()

    def test_integer_too_long_to_parse_is_invalid_json(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text('{"config_version": 1' + "0" * 5000 + "}", encoding="utf-8")
        err = self.error_of(capsys, ["run-sweep", "--config", str(manifest)])
        assert err.startswith("error: manifest") and "not valid JSON" in err

    def test_bad_wiring_string_is_located(self, tmp_path, capsys):
        document = base_manifest(tmp_path / "out", wiring="C:A")
        manifest = write_manifest(tmp_path / "m.json", document)
        err = self.error_of(capsys, ["run-sweep", "--config", str(manifest)])
        assert "wiring" in err

    def test_duplicate_run_names_rejected(self, tmp_path, capsys):
        document = {
            "config_version": 1,
            "runs": [
                {"name": "same", "experiment": {}},
                {"name": "same", "experiment": {}},
            ],
            "outputs": {"directory": str(tmp_path)},
        }
        manifest = write_manifest(tmp_path / "m.json", document)
        err = self.error_of(capsys, ["run-sweep", "--config", str(manifest)])
        assert "duplicate" in err

    def test_experiment_and_runs_are_mutually_exclusive(self, tmp_path, capsys):
        document = base_manifest(tmp_path / "out")
        document["runs"] = [{"name": "x", "experiment": {}}]
        manifest = write_manifest(tmp_path / "m.json", document)
        err = self.error_of(capsys, ["run-sweep", "--config", str(manifest)])
        assert "not both" in err

    def test_boolean_must_be_json_boolean(self, tmp_path, capsys):
        document = base_manifest(tmp_path / "out", pc_enabled="yes")
        manifest = write_manifest(tmp_path / "m.json", document)
        err = self.error_of(capsys, ["run-sweep", "--config", str(manifest)])
        assert "pc_enabled" in err

    @pytest.mark.parametrize("thetas,count", [
        ({"start": -90, "stop": 90, "step": 1e-9}, r"1800000000\d\d"),
        ({"start": -1e308, "stop": 1e308, "step": 1.0}, "inf"),
        ({"start": 0, "stop": 1, "step": 1e-320}, "inf"),
        ([0.0] * 100_001, "100001"),
    ])
    def test_angle_grid_above_the_cap_rejected(self, tmp_path, capsys, thetas, count):
        document = base_manifest(tmp_path / "out", thetas=thetas)
        manifest = write_manifest(tmp_path / "m.json", document)
        err = self.error_of(capsys, ["run-sweep", "--config", str(manifest)])
        assert re.search(rf"experiment\.thetas: grid of {count} angles exceeds the cap of 100000", err)
        assert not (tmp_path / "out").exists()

    def test_grids_up_to_the_cap_are_built(self):
        angles = cli._angle_grid({"start": 0, "stop": 99_999, "step": 1}, "thetas")
        delays = cli._delay_grid({"start": 0.0, "stop": 1.0, "num": 100_000}, "delays")
        assert len(angles) == len(delays) == cli.MAX_GRID_POINTS


#: Bad values per ExperimentConfig field: strings, bools, NaN, infinities,
#: out-of-range numbers, integers beyond the float range, and values of a
#: neighbouring JSON type.
_BAD_FIELD_VALUES = [
    ("qubit_hwp_angle", value) for value in ("x", True, math.nan, math.inf, 10**400, None)
] + [
    ("wiring", value) for value in (3, True, None, "C:A")
] + [
    ("overlap_v", value)
    for value in ("x", True, math.nan, math.inf, 1.5, -0.1, 10**400)
] + [
    ("imperfection_eps", value) for value in ("x", False, math.nan, 2.0, 10**400)
] + [
    ("pc_enabled", value) for value in ("yes", 1, 0, 1.0, None)
] + [
    ("thetas", value)
    for value in ([], ["x"], [True], [math.nan], [0.0, math.inf], [0.0, 10**400])
] + [
    ("pair_rate", value)
    for value in ("x", True, -1.0, math.nan, math.inf, 1e30, 10**400)
] + [
    ("duration", value) for value in ("x", False, -2.0, math.inf, 10**400)
] + [
    ("seed", value) for value in ("x", True, 1.5, -5, 2**64, 10**400, None)
]


class TestOneRuleSet:
    """A manifest's experiment values are checked by ``ExperimentConfig`` alone:
    the CLI reports the library's own error, prefixed with the location."""

    @pytest.mark.parametrize("runs", [False, True], ids=["experiment", "runs"])
    @pytest.mark.parametrize(
        "field,value", _BAD_FIELD_VALUES, ids=[f"{f}-{v!r:.12}" for f, v in _BAD_FIELD_VALUES]
    )
    def test_cli_reports_the_config_error(self, tmp_path, capsys, field, value, runs):
        with pytest.raises(LoqecError) as raised:
            ExperimentConfig(**{field: value})
        section = {field: value}
        if runs:
            document = {"config_version": 1, "runs": [{"name": "r", "experiment": section}]}
            where = "runs[0].experiment"
        else:
            document = {"config_version": 1, "experiment": section}
            where = "experiment"
        document["outputs"] = {"directory": str(tmp_path / "out")}
        manifest = write_manifest(tmp_path / "m.json", document)
        assert cli.main(["run-sweep", "--config", str(manifest)]) == 1
        assert capsys.readouterr().err == f"error: {where}: {raised.value}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value,message", [
        ("start", "a", "start must be a real number, got 'a'"),
        ("stop", True, "stop must be a real number, got True"),
        ("step", math.nan, "step must be finite, got nan"),
        ("start", 10**400, "start must be a real number within the float range, got a 1329-bit integer"),
    ])
    def test_range_bounds_read_as_the_library_reads_numbers(self, tmp_path, capsys, key, value, message):
        thetas = {"start": 0, "stop": 90, "step": 45, key: value}
        manifest = write_manifest(tmp_path / "m.json", base_manifest(tmp_path / "out", thetas=thetas))
        assert cli.main(["run-sweep", "--config", str(manifest)]) == 1
        assert capsys.readouterr().err == f"error: experiment.thetas: {message}\n"


class TestHomScanCommand:
    def manifest(self, tmp_path, delays):
        return write_manifest(
            tmp_path / "hom.json",
            {
                "config_version": 1,
                "hom_scan": {"delays": delays, "coherence_time": 1e-12},
                "outputs": {"directory": str(tmp_path / "out"), "format": "csv"},
            },
        )

    def test_writes_dip_table(self, tmp_path):
        manifest = self.manifest(tmp_path, {"start": -3e-12, "stop": 3e-12, "num": 13})
        assert cli.main(["hom-scan", "--config", str(manifest), "--quiet"]) == 0
        data = tmp_path / "out" / "hom_scan.csv"
        lines = data.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "delay_s,overlap_v,p_coincidence"
        rows = read_rows(data)
        assert len(rows) == 13
        center = rows[6]
        assert float(center["delay_s"]) == 0.0
        assert float(center["p_coincidence"]) == 0.0
        assert float(rows[0]["p_coincidence"]) == pytest.approx(0.5, abs=1e-3)

    def test_json_document_shape(self, tmp_path):
        manifest = self.manifest(tmp_path, [0.0, 1e-12])
        assert cli.main(
            ["hom-scan", "--config", str(manifest), "--format", "json", "--quiet"]
        ) == 0
        record = json.loads((tmp_path / "out" / "hom_scan.json").read_text(encoding="utf-8"))
        assert set(record) == {"schema_version", "config", "rows", "summary"}
        assert record["rows"][0]["p_coincidence"] == 0.0
        assert record["summary"]["min_p_coincidence"] == 0.0

    def test_csv_and_json_hold_the_same_rows(self, tmp_path):
        manifest = self.manifest(tmp_path, {"start": -3e-12, "stop": 3e-12, "num": 13})
        for fmt in ("csv", "json"):
            argv = ["hom-scan", "--config", str(manifest), "--format", fmt, "--quiet"]
            assert cli.main(argv) == 0
        csv_rows = read_rows(tmp_path / "out" / "hom_scan.csv")
        json_rows = json.loads((tmp_path / "out" / "hom_scan.json").read_text(encoding="utf-8"))
        assert len(csv_rows) == 13
        assert [{key: float(v) for key, v in row.items()} for row in csv_rows] == json_rows["rows"]

    def test_empty_delay_list_rejected(self, tmp_path, capsys):
        manifest = self.manifest(tmp_path, [])
        assert cli.main(["hom-scan", "--config", str(manifest)]) == 1
        assert "delays" in capsys.readouterr().err

    def test_missing_section_rejected(self, tmp_path, capsys):
        manifest = write_manifest(
            tmp_path / "m.json", {"config_version": 1, "outputs": {"directory": str(tmp_path)}}
        )
        assert cli.main(["hom-scan", "--config", str(manifest)]) == 1
        assert "hom_scan" in capsys.readouterr().err

    def test_bad_coherence_time_rejected(self, tmp_path, capsys):
        manifest = write_manifest(
            tmp_path / "hom.json",
            {
                "config_version": 1,
                "hom_scan": {"delays": [0.0], "coherence_time": 0.0},
                "outputs": {"directory": str(tmp_path)},
            },
        )
        assert cli.main(["hom-scan", "--config", str(manifest)]) == 1
        assert "coherence" in capsys.readouterr().err

    @pytest.mark.parametrize("delays,count", [
        ({"start": -1.0, "stop": 1.0, "num": 10**12}, "1000000000000"),
        ([0.0] * 100_001, "100001"),
    ])
    def test_delay_grid_above_the_cap_rejected(self, tmp_path, capsys, delays, count):
        manifest = self.manifest(tmp_path, delays)
        assert cli.main(["hom-scan", "--config", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert f"hom_scan.delays: grid of {count} delays exceeds the cap of 100000" in err

    @pytest.mark.parametrize("coherence_time", ["x", True, math.inf, -1.0, 10**400])
    def test_coherence_time_is_checked_by_hom_scan(self, tmp_path, capsys, coherence_time):
        with pytest.raises(LoqecError) as raised:
            hom_scan([0.0], coherence_time)
        manifest = write_manifest(
            tmp_path / "hom.json",
            {
                "config_version": 1,
                "hom_scan": {"delays": [0.0], "coherence_time": coherence_time},
                "outputs": {"directory": str(tmp_path / "out")},
            },
        )
        assert cli.main(["hom-scan", "--config", str(manifest)]) == 1
        assert capsys.readouterr().err == f"error: hom_scan: {raised.value}\n"

    @pytest.mark.parametrize("delays,message", [
        (["a"], "delays[0] must be a real number, got 'a'"),
        ([0.0, math.nan], "delays[1] must be finite, got nan"),
    ])
    def test_delay_list_is_checked_by_hom_scan(self, tmp_path, capsys, delays, message):
        manifest = self.manifest(tmp_path, delays)
        assert cli.main(["hom-scan", "--config", str(manifest)]) == 1
        assert capsys.readouterr().err == f"error: hom_scan: {message}\n"

    def test_delay_range_beyond_the_float_range_rejected(self, tmp_path):
        """The span overflows; the range is refused before numpy builds it."""
        manifest = self.manifest(tmp_path, {"start": -1e308, "stop": 1e308, "num": 3})
        proc = subprocess.run(
            [sys.executable, "-m", "loqec", "hom-scan", "--config", str(manifest)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: hom_scan.delays:")
        assert "-1e+308" in proc.stderr and "1e+308" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_tiny_coherence_time_scans(self, tmp_path):
        """The coherence time squared underflows to zero; the scan still runs."""
        manifest = write_manifest(
            tmp_path / "hom.json",
            {
                "config_version": 1,
                "hom_scan": {"delays": [0.0, 1e-200, 1e-190], "coherence_time": 1e-200},
                "outputs": {"directory": str(tmp_path / "out"), "format": "csv"},
            },
        )
        assert cli.main(["hom-scan", "--config", str(manifest), "--quiet"]) == 0
        rows = read_rows(tmp_path / "out" / "hom_scan.csv")
        assert [float(row["p_coincidence"]) for row in rows] == pytest.approx(
            [0.0, 0.5 * (1.0 - math.exp(-1.0)), 0.5], abs=1e-12
        )


class TestFitCommand:
    def sweep_csv(self, tmp_path, **experiment):
        manifest = write_manifest(
            tmp_path / "m.json", base_manifest(tmp_path / "out", **experiment)
        )
        cli.main(["run-sweep", "--config", str(manifest), "--quiet"])
        return tmp_path / "out" / "sweep.csv"

    def test_probability_column_round_trips_the_model(self, tmp_path, capsys):
        data = self.sweep_csv(tmp_path)
        assert cli.main(["fit", str(data)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["column"] == "p_d1_d2"
        assert record["visibility"] == pytest.approx(0.922, abs=1e-9)
        assert record["phase_deg"] == pytest.approx(45.0, abs=1e-6)

    def test_fit_agrees_with_run_summary(self, tmp_path, capsys):
        data = self.sweep_csv(tmp_path, overlap_v=0.5, qubit_hwp_angle=22.5)
        summary = json.loads((tmp_path / "out" / "sweep_summary.json").read_text())
        cli.main(["fit", str(data), "--column", "p_d1_d3"])
        record = json.loads(capsys.readouterr().out)
        assert record["visibility"] == pytest.approx(
            summary["curves"]["d1_d3"]["visibility"], abs=1e-9
        )

    def test_counts_column_recovers_visibility_roughly(self, tmp_path, capsys):
        data = self.sweep_csv(tmp_path, pair_rate=50000.0, duration=10.0)
        cli.main(["fit", str(data), "--column", "counts_d1_d2"])
        record = json.loads(capsys.readouterr().out)
        assert record["visibility"] == pytest.approx(0.922, abs=0.02)

    def test_record_written_to_file(self, tmp_path, capsys):
        data = self.sweep_csv(tmp_path)
        out = tmp_path / "fit.json"
        cli.main(["fit", str(data), "--output", str(out), "--quiet"])
        assert capsys.readouterr().out == ""
        record = json.loads(out.read_text(encoding="utf-8"))
        assert record["visibility"] == pytest.approx(0.922, abs=1e-9)

    def test_unknown_column_rejected(self, tmp_path, capsys):
        data = self.sweep_csv(tmp_path)
        assert cli.main(["fit", str(data), "--column", "nope"]) == 1
        assert "nope" in capsys.readouterr().err

    def test_unwritable_record_is_an_error_line(self, tmp_path, capsys):
        data = self.sweep_csv(tmp_path)
        assert cli.main(["fit", str(data), "--output", str(data / "fit.json")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write")
        assert captured.out == ""

    def test_too_few_rows_rejected(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        path.write_text(
            "theta_deg,p_d1_d2,p_d1_d3,counts_d1_d2,counts_d1_d3\n0.0,0.1,0.1,1,1\n",
            encoding="utf-8",
        )
        assert cli.main(["fit", str(path)]) == 1
        assert "3" in capsys.readouterr().err

    def test_non_numeric_cell_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(
            "theta_deg,p_d1_d2\n0.0,x\n10.0,0.2\n20.0,0.3\n", encoding="utf-8"
        )
        assert cli.main(["fit", str(path)]) == 1
        assert "bad.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_rejected(self, tmp_path, capsys, cell):
        path = tmp_path / "bad.csv"
        path.write_text(
            f"theta_deg,p_d1_d2\n0.0,0.1\n10.0,{cell}\n20.0,0.3\n", encoding="utf-8"
        )
        assert cli.main(["fit", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad.csv:3:")

    def test_bad_cell_after_a_blank_line_names_its_own_line(self, tmp_path, capsys):
        path = tmp_path / "blank.csv"
        path.write_text("theta_deg,p_d1_d2\n0.0,0.1\n\n10.0,x\n", encoding="utf-8")
        assert cli.main(["fit", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: blank.csv:4: non-numeric value")

    def test_non_utf8_csv_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"theta_deg,p_d1_d2\n0.0,0.1\n10.0,0.2\xff\n20.0,0.3\n")
        assert cli.main(["fit", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read")
        assert "bad.csv" in captured.err and "utf-8" in captured.err

    def test_a_huge_finite_angle_fits_as_its_reduced_angle(self, tmp_path, capsys):
        outputs = []
        for huge in ("1e308", "116.0"):  # 116 = fmod(1e308, 180)
            path = tmp_path / "huge.csv"
            path.write_text(
                f"theta_deg,p_d1_d2\n0.0,0.9\n45.0,0.5\n{huge},0.2\n60.0,0.3\n", encoding="utf-8"
            )
            assert cli.main(["fit", str(path)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].err == ""

    def test_a_fit_that_overflows_is_an_error_line(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text(
            "theta_deg,p_d1_d2\n0.0,1e308\n45.0,-1e308\n90.0,1e308\n", encoding="utf-8"
        )
        assert cli.main(["fit", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the fit overflows")

    def test_field_beyond_the_csv_limit_rejected(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        field = "1" * (csv.field_size_limit() + 1)
        path.write_text(f"theta_deg,p_d1_d2\n0.0,{field}\n10.0,0.2\n20.0,0.3\n", encoding="utf-8")
        assert cli.main(["fit", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: big.csv is not a readable CSV: field larger")


def counts_digest(runs):
    """sha256 of the count columns of ``(name, rows)`` pairs, in order."""
    text = "".join(
        name + "\n" + "".join(f"{int(r['counts_d1_d2'])},{int(r['counts_d1_d3'])}\n" for r in rows)
        for name, rows in runs
    )
    return hashlib.sha256(text.encode()).hexdigest()


SWEEP_DIGESTS = {  # sha256 of every file run-sweep writes at --seed 4242
    ("bench_sweep", "csv"): {
        "sweep.csv": "26edc276965542abc4385585f4ab13feb2f3378ee43817070fbaa76ce3180340",
        "sweep_summary.json": "1ad8cda1cd69a7440a4e96f10bd78aafbdb8b1ccda165dc1089b1ddd4ebefdfd",
    },
    ("bench_sweep", "json"): {
        "sweep.json": "60ddfaa42f52a2185bbe89df61faaab017801e3521c8b972434a247ae5d2bf5c",
    },
    ("triplet", "csv"): {
        "corrected.csv": "26edc276965542abc4385585f4ab13feb2f3378ee43817070fbaa76ce3180340",
        "corrected_summary.json": "93ac0c181c81ea699a7e34385712df8f742049dc2051f9f658bbd02d2a4cc6c5",
        "distinguishable.csv": "fc14719161269ea82b71ed736547db2e2ed764566d9b1f0b5deee51e05753fe9",
        "distinguishable_summary.json": "6310f67682449634db933e999355563757248562159397c8f04c24202c190788",
        "uncorrected.csv": "3c2a12cf2d9f09b8cba35550ed244392880bdf64a4dcc0ae730c93c0d987ec49",
        "uncorrected_summary.json": "287479dbd66120f96c24dc8af1b4321d6c0ebed4ddc09c09cc742c813b49520a",
    },
    ("triplet", "json"): {
        "corrected.json": "407c0ba3217a770b8d3446a19dc3df974b8d8d9b7d62cdffd6e4b4a8ab694193",
        "distinguishable.json": "865e8380dba45c80c6ee9dfc68d0a821ecd00fb58c8326ef8e131af82f1d8f5d",
        "uncorrected.json": "a5513c05bbbb1bb5e72cb3361a04877772d8d3a63a4bbee715eabbd2242f67f4",
    },
}


class TestShippedOutputs:
    """The shipped manifests' outputs, pinned by digest: the sweep's counts
    and every byte of its files at seed 4242, and every byte of the HOM scan."""

    def test_bench_sweep_counts(self, tmp_path):
        argv = ["run-sweep", "--config", str(MANIFESTS / "bench_sweep.json"),
                "--seed", "4242", "--output", str(tmp_path), "--quiet"]
        assert cli.main(argv) == 0
        rows = read_rows(tmp_path / "sweep.csv")
        assert len(rows) == 19
        assert counts_digest([("sweep", rows)]) == (
            "5546ea9f93afc368d7272466c1a65ae07c3e054dec5a947612e74031825f09c2"
        )

    def test_triplet_counts(self, tmp_path):
        argv = ["run-sweep", "--config", str(MANIFESTS / "triplet.json"),
                "--seed", "4242", "--output", str(tmp_path), "--quiet"]
        assert cli.main(argv) == 0
        names = ("uncorrected", "corrected", "distinguishable")
        runs = [
            (name, json.loads((tmp_path / f"{name}.json").read_text(encoding="utf-8"))["rows"])
            for name in names
        ]
        assert [len(rows) for _, rows in runs] == [19, 19, 19]
        assert counts_digest(runs) == (
            "b3c4631fccecaf96bcf74d3597f22a9906fa28f65b2941b49c5e424d1e896fa0"
        )

    @pytest.mark.parametrize("manifest, fmt", SWEEP_DIGESTS)
    def test_sweep_bytes(self, tmp_path, manifest, fmt):
        argv = ["run-sweep", "--config", str(MANIFESTS / f"{manifest}.json"), "--seed", "4242",
                "--output", str(tmp_path), "--format", fmt, "--quiet"]
        assert cli.main(argv) == 0
        written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()}
        assert written == SWEEP_DIGESTS[manifest, fmt]

    @pytest.mark.parametrize("fmt, digest", [
        ("csv", "a1dc06886250e0c2524b9e0a4881bad96745c4c0db5931fede749efb43b5f9ef"),
        ("json", "29fc87714535d6160b27c503ac774eb230506195bf9f61ea0a5e79ff60df212a"),
    ])
    def test_hom_scan_bytes(self, tmp_path, fmt, digest):
        argv = ["hom-scan", "--config", str(MANIFESTS / "hom_scan.json"),
                "--output", str(tmp_path), "--format", fmt, "--quiet"]
        assert cli.main(argv) == 0
        data = (tmp_path / f"hom_scan.{fmt}").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


class TestEntryPoints:
    def test_main_builds_one_parser_per_process(self, tmp_path, monkeypatch, capsys):
        built = []
        build_parser = cli.build_parser

        def counting_build_parser():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._parser.cache_clear()
        try:
            missing = str(tmp_path / "missing.json")
            for _ in range(3):
                assert cli.main(["run-sweep", "--config", missing, "--quiet"]) == 1
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
        assert capsys.readouterr().err.count("error: ") == 3

    def test_module_invocation_works(self, tmp_path):
        manifest = write_manifest(tmp_path / "m.json", base_manifest(tmp_path / "out"))
        proc = subprocess.run(
            [sys.executable, "-m", "loqec", "run-sweep", "--config", str(manifest)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "sweep.csv" in proc.stdout
        assert (tmp_path / "out" / "sweep.csv").exists()

    def test_errors_exit_nonzero_via_module(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "loqec", "run-sweep", "--config", str(tmp_path / "x.json")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
