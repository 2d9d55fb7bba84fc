"""Command-line interface: manifest-driven sweeps, HOM scans, curve fits.

Run manifests are strict JSON: every key is checked against the schema and
anything unrecognized is an error naming the offending key, so a typo in a
config never silently falls back to a default.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import re
import sys
from enum import Enum
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path
from typing import Any, Collection, Mapping, Sequence

import numpy as np

from .errors import (
    FitError,
    LoqecError,
    ManifestError,
    UsageError,
    ValidationError,
    as_finite_real,
)
from .experiment import (
    CurveResult,
    ExperimentConfig,
    HomScanResult,
    SweepResult,
    fit_malus,
    hom_scan,
    run_experiment,
    visibility,
)

#: Manifest format accepted by this build.
MANIFEST_VERSION = 1
#: Format of emitted JSON result documents.
SCHEMA_VERSION = 2
#: Most angles or delays one manifest grid may hold, checked before a range is built.
MAX_GRID_POINTS = 100_000

_TOP_KEYS = {"config_version", "experiment", "runs", "hom_scan", "outputs"}
_EXPERIMENT_KEYS = {field.name for field in dataclasses.fields(ExperimentConfig)}
_RUN_KEYS = {"name", "experiment"}
_HOM_KEYS = {"delays", "coherence_time"}
_OUTPUT_KEYS = {"directory", "format"}
_THETA_RANGE_KEYS = ("start", "stop", "step")
_DELAY_RANGE_KEYS = ("start", "stop", "num")
_FORMATS = ("csv", "json")
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def _fail(where: str, message: str) -> None:
    raise ManifestError(f"{where}: {message}")


def _mapping(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        _fail(where, f"expected an object, got {type(value).__name__}")
    return value


def _check_keys(section: Mapping[str, Any], allowed: Collection[str], where: str) -> None:
    unknown = sorted(set(section).difference(allowed))
    if unknown:
        _fail(where, f"unknown key {unknown[0]!r} (allowed: {', '.join(sorted(allowed))})")


def _number(value: Any, name: str, where: str) -> float:
    """A range object's bound or step: a finite number, as :func:`as_finite_real` reads one."""
    try:
        return as_finite_real(value, name)
    except ValidationError as exc:
        _fail(where, str(exc))


def _integer(value: Any, name: str, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(where, f"{name} must be an integer, got {value!r}")
    return value


def _check_grid_size(count: float, what: str, where: str) -> None:
    if count > MAX_GRID_POINTS:
        _fail(where, f"grid of {count} {what} exceeds the cap of {MAX_GRID_POINTS}")


def _range_object(value: dict, keys: tuple[str, ...], where: str) -> None:
    _check_keys(value, keys, where)
    for key in keys:
        if key not in value:
            _fail(where, f"range needs {key!r}")


def _angle_grid(value: Any, where: str) -> Any:
    """A list of angles as given, or the angles of a start/stop/step range."""
    if isinstance(value, list):
        _check_grid_size(len(value), "angles", where)
        return value
    if isinstance(value, dict):
        _range_object(value, _THETA_RANGE_KEYS, where)
        start = _number(value["start"], "start", where)
        stop = _number(value["stop"], "stop", where)
        step = _number(value["step"], "step", where)
        if step == 0.0:
            _fail(where, "step must be nonzero")
        span = (stop - start) / step
        # The span overflows to infinity for a huge range or a subnormal step.
        count = math.floor(span + 1e-9) + 1 if math.isfinite(span) else span
        if count < 1:
            _fail(where, "range produces no angles")
        _check_grid_size(count, "angles", where)
        return tuple(start + i * step for i in range(count))
    _fail(where, f"expected a list of angles or a start/stop/step object, got {value!r}")
    raise AssertionError("unreachable")


def _delay_grid(value: Any, where: str) -> Any:
    """A list of delays as given, or the delays of a start/stop/num range."""
    if isinstance(value, list):
        _check_grid_size(len(value), "delays", where)
        return value
    if isinstance(value, dict):
        _range_object(value, _DELAY_RANGE_KEYS, where)
        start = _number(value["start"], "start", where)
        stop = _number(value["stop"], "stop", where)
        num = _integer(value["num"], "num", where)
        if num < 1:
            _fail(where, f"num must be at least 1, got {num}")
        _check_grid_size(num, "delays", where)
        if not math.isfinite(stop - start):
            _fail(where, f"range from start {start!r} to stop {stop!r} spans beyond the float range")
        return tuple(float(t) for t in np.linspace(start, stop, num))
    _fail(where, f"expected a list of delays or a start/stop/num object, got {value!r}")
    raise AssertionError("unreachable")


def _experiment_config(
    section: Any, where: str, seed_override: int | None
) -> ExperimentConfig:
    """The config of one experiment section; its values are checked by ``ExperimentConfig``."""
    section = _mapping(section, where)
    _check_keys(section, _EXPERIMENT_KEYS, where)
    kwargs = dict(section)
    if "thetas" in section:
        kwargs["thetas"] = _angle_grid(section["thetas"], f"{where}.thetas")
    if seed_override is not None:
        kwargs["seed"] = seed_override
    try:
        return ExperimentConfig(**kwargs)
    except LoqecError as exc:
        _fail(where, str(exc))
    raise AssertionError("unreachable")


def load_manifest(path: Path) -> dict:
    """Read and structurally validate a JSON run manifest."""
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    try:
        data = json.loads(raw.decode("utf-8"))
    # ValueError is also bad UTF-8 or an integer too long to parse; RecursionError, a nest too deep.
    except (ValueError, RecursionError) as exc:
        raise ManifestError(f"manifest {path} is not valid JSON: {exc}") from exc
    data = _mapping(data, "manifest")
    _check_keys(data, _TOP_KEYS, "manifest")
    if "config_version" not in data:
        _fail("manifest", "missing required key 'config_version'")
    version = data["config_version"]
    # A bare comparison would take true and 1.0 as well: True == 1.0 == 1.
    if type(version) is not int or version != MANIFEST_VERSION:
        _fail("manifest.config_version", f"expected the integer {MANIFEST_VERSION}, got {version!r}")
    return data


def _sweep_jobs(
    manifest: Mapping[str, Any], seed_override: int | None
) -> list[tuple[str, str, ExperimentConfig]]:
    """``(location, name, config)`` of every run, the location as an error names it."""
    has_single = "experiment" in manifest
    has_runs = "runs" in manifest
    if has_single and has_runs:
        _fail("manifest", "give either 'experiment' or 'runs', not both")
    if has_single:
        config = _experiment_config(manifest["experiment"], "experiment", seed_override)
        return [("experiment", "sweep", config)]
    if not has_runs:
        _fail("manifest", "run-sweep needs an 'experiment' or 'runs' section")
    runs = manifest["runs"]
    if not isinstance(runs, list) or not runs:
        _fail("manifest.runs", "expected a non-empty list of runs")
    jobs: list[tuple[str, str, ExperimentConfig]] = []
    seen: set[str] = set()
    for i, entry in enumerate(runs):
        where = f"runs[{i}]"
        entry = _mapping(entry, where)
        _check_keys(entry, _RUN_KEYS, where)
        if "name" not in entry:
            _fail(where, "missing required key 'name'")
        name = entry["name"]
        if not isinstance(name, str) or not _NAME_RE.match(name):
            _fail(f"{where}.name", f"expected a plain filename stem, got {name!r}")
        if name in seen:
            _fail(f"{where}.name", f"duplicate run name {name!r}")
        seen.add(name)
        if "experiment" not in entry:
            _fail(where, "missing required key 'experiment'")
        config = _experiment_config(entry["experiment"], f"{where}.experiment", seed_override)
        jobs.append((f"{where} ({name})", name, config))
    return jobs


def _output_settings(
    manifest: Mapping[str, Any], directory_override: str | None, format_override: str | None
) -> tuple[Path, str]:
    section = _mapping(manifest.get("outputs", {}), "outputs")
    _check_keys(section, _OUTPUT_KEYS, "outputs")
    directory = section.get("directory", ".")
    if not isinstance(directory, str) or not directory:
        _fail("outputs.directory", f"expected a non-empty string, got {directory!r}")
    fmt = section.get("format", "csv")
    if fmt not in _FORMATS:
        _fail("outputs.format", f"expected one of {', '.join(_FORMATS)}, got {fmt!r}")
    if directory_override is not None:
        directory = directory_override
    if format_override is not None:
        fmt = format_override
    return Path(directory), fmt


def _float_str(value: float) -> str:
    """Shortest decimal string that round-trips the float."""
    return repr(float(value))


def _csv_text(rows: list[dict]) -> str:
    """A header of the rows' keys, then one line of values per row."""
    lines = [",".join(rows[0])]
    for row in rows:
        lines.append(
            ",".join(_float_str(v) if isinstance(v, float) else str(v) for v in row.values())
        )
    return "\n".join(lines) + "\n"


def _curve_summary(curve: CurveResult) -> dict:
    return {
        "offset": curve.fit.offset,
        "amplitude": curve.fit.amplitude,
        "phase_deg": curve.fit.phase_deg,
        "visibility": curve.visibility,
    }


def _sweep_summary(name: str, result: SweepResult) -> dict:
    return {
        "name": name,
        "seed": result.config.seed,
        "success_probability": result.success_probability,
        "discarded_probability": result.discarded_probability,
        "fidelity": result.fidelity,
        "fidelity_fit": result.fidelity_fit,
        "curves": {
            "d1_d2": _curve_summary(result.d1_d2),
            "d1_d3": _curve_summary(result.d1_d3),
        },
    }


def _config_dict(config: ExperimentConfig) -> dict:
    document = {}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if isinstance(value, Enum):
            value = value.value
        elif isinstance(value, tuple):
            value = list(value)
        document[field.name] = value
    return document


def _sweep_rows(result: SweepResult) -> list[dict]:
    counts_d2 = result.d1_d2.counts or ()
    counts_d3 = result.d1_d3.counts or ()
    return [
        {
            "theta_deg": theta,
            "p_d1_d2": result.d1_d2.probabilities[i],
            "p_d1_d3": result.d1_d3.probabilities[i],
            "counts_d1_d2": int(counts_d2[i]),
            "counts_d1_d3": int(counts_d3[i]),
        }
        for i, theta in enumerate(result.thetas)
    ]


def _finite_numbers(values: Sequence[Any]) -> bool:
    """Whether every value is a plain ``int`` or a finite ``float`` (a bool is neither)."""
    if not set(map(type, values)) <= {int, float}:
        return False
    try:  # fsum is finite unless a value is not; an overflow only costs the fast path.
        return math.isfinite(math.fsum(values))
    except (OverflowError, ValueError):
        return False


def _json_text(value: Any, newline: str) -> str:
    """``value`` as :func:`_dump_json` writes it, nested under ``newline``'s indent.

    Strings, numbers, number lists and tables of same-keyed number rows are
    formatted by C calls (json's indented encoder is pure Python).  Anything
    else (a bool, ``None``, a subclass, a non-``str`` key, NaN or infinity)
    goes to json itself, so its text and its refusals are json's; re-indenting
    that text is exact because JSON text holds no raw newline.
    """
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int or kind is float and math.isfinite(value):
        return repr(value)
    inner = newline + "  "
    if kind is dict and set(map(type, value)) == {str}:
        items = (_encode_str(key) + ": " + _json_text(value[key], inner) for key in sorted(value))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if (kind is list or kind is tuple) and value:
        if _finite_numbers(value):
            return "[" + inner + ("," + inner).join(map(repr, value)) + newline + "]"
        first = value[0]
        if (
            set(map(type, value)) == {dict} and set(map(type, first)) == {str}
            and all(map(first.keys().__eq__, map(dict.keys, value)))
        ):
            keys = sorted(first)
            cells = [tuple(map(row.__getitem__, keys)) for row in value]
            if _finite_numbers(list(itertools.chain.from_iterable(cells))):
                row = inner + "  "
                fields = ("," + row).join(_encode_str(key).replace("%", "%%") + ": %r" for key in keys)
                rows = map(("{" + row + fields + inner + "}").__mod__, cells)
                return "[" + inner + ("," + inner).join(rows) + newline + "]"
        return "[" + inner + ("," + inner).join(_json_text(item, inner) for item in value) + newline + "]"
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False).replace("\n", newline)


def _dump_json(document: Any) -> str:
    """``json.dumps(document, indent=2, sort_keys=True, allow_nan=False)`` and a newline."""
    return _json_text(document, "\n") + "\n"


def _write_files(files: Mapping[Path, str]) -> None:
    """Create each distinct directory once and write the files in order."""
    made: set[Path] = set()
    try:
        for target, text in files.items():
            if target.parent not in made:
                target.parent.mkdir(parents=True, exist_ok=True)
                made.add(target.parent)
            target.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {target}: {exc.strerror or exc}") from exc


def _cmd_run_sweep(args: argparse.Namespace) -> int:
    manifest = load_manifest(Path(args.config))
    jobs = _sweep_jobs(manifest, args.seed)
    directory, fmt = _output_settings(manifest, args.output, args.format)
    # Every run is computed before any file is written, so a failing run
    # leaves no partial output behind.
    results = []
    for where, name, config in jobs:
        try:
            results.append((name, config, run_experiment(config)))
        except LoqecError as exc:
            raise type(exc)(f"{where}: {exc}") from exc
    files: dict[Path, str] = {}
    for name, config, result in results:
        if fmt == "csv":
            files[directory / f"{name}.csv"] = _csv_text(_sweep_rows(result))
            files[directory / f"{name}_summary.json"] = _dump_json(_sweep_summary(name, result))
        else:
            document = {
                "schema_version": SCHEMA_VERSION,
                "config": _config_dict(config),
                "rows": _sweep_rows(result),
                "summary": _sweep_summary(name, result),
            }
            files[directory / f"{name}.json"] = _dump_json(document)
    _write_files(files)
    if not args.quiet:
        for path in files:
            print(f"wrote {path}")
    return 0


def _hom_rows(result: HomScanResult) -> list[dict]:
    return [
        {"delay_s": point.delay, "overlap_v": point.overlap, "p_coincidence": point.p_coincidence}
        for point in result.points
    ]


def _cmd_hom_scan(args: argparse.Namespace) -> int:
    manifest = load_manifest(Path(args.config))
    if "hom_scan" not in manifest:
        _fail("manifest", "hom-scan needs a 'hom_scan' section")
    section = _mapping(manifest["hom_scan"], "hom_scan")
    _check_keys(section, _HOM_KEYS, "hom_scan")
    if "delays" not in section:
        _fail("hom_scan", "missing required key 'delays'")
    if "coherence_time" not in section:
        _fail("hom_scan", "missing required key 'coherence_time'")
    delays = _delay_grid(section["delays"], "hom_scan.delays")
    directory, fmt = _output_settings(manifest, args.output, args.format)
    try:
        result = hom_scan(delays, section["coherence_time"])
    except LoqecError as exc:
        _fail("hom_scan", str(exc))
    if fmt == "csv":
        path = directory / "hom_scan.csv"
        text = _csv_text(_hom_rows(result))
    else:
        probabilities = [point.p_coincidence for point in result.points]
        document = {
            "schema_version": SCHEMA_VERSION,
            "config": {
                "delays": [point.delay for point in result.points],
                "coherence_time": result.coherence_time,
            },
            "rows": _hom_rows(result),
            "summary": {
                "min_p_coincidence": min(probabilities),
                "max_p_coincidence": max(probabilities),
            },
        }
        path = directory / "hom_scan.json"
        text = _dump_json(document)
    _write_files({path: text})
    if not args.quiet:
        print(f"wrote {path}")
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    path = Path(args.input)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    reader = csv.DictReader(io.StringIO(text))
    try:
        fields = reader.fieldnames or []
        # csv skips blank lines, so each row carries its own physical line number.
        rows = [(reader.line_num, row) for row in reader]
    except csv.Error as exc:  # e.g. a field beyond csv's size limit
        raise FitError(f"{path.name} is not a readable CSV: {exc}") from exc
    if "theta_deg" not in fields:
        raise FitError(f"{path.name} has no 'theta_deg' column (found: {', '.join(fields) or 'none'})")
    if args.column not in fields:
        raise FitError(f"{path.name} has no {args.column!r} column (found: {', '.join(fields)})")
    thetas: list[float] = []
    values: list[float] = []
    for line, row in rows:
        try:
            theta, value = float(row["theta_deg"]), float(row[args.column])
        except (TypeError, ValueError) as exc:
            raise FitError(f"{path.name}:{line}: non-numeric value ({exc})") from exc
        if not (math.isfinite(theta) and math.isfinite(value)):
            raise FitError(
                f"{path.name}:{line}: non-finite value "
                f"(theta_deg={theta!r}, {args.column}={value!r})"
            )
        thetas.append(theta)
        values.append(value)
    if len(thetas) < 3:
        raise FitError(f"need at least 3 data rows to fit, got {len(thetas)}")
    fit = fit_malus(thetas, values)
    record = {
        "column": args.column,
        "offset": fit.offset,
        "amplitude": fit.amplitude,
        "phase_deg": fit.phase_deg,
        "visibility": visibility(fit),
    }
    if args.output:
        _write_files({Path(args.output): _dump_json(record)})
    if not args.quiet:
        print(json.dumps(record, sort_keys=True, allow_nan=False))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loqec",
        description="Two-photon encoding sweeps, interference scans, and curve fits.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sweep = sub.add_parser("run-sweep", help="run analyzer sweeps from a JSON manifest")
    sweep.add_argument("--config", required=True, help="path to the run manifest")
    sweep.add_argument("--seed", type=int, default=None, help="override every run's RNG seed")
    sweep.add_argument("--output", default=None, help="output directory (overrides the manifest)")
    sweep.add_argument("--format", choices=_FORMATS, default=None, help="output format (overrides the manifest)")
    sweep.add_argument("--quiet", action="store_true", help="do not list written files")
    sweep.set_defaults(func=_cmd_run_sweep)

    hom = sub.add_parser("hom-scan", help="run a two-photon interference scan from a JSON manifest")
    hom.add_argument("--config", required=True, help="path to the run manifest")
    hom.add_argument("--output", default=None, help="output directory (overrides the manifest)")
    hom.add_argument("--format", choices=_FORMATS, default=None, help="output format (overrides the manifest)")
    hom.add_argument("--quiet", action="store_true", help="do not list written files")
    hom.set_defaults(func=_cmd_hom_scan)

    fit = sub.add_parser("fit", help="fit one column of a sweep CSV")
    fit.add_argument("input", help="CSV file produced by run-sweep")
    fit.add_argument("--column", default="p_d1_d2", help="value column to fit (default: p_d1_d2)")
    fit.add_argument("--output", default=None, help="also write the fit record to this JSON file")
    fit.add_argument("--quiet", action="store_true", help="do not print the fit record")
    fit.set_defaults(func=_cmd_fit)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: building it costs most of a parse."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except LoqecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
