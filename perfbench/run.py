"""Benchmark of the loqec pipeline: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload dense_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each run is a closed loop with one client in one process: a call starts
only after the previous one has returned and been checked.  The last line
of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer metrics of a traced run.  The exit code is 0
when every check passed, 1 when one failed, and 2 when the package or its
reference cannot be loaded (no result is printed then).  See README.md.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
from workloads import PROB_TOL, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Fresh processes timed per run for ``setup_s``, spread evenly over the
#: run so that they sample the host's slow and fast spells; the median is reported.
SETUP_REPEATS = 9
#: Least number of timed calls, so that ten or more lie beyond ``call_ms_p90``.
MIN_CALLS = 100
#: Wall-clock cap on the measuring loop, whatever ``--seconds`` asks for.
MAX_LOOP_S = 100.0
#: Seed-0 calls whose counts ``golden.json`` pins to the seed commit.
GOLDEN_CALLS = {"dense_sweep": 2, "config_grid": 20, "cli_manifests": 2}


class SetupError(Exception):
    """The checkout lacks the package or its reference."""


@dataclass
class Env:
    root: Path
    loqec: object
    oracle: object
    scratch: Path


def load_env(root=ROOT):
    """Import ``loqec`` from the checkout's ``src`` and the test oracle beside it."""
    package_dir = root / "src" / "loqec"
    oracle_path = root / "tests" / "_oracle.py"
    for needed in (package_dir / "__init__.py", oracle_path):
        if not needed.is_file():
            raise SetupError(f"{needed.relative_to(root)} not found under {root}")
    sys.path.insert(0, str(root / "src"))
    import loqec
    import loqec.cli

    if Path(loqec.__file__).resolve().parent != package_dir.resolve():
        raise SetupError(f"imported loqec from {loqec.__file__}, not from {package_dir}")
    spec = importlib.util.spec_from_file_location("loqec_oracle", oracle_path)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    scratch = root / ".perfbench_out" / f"scratch-{os.getpid()}"
    return Env(root, loqec, oracle, scratch)


@dataclass
class Tally:
    """What a sequence of calls did: time, work, failures, files written."""

    durations: list = field(default_factory=list)
    items: int = 0
    attempted: int = 0
    failed: int = 0
    max_err: float = 0.0
    files: int = 0
    written_bytes: int = 0
    problems: list = field(default_factory=list)

    def fail(self, what):
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(what)

    def add_checks(self, other):
        """Take over another tally's calls and failures, but not its timings."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.max_err = max(self.max_err, other.max_err)
        self.problems += other.problems


def direct(fn, inp):
    return fn(inp)


def run_one(wl, tally, invoke=direct):
    """Time one call of the workload, then check its result outside the timing."""
    inp = wl.next_input()
    tally.attempted += 1
    start = time.perf_counter()
    try:
        result = invoke(wl.call, inp)
    except Exception as exc:  # a raising call is a failed call, not the end of the run
        tally.durations.append(time.perf_counter() - start)
        tally.fail(f"call raised {exc!r}")
        return
    tally.durations.append(time.perf_counter() - start)
    tally.items += wl.items(inp)
    try:
        err, _ = wl.check(inp, result)
    except Exception as exc:  # Mismatch, or output the check cannot even read
        tally.fail(f"check failed: {exc!r}")
        return
    tally.max_err = max(tally.max_err, err)
    if not err <= PROB_TOL:
        tally.fail(f"probability off its reference by {err:.3g}")
    tally.files += wl.last_files
    tally.written_bytes += wl.last_bytes


def measure(wl, tally, seconds, min_calls, deadline):
    """Call and check for ``seconds`` of wall time and ``min_calls`` calls, but not past ``deadline``."""
    start = time.monotonic()
    while time.monotonic() < deadline:
        if time.monotonic() - start >= seconds and tally.attempted >= min_calls:
            return
        run_one(wl, tally)


def golden_digest(env, name):
    """sha256 over the counts of the first seed-0 calls of a workload."""
    wl = WORKLOADS[name](env, 0)
    digest = hashlib.sha256()
    for _ in range(GOLDEN_CALLS[name]):
        inp = wl.next_input()
        _, counts = wl.check(inp, wl.call(inp))
        digest.update(np.asarray(counts, dtype=np.int64).tobytes())
    return digest.hexdigest()


def check_golden(env, name, tally):
    """Count a drift from the seed commit's counts as one more failed check."""
    if name not in GOLDEN_CALLS:
        return
    expected = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))[name]
    tally.attempted += 1
    try:
        got = golden_digest(env, name)
    except Exception as exc:  # the check itself must report, not crash the run
        tally.fail(f"golden counts raised {exc!r}")
        return
    if got != expected:
        tally.fail(f"seed-0 counts digest {got[:12]} differs from the seed commit's {expected[:12]}")


def setup_probe(env, name, seed):
    """Body of a fresh setup process: inputs, one warm-up call, then report readiness."""
    wl = WORKLOADS[name](env, seed)
    wl.call(wl.next_input())
    print(repr(time.monotonic()), flush=True)


def setup_seconds(name, seed):
    """Fresh process to ready-to-time, as one ``--setup-probe`` child reports it."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", name, "--seed", str(seed)]
    start = time.monotonic()
    probe = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=False)
    if probe.returncode != 0:
        raise SetupError(f"setup probe exited {probe.returncode}: {probe.stderr.strip()}")
    return float(probe.stdout.split()[-1]) - start


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(wl, seed, seconds):
    """Untraced run: (tally, bounded end-to-end metrics, metrics printed only).

    The mean (``items_per_s``), ``call_ms_p50`` and ``call_ms_p75`` are
    printed but not bounded: the host alternates between a fast and a
    slower state for seconds to minutes, the mean and the lower
    percentiles follow the share of the run spent in each, and only the
    90th percentile stays steady from run to run (README.md).
    """
    warm = Tally()
    run_one(wl, warm)
    gc.collect()
    deadline = time.monotonic() + MAX_LOOP_S
    tally = Tally()
    setup = []
    for _ in range(SETUP_REPEATS):
        setup.append(setup_seconds(wl.name, seed))
        measure(wl, tally, seconds / SETUP_REPEATS, 0, deadline)
    measure(wl, tally, 0.0, MIN_CALLS, deadline)
    tally.add_checks(warm)
    p50, p75, p90 = np.percentile(np.asarray(tally.durations) * 1e3, [50, 75, 90])
    bounded = {
        "call_ms_p90": metric(float(p90), "ms"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    printed = {
        "items_per_s": metric(tally.items / sum(tally.durations), "items/s"),
        "call_ms_p50": metric(float(p50), "ms"),
        "call_ms_p75": metric(float(p75), "ms"),
    }
    return tally, bounded, printed


def traced(env, wl, seed, seconds):
    """Alternate untraced and traced calls; the per-layer metrics of the traced ones.

    The untraced calls run with the wrappers in place but switched off, so
    a slow or fast spell of the host affects both kinds alike.
    """
    calls = max(1, round(seconds * wl.trace_calls_per_s))
    warm = Tally()
    run_one(wl, warm)
    plain = Tally()
    tally = Tally()
    tracer = tracing.Tracer()
    with tracing.installed(tracer, env.loqec):
        for _ in range(calls):
            run_one(wl, plain)
            run_one(wl, tally, tracer.call)
    tracing.write_spans(tracer, env.root / ".perfbench_out" / f"trace-{wl.name}.jsonl", wl.name, seed)
    metrics = tracing.layer_metrics(
        tracer, tally.items, sum(plain.durations), tally.files, tally.written_bytes
    )
    tally.add_checks(plain)
    tally.add_checks(warm)
    return tally, metrics


def report(name, tally, metrics, trace, printed):
    """Human-readable lines; every metric with its unit, plus the correctness gate."""
    print(f"workload {name}: {tally.attempted} attempted, {tally.failed} failed, "
          f"fail_ratio {tally.failed / tally.attempted:.6g} ratio, "
          f"max_abs_err {tally.max_err:.3g} probability")
    for problem in tally.problems:
        print(f"  FAIL {problem}")
    if trace:
        rows = sorted(
            (k for k in metrics if k.endswith(".self_us_per_item")),
            key=lambda k: -metrics[k]["value"],
        )
        for key in rows:
            span = key[: -len(".self_us_per_item")]
            calls = metrics[f"{span}.calls_per_item"]["value"]
            print(f"  {span:42s} {metrics[key]['value']:12.3f} us/item  {calls:10.4g} calls/item")
        for key in sorted(k for k in metrics if k not in rows and not k.endswith(".calls_per_item")):
            print(f"  {key} = {metrics[key]['value']:.6g} {metrics[key]['unit']}")
    else:
        for key, m in {**printed, **metrics}.items():
            print(f"  {key} = {m['value']:.6g} {m['unit']}")
        print(f"  percentiles rest on {len(tally.durations)} timed calls")


def run_all(args):
    """Every workload in its own process, one after the other."""
    results, code = {}, 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, capture_output=True, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(child.stderr)
        if child.returncode == 2 or not lines:
            return 2
        results[name] = json.loads(lines[-1])
        code = max(code, child.returncode)
    print(json.dumps(results))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    try:
        env = load_env()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.setup_probe:
            setup_probe(env, args.workload, args.seed)
            return 0
        wl = WORKLOADS[args.workload](env, args.seed)
        printed = {}
        if args.trace:
            tally, metrics = traced(env, wl, args.seed, args.seconds)
        else:
            tally, metrics, printed = end_to_end(wl, args.seed, args.seconds)
        check_golden(env, args.workload, tally)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(env.scratch, ignore_errors=True)
    report(args.workload, tally, metrics, args.trace, printed)
    correct = tally.failed == 0 and tally.max_err <= PROB_TOL
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
