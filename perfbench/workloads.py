"""The four benchmark workloads: inputs, the timed call, and its correctness gate.

Every workload draws its inputs from one seeded generator, so a seed fixes
the whole input sequence.  The package only ever sees the generated inputs.
Each ``check`` compares a result with a reference that shares no code with
the package: probabilities with the closed forms in ``tests/_oracle.py``,
Poisson counts with :func:`reference_counts`.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
import shutil
import zlib

import numpy as np

#: Largest deviation from the closed-form reference a probability may show.
PROB_TOL = 1e-12
#: The dense analyzer grid: -90 to 90 degrees in 0.1 degree steps.
DENSE_THETAS = tuple((i - 900) / 10 for i in range(1801))
#: Shipped manifests the CLI workload runs, with the format each one writes.
MANIFESTS = (("bench_sweep.json", "csv"), ("triplet.json", "json"))

_SQRT_HALF = math.sqrt(0.5)


class Mismatch(Exception):
    """A result that disagrees with its reference."""


def reference_counts(probabilities, pair_rate, duration, seed, stream):
    """Poisson counts as the package drew them at the seed commit.

    Point ``i`` draws once from a fresh Philox generator keyed by the seed
    with counter ``[0, i, stream, 0]``.  Shipped counts must stay
    byte-identical, so any other sampler has to reproduce this one.
    """
    key = int(seed) & (2**64 - 1)
    means = float(pair_rate) * float(duration) * np.asarray(probabilities, dtype=float)
    return tuple(
        int(np.random.Generator(np.random.Philox(key=key, counter=[0, i, stream, 0])).poisson(m))
        for i, m in enumerate(means)
    )


def max_deviation(got, ref):
    """Largest ``|got - ref|``; a NaN or infinite value is a mismatch, not a small error."""
    deviations = [abs(g - r) for g, r in zip(got, ref)]
    if not all(math.isfinite(d) for d in deviations):
        raise Mismatch(f"non-finite value among {tuple(got)[:3]}...")
    return max(deviations, default=0.0)


def sweep_reference(oracle, config):
    """Closed-form heralded curves (D1-D2, D1-D3) for an experiment config."""
    two_w = math.radians(2.0 * config.qubit_hwp_angle)
    c, s = math.cos(two_w), math.sin(two_w)
    # The wave plate turns |H> into (c, s); |0>, |1> are the +45/-45 states.
    alpha, beta = (c + s) * _SQRT_HALF, (c - s) * _SQRT_HALF

    def curve(outcome, corrected):
        def point(theta):
            return oracle.curve_formula(alpha, beta, config.overlap_v, theta, outcome, corrected)

        mean = 0.5 * (point(0.0) + point(90.0))
        return [oracle.admixed(point(t), mean, config.imperfection_eps) for t in config.thetas]

    return curve(0, False), curve(1, config.pc_enabled)


def check_sweep(oracle, config, result):
    """Gate one ``run_experiment`` result; returns (max probability error, counts)."""
    ref_d2, ref_d3 = sweep_reference(oracle, config)
    err = 0.0
    counts = []
    for stream, curve, ref in ((0, result.d1_d2, ref_d2), (1, result.d1_d3, ref_d3)):
        if len(curve.probabilities) != len(ref):
            raise Mismatch(f"curve has {len(curve.probabilities)} points, expected {len(ref)}")
        err = max(err, max_deviation(curve.probabilities, ref))
        expected = reference_counts(
            curve.probabilities, config.pair_rate, config.duration, config.seed, stream
        )
        got = tuple(int(c) for c in curve.counts or ())
        if got != expected:
            raise Mismatch(f"stream {stream} counts differ from the seed-commit sampler")
        counts.extend(got)
    return err, tuple(counts)


class Workload:
    """Base: one seeded input stream, one timed call per input, one gate per call."""

    name: str
    #: Calls per second of ``--seconds`` a traced run makes, a fixed count so
    #: that its counters repeat exactly for one seed.
    trace_calls_per_s: float

    def __init__(self, env, seed):
        self.loqec = env.loqec
        self.oracle = env.oracle
        self.env = env
        self.rng = np.random.default_rng([seed, zlib.crc32(self.name.encode())])
        #: Files and bytes the last checked call wrote.
        self.last_files = 0
        self.last_bytes = 0

    def _counting_seed(self):
        return int(self.rng.integers(2**63))

    def next_input(self):
        raise NotImplementedError

    def items(self, inp):
        raise NotImplementedError

    def call(self, inp):
        raise NotImplementedError

    def check(self, inp, result):
        """Return (max probability error, counts); raise :class:`Mismatch` on a wrong result."""
        raise NotImplementedError


class DenseSweep(Workload):
    name = "dense_sweep"
    trace_calls_per_s = 1.5

    def next_input(self):
        r = self.rng
        return self.loqec.ExperimentConfig(
            qubit_hwp_angle=float(r.uniform(-45.0, 45.0)),
            overlap_v=float(r.uniform(0.0, 1.0)),
            imperfection_eps=(0.0, 0.05)[int(r.integers(2))],
            pc_enabled=bool(r.integers(2)),
            wiring=list(self.loqec.WiringConfig)[int(r.integers(2))],
            thetas=DENSE_THETAS,
            seed=self._counting_seed(),
        )

    def items(self, inp):
        return len(inp.thetas)

    def call(self, inp):
        return self.loqec.run_experiment(inp)

    def check(self, inp, result):
        return check_sweep(self.oracle, inp, result)


class ConfigGrid(DenseSweep):
    name = "config_grid"
    trace_calls_per_s = 100.0

    def __init__(self, env, seed):
        super().__init__(env, seed)
        r = self.rng
        self.grid = list(
            itertools.product(
                r.uniform(-45.0, 45.0, 5).tolist(),
                r.uniform(0.0, 1.0, 5).tolist(),
                (0.0, 0.05),
                (False, True),
                tuple(self.loqec.WiringConfig),
            )
        )
        self.order = []

    def next_input(self):
        if not self.order:
            self.order = self.rng.permutation(len(self.grid)).tolist()
        hwp_angle, overlap_v, eps, pc_enabled, wiring = self.grid[self.order.pop()]
        return self.loqec.ExperimentConfig(
            qubit_hwp_angle=hwp_angle,
            overlap_v=overlap_v,
            imperfection_eps=eps,
            pc_enabled=pc_enabled,
            wiring=wiring,
            seed=self._counting_seed(),
        )

    def items(self, inp):
        return 1


class HomScan(Workload):
    name = "hom_scan"
    trace_calls_per_s = 30.0

    def next_input(self):
        r = self.rng
        sigma = float(10.0 ** r.uniform(-12.5, -11.5))
        # An offset that is no multiple of 0.05 coherence times keeps every
        # delay/sigma ratio distinct from its mirror image.
        offset = float(r.uniform(0.005, 0.045)) * (1.0, -1.0)[int(r.integers(2))]
        return tuple(sigma * (offset + k / 10) for k in range(-30, 31)), sigma

    def items(self, inp):
        return len(inp[0])

    def call(self, inp):
        return self.loqec.hom_scan(*inp)

    def check(self, inp, result):
        delays, sigma = inp
        if len(result.points) != len(delays):
            raise Mismatch(f"scan has {len(result.points)} points, expected {len(delays)}")
        for point, tau in zip(result.points, delays):
            if point.delay != tau:
                raise Mismatch(f"scan point at delay {point.delay!r}, expected {tau!r}")
        got = [point.p_coincidence for point in result.points]
        return max_deviation(got, [self.oracle.hom_coincidence(t, sigma) for t in delays]), ()


def _manifest_configs(loqec, document, seed):
    """(run name, config) pairs a sweep manifest describes, with the seed overridden."""
    if "experiment" in document:
        runs = [("sweep", document["experiment"])]
    else:
        runs = [(run["name"], run["experiment"]) for run in document["runs"]]
    jobs = []
    for name, section in runs:
        kwargs = dict(section, seed=seed)
        thetas = kwargs.get("thetas")
        if isinstance(thetas, dict):
            start, stop, step = thetas["start"], thetas["stop"], thetas["step"]
            count = math.floor((stop - start) / step + 1e-9) + 1
            kwargs["thetas"] = tuple(start + i * step for i in range(count))
        jobs.append((name, loqec.ExperimentConfig(**kwargs)))
    return jobs


def _written_rows(directory, name, fmt):
    """Data rows of one run as written by ``run-sweep``, as dicts of floats."""
    if fmt == "csv":
        with open(directory / f"{name}.csv", newline="", encoding="utf-8") as handle:
            return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(handle)]
    with open(directory / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)["rows"]


class CliManifests(Workload):
    name = "cli_manifests"
    trace_calls_per_s = 12.0

    def __init__(self, env, seed):
        super().__init__(env, seed)
        self.manifests = []
        for filename, fmt in MANIFESTS:
            path = env.root / "scripts" / "manifests" / filename
            self.manifests.append((path, fmt, json.loads(path.read_text(encoding="utf-8"))))
        self.passes = 0

    def next_input(self):
        """One pass: an invocation per shipped manifest, each with a fresh seed and directory."""
        self.passes += 1
        invocations = []
        for path, fmt, document in self.manifests:
            seed = int(self.rng.integers(2**31))
            directory = self.env.scratch / f"pass-{self.passes}-{path.stem}"
            argv = [
                "run-sweep", "--config", str(path), "--seed", str(seed),
                "--output", str(directory), "--quiet",
            ]
            invocations.append((argv, fmt, _manifest_configs(self.loqec, document, seed), directory))
        return invocations

    def items(self, inp):
        return len(inp)

    def call(self, inp):
        return [self.loqec.cli.main(argv) for argv, *_ in inp]

    def check(self, inp, result):
        self.last_files = self.last_bytes = 0
        err = 0.0
        counts = []
        try:
            for (argv, fmt, jobs, directory), code in zip(inp, result):
                if code != 0:
                    raise Mismatch(f"loqec {' '.join(argv)} exited with {code!r}")
                files = [p for p in directory.rglob("*") if p.is_file()]
                self.last_files += len(files)
                self.last_bytes += sum(p.stat().st_size for p in files)
                for name, config in jobs:
                    run_err, run_counts = _check_written(self.loqec, self.oracle, directory, name, fmt, config)
                    err = max(err, run_err)
                    counts.extend(run_counts)
            return err, tuple(counts)
        finally:
            for _, _, _, directory in inp:
                shutil.rmtree(directory, ignore_errors=True)


def _check_written(loqec, oracle, directory, name, fmt, config):
    """Compare one written run with the same config run through the Python API."""
    api = loqec.run_experiment(config)
    err, _ = check_sweep(oracle, config, api)
    rows = _written_rows(directory, name, fmt)
    if len(rows) != len(config.thetas):
        raise Mismatch(f"{name}: {len(rows)} rows, expected {len(config.thetas)}")
    counts = []
    for i, row in enumerate(rows):
        expected = (config.thetas[i], api.d1_d2.probabilities[i], api.d1_d3.probabilities[i])
        got = (row["theta_deg"], row["p_d1_d2"], row["p_d1_d3"])
        if max_deviation(got, expected) > PROB_TOL:
            raise Mismatch(f"{name} row {i}: {got} differs from the API's {expected}")
        row_counts = (int(row["counts_d1_d2"]), int(row["counts_d1_d3"]))
        if row_counts != (api.d1_d2.counts[i], api.d1_d3.counts[i]):
            raise Mismatch(f"{name} row {i}: counts {row_counts} differ from the API's")
        counts.extend(row_counts)
    return err, counts


WORKLOADS = {w.name: w for w in (DenseSweep, ConfigGrid, HomScan, CliManifests)}
