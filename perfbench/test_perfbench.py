"""Tests of the benchmark itself: smoke runs, span arithmetic, gates, counters.

Run with ``python3 -m pytest perfbench``.
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def env():
    env = run.load_env()
    yield env
    shutil.rmtree(env.scratch, ignore_errors=True)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_of_each_workload_passes_its_gates(env, name):
    wl = workloads.WORKLOADS[name](env, 11)
    tally = run.Tally()
    run.measure(wl, tally, 0.0, 2, run.time.monotonic() + 60)
    assert (tally.attempted, tally.failed, tally.problems) == (2, 0, [])
    assert tally.items > 0 and len(tally.durations) == 2
    assert tally.max_err <= workloads.PROB_TOL
    run.check_golden(env, name, tally)
    assert tally.failed == 0, tally.problems


def test_command_prints_every_end_to_end_metric():
    argv = [sys.executable, str(HERE / "run.py"), "--workload", "hom_scan",
            "--seed", "4", "--seconds", "0.01", "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=170, check=False)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > run.MIN_CALLS
    expected = {m["name"]: m["unit"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "fail_ratio 0 ratio" in done.stdout and "max_abs_err" in done.stdout
    for name in ("items_per_s", "call_ms_p50", "call_ms_p75", *expected):
        assert f"  {name} = " in done.stdout


def test_command_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "perfbench/run.py", "--workload", "config_grid",
            "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_self_time_subtracts_direct_children_only():
    # Fields: name, parent index, call index, start ns, end ns, raised.
    spans = [
        ["call", -1, 0, 0, 100, False],
        ["a", 0, 0, 10, 60, False],
        ["b", 1, 0, 20, 30, False],
        ["b", 1, 0, 35, 50, True],
        ["c", 0, 0, 70, 90, False],
    ]
    assert tracing.self_times(spans) == [30, 25, 10, 15, 20]
    assert sum(tracing.self_times(spans)) == 100
    assert tracing.summarize(spans) == {
        "call": [1, 30, 0], "a": [1, 25, 0], "b": [2, 25, 1], "c": [1, 20, 0],
    }


def test_traced_self_times_add_up_to_the_traced_wall_time(env):
    wl = workloads.WORKLOADS["cli_manifests"](env, 2)
    tally, metrics = run.traced(env, wl, 2, 0.2)
    assert tally.failed == 0
    values = {k: v["value"] for k, v in metrics.items()}
    own = sum(v for k, v in values.items() if k.endswith(".self_us_per_item"))
    total = own + values["trace.outside_us_per_item"]
    assert total == pytest.approx(values["trace.wall_us_per_item"], rel=1e-9)
    shares = sum(values[f"{m}.self_share"] for m in tracing.SPANS)
    assert shares <= 1.0 and shares == pytest.approx(own / values["trace.wall_us_per_item"], rel=1e-9)
    for label in (tracing.span_label(m, q) for m, names in tracing.SPANS.items() for q in names):
        assert f"{label}.calls_per_item" in values and f"{label}.self_us_per_item" in values
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in declared}
    assert values["cli.main.calls_per_item"] == 1.0
    assert values["cli.files_written_per_item"] == 2.5
    assert values["trace.overhead_ratio"] > 0


def test_tracing_is_removed_after_the_run(env):
    before = (env.loqec.run_experiment, env.loqec.experiment.analyzer_curve,
              env.loqec.SinglePhotonState.projection_probability, run.np.random.Philox)
    with tracing.installed(tracing.Tracer(), env.loqec):
        assert env.loqec.experiment.analyzer_curve is not before[1]
    after = (env.loqec.run_experiment, env.loqec.experiment.analyzer_curve,
             env.loqec.SinglePhotonState.projection_probability, run.np.random.Philox)
    assert after == before


def test_a_removed_function_reads_as_zero_calls(env, monkeypatch):
    monkeypatch.delattr(env.loqec.experiment, "fit_malus")
    tracer = tracing.Tracer()
    with tracing.installed(tracer, env.loqec):
        tracer.call(env.loqec.hom_scan, (0.0, 1e-12), 1e-12)
    metrics = tracing.layer_metrics(tracer, 2, 1.0, 0, 0)
    assert metrics["experiment.fit_malus.calls_per_item"]["value"] == 0
    assert metrics["experiment.hom_scan.calls_per_item"]["value"] == 0.5


class _Perturbed:
    """A workload whose call result is altered before the gate sees it."""

    def __init__(self, wl, alter):
        self.wl, self.alter = wl, alter
        self.last_files = self.last_bytes = 0

    def __getattr__(self, name):
        return getattr(self.wl, name)

    def call(self, inp):
        return self.alter(self.wl.call(inp))


def _with_curve(result, **changes):
    return dataclasses.replace(result, d1_d3=dataclasses.replace(result.d1_d3, **changes))


@pytest.mark.parametrize("name", ["dense_sweep", "config_grid"])
def test_gate_fails_a_perturbed_probability(env, name):
    def alter(result):
        p = list(result.d1_d3.probabilities)
        p[7] += 1e-9
        return _with_curve(result, probabilities=tuple(p))

    tally = run.Tally()
    run.run_one(_Perturbed(workloads.WORKLOADS[name](env, 5), alter), tally)
    assert tally.failed == 1 and tally.max_err > workloads.PROB_TOL


def test_gate_fails_a_nan_probability(env):
    def alter(result):
        p = list(result.d1_d2.probabilities)
        p[0] = float("nan")
        return dataclasses.replace(
            result, d1_d2=dataclasses.replace(result.d1_d2, probabilities=tuple(p))
        )

    tally = run.Tally()
    run.run_one(_Perturbed(workloads.WORKLOADS["config_grid"](env, 5), alter), tally)
    assert tally.failed == 1 and "non-finite" in tally.problems[0]


@pytest.mark.parametrize("name", ["dense_sweep", "config_grid"])
def test_gate_fails_a_perturbed_count(env, name):
    def alter(result):
        counts = list(result.d1_d3.counts)
        counts[3] += 1
        return _with_curve(result, counts=tuple(counts))

    tally = run.Tally()
    run.run_one(_Perturbed(workloads.WORKLOADS[name](env, 5), alter), tally)
    assert tally.failed == 1 and "counts differ" in tally.problems[0]


def test_gate_fails_a_perturbed_probability_on_the_hom_scan(env):
    def alter(result):
        point = dataclasses.replace(result.points[10], p_coincidence=result.points[10].p_coincidence + 1e-9)
        return dataclasses.replace(result, points=result.points[:10] + (point,) + result.points[11:])

    tally = run.Tally()
    run.run_one(_Perturbed(workloads.WORKLOADS["hom_scan"](env, 5), alter), tally)
    assert tally.failed == 1 and tally.max_err > workloads.PROB_TOL


def test_gate_fails_a_perturbed_count_in_a_written_file(env):
    wl = workloads.WORKLOADS["cli_manifests"](env, 5)
    inp = wl.next_input()
    result = wl.call(inp)
    _, _, _, directory = inp[0]
    path = directory / "sweep.csv"
    lines = path.read_text().splitlines()
    fields = lines[4].split(",")
    fields[-1] = str(int(fields[-1]) + 1)
    lines[4] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(workloads.Mismatch, match="counts"):
        wl.check(inp, result)


def test_golden_check_fails_on_a_changed_digest(env, tmp_path, monkeypatch):
    golden = json.loads((HERE / "golden.json").read_text())
    golden["config_grid"] = "0" * 64
    (tmp_path / "golden.json").write_text(json.dumps(golden))
    monkeypatch.setattr(run, "HERE", tmp_path)
    tally = run.Tally()
    run.check_golden(env, "config_grid", tally)
    assert (tally.attempted, tally.failed) == (1, 1) and "digest" in tally.problems[0]


def test_traced_counters_repeat_exactly(env):
    def counters():
        out = {}
        for name, seconds in (("dense_sweep", 0.5), ("config_grid", 0.2)):
            wl = workloads.WORKLOADS[name](env, 9)
            _, metrics = run.traced(env, wl, 9, seconds)
            out[name] = {k: v["value"] for k, v in metrics.items()
                         if k.endswith("_per_item") and "self_us" not in k and "wall_us" not in k
                         and "outside_us" not in k}
        return out

    first, second = counters(), counters()
    assert first == second
    assert first["dense_sweep"]["numpy.random.Philox.inits_per_item"] == 2
    assert first["config_grid"]["numpy.random.Philox.inits_per_item"] == 38
