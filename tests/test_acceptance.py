"""End-to-end acceptance checks, one printed verdict line per check.

Each test exercises a headline behavior of the bench at its stated
tolerance and prints ``[PASS]``/``[FAIL]`` with a short label, bypassing
output capture so the verdicts show up in any pytest run.
"""
import math
import time

import numpy as np
import pytest

from _oracle import element_transfer, expand_two_photon, hom_coincidence
from _states import pair_terms
from loqec import (
    PATH_A,
    PATH_B,
    PATH_D,
    ExperimentConfig,
    LinearElement,
    ModeLabel,
    Polarization,
    TwoPhotonState,
    WiringConfig,
    apply_element,
    apply_feedforward,
    bs5050,
    encode_qubit,
    hom_scan,
    hwp,
    pbs,
    pockels,
    rewire,
    run_analytic,
    sample_counts,
    z_measure,
)

R = 1.0 / math.sqrt(2.0)


@pytest.fixture
def verdict(capfd):
    def emit(label, ok, detail=""):
        line = f"[{'PASS' if ok else 'FAIL'}] {label}"
        if detail and not ok:
            line += f": {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, f"{label} ({detail})" if detail else label

    return emit


def bench(**overrides):
    settings = {"qubit_hwp_angle": 22.5, "overlap_v": 0.922}
    settings.update(overrides)
    return ExperimentConfig(**settings)


def test_encoder_code_words_at_half_probability(verdict):
    key_hh = (ModeLabel(PATH_A, Polarization.H, 0), ModeLabel(PATH_B, Polarization.H, 0))
    key_vv = (ModeLabel(PATH_A, Polarization.V, 0), ModeLabel(PATH_B, Polarization.V, 0))
    start = time.perf_counter()
    worst = 0.0
    for phi_deg in range(-90, 91, 5):
        phi = math.radians(phi_deg)
        alpha, beta = math.cos(phi), math.sin(phi)
        state, p = encode_qubit(alpha, beta)
        worst = max(worst, abs(p - 0.5))
        scale = 1.0 / math.sqrt(p)
        worst = max(worst, abs(scale * state.amplitude(*key_hh) - (alpha + beta) * R))
        worst = max(worst, abs(scale * state.amplitude(*key_vv) - (alpha - beta) * R))
        stray = sum(abs(a) for k, a in pair_terms(state).items() if k not in (key_hh, key_vv))
        worst = max(worst, stray)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    verdict(
        "encoder: code words at exactly half probability",
        ok,
        f"max deviation {worst:.3g}, {elapsed:.2f}s",
    )


def test_visibility_tracks_overlap_with_45_degree_phases(verdict):
    uncorrected = run_analytic(bench(pc_enabled=False))
    corrected = run_analytic(bench(pc_enabled=True))
    checks = (
        (uncorrected.d1_d2.visibility - 0.922, 0.001),
        (uncorrected.d1_d3.visibility - 0.922, 0.001),
        (corrected.d1_d3.visibility - 0.922, 0.001),
        (uncorrected.d1_d2.fit.phase_deg - 45.0, 0.1),
        (uncorrected.d1_d3.fit.phase_deg + 45.0, 0.1),
        (corrected.d1_d3.fit.phase_deg - 45.0, 0.1),
    )
    worst = max(abs(dev) / tol for dev, tol in checks)
    verdict(
        "analyzer curves: visibility 0.922, phases +45/-45/+45",
        worst <= 1.0,
        f"worst deviation at {worst:.3g}x tolerance",
    )


def test_distinguishable_photons_flatten_the_curves(verdict):
    uncorrected = run_analytic(bench(overlap_v=0.0, pc_enabled=False))
    corrected = run_analytic(bench(overlap_v=0.0, pc_enabled=True))
    worst = max(
        uncorrected.d1_d2.visibility,
        uncorrected.d1_d3.visibility,
        corrected.d1_d3.visibility,
    )
    verdict(
        "analyzer curves: flat at zero overlap",
        worst < 1e-10,
        f"largest residual visibility {worst:.3g}",
    )


def test_output_rewiring_leaves_curves_unchanged(verdict):
    worst = 0.0
    for pc_enabled in (False, True):
        direct = run_analytic(bench(wiring=WiringConfig.A_TO_C_B_TO_D, pc_enabled=pc_enabled))
        swapped = run_analytic(bench(wiring=WiringConfig.A_TO_D_B_TO_C, pc_enabled=pc_enabled))
        for a, b in zip(direct.d1_d2.probabilities, swapped.d1_d2.probabilities):
            worst = max(worst, abs(a - b))
        for a, b in zip(direct.d1_d3.probabilities, swapped.d1_d3.probabilities):
            worst = max(worst, abs(a - b))
    verdict(
        "output rewiring leaves both curves unchanged",
        worst <= 1e-12,
        f"max pointwise gap {worst:.3g}",
    )


def test_flat_admixture_pins_visibility_at_any_overlap(verdict):
    worst = 0.0
    for overlap_v in (0.0, 0.5, 1.0):
        result = run_analytic(
            bench(qubit_hwp_angle=0.0, overlap_v=overlap_v, imperfection_eps=0.018)
        )
        worst = max(worst, abs(result.d1_d2.visibility - 0.982))
        worst = max(worst, abs(result.d1_d3.visibility - 0.982))
    verdict(
        "flat admixture: visibility 0.982 at any overlap",
        worst <= 0.001,
        f"max deviation {worst:.3g}",
    )


def test_cardinal_fidelity_is_one_plus_v_over_two(verdict):
    worst = 0.0
    for overlap_v in (0.0, 0.25, 0.5, 0.922, 1.0):
        for angle in (22.5, -22.5):
            result = run_analytic(bench(qubit_hwp_angle=angle, overlap_v=overlap_v))
            worst = max(worst, abs(result.fidelity - 0.5 * (1.0 + overlap_v)))
    verdict(
        "cardinal fidelity equals (1 + v) / 2",
        worst <= 1e-9,
        f"max deviation {worst:.3g}",
    )


def _dip_probability_by_expansion(delay, sigma):
    """Coincidence after delay + 50/50 splitter via the permanent oracle."""
    ratio = delay / sigma
    v = math.exp(-0.5 * ratio * ratio)
    w = math.sqrt(max(0.0, 1.0 - v * v))
    in1, in2, out1, out2 = "P", "Q", "S", "T"
    h = Polarization.H
    start = {(ModeLabel(in1, h, 0), ModeLabel(in2, h, 0)): 1.0 + 0j}
    shift = {
        ModeLabel(in1, h, 0): {ModeLabel(in1, h, 0): v, ModeLabel(in1, h, 1): w},
        ModeLabel(in1, h, 1): {ModeLabel(in1, h, 0): -w, ModeLabel(in1, h, 1): v},
    }
    shifted = expand_two_photon(start, shift)
    labels = sorted({l for key in shifted for l in key})
    split = expand_two_photon(shifted, element_transfer(bs5050(in1, in2, out1, out2), labels))
    return sum(
        abs(amp) ** 2 for (l1, l2), amp in split.items() if {l1.path, l2.path} == {out1, out2}
    )


def test_two_photon_dip_follows_the_gaussian_overlap(verdict):
    sigma = 1e-12
    delays = sorted(set(np.linspace(-5.0 * sigma, 5.0 * sigma, 41)) | {0.0, 10.0 * sigma})
    result = hom_scan(delays, sigma)
    by_delay = {point.delay: point.p_coincidence for point in result.points}
    worst = max(
        max(
            abs(point.p_coincidence - hom_coincidence(point.delay, sigma)),
            abs(point.p_coincidence - _dip_probability_by_expansion(point.delay, sigma)),
        )
        for point in result.points
    )
    ok = by_delay[0.0] <= 1e-12 and abs(by_delay[10.0 * sigma] - 0.5) <= 1e-6 and worst <= 1e-12
    verdict(
        "two-photon dip follows the Gaussian overlap",
        ok,
        f"p(0)={by_delay[0.0]:.3g}, max oracle gap {worst:.3g}",
    )


def test_count_sampling_is_unbiased_and_repeatable(verdict):
    probabilities = np.full(10000, 0.5)
    start = time.perf_counter()
    first = sample_counts(probabilities, 2000.0, 1.0, 123)
    second = sample_counts(probabilities, 2000.0, 1.0, 123)
    elapsed = time.perf_counter() - start
    mean_dev = abs(float(first.mean()) - 1000.0)
    bound = 5.0 * math.sqrt(1000.0 / 10000.0)
    ok = mean_dev <= bound and first.tobytes() == second.tobytes() and elapsed < 10.0
    verdict(
        "count sampling: unbiased mean, identical reruns",
        ok,
        f"mean off by {mean_dev:.3g} (bound {bound:.3g}), {elapsed:.2f}s",
    )


def _random_state(rng, paths):
    labels = []
    for path in paths:
        for pol in Polarization:
            for temporal in (0, 1):
                labels.append(ModeLabel(path, pol, temporal))
    terms = {}
    for _ in range(int(rng.integers(1, 4))):
        l1, l2 = (labels[int(i)] for i in rng.integers(0, len(labels), size=2))
        key = (l1, l2) if l1 <= l2 else (l2, l1)
        terms[key] = complex(rng.normal(), rng.normal())
    norm = math.sqrt(sum(abs(a) ** 2 for a in terms.values()))
    scale = float(rng.uniform(0.5, 1.0)) / norm
    return TwoPhotonState.from_terms({k: a * scale for k, a in terms.items()}, paths=paths)


def _random_element(rng, paths):
    kind = int(rng.integers(0, 5 if len(paths) >= 4 else 3))
    if kind == 0:
        return hwp(float(rng.uniform(-90.0, 90.0)), paths[int(rng.integers(0, len(paths)))])
    if kind == 1:
        return pockels(paths[int(rng.integers(0, len(paths)))], active=True)
    if kind == 2:
        span = paths[: int(rng.integers(1, 3))]
        channels = tuple((p, pol) for p in span for pol in Polarization)
        raw = rng.normal(size=(len(channels),) * 2) + 1j * rng.normal(size=(len(channels),) * 2)
        return LinearElement("random", channels, np.linalg.qr(raw)[0])
    ports = [paths[int(i)] for i in rng.choice(len(paths), size=4, replace=False)]
    maker = pbs if kind == 3 else bs5050
    return maker(*ports)


def test_element_algebra_matches_the_permanent_expansion(verdict):
    rng = np.random.default_rng(20260822)
    pool = ("P", "Q", "R", "S", "T", "U")
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        paths = pool[: int(rng.integers(2, 7))]
        state = _random_state(rng, paths)
        element = _random_element(rng, paths)
        out = apply_element(state, element)
        worst = max(worst, abs(out.norm_squared - state.norm_squared))
        terms = pair_terms(state)
        labels = sorted({l for key in terms for l in key})
        expected = expand_two_photon(terms, element_transfer(element, labels))
        for key in set(pair_terms(out)) | set(expected):
            worst = max(worst, abs(out.amplitude(*key) - expected.get(key, 0j)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 30.0
    verdict(
        "element algebra matches the permanent expansion",
        ok,
        f"max deviation {worst:.3g} over 1000 cases, {elapsed:.1f}s",
    )


def test_branch_and_discard_probabilities_sum_to_one(verdict):
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        phi = math.radians(float(rng.uniform(-90.0, 90.0)))
        alpha, beta = math.cos(phi), math.sin(phi)
        overlap_v = float(rng.uniform(0.0, 1.0))
        wiring = list(WiringConfig)[int(rng.integers(0, 2))]
        pc_enabled = bool(rng.integers(0, 2))

        state, p_success = encode_qubit(alpha, beta, overlap_v)
        branches = z_measure(rewire(state, wiring), PATH_D)
        branches = apply_feedforward(branches, pc_enabled)
        total = sum(branch.probability for branch in branches) + (1.0 - p_success)
        worst = max(worst, abs(total - 1.0))

        result = run_analytic(
            ExperimentConfig(
                qubit_hwp_angle=float(rng.uniform(-90.0, 90.0)),
                overlap_v=overlap_v,
                imperfection_eps=float(rng.uniform(0.0, 1.0)),
                wiring=wiring,
                pc_enabled=pc_enabled,
            )
        )
        worst = max(worst, abs(result.success_probability + result.discarded_probability - 1.0))
    verdict(
        "probabilities: branches plus discards sum to one",
        worst <= 1e-10,
        f"max deviation {worst:.3g}",
    )
