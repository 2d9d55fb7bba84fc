"""Unit tests for the sweep pipeline, fitting, sampling, and HOM scans."""
import dataclasses
import hashlib
import itertools
import math
import os
import pathlib
import platform
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import types
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracle import curve_formula, encoder_branch_states, encoder_curve, hom_coincidence
from loqec import (
    DEFAULT_THETAS,
    PATH_C,
    PATH_D,
    ExperimentConfig,
    FitError,
    MalusFit,
    ModeLabel,
    Polarization,
    SinglePhotonSpec,
    SinglePhotonState,
    ValidationError,
    WiringConfig,
    apply_element,
    apply_feedforward,
    coincidence_postselect,
    computational_jones,
    encode_qubit,
    fit_malus,
    hom_scan,
    hwp,
    pockels,
    product_state,
    rewire,
    run_analytic,
    run_experiment,
    sample_counts,
    visibility,
    z_measure,
)
from loqec import experiment
from loqec.detection import _pass_probabilities, analyzer_probabilities
from loqec.elements import _hwp_image_of_h
from loqec.errors import as_integer, as_real_array
from loqec.experiment import _POISSON_MEAN_MAX, _philox_words, _ptrs_try

R = 1.0 / math.sqrt(2.0)

#: 64-bit words: any integer, or the word whose 53-bit double is a float in [0, 1).
WORDS = st.integers(0, 2**64 - 1) | st.floats(0.0, 1.0, exclude_max=True).map(
    lambda x: int(x * 2**53) << 11
)

#: Seeds and streams at the edges of a Philox word.
EDGE_WORDS = [0, 1, 2**63, 2**64 - 1]

#: The 181-angle grid, one degree apart.
GRID_181 = tuple(float(t) for t in range(-90, 91))

#: The dense config whose counts ``test_dense_grid_counts_are_pinned`` pins.
PINNED_DENSE_CONFIG = ExperimentConfig(
    qubit_hwp_angle=22.5, overlap_v=0.922, imperfection_eps=0.03,
    thetas=tuple((i - 900) / 10 for i in range(1801)), pair_rate=2500.0, duration=30.0,
    seed=4242,
)


def label(path, pol, temporal=0):
    return ModeLabel(path, Polarization(pol), temporal)


def fresh_poisson(seed, index, stream, mean):
    """The draw of a fresh Philox with key ``seed`` at counter ``[0, index, stream, 0]``.

    The counter is a uint64 array: a list holding a word of 2**63 or more
    goes through float64 in ``Philox(counter=...)`` and loses bits.
    """
    counter = np.array([0, index, stream, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=seed, counter=counter)).poisson(mean)


def fresh_counts(means, seed, stream):
    """:func:`fresh_poisson` of every point of the ``(k, n)`` ``means``, row ``r`` on ``stream + r``."""
    return [
        [fresh_poisson(seed, i, stream + r, mean) for i, mean in enumerate(row)]
        for r, row in enumerate(means.tolist())
    ]


def in_fresh_thread(work, timeout=60.0):
    """``work()``'s result, run in a new thread, which has built no generator yet."""
    out = {}

    def target():
        try:
            out["value"] = work()
        except BaseException as error:  # re-raised in the calling thread
            out["error"] = error

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive()
    if "error" in out:
        raise out["error"]
    return out["value"]


def coefficients_after_hwp(angle_deg):
    w = math.radians(angle_deg)
    jones = (math.cos(2 * w), math.sin(2 * w))
    return (jones[0] + jones[1]) * R, (jones[0] - jones[1]) * R


class TestExperimentConfig:
    def test_defaults_are_valid(self):
        config = ExperimentConfig()
        assert config.thetas == DEFAULT_THETAS
        assert config.wiring is WiringConfig.A_TO_C_B_TO_D

    def test_wiring_accepts_strings(self):
        config = ExperimentConfig(wiring="A:D,B:C")
        assert config.wiring is WiringConfig.A_TO_D_B_TO_C

    @pytest.mark.parametrize("field,value", [
        ("overlap_v", 1.2),
        ("overlap_v", -0.1),
        ("imperfection_eps", 2.0),
        ("pair_rate", -1.0),
        ("duration", -0.5),
        ("thetas", ()),
        ("qubit_hwp_angle", math.nan),
        ("qubit_hwp_angle", math.inf),
        ("thetas", (0.0, math.nan)),
        ("thetas", (-math.inf, 10.0)),
        ("pair_rate", 1e30),
        ("seed", -1),
        ("seed", 2**64),
    ])
    def test_out_of_range_fields_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("seed", 1.5),
        ("seed", True),
        ("seed", math.nan),
        ("seed", "3"),
        ("pc_enabled", "no"),
        ("pc_enabled", 1),
        ("overlap_v", "x"),
        ("overlap_v", True),
        ("pair_rate", None),
        ("thetas", 5.0),
        ("thetas", (0.0, "10")),
    ])
    def test_values_of_the_wrong_type_rejected_not_aliased(self, field, value):
        with pytest.raises(ValidationError, match=field):
            ExperimentConfig(**{field: value})

    def test_numpy_scalars_accepted(self):
        config = ExperimentConfig(
            seed=np.uint64(2**64 - 1), pc_enabled=np.bool_(False), overlap_v=np.float32(0.5)
        )
        assert (config.seed, config.pc_enabled, config.overlap_v) == (2**64 - 1, False, 0.5)
        assert type(config.seed) is int and type(config.pc_enabled) is bool


class TestEncodeQubit:
    def test_zero_input_makes_the_correlated_code_word(self):
        state, p = encode_qubit(1.0, 0.0)
        assert p == pytest.approx(0.5, abs=1e-12)
        normalization = math.sqrt(p)
        assert state.amplitude(label("A", "H"), label("B", "H")) / normalization == pytest.approx(R, abs=1e-12)
        assert state.amplitude(label("A", "V"), label("B", "V")) / normalization == pytest.approx(R, abs=1e-12)

    def test_one_input_makes_the_anticorrelated_code_word(self):
        state, p = encode_qubit(0.0, 1.0)
        normalization = math.sqrt(p)
        assert state.amplitude(label("A", "H"), label("B", "H")) / normalization == pytest.approx(R, abs=1e-12)
        assert state.amplitude(label("A", "V"), label("B", "V")) / normalization == pytest.approx(-R, abs=1e-12)

    def test_plus_input_is_a_product_of_h_photons(self):
        """alpha = beta reduces to both photons horizontal: no entanglement."""
        state, p = encode_qubit(R, R)
        assert p == pytest.approx(0.5, abs=1e-12)
        assert state.amplitude(label("A", "H"), label("B", "H")) == pytest.approx(
            math.sqrt(0.5), abs=1e-12
        )
        assert state.amplitude(label("A", "V"), label("B", "V")) == pytest.approx(0.0, abs=1e-12)

    def test_unnormalized_input_rejected(self):
        with pytest.raises(ValidationError):
            encode_qubit(1.0, 0.5)

    def test_overlap_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            encode_qubit(1.0, 0.0, overlap_v=1.5)

    @pytest.mark.parametrize("alpha,beta,overlap_v", [
        (math.nan, 0.0, 1.0),
        (1.0, math.inf, 1.0),
        (1.0, 0.0, math.nan),
    ])
    def test_non_finite_inputs_rejected(self, alpha, beta, overlap_v):
        with pytest.raises(ValidationError):
            encode_qubit(alpha, beta, overlap_v)

    @pytest.mark.parametrize("overlap_v", ["x", "0.5", True])
    def test_non_number_overlap_named(self, overlap_v):
        with pytest.raises(ValidationError, match="overlap_v must be a real number"):
            encode_qubit(1.0, 0.0, overlap_v)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-90, 90, allow_nan=False), st.floats(0, 1, allow_nan=False))
    def test_success_probability_is_half_for_any_setting(self, angle, overlap_v):
        alpha, beta = coefficients_after_hwp(angle)
        _, p = encode_qubit(alpha, beta, overlap_v)
        assert p == pytest.approx(0.5, abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(
        st.floats(0.0, 90.0, allow_nan=False),
        st.floats(-180.0, 180.0, allow_nan=False),
        st.floats(-180.0, 180.0, allow_nan=False),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0, allow_nan=False)),
    )
    def test_photon_wise_encoder_equals_the_congruence(self, angle, phase_a, phase_b, overlap_v):
        """The encoder is the chain ``product_state``, the PBS's congruence
        ``apply_element`` and ``coincidence_postselect``, bit for bit."""
        from loqec import experiment

        alpha = complex(math.cos(math.radians(angle))) * np.exp(1j * math.radians(phase_a))
        beta = complex(math.sin(math.radians(angle))) * np.exp(1j * math.radians(phase_b))
        zero, one = computational_jones(0), computational_jones(1)
        qubit = SinglePhotonSpec(
            "qubit-in", (alpha * zero[0] + beta * one[0], alpha * zero[1] + beta * one[1])
        )
        ancilla = SinglePhotonSpec("ancilla-in", zero)
        pair = product_state(qubit, ancilla, math.sqrt(overlap_v), ("A", "B"))
        want, want_p = coincidence_postselect(apply_element(pair, experiment._ENCODER_PBS))
        got, got_p = encode_qubit(alpha, beta, overlap_v)
        assert got == want
        assert got.matrix.tobytes() == want.matrix.tobytes()
        assert float(got_p).hex() == float(want_p).hex()

    def test_distinguishable_photons_tag_the_reflected_component(self):
        state, _ = encode_qubit(1.0, 0.0, overlap_v=0.0)
        # Transmitted-qubit term stays on temporal 0; the ancilla photon
        # accompanying it carries index 1.
        assert abs(state.amplitude(label("A", "H", 0), label("B", "H", 1))) == pytest.approx(
            0.5, abs=1e-12
        )
        assert state.amplitude(label("A", "H", 0), label("B", "H", 0)) == 0


class TestRunAnalytic:
    def test_ideal_visibilities_and_phases(self):
        result = run_analytic(ExperimentConfig(qubit_hwp_angle=22.5))
        assert result.d1_d2.visibility == pytest.approx(1.0, abs=1e-9)
        assert result.d1_d3.visibility == pytest.approx(1.0, abs=1e-9)
        assert result.d1_d2.fit.phase_deg == pytest.approx(45.0, abs=1e-9)
        assert result.d1_d3.fit.phase_deg == pytest.approx(45.0, abs=1e-9)
        assert result.fidelity == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("pc_enabled", [False, True])
    def test_flat_curves_report_zero_phase(self, pc_enabled):
        """At zero overlap both curves are flat; their fitted amplitude is
        rounding noise, which must not be reported as a phase."""
        result = run_analytic(ExperimentConfig(overlap_v=0.0, pc_enabled=pc_enabled))
        for curve in (result.d1_d2, result.d1_d3):
            assert curve.fit.amplitude <= 1e-12 * curve.fit.offset
            assert curve.fit.phase_deg == 0.0

    def test_uncorrected_transmit_curve_is_phase_flipped(self):
        result = run_analytic(ExperimentConfig(qubit_hwp_angle=22.5, pc_enabled=False))
        assert result.d1_d2.fit.phase_deg == pytest.approx(45.0, abs=1e-9)
        assert result.d1_d3.fit.phase_deg == pytest.approx(-45.0, abs=1e-9)

    @pytest.mark.parametrize("overlap_v", [0.0, 0.25, 0.5, 0.922, 1.0])
    def test_visibility_equals_the_overlap(self, overlap_v):
        result = run_analytic(ExperimentConfig(qubit_hwp_angle=22.5, overlap_v=overlap_v))
        assert result.d1_d2.visibility == pytest.approx(overlap_v, abs=1e-9)
        assert result.d1_d3.visibility == pytest.approx(overlap_v, abs=1e-9)

    def test_curves_match_the_branch_enumeration_oracle(self):
        angle, overlap_v = 17.0, 0.37
        config = ExperimentConfig(qubit_hwp_angle=angle, overlap_v=overlap_v, pc_enabled=False)
        result = run_analytic(config)
        alpha, beta = coefficients_after_hwp(angle)
        u = math.sqrt(overlap_v)
        for i, theta in enumerate(config.thetas):
            assert result.d1_d2.probabilities[i] == pytest.approx(
                encoder_curve(alpha, beta, u, theta, 0), abs=1e-12
            )
            assert result.d1_d3.probabilities[i] == pytest.approx(
                encoder_curve(alpha, beta, u, theta, 1), abs=1e-12
            )

    def test_background_admixture_scales_visibility(self):
        eps = 0.018
        result = run_analytic(
            ExperimentConfig(qubit_hwp_angle=22.5, overlap_v=1.0, imperfection_eps=eps)
        )
        assert result.d1_d2.visibility == pytest.approx(1.0 - eps, abs=1e-9)

    def test_horizontal_input_fringes_survive_distinguishability(self):
        """An equator input keeps full visibility at any photon overlap."""
        for overlap_v in (0.0, 0.3, 1.0):
            result = run_analytic(ExperimentConfig(qubit_hwp_angle=0.0, overlap_v=overlap_v))
            assert result.d1_d2.visibility == pytest.approx(1.0, abs=1e-9)
            assert result.d1_d3.visibility == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("overlap_v", [0.0, 0.5, 0.922, 1.0])
    def test_heralded_fidelity_law(self, overlap_v):
        for angle in (22.5, -22.5):
            result = run_analytic(
                ExperimentConfig(qubit_hwp_angle=angle, overlap_v=overlap_v)
            )
            assert result.fidelity == pytest.approx((1 + overlap_v) / 2, abs=1e-9)
            assert result.fidelity_fit == pytest.approx((1 + overlap_v) / 2, abs=1e-9)

    @pytest.mark.parametrize("angle,expected,tol", [(0.0, 1.0, 1e-12), (10.0, 0.983886, 1e-6)])
    def test_fidelity_holds_away_from_45_degree_inputs(self, angle, expected, tol):
        """An |H> input (0 degrees) survives a 0.922 overlap untouched."""
        result = run_analytic(ExperimentConfig(qubit_hwp_angle=angle, overlap_v=0.922))
        assert result.fidelity == pytest.approx(expected, abs=tol)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(-90, 90, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
        st.booleans(),
        st.sampled_from(list(WiringConfig)),
    )
    def test_fidelity_is_the_input_weight_of_the_heralded_state(
        self, angle, overlap_v, pc_enabled, wiring
    ):
        config = ExperimentConfig(
            qubit_hwp_angle=angle, overlap_v=overlap_v, pc_enabled=pc_enabled, wiring=wiring
        )
        alpha, beta = coefficients_after_hwp(angle)
        w = math.radians(angle)
        psi = np.array([math.cos(2 * w), math.sin(2 * w)])
        rho = np.zeros((2, 2), dtype=complex)
        for branch in encoder_branch_states(alpha, beta, math.sqrt(overlap_v), 0).values():
            for t in {analyzer_t for _, analyzer_t in branch}:
                v = np.array([branch.get(("H", t), 0j), branch.get(("V", t), 0j)])
                rho += np.outer(v, v.conj())
        expected = (psi @ rho @ psi).real / np.trace(rho).real
        assert run_analytic(config).fidelity == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(-360, 360, allow_nan=False),
        st.one_of(st.just(1.0), st.floats(0, 1, allow_nan=False)),
        st.one_of(st.just(0.0), st.floats(0, 1, allow_nan=False)),
        st.booleans(),
        st.sampled_from(list(WiringConfig)),
    )
    @example(22.5, 1.0, 0.0, True, WiringConfig.A_TO_C_B_TO_D)
    def test_fidelities_lie_in_the_unit_interval(self, angle, overlap_v, eps, pc_enabled, wiring):
        """Rounding put the ideal run's fidelity at 1 + 2**-52; both are clamped."""
        result = run_analytic(ExperimentConfig(
            qubit_hwp_angle=angle, overlap_v=overlap_v, imperfection_eps=eps,
            pc_enabled=pc_enabled, wiring=wiring,
        ))
        assert 0.0 <= result.fidelity <= 1.0
        assert 0.0 <= result.fidelity_fit <= 1.0

    def test_wiring_swap_leaves_statistics_unchanged(self):
        for pc_enabled in (False, True):
            straight = run_analytic(
                ExperimentConfig(qubit_hwp_angle=33.0, overlap_v=0.7, pc_enabled=pc_enabled)
            )
            crossed = run_analytic(
                ExperimentConfig(
                    qubit_hwp_angle=33.0,
                    overlap_v=0.7,
                    pc_enabled=pc_enabled,
                    wiring=WiringConfig.A_TO_D_B_TO_C,
                )
            )
            for a, b in zip(straight.d1_d2.probabilities, crossed.d1_d2.probabilities):
                assert b == pytest.approx(a, abs=1e-12)
            for a, b in zip(straight.d1_d3.probabilities, crossed.d1_d3.probabilities):
                assert b == pytest.approx(a, abs=1e-12)

    def test_success_probability_recorded(self):
        result = run_analytic(ExperimentConfig(qubit_hwp_angle=70.0, overlap_v=0.2))
        assert result.success_probability == pytest.approx(0.5, abs=1e-12)
        assert result.discarded_probability == pytest.approx(0.5, abs=1e-12)

    def test_fit_recovers_model_output_everywhere(self):
        """Noiseless curves fit back to their generating parameters."""
        config = ExperimentConfig(qubit_hwp_angle=22.5, overlap_v=0.6)
        result = run_analytic(config)
        fit = result.d1_d2.fit
        for i, theta in enumerate(config.thetas):
            model = fit.offset + fit.amplitude * math.cos(
                2 * math.radians(theta - fit.phase_deg)
            )
            assert model == pytest.approx(result.d1_d2.probabilities[i], abs=1e-9)

    @pytest.mark.parametrize("angle, overlap_v, eps, pc_enabled, wiring, thetas", [
        (22.5, 1.0, 0.0, True, WiringConfig.A_TO_C_B_TO_D, DEFAULT_THETAS),
        (17.0, 0.37, 0.05, False, WiringConfig.A_TO_D_B_TO_C, DEFAULT_THETAS),
        (70.0, 0.0, 1.0, True, WiringConfig.A_TO_C_B_TO_D, GRID_181),
        (-33.3, 0.922, 0.03, True, WiringConfig.A_TO_D_B_TO_C, PINNED_DENSE_CONFIG.thetas),
        (0.0, 1.0, 0.05, False, WiringConfig.A_TO_C_B_TO_D, GRID_181),
        (45.0, 0.5, 1.0, False, WiringConfig.A_TO_D_B_TO_C, (-7.0, 3.25, 88.0)),
    ], ids=["ideal", "eps-0.05", "eps-1-v-0", "dense", "h-input", "eps-1-random-grid"])
    def test_float_algebra_has_the_numpy_expressions_bytes(
        self, angle, overlap_v, eps, pc_enabled, wiring, thetas
    ):
        """The sweep's 2-vectors, herald weights and flat-background mix,
        done in Python floats, give the bytes the numpy expressions give."""
        config = ExperimentConfig(
            qubit_hwp_angle=angle, overlap_v=overlap_v, imperfection_eps=eps,
            pc_enabled=pc_enabled, wiring=wiring, thetas=thetas,
        )
        assert repr(sweep_summary(run_analytic(config))) == repr(numpy_algebra(config))

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-360.0, 360.0, allow_nan=False),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0, allow_nan=False)),
        st.one_of(st.sampled_from([0.0, 0.05, 1.0]), st.floats(0.0, 1.0, allow_nan=False)),
        st.booleans(),
        st.sampled_from(list(WiringConfig)),
    )
    def test_float_algebra_matches_numpy_on_random_configs(
        self, angle, overlap_v, eps, pc_enabled, wiring
    ):
        config = ExperimentConfig(
            qubit_hwp_angle=angle, overlap_v=overlap_v, imperfection_eps=eps,
            pc_enabled=pc_enabled, wiring=wiring,
        )
        assert repr(sweep_summary(run_analytic(config))) == repr(numpy_algebra(config))


def sweep_summary(result):
    """What of a sweep's result the herald algebra decides."""
    return (
        result.d1_d2.probabilities, result.d1_d3.probabilities,
        result.d1_d2.fit, result.d1_d3.fit,
        result.success_probability.hex(), result.discarded_probability.hex(),
        result.fidelity.hex(),
    )


def numpy_algebra(config):
    """:func:`sweep_summary` of ``config``'s sweep with its 2-vector and
    2x2 algebra done in numpy arrays, as the sweep's float algebra stands for."""
    psi = np.array(_hwp_image_of_h(config.qubit_hwp_angle))
    v = config.overlap_v
    c = (psi[:, None] * (math.sqrt(v), math.sqrt(1.0 - v))).reshape(4)
    form = experiment._HERALD_FORMS[config.pc_enabled]
    coherency = ((c[:, None] * c)[..., None, None, None] * form).sum(axis=(0, 1))
    weights = coherency[:, 0, 0] + coherency[:, 1, 1]
    p_success = float(weights.sum())
    eps = config.imperfection_eps
    coherency = (1.0 - eps) * coherency + eps * 0.5 * weights[:, None, None] * np.eye(2)
    c_trig, s_trig, solver = experiment._grid_tables(config.thetas)
    curves = _pass_probabilities(coherency, c_trig, s_trig)
    fit_d2, fit_d3 = experiment._fits(solver, curves)
    fidelity = float(psi @ coherency[0] @ psi / weights[0])
    p_d2, p_d3 = (tuple(p) for p in curves.tolist())
    return (
        p_d2, p_d3, fit_d2, fit_d3,
        p_success.hex(), (1.0 - p_success).hex(), min(max(fidelity, 0.0), 1.0).hex(),
    )


def direct_chain(config):
    """Curves, success probability and fidelity of ``config``, computed
    through a two-photon state of its own, as the herald forms replace."""
    w = math.radians(config.qubit_hwp_angle)
    psi = np.array([math.cos(2.0 * w), math.sin(2.0 * w)])
    alpha, beta = (psi[0] + psi[1]) * R, (psi[0] - psi[1]) * R
    state, p_success = encode_qubit(alpha, beta, config.overlap_v)
    survivor = z_measure(rewire(state, config.wiring), PATH_D)
    coherency = apply_feedforward(survivor, config.pc_enabled).coherency().sum(axis=1)
    weights = np.trace(coherency, axis1=1, axis2=2).real
    eps = config.imperfection_eps
    coherency = (1.0 - eps) * coherency + eps * 0.5 * weights[:, None, None] * np.eye(2)
    curves = analyzer_probabilities(coherency, config.thetas)
    fidelity = float((psi @ coherency[0] @ psi).real / weights[0])
    return curves, p_success, min(max(fidelity, 0.0), 1.0)


def basis_survivors(wiring):
    """The four survivors of ``wiring`` that its herald forms stand for, each
    through the encoder, the wiring and the Z measurement on arm D: the qubit
    on H then V, each with the ancilla on temporal index 0 then 1."""
    return [
        z_measure(rewire(experiment._encode(jones, overlap)[0], wiring), PATH_D)
        for jones in ((1.0, 0.0), (0.0, 1.0))
        for overlap in (1.0, 0.0)
    ]


class TestSurvivorBasis:
    """A sweep config reads both heralds off forms built once, from one
    wiring's survivors of four basis inputs, that serve both wirings."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.floats(-360, 360, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
        st.booleans(),
        st.sampled_from(list(WiringConfig)),
    )
    @example(22.5, 0.0, 0.0, True, WiringConfig.A_TO_C_B_TO_D)
    @example(-31.0, 1.0, 0.05, False, WiringConfig.A_TO_D_B_TO_C)
    def test_results_equal_the_direct_chain(self, angle, overlap_v, eps, pc_enabled, wiring):
        config = ExperimentConfig(
            qubit_hwp_angle=angle, overlap_v=overlap_v, imperfection_eps=eps,
            pc_enabled=pc_enabled, wiring=wiring,
        )
        result = run_analytic(config)
        curves, p_success, fidelity = direct_chain(config)
        got = np.array((result.d1_d2.probabilities, result.d1_d3.probabilities))
        assert np.abs(got - curves).max() <= 1e-15
        assert abs(result.success_probability - p_success) <= 1e-15
        assert abs(result.fidelity - fidelity) <= 1e-15

    def test_a_sweep_builds_no_two_photon_state(self, monkeypatch):
        """Nor a single-photon state: both heralds are read off a herald form."""
        def forbid(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} was called")
            return call

        modules = [m for n, m in sys.modules.items() if n == "loqec" or n.startswith("loqec.")]
        for name in (
            "product_state", "coincidence_postselect", "relabel_paths", "z_measure",
            "apply_feedforward", "analyzer_curve", "SinglePhotonState",
        ):
            for module in modules:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbid(name))
        with pytest.raises(AssertionError, match="product_state was called"):
            encode_qubit(1.0, 0.0)
        for wiring in WiringConfig:
            for pc_enabled in (False, True):
                result = run_experiment(ExperimentConfig(
                    qubit_hwp_angle=17.0, overlap_v=0.6, imperfection_eps=0.1,
                    pc_enabled=pc_enabled, wiring=wiring,
                ))
                assert result.success_probability == pytest.approx(0.5, abs=1e-12)

    def test_each_pockels_setting_has_a_read_only_herald_form(self):
        assert set(experiment._HERALD_FORMS) == {False, True}
        for form in experiment._HERALD_FORMS.values():
            assert form.shape == (4, 4, 2, 2, 2)
            assert form.dtype == np.float64
            assert np.array_equal(form, form.swapaxes(0, 1))
            assert not form.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                form[0, 0, 0, 0, 0] = 1.0

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.floats(-1, 1, allow_nan=False), min_size=4, max_size=4),
        st.booleans(),
        st.sampled_from(list(WiringConfig)),
    )
    @example([1.0, 0.0, 0.0, 0.0], True, WiringConfig.A_TO_C_B_TO_D)
    @example([0.6, -0.8, 0.0, 0.0], False, WiringConfig.A_TO_D_B_TO_C)
    def test_a_herald_form_gives_the_survivors_coherency(self, c, pc_enabled, wiring):
        survivors = basis_survivors(wiring)
        basis = np.array([survivor.vector for survivor in survivors])
        vector = (np.reshape(c, (4, 1, 1, 1)) * basis).sum(axis=0)
        survivor = SinglePhotonState(survivors[0].paths, vector)
        expected = apply_feedforward(survivor, pc_enabled).coherency().sum(axis=1).real
        form = experiment._HERALD_FORMS[pc_enabled]
        got = (np.multiply.outer(c, c)[..., None, None, None] * form).sum(axis=(0, 1))
        assert np.abs(got - expected).max() <= 1e-15

    def test_each_wirings_forms_are_the_shipped_bytes(self, monkeypatch):
        """The fiber swap is a pure path relabelling: each wiring's own chain
        of four survivors builds the forms that the sweep reads for both."""
        survivors = []
        measure = experiment.z_measure
        monkeypatch.setattr(
            experiment, "z_measure", lambda *args: survivors.append(measure(*args)) or survivors[-1]
        )
        for wiring in WiringConfig:
            survivors.clear()
            forms = experiment._herald_forms(wiring)
            assert len(survivors) == 4
            for survivor in survivors:
                assert survivor.paths == ("qubit-in", "ancilla-in", "C")
                assert survivor.vector.shape == (2, 2, 12)
            assert set(forms) == {False, True}
            for pc_enabled, form in forms.items():
                shipped = experiment._HERALD_FORMS[pc_enabled]
                assert (form.shape, form.dtype) == (shipped.shape, shipped.dtype)
                assert form.tobytes() == shipped.tobytes()
                assert not form.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    form[0, 0, 0, 0, 0] = 1.0

    @pytest.mark.parametrize("wiring", list(WiringConfig))
    def test_the_cell_makes_d3_carry_d2s_channel_exactly(self, wiring):
        """The paper's correction at the level of the forms, with D2 at
        herald 0 and D3 at herald 1: with the cell on both heralds carry the
        same channel, byte for byte; with it off D3's form is D2's under
        the cell's flip ``P``.  Each basis survivor's heralds share 1/2."""
        forms = experiment._herald_forms(wiring)
        flip = pockels(PATH_C, active=True).matrix.real
        on, off = forms[True], forms[False]
        assert on[:, :, 0].tobytes() == on[:, :, 1].tobytes()
        flipped = np.einsum("ai,klij,bj->klab", flip, off[:, :, 0], flip)
        assert np.array_equal(flipped, off[:, :, 1])
        assert not np.array_equal(off[:, :, 0], off[:, :, 1])
        for form in (off, on):
            for k in range(4):
                assert np.trace(form[k, k, 0]) + np.trace(form[k, k, 1]) == 0.5


class TestRunExperiment:
    def test_counts_attach_to_both_curves(self):
        config = ExperimentConfig(qubit_hwp_angle=22.5, pair_rate=500.0, duration=10.0, seed=3)
        result = run_experiment(config)
        assert result.d1_d2.counts is not None
        assert result.d1_d3.counts is not None
        assert len(result.d1_d2.counts) == len(config.thetas)

    def test_runs_are_reproducible(self):
        config = ExperimentConfig(qubit_hwp_angle=22.5, seed=99)
        first = run_experiment(config)
        second = run_experiment(config)
        assert first == second

    def test_seed_changes_counts(self):
        base = ExperimentConfig(qubit_hwp_angle=22.5, seed=1)
        other = dataclasses.replace(base, seed=2)
        assert run_experiment(base).d1_d2.counts != run_experiment(other).d1_d2.counts

    def test_curve_streams_are_decorrelated(self):
        """Equal probability grids must not produce equal count records."""
        config = ExperimentConfig(qubit_hwp_angle=22.5, seed=5)
        result = run_experiment(config)
        assert result.d1_d2.probabilities == result.d1_d3.probabilities
        assert result.d1_d2.counts != result.d1_d3.counts

    @pytest.mark.parametrize("pc_enabled", [True, False])
    @pytest.mark.parametrize("angle", [22.5, -22.5, 81.1])
    def test_blocked_analyzer_angles_sample_without_error(self, angle, pc_enabled):
        """Where the analyzer blocks a pure survivor, rounding must not go below zero."""
        blocked = 2 * angle + 90.0
        thetas = (-45.0, 0.0, 30.0, 45.0, 60.0, 135.0, blocked, blocked - 180.0, blocked + 360.0)
        config = ExperimentConfig(
            qubit_hwp_angle=angle, overlap_v=1.0, pc_enabled=pc_enabled, thetas=thetas
        )
        result = run_experiment(config)
        assert min(result.d1_d2.probabilities + result.d1_d3.probabilities) >= 0.0

    def test_zero_duration_gives_zero_counts(self):
        config = ExperimentConfig(qubit_hwp_angle=22.5, duration=0.0)
        result = run_experiment(config)
        assert set(result.d1_d2.counts) == {0}
        assert set(result.d1_d3.counts) == {0}

    def test_counts_equal_one_sampler_call_per_curve(self):
        config = ExperimentConfig(qubit_hwp_angle=12.0, overlap_v=0.6, seed=2**64 - 1)
        result = run_experiment(config)
        for stream, curve in enumerate((result.d1_d2, result.d1_d3)):
            alone = sample_counts(curve.probabilities, 1000.0, 60.0, 2**64 - 1, stream=stream)
            assert curve.counts == tuple(alone.tolist())

    def test_dense_grid_counts_are_pinned(self):
        """Both curves' counts on a 1801-angle grid, pinned by sha256: every
        point index up to 1800 on streams 0 and 1.  The digest was taken
        from the sampler that set a freshly built state dict per point."""
        thetas = tuple((i - 900) / 10 for i in range(1801))
        config = ExperimentConfig(
            qubit_hwp_angle=22.5, overlap_v=0.922, imperfection_eps=0.03, thetas=thetas,
            pair_rate=2500.0, duration=30.0, seed=4242,
        )
        result = run_experiment(config)
        text = "".join(f"{a},{b}\n" for a, b in zip(result.d1_d2.counts, result.d1_d3.counts))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "a9cab33bc44f53581efc676006372f8ad5218307f49d335572b9f845c35edc01"
        )

    @pytest.mark.parametrize("thetas", [
        DEFAULT_THETAS, tuple(float(t) for t in range(-90, 91)),
    ], ids=["default-grid", "181-angles"])
    def test_one_philox_per_thread(self, monkeypatch, thetas):
        """A thread's first counted run builds its one generator through
        ``np.random.Philox``, looked up then, so a rebound attribute sees it;
        later runs in that thread, and runs in a thread that has its
        generator, build none.  Every run has the unpatched run's counts."""
        config = ExperimentConfig(qubit_hwp_angle=30.0, thetas=thetas, seed=4)
        want = run_experiment(config)
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(args)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)

        def runs():
            first = run_experiment(config)
            inits = len(built)
            return first, inits, [run_experiment(config) for _ in range(3)]

        first, inits, later = in_fresh_thread(runs)
        assert first == want and later == [want] * 3
        assert inits == 1 and len(built) == 1
        assert run_experiment(config) == want
        assert len(built) == 1

    def test_a_counted_sweep_does_not_recheck_its_config(self, monkeypatch):
        """The config checks its exposure and seed, and the readout's curves
        lie in [0, 1], so no counted sweep runs the sampler's checks again;
        a public ``sample_counts`` call still runs each of them."""
        from loqec import experiment

        rng = np.random.default_rng(10)
        configs = [
            ExperimentConfig(
                qubit_hwp_angle=angle, overlap_v=overlap_v, pc_enabled=bool(index % 2),
                seed=int(seed),
            )
            for index, (angle, overlap_v, seed) in enumerate(
                rng.uniform([-90.0, 0.0, 0.0], [90.0, 1.0, 2.0**63], size=(200, 3))
            )
        ]
        checks = []
        for name in ("as_real_array", "check_unit_interval", "_exposure", "_check_word"):

            def spy(*args, _name=name, _check=getattr(experiment, name), **kwargs):
                if _name != "as_real_array" or args[1] == "probabilities":
                    checks.append(_name)
                return _check(*args, **kwargs)

            monkeypatch.setattr(experiment, name, spy)
        for config in configs:
            assert run_experiment(config).d1_d2.counts is not None
        assert checks == []
        sample_counts([[0.1, 0.2], [0.3, 0.4]], 1000.0, 60.0, seed=1)
        assert sorted(checks) == [
            "_check_word", "_check_word", "_exposure", "as_real_array", "check_unit_interval",
        ]

    @settings(max_examples=80, deadline=None)
    @given(
        wiring=st.sampled_from(list(WiringConfig)),
        pc_enabled=st.booleans(),
        eps=st.sampled_from([0.0, 0.05, 1.0]),
        overlap_v=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        angle=st.floats(-360.0, 360.0),
        thetas=st.sampled_from([
            DEFAULT_THETAS,
            tuple(float(t) for t in range(-90, 91)),
            (-7.0, 3.5, 3.5, 41.0, 88.0, 130.0),
        ]),
        seed=st.sampled_from([0, 2**64 - 1]),
        pair_rate=st.one_of(st.floats(0.0, 1e4), st.floats(0.0, _POISSON_MEAN_MAX)),
        duration=st.sampled_from([0.0, 0.25, 1.0, 60.0]),
    )
    @example(
        wiring=WiringConfig.A_TO_C_B_TO_D, pc_enabled=True, eps=0.0, overlap_v=1.0, angle=22.5,
        thetas=DEFAULT_THETAS, seed=2**64 - 1, pair_rate=_POISSON_MEAN_MAX, duration=1.0,
    )
    def test_counts_are_those_of_sample_counts(
        self, wiring, pc_enabled, eps, overlap_v, angle, thetas, seed, pair_rate, duration
    ):
        """A sweep's counts have the bytes of one public ``sample_counts``
        call on its own probabilities, D1-D2 on stream 0, D1-D3 on stream 1."""
        if pair_rate * duration > _POISSON_MEAN_MAX:
            # Exact for these durations: (max / d) * d rounds back to max.
            pair_rate = _POISSON_MEAN_MAX / duration
        config = ExperimentConfig(
            qubit_hwp_angle=angle, wiring=wiring, overlap_v=overlap_v, imperfection_eps=eps,
            pc_enabled=pc_enabled, thetas=thetas, pair_rate=pair_rate, duration=duration,
            seed=seed,
        )
        result = run_experiment(config)
        curves = [result.d1_d2.probabilities, result.d1_d3.probabilities]
        want = sample_counts(curves, pair_rate, duration, seed)
        counts = (result.d1_d2.counts, result.d1_d3.counts)
        assert all(type(n) is int for row in counts for n in row)
        assert np.array(counts, dtype=np.int64).tobytes() == want.tobytes()


class TestSampleCounts:
    def test_zero_probability_draws_zero(self):
        counts = sample_counts([0.0, 0.0], 1000.0, 60.0, seed=4)
        assert counts.tolist() == [0, 0]

    def test_same_seed_same_bytes(self):
        a = sample_counts([0.1, 0.2, 0.3], 1000.0, 60.0, seed=11)
        b = sample_counts([0.1, 0.2, 0.3], 1000.0, 60.0, seed=11)
        assert a.tobytes() == b.tobytes()

    def test_streams_are_independent_draws(self):
        a = sample_counts([0.25] * 8, 1000.0, 60.0, seed=11, stream=0)
        b = sample_counts([0.25] * 8, 1000.0, 60.0, seed=11, stream=1)
        assert a.tolist() != b.tolist()

    def test_point_order_does_not_matter(self):
        """Each grid point owns its counter, so a permuted grid permutes
        counts instead of reshuffling them."""
        forward = sample_counts([0.1, 0.4], 1000.0, 60.0, seed=8)
        prefix = sample_counts([0.1], 1000.0, 60.0, seed=8)
        assert forward[0] == prefix[0]

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            sample_counts([1.5], 100.0, 1.0, seed=0)
        with pytest.raises(ValidationError):
            sample_counts([-0.1], 100.0, 1.0, seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_probability_named(self, bad):
        message = rf"probabilities\[1\] must lie in \[0, 1\], got {bad!r}$"
        with pytest.raises(ValidationError, match=message):
            sample_counts([0.5, bad], 100.0, 1.0, seed=0)

    @pytest.mark.parametrize("seed", [1.0, True, "7", math.nan])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValidationError, match="seed must be an integer"):
            sample_counts([0.5], 100.0, 1.0, seed=seed)

    @pytest.mark.parametrize("stream, message", [
        (1.5, "stream must be an integer"),
        ("1", "stream must be an integer"),
        (True, "stream must be an integer"),
        (None, "stream must be an integer"),
        (math.nan, "stream must be an integer"),
        (-1, r"stream must lie in \[0, 2\*\*64\), got -1"),
        (2**64, r"stream must lie in \[0, 2\*\*64\), got 18446744073709551616"),
        (10**5000, "stream must lie in .* got a 16610-bit integer"),
    ], ids=["float", "str", "bool", "None", "nan", "negative", "2**64", "10**5000"])
    def test_bad_stream_rejected(self, stream, message):
        with pytest.raises(ValidationError, match=message):
            sample_counts([0.5], 1000.0, 60.0, seed=5, stream=stream)

    @pytest.mark.parametrize("stream", [0, 1, 2**63, 2**63 + 1, 2**64 - 1])
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_counts_equal_one_keyed_philox_per_point(self, seed, stream):
        """Point ``i`` draws from ``Philox(key=seed)`` at counter ``[0, i, stream, 0]``.

        The means straddle numpy's switch of Poisson method at 10 and reach
        the largest mean the exposure check lets through.
        """
        rate = 9.2e18
        p = np.array([0.0, 1e-3, 9.99, 10.0, 1e3, 9.2e18]) / rate
        means = rate * 1.0 * p
        reference = [
            np.random.Generator(np.random.Philox(
                key=seed, counter=np.array([0, i, stream, 0], dtype=np.uint64)
            )).poisson(mean)
            for i, mean in enumerate(means)
        ]
        assert sample_counts(p, rate, 1.0, seed, stream=stream).tolist() == reference

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4).flatmap(lambda k: st.integers(1, 40).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.one_of(
                        st.sampled_from([0.0, 9.99, 10.0, 10.01, _POISSON_MEAN_MAX]),
                        st.floats(0.0, 30.0),
                        st.floats(0.0, _POISSON_MEAN_MAX),
                    ),
                    min_size=n, max_size=n,
                ),
                min_size=k, max_size=k,
            )
        )),
        st.one_of(st.sampled_from([0, 1, 2**64 - 1]), st.integers(0, 2**64 - 1)),
        st.one_of(st.sampled_from([0, 1, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1)),
        st.booleans(),
    )
    def test_each_point_draws_what_a_fresh_philox_draws(self, means, seed, stream, curve):
        """Point ``i`` of row ``r`` draws what a fresh ``Philox`` with key
        ``seed`` and counter ``[0, i, stream + r, 0]`` draws, for one curve
        and for a stack.

        The means straddle numpy's switch of Poisson method at 10 and reach
        the largest mean the exposure check lets through.
        """
        stack = np.array(means) / _POISSON_MEAN_MAX
        p = stack[0] if curve else stack
        rows = np.atleast_2d(p)
        # The last row's stream may reach 2**64 - 1 but not pass it.
        stream = min(stream, 2**64 - len(rows))
        counts = sample_counts(p, _POISSON_MEAN_MAX, 1.0, seed, stream=stream)
        assert counts.shape == p.shape and counts.dtype == np.int64
        drawn = (_POISSON_MEAN_MAX * 1.0 * rows).tolist()
        for r, (row_means, row_counts) in enumerate(zip(drawn, np.atleast_2d(counts).tolist())):
            for i, (mean, count) in enumerate(zip(row_means, row_counts)):
                counter = np.array([0, i, stream + r, 0], dtype=np.uint64)
                fresh = np.random.Generator(np.random.Philox(key=seed, counter=counter))
                assert count == fresh.poisson(mean)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4).flatmap(lambda k: st.integers(0, 6).flatmap(
            lambda n: st.lists(
                st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n), min_size=k, max_size=k
            )
        )),
        st.sampled_from([0, 7, 2**64 - 1]),
        st.one_of(st.sampled_from([0, 1, 2**64 - 4]), st.integers(0, 2**64 - 4)),
    )
    def test_each_row_of_a_stack_is_its_own_stream(self, rows, seed, stream):
        stack = sample_counts(np.array(rows).reshape(len(rows), -1), 1e4, 3.0, seed, stream=stream)
        assert stack.shape == (len(rows), len(rows[0])) and stack.dtype == np.int64
        for r, row in enumerate(rows):
            alone = sample_counts(row, 1e4, 3.0, seed, stream=stream + r)
            assert stack[r].tolist() == alone.tolist()

    def test_a_stack_may_not_run_past_the_last_stream(self):
        curves = [[0.5, 0.25], [0.5, 0.75]]
        top = sample_counts(curves, 1000.0, 60.0, seed=5, stream=2**64 - 2)
        alone = sample_counts(curves[1], 1000.0, 60.0, seed=5, stream=2**64 - 1)
        assert top[1].tolist() == alone.tolist()
        message = r"stream \+ 1 must lie in \[0, 2\*\*64\) for 2 curves, got stream 18446744073709551615"
        with pytest.raises(ValidationError, match=message):
            sample_counts(curves, 1000.0, 60.0, seed=5, stream=2**64 - 1)

    @pytest.mark.parametrize("first", [0.0, 9.5, 9.99, _POISSON_MEAN_MAX],
                             ids=["zero", "9.5", "9.99", "largest"])
    @pytest.mark.parametrize("seed, stream", [(0, 0), (7, 3), (2**64 - 1, 2**64 - 2)])
    def test_a_row_does_not_depend_on_the_row_before(self, first, seed, stream):
        """Row 1 of a stack draws what it draws alone, whatever row 0 left in
        the one generator a thread reuses.  Means just under 10 take numpy's
        multiplication method, which consumes many doubles; a mean of 0
        consumes none; the largest mean takes the rejection method."""
        means = np.array([
            [first] * 6,
            [0.0, 9.99, 3.0, 10.0, 1e6, _POISSON_MEAN_MAX],
        ])
        p = means / _POISSON_MEAN_MAX
        stack = sample_counts(p, _POISSON_MEAN_MAX, 1.0, seed, stream=stream)
        alone = sample_counts(p[1], _POISSON_MEAN_MAX, 1.0, seed, stream=stream + 1)
        assert stack[1].tolist() == alone.tolist()

    def test_other_use_of_the_thread_generator_does_not_carry_over(self):
        """Between two draws the thread's generator serves other work: raw
        words, a 32-bit integer that leaves its other half held
        (``has_uint32``), and a Poisson draw.  The next draws equal the
        earlier ones and the draws of fresh Philox generators."""
        seed = 2**64 - 1
        p = np.array([[0.0, 0.3, 1e-4, 0.9, 0.16], [0.5, 1.0, 0.2, 0.01, 1e-6]])
        config = ExperimentConfig(qubit_hwp_angle=12.0, overlap_v=0.6, seed=seed)
        counts = sample_counts(p, 1000.0, 60.0, seed, stream=5)
        result = run_experiment(config)

        def other_work():
            bit_generator, poisson = experiment._thread_generator()
            bit_generator.random_raw(3)
            np.random.Generator(bit_generator).integers(2**32, dtype=np.uint32)
            assert bit_generator.state["has_uint32"] == 1
            poisson(3.0)

        other_work()
        again = sample_counts(p, 1000.0, 60.0, seed, stream=5)
        assert again.tolist() == counts.tolist() == fresh_counts(1000.0 * 60.0 * p, seed, 5)
        other_work()
        rerun = run_experiment(config)
        assert rerun == result
        curves = np.array([rerun.d1_d2.probabilities, rerun.d1_d3.probabilities])
        counts = [list(rerun.d1_d2.counts), list(rerun.d1_d3.counts)]
        assert counts == fresh_counts(config.pair_rate * config.duration * curves, seed, 0)

    @pytest.mark.parametrize("points", [10, 2 * 300], ids=["small", "dense"])
    @pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
    def test_a_scrambled_thread_generator_draws_fresh_counts(self, seed, points):
        """Whatever key, counter, buffer, held 32-bit half and position the
        thread's generator was left in, every point, through the scalar draw
        or the prefilter, draws what a fresh Philox draws."""
        rng = np.random.default_rng(points)
        p = rng.random((2, points // 2)) ** 4
        p[:, ::7] = 0.0
        bit_generator, _ = experiment._thread_generator()
        bit_generator.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": rng.integers(0, 2**64, 4, dtype=np.uint64),
                "key": rng.integers(0, 2**64, 2, dtype=np.uint64),
            },
            "buffer": rng.integers(0, 2**64, 4, dtype=np.uint64),
            "buffer_pos": 1,
            "has_uint32": 1,
            "uinteger": 12345,
        }
        counts = sample_counts(p, 1000.0, 60.0, seed, stream=2**64 - 2)
        assert counts.tolist() == fresh_counts(1000.0 * 60.0 * p, seed, 2**64 - 2)

    def test_each_thread_keeps_one_generator(self):
        """A thread's generator is the same on every call and is no other thread's."""
        here = experiment._thread_generator()
        assert experiment._thread_generator() is here

        def twice():
            return experiment._thread_generator(), experiment._thread_generator()

        first, second = in_fresh_thread(twice)
        assert first is second
        assert first[0] is not here[0]
        assert experiment._thread_generator() is here

    def test_importing_loqec_does_not_import_numpy_random(self):
        """A thread's generator is built on its first draw, not at import."""
        src = str(pathlib.Path(experiment.__file__).parents[1])
        code = "import sys, loqec; print('numpy.random' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_sweeps_fits_and_the_cli_do_not_import_numpy_ma(self, tmp_path):
        """A grid's distinct angles are counted without ``np.unique``, whose
        masked-array check imports ``numpy.ma`` into the process."""
        src = str(pathlib.Path(experiment.__file__).parents[1])
        manifest = pathlib.Path(__file__).resolve().parents[1] / "scripts/manifests/bench_sweep.json"
        code = "\n".join([
            "import sys",
            "from loqec import ExperimentConfig, fit_malus, run_experiment",
            "from loqec.cli import main",
            "run_experiment(ExperimentConfig())",
            "run_experiment(ExperimentConfig(thetas=tuple(t / 10 for t in range(-900, 901))))",
            "fit_malus([0.0, 45.0, 90.0], [1.0, 0.5, 0.0])",
            "manifest, out = sys.argv[1:]",
            "assert main(['run-sweep', '--config', manifest, '--output', out,"
            " '--format', 'csv', '--quiet']) == 0",
            "assert main(['fit', out + '/sweep.csv', '--quiet']) == 0",
            "print('numpy.ma' in sys.modules)",
        ])
        proc = subprocess.run(
            [sys.executable, "-c", code, str(manifest), str(tmp_path)],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_threads_draw_the_single_thread_counts(self, monkeypatch):
        """Eight threads, more than the cores, switching every microsecond,
        each run counted sweeps on the default and the 1801-angle grid with
        seeds of their own.  Each thread builds its own generator, whose
        draws yield the interpreter between the state reset and the draw, so
        that a generator two threads shared would draw from the other's
        state; every result is the single-thread result."""
        configs = [
            [
                ExperimentConfig(qubit_hwp_angle=7.0 * k, overlap_v=0.8, seed=2**64 - 1 - k),
                dataclasses.replace(PINNED_DENSE_CONFIG, seed=k),
            ]
            for k in range(8)
        ]
        want = [[run_experiment(config) for config in pair] * 3 for pair in configs]
        built = []
        generator = np.random.Generator

        def yielding(bit_generator):
            inner = generator(bit_generator)
            built.append(bit_generator)

            def poisson(mean):
                time.sleep(0)
                return inner.poisson(mean)

            return types.SimpleNamespace(poisson=poisson)

        monkeypatch.setattr(np.random, "Generator", yielding)
        results = [[] for _ in configs]

        def work(pair, out):
            for _ in range(3):
                out.extend(run_experiment(config) for config in pair)

        threads = [threading.Thread(target=work, args=args) for args in zip(configs, results)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == want
        assert len({id(bit_generator) for bit_generator in built}) == len(built) == len(threads)

    def test_a_bad_entry_of_a_stack_is_named(self):
        with pytest.raises(ValidationError, match=r"probabilities\[1\]\[0\] must lie in \[0, 1\]"):
            sample_counts([[0.5, 0.5], [1.5, 0.5]], 100.0, 1.0, seed=0)
        with pytest.raises(ValidationError, match=r"probabilities\[0\]\[1\] must be a real number"):
            sample_counts([[0.5, "x"], [0.5, 0.5]], 100.0, 1.0, seed=0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3).flatmap(lambda k: st.integers(1, 40).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.one_of(
                        st.sampled_from([0.0, 9.99, 10.0, 10.01, _POISSON_MEAN_MAX]),
                        st.floats(0.0, 30.0),
                        st.floats(10.0, 1e7),
                        st.floats(0.0, _POISSON_MEAN_MAX),
                    ),
                    min_size=n, max_size=n,
                ),
                min_size=k, max_size=k,
            )
        )),
        st.one_of(st.sampled_from(EDGE_WORDS), st.integers(0, 2**64 - 1)),
        st.one_of(st.sampled_from(EDGE_WORDS), st.integers(0, 2**64 - 1)),
        st.sampled_from([1, 7, 4096]),
    )
    def test_the_prefilter_draws_what_a_fresh_philox_draws(self, means, seed, stream, block):
        """With the prefilter on for every call and blocks of any size, point
        ``i`` of row ``r`` still draws what a fresh ``Philox`` with key
        ``seed`` and counter ``[0, i, stream + r, 0]`` draws.

        The means straddle numpy's switch of Poisson method at 10 and reach
        the largest mean the exposure check lets through.
        """
        p = np.array(means) / _POISSON_MEAN_MAX
        # The last row's stream may reach 2**64 - 1 but not pass it.
        stream = min(stream, 2**64 - len(p))
        with mock.patch.object(experiment, "_PREFILTER_MIN", 1), \
                mock.patch.object(experiment, "_DRAW_BLOCK", block):
            counts = sample_counts(p, _POISSON_MEAN_MAX, 1.0, seed, stream=stream)
        assert counts.tolist() == fresh_counts(_POISSON_MEAN_MAX * 1.0 * p, seed, stream)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3).flatmap(lambda k: st.integers(1, 120).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.one_of(
                        st.floats(10.0, 40.0),
                        st.floats(0.99 * _POISSON_MEAN_MAX, _POISSON_MEAN_MAX),
                        st.sampled_from([10.0, 14.0, _POISSON_MEAN_MAX]),
                    ),
                    min_size=n, max_size=n,
                ),
                min_size=k, max_size=k,
            )
        )),
        st.one_of(st.sampled_from(EDGE_WORDS), st.integers(0, 2**64 - 1)),
        st.one_of(st.sampled_from(EDGE_WORDS), st.integers(0, 2**64 - 1)),
        st.sampled_from([1, 7, 4096]),
    )
    def test_both_tries_draw_what_a_fresh_philox_draws(self, means, seed, stream, block):
        """With the prefilter on for every call, means from 10 to 40, where
        numpy's rejection method often runs its ``log`` test or a second
        try and ``k + 1`` nears 7, and means near the largest one still
        draw what a fresh ``Philox`` draws."""
        p = np.array(means) / _POISSON_MEAN_MAX
        stream = min(stream, 2**64 - len(p))
        with mock.patch.object(experiment, "_PREFILTER_MIN", 1), \
                mock.patch.object(experiment, "_DRAW_BLOCK", block):
            counts = sample_counts(p, _POISSON_MEAN_MAX, 1.0, seed, stream=stream)
        assert counts.tolist() == fresh_counts(_POISSON_MEAN_MAX * 1.0 * p, seed, stream)

    def test_a_dense_stack_draws_what_a_fresh_philox_draws(self):
        """A 2x1801 stack runs the prefilter as shipped, and every point
        still draws what a fresh ``Philox`` draws, on the last two streams.

        The means hold zeros, means just under and at 10, a dense sweep's
        range and the largest mean the exposure check lets through.
        """
        rng = np.random.default_rng(19)
        means = rng.uniform(0.0, 7.5e4, (2, 1801))
        means[:, :40] = rng.choice([0.0, 9.99, 10.0, 10.01, 1e12, _POISSON_MEAN_MAX], (2, 40))
        p = means / _POISSON_MEAN_MAX
        seed, stream = 2**64 - 1, 2**64 - 2
        assert p.size >= experiment._PREFILTER_MIN
        counts = sample_counts(p, _POISSON_MEAN_MAX, 1.0, seed, stream=stream)
        assert counts.tolist() == fresh_counts(_POISSON_MEAN_MAX * 1.0 * p, seed, stream)

    def test_a_large_draw_runs_in_bounded_memory(self):
        """The prefilter runs in blocks of ``_DRAW_BLOCK`` points, so a
        200 000-point call holds little beyond its probabilities, means and
        counts (1.5 MiB each); one pass over all points at once would hold
        about 24 MiB more."""
        p = np.random.default_rng(3).uniform(0.0, 1.0, 200_000)
        tracemalloc.start()
        try:
            counts = sample_counts(p, 1000.0, 60.0, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        means = (1000.0 * 60.0 * p).tolist()
        for i in (0, 1, 4095, 4096, 199_999):
            assert counts[i] == fresh_poisson(3, i, 0, means[i])

    def test_negative_rate_rejected(self):
        with pytest.raises(ValidationError):
            sample_counts([0.1], -100.0, 1.0, seed=0)

    @pytest.mark.parametrize("args, name", [
        ((["x"], 100.0, 1.0), r"probabilities\[0\]"),
        (([0.5, "x"], 100.0, 1.0), r"probabilities\[1\]"),
        (([0.5], "x", 1.0), "pair_rate"),
        (([0.5], 100.0, "x"), "duration"),
    ])
    def test_non_number_input_named(self, args, name):
        with pytest.raises(ValidationError, match=f"{name} must be a real number"):
            sample_counts(*args, seed=0)

    @pytest.mark.parametrize("rate, duration, message", [
        (1.0, -2.0, "duration must be finite and >= 0, got -2.0"),
        (-1.0, 1.0, "pair_rate must be finite and >= 0, got -1.0"),
        (math.inf, 1.0, "pair_rate must be finite and >= 0, got inf"),
        (1.0, math.nan, "duration must be finite and >= 0, got nan"),
    ])
    def test_bad_exposure_named_with_its_value(self, rate, duration, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            sample_counts([0.5], rate, duration, 0)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(pair_rate=rate, duration=duration)

    def test_mean_count_above_the_poisson_limit_rejected(self):
        with pytest.raises(ValidationError, match="pair_rate=1e\\+30, duration=60.0"):
            sample_counts([0.1], 1e30, 60.0, seed=0)
        assert sample_counts([0.5], 9.2e18, 1.0, seed=0)[0] > 0

    def test_seeds_outside_64_bits_rejected_not_wrapped(self):
        for seed in (-1, 2**64, -(2**64)):
            with pytest.raises(ValidationError, match="seed"):
                sample_counts([0.1], 1000.0, 60.0, seed=seed)
        assert sample_counts([0.1], 1000.0, 60.0, seed=2**64 - 1).shape == (1,)

    def test_moments_match_poisson(self):
        counts = sample_counts([0.5] * 4000, 2000.0, 1.0, seed=21)
        mean = counts.mean()
        # Mean 1000 per point; the sample mean sits within five standard errors.
        assert abs(mean - 1000.0) < 5.0 * math.sqrt(1000.0 / 4000.0)

    def test_visibility_recovery_from_noisy_counts(self):
        """Calibrated recovery bounds for a peak mean of 2000 counts.

        Over seeds 0..399 the fit lands within 0.01 of the true visibility
        315 times and never strays beyond 0.025 (fixed-seed calibration of
        this exact pipeline).  Keep a little slack on the first bound.
        """
        config = ExperimentConfig(qubit_hwp_angle=22.5, overlap_v=0.922)
        result = run_analytic(config)
        p = np.asarray(result.d1_d2.probabilities)
        scale = 2000.0 / p.max()
        deviations = []
        for seed in range(400):
            counts = sample_counts(p, scale, 1.0, seed)
            fit = fit_malus(config.thetas, counts.astype(float))
            deviations.append(abs(visibility(fit) - 0.922))
        deviations = np.asarray(deviations)
        assert (deviations <= 0.01).sum() >= 300
        assert deviations.max() <= 0.025
        assert np.median(deviations) <= 0.008

    def test_tight_recovery_at_high_counts(self):
        config = ExperimentConfig(qubit_hwp_angle=22.5, overlap_v=0.922)
        result = run_analytic(config)
        p = np.asarray(result.d1_d2.probabilities)
        scale = 20000.0 / p.max()
        for seed in range(50):
            counts = sample_counts(p, scale, 1.0, seed)
            fit = fit_malus(config.thetas, counts.astype(float))
            assert abs(visibility(fit) - 0.922) <= 0.01

    @pytest.mark.parametrize("mean, seed", [
        (0.5, 1), (9.99, 2), (10.0, 3), (37.0, 4), (1e4, 5), (1e12, 6),
    ])
    def test_counts_follow_the_poisson_law(self, mean, seed):
        """10**5 points of one mean, checked against the law itself rather
        than numpy's bytes: the sample mean and variance each lie within 5
        sigma of the mean, and for a small mean the histogram passes a
        chi-square test against the exact Poisson pmf.  The means straddle
        the prefilter's threshold of 10 and reach far past it."""
        n = 10**5
        counts = sample_counts(np.ones(n), mean, 1.0, seed=seed)
        assert counts.dtype == np.int64 and counts.min() >= 0
        deviations = counts.astype(float) - mean
        sample_mean = deviations.mean()
        # The standard deviations of the sample mean and variance: the
        # Poisson law's variance is its mean and its fourth central moment
        # mean + 3 mean**2.
        assert abs(sample_mean) <= 5.0 * math.sqrt(mean / n)
        variance = (deviations - sample_mean).var(ddof=1)
        assert abs(variance - mean) <= 5.0 * math.sqrt((mean + 2.0 * mean**2) / n)
        if mean > 37.0:
            return
        # Bins of every count whose expected number is at least 5, the two
        # tails pooled into the bins at the ends.
        ks = np.arange(counts.max() + 1)
        pmf = np.array([math.exp(k * math.log(mean) - mean - math.lgamma(k + 1)) for k in ks])
        kept = np.flatnonzero(n * pmf >= 5.0)
        low, high = kept[0], kept[-1]
        observed = np.bincount(np.clip(counts, low, high) - low, minlength=high - low + 1)
        expected = n * pmf[low : high + 1]
        expected[0] = n * pmf[: low + 1].sum()
        expected[-1] = n - expected[:-1].sum()
        chi2 = float((((observed - expected) ** 2) / expected).sum())
        # The chi-square quantile at 1 - 1e-4 (z = 3.719), by Wilson and
        # Hilferty's cube-root normal approximation.
        dof = observed.size - 1
        quantile = dof * (1.0 - 2.0 / (9 * dof) + 3.719 * math.sqrt(2.0 / (9 * dof))) ** 3
        assert chi2 < quantile, (chi2, quantile, dof)


class TestPoissonPrefilter:
    """The parts of the sampler's prefilter: the Philox block and the first
    two tries of numpy's rejection method."""

    @pytest.mark.parametrize("seed", EDGE_WORDS)
    def test_philox_words_are_a_fresh_philox_first_block(self, seed):
        pairs = list(itertools.product(EDGE_WORDS, EDGE_WORDS))
        index, stream = (np.array(words, dtype=np.uint64) for words in zip(*pairs))
        words = np.array(_philox_words(seed, index, stream)).T.tolist()
        for (i, s), block in zip(pairs, words):
            counter = np.array([0, i, s, 0], dtype=np.uint64)
            assert block == np.random.Philox(key=seed, counter=counter).random_raw(4).tolist()

    @staticmethod
    def numpy_draw(mean, word0, word1):
        """numpy's Poisson draw from a Philox whose next two words are
        ``word0`` and ``word1``, and whether it took just those two (a draw
        that reaches a third try also ends two words into a block, so the
        words are counted across blocks)."""
        count, taken = TestPoissonPrefilter.numpy_words(mean, (word0, word1, 0, 0))
        return count, taken == 2

    @staticmethod
    def vr(mean):
        b = 0.931 + 2.53 * np.sqrt(mean)
        return 0.9277 - 3.6224 / (b - 2)

    @staticmethod
    def accepts_at_once(means, word0, word1):
        """Where numpy's try on ``word0`` and ``word1`` returns ``k`` at
        once, ``us >= 0.07`` and ``V <= vr``, for means of 10 or more."""
        u = (word0 >> 11) * 2.0**-53 - 0.5
        v = (word1 >> 11) * 2.0**-53
        vr = TestPoissonPrefilter.vr(means)
        return (means >= 10.0) & (0.5 - np.abs(u) >= 0.07) & (v <= vr)

    def test_the_first_try_accept_is_numpys(self):
        """Where the try accepts at once, numpy's draw takes that point's
        two words alone and returns the try's count."""
        rng = np.random.default_rng(7)
        means = np.concatenate([
            rng.uniform(10.0, 200.0, 400), np.exp(rng.uniform(np.log(10.0), 40.0, 400)),
        ])
        w0, w1 = rng.integers(0, 2**64, (2, means.size), dtype=np.uint64)
        accept, _, counts = _ptrs_try(means, w0, w1)
        quick = accept & self.accepts_at_once(means, w0, w1)
        assert counts.dtype == np.int64 and 0.5 < quick.mean() < 0.9
        assert (counts[~accept] == 0).all()
        for mean, word0, word1, count in zip(
            means[quick].tolist(), w0[quick].tolist(), w1[quick].tolist(), counts[quick].tolist()
        ):
            assert self.numpy_draw(mean, word0, word1) == (count, True)

    def test_decisions_at_their_threshold_go_to_numpy(self):
        """At the accept at once, ``V == vr``, ``V`` one step either side of
        ``vr`` and a floor argument that is an integer are left to numpy's
        draw, as are means under 10, and a first word under 2**11, whose
        ``us`` is 0 (no warning is raised)."""
        half = 2**63  # U = 0, so the floor argument is mean + 0.43.
        mean = 100.0
        at_vr = int(float(self.vr(mean)) * 2**53) << 11
        integral = 99.57
        assert integral + 0.43 == 100.0
        cases = [  # (mean, word 0, word 1, the try's (accept, again))
            (mean, half, 0, (True, False)),
            (mean, half, at_vr, (False, False)),
            (mean, half, at_vr - 2**11, (False, False)),
            (mean, half, at_vr + 2**11, (False, False)),
            (integral, half, 0, (False, False)),
            (integral + 1e-9, half, 0, (True, False)),
            (9.99, half, 0, (False, False)),
            (0.0, half, 0, (False, False)),
            (mean, 2**10, 0, (False, False)),
            (mean, 0, 0, (False, False)),
            (_POISSON_MEAN_MAX, half, 0, (False, False)),
        ]
        means, word0, word1, want = zip(*cases)
        accept, again, counts = _ptrs_try(
            np.array(means), np.array(word0, dtype=np.uint64), np.array(word1, dtype=np.uint64)
        )
        assert list(zip(accept.tolist(), again.tolist())) == list(want)
        for (mean_, word0_, word1_, (accepted, _)), count in zip(cases, counts.tolist()):
            if accepted:
                assert self.numpy_draw(mean_, word0_, word1_) == (count, True)
            else:
                assert count == 0
        # numpy accepts V == vr and an integer floor argument at once.
        assert self.numpy_draw(mean, half, at_vr) == (100, True)
        assert self.numpy_draw(integral, half, 0) == (100, True)

    @staticmethod
    def numpy_words(mean, words):
        """numpy's Poisson draw from a Philox whose next four words are
        ``words``, and how many words it took (past 4, from later blocks)."""
        bit_generator = np.random.Philox(key=0)
        state = bit_generator.state
        state["buffer"] = np.array(words, dtype=np.uint64)
        state["buffer_pos"] = 0
        bit_generator.state = state
        count = np.random.Generator(bit_generator).poisson(mean)
        after = bit_generator.state
        return count, 4 * int(after["state"]["counter"][0]) + after["buffer_pos"]

    @staticmethod
    def word(value):
        """The word whose 53-bit double is ``value``, for ``U + 0.5`` or ``V``."""
        return int(value * 2**53) << 11

    def test_two_tries_are_numpys(self):
        """Where the kernel decides a point in its first or second try,
        numpy's draw takes just that try's words and agrees: the count of a
        try that accepts, another try where the kernel tries again.  The
        ``log`` test and the second try both decide points."""
        rng = np.random.default_rng(20)
        means = np.concatenate([
            np.exp(rng.uniform(np.log(10.0), np.log(_POISSON_MEAN_MAX), 600)),
            rng.uniform(10.0, 40.0, 1400),
        ])
        words = rng.integers(0, 2**64, (4, means.size), dtype=np.uint64)
        accept, again, counts = _ptrs_try(means, words[0], words[1])
        retry = np.flatnonzero(again)
        accept2, again2, counts2 = _ptrs_try(means[retry], words[2][retry], words[3][retry])
        assert counts.dtype == counts2.dtype == np.int64
        assert not (accept & again).any() and not (accept2 & again2).any()
        # Beyond the accept at once, the log test accepts and both tries retry.
        at_once = accept & self.accepts_at_once(means, words[0], words[1])
        assert accept.sum() > at_once.sum() + 100
        assert retry.size > 100 and accept2.sum() > 0.7 * retry.size
        # Undecided: means past 2**39 (the floor's margin), k + 1 < 7 near 10, margin misses.
        assert accept.sum() + accept2.sum() > 0.8 * means.size
        assert (counts[~accept] == 0).all() and (counts2[~accept2] == 0).all()
        block = words.T.tolist()
        for i in np.flatnonzero(accept | again).tolist():
            count, taken = self.numpy_words(means[i], block[i])
            if accept[i]:
                assert (count, taken) == (counts[i], 2)
            else:
                assert taken >= 4
        for j, i in enumerate(retry.tolist()):
            count, taken = self.numpy_words(means[i], block[i])
            if accept2[j]:
                assert (count, taken) == (counts2[j], 4)
            elif again2[j]:
                assert taken >= 6

    @settings(max_examples=100, deadline=None)
    @given(st.lists(
        st.tuples(
            st.one_of(
                st.floats(9.5, 12.0),
                st.floats(0.99 * 2.0**39, 1.01 * 2.0**39),
                st.floats(0.999 * _POISSON_MEAN_MAX, _POISSON_MEAN_MAX),
                st.floats(math.log(10.0), math.log(_POISSON_MEAN_MAX)).map(
                    lambda x: min(math.exp(x), _POISSON_MEAN_MAX)
                ),
            ),
            WORDS,
            WORDS,
        ),
        min_size=1, max_size=40,
    ))
    def test_a_try_accepts_and_retries_as_numpy_does(self, points):
        """Wherever a try accepts, numpy's draw takes just its two words and
        returns its count; wherever it tries again, numpy takes at least
        four words.  A mean under 10 is neither."""
        means, word0, word1 = zip(*points)
        means, word0, word1 = np.array(means), *np.array((word0, word1), dtype=np.uint64)
        accept, again, counts = _ptrs_try(means, word0, word1)
        assert not (accept & again).any() and not (accept | again)[means < 10.0].any()
        assert (counts[~accept] == 0).all()
        for i, (mean, w0, w1) in enumerate(points):
            count, taken = self.numpy_words(mean, (w0, w1, 0, 0))
            if accept[i]:
                assert (count, taken) == (counts[i], 2)
            elif again[i]:
                assert taken >= 4

    @pytest.mark.parametrize("mean, u", [(100.0, 0.46), (14.0, -0.45)], ids=["k=126", "k+1=7"])
    def test_a_log_test_gap_inside_the_margin_goes_to_numpy(self, mean, u):
        """With ``0.013 <= us < 0.07`` numpy decides by the ``log`` test
        alone.  Bisecting ``V`` finds the last word numpy accepts; the
        kernel decides neither it nor the next word, and agrees with numpy
        a relative 1e-6 away on either side (5e-6 where the terms sum to
        about 1200, whose margin is about 1.1e-6)."""
        word0 = self.word(u + 0.5)
        assert 0.013 <= 0.5 - abs(u) < 0.07

        def numpy_accepts(j):
            return self.numpy_words(mean, [word0, j << 11, 0, 0])[1] == 2

        low, high = 1, 2**53 - 1
        assert numpy_accepts(low) and not numpy_accepts(high)
        while high - low > 1:
            middle = (low + high) // 2
            low, high = (middle, high) if numpy_accepts(middle) else (low, middle)
        step = 5e-6 if mean > 50 else 1e-6
        js = [low, high, int(low * (1 - step)), int(high * (1 + step))]
        w1 = np.array([j << 11 for j in js], dtype=np.uint64)
        accept, again, counts = _ptrs_try(np.full(4, mean), np.full(4, word0, np.uint64), w1)
        assert accept.tolist() == [False, False, True, False]
        assert again.tolist() == [False, False, False, True]
        assert self.numpy_words(mean, [word0, js[2] << 11, 0, 0]) == (counts[2], 2)
        assert self.numpy_words(mean, [word0, js[3] << 11, 0, 0])[1] >= 4

    def test_the_other_decisions_at_their_threshold_go_to_numpy(self):
        """``V == us`` or one step either side with ``us < 0.013``, ``V == 0``
        at the ``log`` test, ``us == 0``, ``k + 1 < 7`` and a mean under 10
        are left to numpy's draw.  ``k < 0`` and ``V`` well above a small
        ``us`` are tries numpy repeats, and so does the kernel; no case
        raises a warning."""
        us = self.word(0.01)  # U = us - 0.5, and V == us for the same word.
        mean = 100.0
        cases = [  # (mean, word 0, word 1, the kernel's (accept, again))
            (mean, us, us, (False, False)),
            (mean, us, us + 2**11, (False, False)),
            (mean, us, us - 2**11, (False, False)),
            (mean, us, self.word(0.5), (False, True)),
            (mean, self.word(0.05), 0, (False, False)),
            (mean, 2**10, self.word(0.5), (False, False)),
            (10.0, self.word(0.01), self.word(0.005), (False, True)),
            (10.0, self.word(0.05), self.word(0.01), (False, False)),
            (9.99, self.word(0.05), self.word(0.01), (False, False)),
        ]
        means, word0, word1, want = zip(*cases)
        accept, again, counts = _ptrs_try(
            np.array(means), np.array(word0, dtype=np.uint64), np.array(word1, dtype=np.uint64)
        )
        assert list(zip(accept.tolist(), again.tolist())) == list(want)
        assert (counts == 0).all()
        # numpy tries again on the cases the kernel repeats, and k < 0 there.
        assert self.numpy_words(mean, [us, self.word(0.5), 0, 0])[1] >= 4
        assert self.numpy_words(10.0, [self.word(0.01), self.word(0.005), 0, 0])[1] >= 4
        # V == 0 at the log test, and k + 1 = 4: numpy accepts with its first try.
        assert self.numpy_words(mean, [self.word(0.05), 0, 0, 0])[1] == 2
        assert self.numpy_words(10.0, [self.word(0.05), self.word(0.01), 0, 0]) == (3, 2)

    @pytest.mark.parametrize("size, true", [(0, 0), (5, 0), (5, 1), (300, 128), (300, 129), (4096, 4096)])
    def test_a_compressed_mask_is_its_indices_cycled_to_a_multiple_of_128(self, size, true):
        """The rest of a try runs on a mask's true indices, repeated in order up
        to a multiple of 128, so that its temporaries come in few sizes."""
        mask = np.zeros(size, dtype=bool)
        mask[np.random.default_rng(size + true).permutation(size)[:true]] = True
        index = experiment._compressed(mask)
        want = np.flatnonzero(mask).tolist()
        assert index.size % 128 == 0 and index.size - true < 128
        assert index.tolist() == (want * 128)[: index.size]

    def test_most_dense_points_skip_the_scalar_draw(self, monkeypatch):
        """On the pinned 1801-angle config, fewer than 3% of the 3602
        points reach numpy's scalar ``poisson``; a call of fewer than
        ``_PREFILTER_MIN`` points sends every point there."""
        want = run_experiment(PINNED_DENSE_CONFIG)
        draws = []
        generator = np.random.Generator

        def counting(bit_generator):
            inner = generator(bit_generator)

            def poisson(mean):
                draws.append(mean)
                return inner.poisson(mean)

            return types.SimpleNamespace(poisson=poisson)

        monkeypatch.setattr(np.random, "Generator", counting)

        def runs():
            dense = run_experiment(PINNED_DENSE_CONFIG)
            dense_draws = len(draws)
            run_experiment(dataclasses.replace(PINNED_DENSE_CONFIG, thetas=DEFAULT_THETAS))
            return dense, dense_draws, len(draws) - dense_draws

        # A fresh thread builds its generator through the patched Generator.
        dense, dense_draws, default_draws = in_fresh_thread(runs)
        assert dense == want
        assert 0 < dense_draws < 0.03 * 2 * 1801
        assert default_draws == 2 * len(DEFAULT_THETAS)


class TestFitMalus:
    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.05, 10.0, allow_nan=False),
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(-89.0, 89.0, allow_nan=False),
    )
    def test_recovers_generating_parameters(self, offset, relative, phase):
        amplitude = relative * offset
        thetas = DEFAULT_THETAS
        values = [
            offset + amplitude * math.cos(2 * math.radians(t - phase)) for t in thetas
        ]
        fit = fit_malus(thetas, values)
        assert fit.offset == pytest.approx(offset, abs=1e-9)
        assert fit.amplitude == pytest.approx(amplitude, abs=1e-9)
        if amplitude > 1e-6:
            assert fit.phase_deg == pytest.approx(phase, abs=1e-6)

    def test_constant_curve_has_no_fringe(self):
        fit = fit_malus(DEFAULT_THETAS, [0.125] * len(DEFAULT_THETAS))
        assert fit.offset == pytest.approx(0.125, abs=1e-12)
        assert fit.amplitude == pytest.approx(0.0, abs=1e-12)

    def test_phase_convention_range(self):
        values = [0.5 + 0.4 * math.cos(2 * math.radians(t - 90.0)) for t in DEFAULT_THETAS]
        fit = fit_malus(DEFAULT_THETAS, values)
        assert -90.0 < fit.phase_deg <= 90.0

    @pytest.mark.parametrize("s", [3e-16, -3e-16, 0.0, -0.0])
    @pytest.mark.parametrize("c, phase", [(-0.4, 90.0), (0.4, 0.0)])
    def test_a_sine_coefficient_of_rounding_size_counts_as_zero(self, s, c, phase):
        """Its sign alone would put the phase at -90 or at 90."""
        from loqec.experiment import _malus_fit

        fit = _malus_fit(0.5, c, s)
        assert fit.phase_deg == phase
        assert fit.amplitude == math.hypot(c, s)

    def test_a_sine_coefficient_above_rounding_size_keeps_its_phase(self):
        from loqec.experiment import _malus_fit

        assert _malus_fit(0.5, -0.4, -1e-9).phase_deg == pytest.approx(-90.0 + 7.2e-8, abs=1e-9)
        assert _malus_fit(0.5, -0.4, 1e-9).phase_deg == pytest.approx(90.0 - 7.2e-8, abs=1e-9)

    @pytest.mark.parametrize("huge", [1e308, -1e308, 1.7976931348623157e308])
    def test_a_huge_finite_angle_fits_as_its_reduced_angle(self, huge):
        thetas = [0.0, 45.0, huge, 60.0]
        values = [0.9, 0.5, 0.2, 0.3]
        reduced = np.fmod(thetas, 180.0).tolist()
        assert _bytes(fit_malus(thetas, values)) == _bytes(fit_malus(reduced, values))

    def test_a_huge_finite_angle_runs_through_a_sweep(self):
        result = run_analytic(ExperimentConfig(thetas=(0.0, 45.0, 1e308), overlap_v=0.8))
        for curve in (result.d1_d2, result.d1_d3):
            assert all(math.isfinite(x) for x in dataclasses.astuple(curve.fit))
        assert math.isfinite(result.fidelity_fit)

    @pytest.mark.parametrize("values", [
        [1e308, -1e308, 1e308],
        [[0.1, 0.2, 0.3], [1e308, -1e308, 1e308]],
        [1.7e308, 1.7e308, -1.7e308],
    ])
    def test_a_fit_that_overflows_is_a_fit_error(self, values):
        with pytest.raises(FitError, match="the fit overflows"):
            fit_malus([0.0, 45.0, 90.0], values)

    @pytest.mark.parametrize("thetas", [
        (0.0, 0.0, 10.0), (0.0, -0.0, 10.0), (-0.0, 0.0, 0.0, 10.0),
    ])
    def test_too_few_distinct_angles_rejected(self, thetas):
        with pytest.raises(FitError, match="need at least 3 distinct angles, got 2"):
            fit_malus(thetas, [1.0] * (len(thetas) - 1) + [2.0])

    def test_congruent_angles_are_rank_deficient(self):
        with pytest.raises(FitError, match="rank-deficient"):
            fit_malus([0.0, 90.0, 180.0, 270.0], [1.0, 2.0, 1.0, 2.0])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([
        0.0, -0.0, 5e-324, -5e-324, 10.0, math.nextafter(10.0, math.inf),
        math.nextafter(10.0, -math.inf), 190.0, -170.0, 45.0, 225.0,
    ]), min_size=1, max_size=8))
    def test_distinct_angles_are_counted_as_np_unique_counts_them(self, thetas):
        """Signed zeros are one angle; subnormals, one-ulp neighbours and
        angles 180 degrees apart are distinct ones."""
        distinct = np.unique(thetas).size
        values = [float(k % 3) for k in range(len(thetas))]
        if distinct < 3:
            with pytest.raises(FitError, match=f"^need at least 3 distinct angles, got {distinct}$"):
                fit_malus(thetas, values)
            return
        try:
            fit_malus(thetas, values)
        except FitError as exc:
            assert "distinct angles" not in str(exc)

    @pytest.mark.parametrize("grid,index", [("values", 2), ("thetas", 4)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_point_named(self, capfd, grid, index, bad):
        data = {"thetas": list(DEFAULT_THETAS), "values": [0.5] * len(DEFAULT_THETAS)}
        data[grid][index] = bad
        with pytest.raises(FitError, match=rf"{grid}\[{index}\] must be finite, got {bad!r}"):
            fit_malus(data["thetas"], data["values"])
        assert capfd.readouterr().err == ""

    def test_mismatched_grids_rejected(self):
        with pytest.raises(FitError):
            fit_malus([0.0, 10.0, 20.0], [1.0, 2.0])

    def test_visibility_is_amplitude_over_offset(self):
        assert visibility(MalusFit(0.125, 0.115, 45.0)) == pytest.approx(0.92)

    def test_visibility_undefined_for_a_nan_offset(self):
        with pytest.raises(ValidationError, match="visibility undefined for offset nan"):
            visibility(MalusFit(math.nan, 1.0, 0.0))

    def test_visibility_needs_positive_offset(self):
        with pytest.raises(ValidationError):
            visibility(MalusFit(0.0, 0.1, 0.0))


def _design(thetas):
    angles = np.deg2rad(2.0 * np.asarray(thetas, dtype=float))
    return np.column_stack([np.ones_like(angles), np.cos(angles), np.sin(angles)])


def _coefficients(fit):
    """The fit's ``(offset, c, s)`` on the basis ``{1, cos 2 theta, sin 2 theta}``."""
    phase = math.radians(2.0 * fit.phase_deg)
    return np.array([fit.offset, fit.amplitude * math.cos(phase), fit.amplitude * math.sin(phase)])


def _bytes(fit):
    return [x.hex() for x in dataclasses.astuple(fit)]


class TestMalusSolver:
    """The cached per-grid solver against ``np.linalg.lstsq``."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_coefficients_agree_with_lstsq(self, data):
        # Distinct angles at least 5 degrees apart modulo 180, shifted and
        # turned by whole periods, with repeats: 3 to 40 points in all.
        steps = data.draw(st.lists(st.integers(0, 35), min_size=3, max_size=36, unique=True))
        repeats = data.draw(st.lists(st.sampled_from(steps), max_size=40 - len(steps)))
        shift = data.draw(st.floats(-90, 90, allow_nan=False))
        picks = steps + repeats
        turns = data.draw(st.lists(st.integers(-2, 2), min_size=len(picks), max_size=len(picks)))
        thetas = [5.0 * step + shift + 180.0 * turn for step, turn in zip(picks, turns)]
        values = data.draw(st.lists(
            st.floats(-1e3, 1e3, allow_nan=False), min_size=len(thetas), max_size=len(thetas)
        ))
        expected, _, rank, _ = np.linalg.lstsq(_design(thetas), values, rcond=None)
        assert rank == 3
        tol = 1e-12 * max(1.0, max(abs(v) for v in values))
        assert np.abs(_coefficients(fit_malus(thetas, values)) - expected).max() <= tol

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(st.floats(-180, 180, allow_nan=False), st.integers(-180, 180).map(float)),
        st.lists(st.integers(-4, 4), min_size=3, max_size=40),
    )
    def test_congruent_grids_raise_where_lstsq_loses_rank(self, base, turns):
        thetas = [base + 90.0 * turn for turn in turns]
        values = [float(turn % 3) for turn in turns]
        # The solver reduces each angle modulo 180 first, so the reference does too:
        # unreduced, cos and sin of 2 theta near 720 degrees round apart enough to
        # give a congruent pair a third singular value above the rank cutoff.
        rank = np.linalg.lstsq(_design(np.fmod(thetas, 180.0)), values, rcond=None)[2]
        if rank < 3:
            with pytest.raises(FitError):
                fit_malus(thetas, values)
        else:
            fit_malus(thetas, values)

    @pytest.mark.parametrize("run", [
        lambda thetas: fit_malus(thetas, [1.0, 2.0, 1.0, 2.0]),
        lambda thetas: run_analytic(ExperimentConfig(thetas=thetas)),
        lambda thetas: run_experiment(ExperimentConfig(thetas=thetas)),
    ], ids=["fit_malus", "run_analytic", "run_experiment"])
    def test_a_bad_grid_raises_on_every_call(self, run):
        for _ in range(2):
            with pytest.raises(FitError, match="rank-deficient"):
                run((0.0, 90.0, 180.0, 270.0))

    def test_a_sweep_on_one_grid_factors_it_once(self, monkeypatch):
        """A sweep reads its grid's trig and solver through one cache entry,
        one lookup per config, and the grid is factored once."""
        fits = []
        kernel = experiment._fits
        monkeypatch.setattr(experiment, "_fits", lambda *args: fits.append(args) or kernel(*args))
        built = {"_analyzer_trig": [], "_malus_solver": []}
        plain = {name: getattr(experiment, name) for name in built}
        for name, calls in built.items():
            monkeypatch.setattr(
                experiment, name,
                lambda thetas, _t=plain[name], _c=calls: _c.append(thetas) or _t(thetas),
            )
        experiment._grid_tables.cache_clear()
        rng = np.random.default_rng(8)
        for angle, overlap_v in rng.uniform([-90.0, 0.0], [90.0, 1.0], size=(200, 2)):
            run_analytic(ExperimentConfig(qubit_hwp_angle=angle, overlap_v=overlap_v))
        info = experiment._grid_tables.cache_info()
        assert (info.misses, info.hits) == (1, 199)
        assert {name: len(calls) for name, calls in built.items()} == {
            "_analyzer_trig": 1, "_malus_solver": 1,
        }
        assert len(fits) == 200
        tables = experiment._grid_tables(DEFAULT_THETAS)
        direct = (*plain["_analyzer_trig"](DEFAULT_THETAS), plain["_malus_solver"](DEFAULT_THETAS))
        for table, want in zip(tables, direct):
            assert not table.flags.writeable
            assert table.tobytes() == want.tobytes()

    def test_a_sweep_does_not_walk_its_checked_grid(self, monkeypatch):
        """The config checks its grid; no sweep of it walks the grid again
        through the readout's or the fit's array conversion."""
        from loqec import errors, experiment

        rng = np.random.default_rng(9)
        thetas = tuple(float(t) for t in range(-90, 91))
        configs = [
            ExperimentConfig(qubit_hwp_angle=angle, overlap_v=overlap_v, thetas=thetas)
            for angle, overlap_v in rng.uniform([-90.0, 0.0], [90.0, 1.0], size=(200, 2))
        ]
        run_analytic(configs[0])  # the grid's cache entries, built once
        walks = []
        for module in (errors, experiment):
            convert = module.as_real_array

            def spy(values, name, _convert=convert, **kwargs):
                if name == "thetas":
                    walks.append("as_real_array")
                return _convert(values, name, **kwargs)

            monkeypatch.setattr(module, "as_real_array", spy)
        for config in configs:
            run_analytic(config)
        assert walks == []
        # The spies see the public route's walks.
        analyzer_probabilities(np.eye(2), thetas)
        fit_malus(thetas, np.ones(len(thetas)))
        assert walks == ["as_real_array", "as_real_array"]


class TestFitStack:
    """A stack of curves is fitted in one call, each with its own bytes."""

    @pytest.mark.parametrize("thetas", [DEFAULT_THETAS, (-7.0, 3.5, 3.5, 41.0, 88.0, 130.0)])
    def test_each_fit_has_the_bytes_of_its_curve_alone(self, thetas):
        rng = np.random.default_rng(3)
        for k in (1, 2, 5):
            stack = rng.uniform(0.0, 1.0, size=(k, len(thetas)))
            fits = fit_malus(thetas, stack)
            assert type(fits) is tuple and len(fits) == k
            for row, fit in zip(stack, fits):
                assert _bytes(fit) == _bytes(fit_malus(thetas, row))
                assert _bytes(fit) == _bytes(fit_malus(thetas, row.tolist()))
            assert [_bytes(f) for f in fit_malus(thetas, stack.tolist())] == [_bytes(f) for f in fits]

    def test_the_sweep_fits_match_each_curve_fitted_alone(self):
        config = ExperimentConfig(qubit_hwp_angle=31.0, overlap_v=0.8, imperfection_eps=0.1)
        result = run_analytic(config)
        for curve in (result.d1_d2, result.d1_d3):
            assert _bytes(curve.fit) == _bytes(fit_malus(config.thetas, curve.probabilities))

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_a_non_finite_entry_is_named_by_row_and_column(self, bad):
        stack = np.full((3, len(DEFAULT_THETAS)), 0.5)
        stack[2, 7] = bad
        with pytest.raises(FitError, match=rf"values\[2, 7\] must be finite, got {bad!r}"):
            fit_malus(DEFAULT_THETAS, stack)

    def test_a_stack_of_the_wrong_width_is_rejected(self):
        with pytest.raises(FitError, match="grids must match"):
            fit_malus(DEFAULT_THETAS, np.zeros((2, len(DEFAULT_THETAS) - 1)))

    def test_a_string_in_a_stack_is_named(self):
        with pytest.raises(ValidationError, match=r"values\[1\]\[2\] must be a real number"):
            fit_malus([0.0, 10.0, 20.0], [[1.0, 2.0, 3.0], [1.0, 2.0, "3"]])

    def test_three_dimensional_values_are_rejected(self):
        with pytest.raises(ValidationError, match="values must be one- or two-dimensional"):
            fit_malus([0.0, 10.0, 20.0], np.zeros((1, 2, 3)))


class TestHomScan:
    sigma = 1.35e-12

    def test_zero_delay_kills_coincidences(self):
        result = hom_scan((0.0,), self.sigma)
        assert result.points[0].p_coincidence == 0.0
        assert result.points[0].overlap == 1.0

    def test_large_delay_recovers_the_classical_half(self):
        result = hom_scan((12.0 * self.sigma,), self.sigma)
        assert result.points[0].p_coincidence == pytest.approx(0.5, abs=1e-9)

    def test_half_overlap_point(self):
        """At tau = sigma * sqrt(2 ln 2) the amplitude overlap is one half
        and the coincidence probability is 3/8."""
        tau = self.sigma * math.sqrt(2.0 * math.log(2.0))
        result = hom_scan((tau,), self.sigma)
        assert result.points[0].overlap == pytest.approx(0.5, abs=1e-12)
        assert result.points[0].p_coincidence == pytest.approx(0.375, abs=1e-12)

    def test_matches_the_gaussian_oracle_on_a_grid(self):
        delays = tuple(np.linspace(-4.0 * self.sigma, 4.0 * self.sigma, 17))
        result = hom_scan(delays, self.sigma)
        for point in result.points:
            assert point.p_coincidence == pytest.approx(
                hom_coincidence(point.delay, self.sigma), abs=1e-12
            )

    def test_dip_is_symmetric_and_monotone_outward(self):
        delays = tuple(np.linspace(0.0, 5.0 * self.sigma, 11))
        result = hom_scan(delays, self.sigma)
        probabilities = [point.p_coincidence for point in result.points]
        assert all(b >= a - 1e-15 for a, b in zip(probabilities, probabilities[1:]))
        mirrored = hom_scan(tuple(-d for d in delays), self.sigma)
        for point, twin in zip(result.points, mirrored.points):
            assert twin.p_coincidence == pytest.approx(point.p_coincidence, abs=1e-12)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError):
            hom_scan((), self.sigma)

    def test_nonpositive_coherence_time_rejected(self):
        with pytest.raises(ValidationError):
            hom_scan((0.0,), 0.0)

    def test_tiny_coherence_time_scans(self):
        """The coherence time squared underflows to zero; the delay ratio does not."""
        sigma = 1e-200
        result = hom_scan((0.0, 1e-200, -2e-200, 1e-190), sigma)
        assert result.points[0].p_coincidence == 0.0
        for point in result.points:
            assert point.p_coincidence == pytest.approx(
                hom_coincidence(point.delay, sigma), abs=1e-12
            )

    @pytest.mark.parametrize("coherence_time", [math.inf, math.nan, -1e-12])
    def test_non_finite_coherence_time_rejected(self, coherence_time):
        with pytest.raises(ValidationError, match="coherence_time must be finite and positive"):
            hom_scan((0.0,), coherence_time)

    @pytest.mark.parametrize("delays, name", [
        ((0.0, math.nan), r"delays\[1\]"),
        ((math.inf, 0.0, math.nan), r"delays\[0\]"),
        (np.array([0.0, 1e-12, -math.inf]), r"delays\[2\]"),
    ], ids=["nan", "inf-first", "array"])
    def test_first_non_finite_delay_named(self, delays, name):
        with pytest.raises(ValidationError, match=f"{name} must be finite, got"):
            hom_scan(delays, 1e-12)

    def test_overlap_is_the_gaussian_of_the_delay_ratio(self):
        result = hom_scan((0.0, 1e-12, -1e-12, 3e-12), 1e-12)
        overlaps = [point.overlap for point in result.points]
        expected = [1.0, math.exp(-0.5), math.exp(-0.5), math.exp(-4.5)]
        assert overlaps == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("delay, overlap", [(0.0, 1.0), (1e-200, math.exp(-0.5)), (1e-12, 0.0)])
    def test_tiny_coherence_time_keeps_the_ratio(self, delay, overlap):
        """The coherence time squared underflows to zero; the delay ratio does not."""
        assert hom_scan((delay,), 1e-200).points[0].overlap == overlap

    def test_ratio_beyond_the_float_range_is_no_overlap(self):
        with np.errstate(all="raise"):
            result = hom_scan((1e300, 1e160), 1e-300)
        assert [point.overlap for point in result.points] == [0.0, 0.0]
        assert [point.p_coincidence for point in result.points] == pytest.approx([0.5, 0.5])

    @pytest.mark.parametrize("delays, coherence_time, name", [
        (["x"], 1e-12, r"delays\[0\]"),
        ((0.0, None), 1e-12, r"delays\[1\]"),
        ((0.0,), "x", "coherence_time"),
    ])
    def test_non_number_input_named(self, delays, coherence_time, name):
        with pytest.raises(ValidationError, match=f"{name} must be a real number"):
            hom_scan(delays, coherence_time)

    def test_zero_delay_is_exact_inside_a_batch(self):
        result = hom_scan((0.0, 1e-12, -1e-12, 0.0), 1e-12)
        assert result.points[0].p_coincidence == 0.0
        assert result.points[3].p_coincidence == 0.0
        for point in result.points:
            assert point.p_coincidence == pytest.approx(
                hom_coincidence(point.delay, 1e-12), abs=1e-12
            )

    @pytest.mark.parametrize("n, blocks", [(7, 1), (61, 2)])
    def test_one_batched_call_per_stage(self, monkeypatch, n, blocks):
        """State preparation, the splitter and the post-selection each run
        once per block: 7 delays are one block, 61 are two (31 + 30)."""
        calls = []
        for name in ("product_state", "apply_element", "coincidence_postselect"):
            original = getattr(experiment, name)
            monkeypatch.setattr(
                experiment, name,
                lambda *args, _name=name, _f=original: calls.append(_name) or _f(*args),
            )
        result = hom_scan(tuple(np.linspace(-3e-12, 3e-12, n)), 1e-12)
        assert len(result.points) == n
        assert sorted(calls) == sorted(
            ["apply_element", "coincidence_postselect", "product_state"] * blocks
        )

    @pytest.mark.parametrize("n", [1, 15, 16, 17, 31, 32, 61, 62, 100])
    def test_blocks_give_the_bits_of_one_batch(self, monkeypatch, n):
        """The default block and blocks of 16 give the bits of one batch of all ``n`` delays."""
        rng = np.random.default_rng(n)
        delays = np.concatenate(([0.0], rng.uniform(-5e-12, 5e-12, n - 1)))

        def bits(block):
            monkeypatch.setattr(experiment, "_HOM_BLOCK", block)
            result = hom_scan(delays, self.sigma)
            assert result.points[0].p_coincidence == 0.0
            return [[x.hex() for x in dataclasses.astuple(point)] for point in result.points]

        default = bits(experiment._HOM_BLOCK)
        assert bits(16) == default
        assert bits(n) == default

    @pytest.mark.skipif(
        platform.libc_ver()[0] != "glibc", reason="the mmap threshold is glibc's malloc's"
    )
    def test_a_warm_scan_takes_no_page_faults(self):
        """Each batch array stays under the allocator's mmap threshold, so a
        warm 61-delay scan reuses heap memory instead of faulting in fresh
        pages on every call."""
        src = str(pathlib.Path(experiment.__file__).parents[1])
        code = "\n".join([
            "import resource",
            "import numpy as np",
            "from loqec import hom_scan",
            "delays = tuple(np.linspace(-6e-12, 6e-12, 61))",
            "for _ in range(20):",
            "    hom_scan(delays, 1.35e-12)",
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
            "for _ in range(200):",
            "    hom_scan(delays, 1.35e-12)",
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
            "print((after - before) / 200)",
        ])
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 10.0

    def test_a_long_scan_runs_in_bounded_memory(self):
        delays = np.linspace(-5e-12, 5e-12, 20_000)
        tracemalloc.start()
        try:
            result = hom_scan(delays, self.sigma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.points) == 20_000
        assert peak < 64 * 2**20


class TestNumberChecks:
    """Numbers from the caller: one array pass, and the bad entry named."""

    @pytest.mark.parametrize("call, name", [
        pytest.param(lambda: ExperimentConfig(overlap_v=10**400), "overlap_v", id="config"),
        pytest.param(
            lambda: ExperimentConfig(thetas=(0.0, 10**400)), r"thetas\[1\]", id="config-thetas"
        ),
        pytest.param(lambda: hwp(-(10**400), "P"), "hwp angle", id="hwp"),
        pytest.param(lambda: hom_scan([10**400], 1.0), r"delays\[0\]", id="hom_scan-delays"),
        pytest.param(lambda: hom_scan([0.0], 10**400), "coherence_time", id="hom_scan-sigma"),
        pytest.param(
            lambda: product_state(*[SinglePhotonSpec(p, (1.0, 0.0)) for p in "PQ"], 10**400),
            "overlap", id="product_state-overlap",
        ),
        pytest.param(lambda: encode_qubit(10**400, 0.0), "alpha", id="encode_qubit"),
        pytest.param(
            lambda: sample_counts([0.5], 10**400, 1.0, seed=0), "pair_rate", id="sample_counts"
        ),
    ])
    def test_integers_beyond_the_float_range_named(self, call, name):
        with pytest.raises(ValidationError, match=f"{name} must be .* within the float range"):
            call()

    @pytest.mark.parametrize("alpha, beta, name", [
        ("x", 0.0, "alpha"), ("1", 0.0, "alpha"), (1.0, None, "beta"), (True, 0.0, "alpha"),
    ])
    def test_qubit_coefficients_must_be_numbers(self, alpha, beta, name):
        with pytest.raises(ValidationError, match=f"{name} must be a number"):
            encode_qubit(alpha, beta)

    def test_a_seed_too_long_to_print_is_named(self):
        with pytest.raises(ValidationError, match="seed must lie in .* got a 16610-bit integer"):
            ExperimentConfig(seed=10**5000)
        with pytest.raises(ValidationError, match="seed must lie in"):
            sample_counts([0.5], 1.0, 1.0, seed=-(10**5000))

    def test_a_number_beyond_the_float_range_is_shown(self):
        """An integer by its size, as the seed check names one; a fraction as written."""
        with pytest.raises(ValidationError, match="range, got a 1329-bit integer$"):
            ExperimentConfig(overlap_v=10**400)
        with pytest.raises(ValidationError, match=r"range, got Fraction\(10+, 3\)$"):
            ExperimentConfig(pair_rate=Fraction(10**400, 3))
        with pytest.raises(ValidationError, match="range, got a Fraction too long to print$"):
            encode_qubit(1.0, 0.0, Fraction(10**5000))

    @pytest.mark.parametrize("value", [0, 7, 2**70, np.int64(-3), np.uint64(2**64 - 1)])
    def test_an_integer_is_read_as_an_int(self, value):
        number = as_integer(value, "n")
        assert type(number) is int and number == value

    @pytest.mark.parametrize("value", [True, np.True_, 1.0, "7", None, Fraction(3, 1), [1]])
    def test_a_non_integer_is_named(self, value):
        with pytest.raises(ValidationError) as raised:
            as_integer(value, "n")
        assert str(raised.value) == f"n must be an integer, got {value!r}"

    def test_a_non_integer_too_long_to_print_is_named(self):
        """Its ``repr`` would raise; the seed check names it by its type."""
        message = "seed must be an integer, got a Fraction too long to print$"
        with pytest.raises(ValidationError, match=message):
            sample_counts([0.5], 1.0, 1.0, seed=Fraction(10**5000, 3))

    def test_a_non_sequence_is_not_a_number_array(self):
        with pytest.raises(ValidationError, match="^x must be a sequence of real numbers, got <"):
            as_real_array(object(), "x")

    def test_complex_coefficients_accepted(self):
        _, p = encode_qubit(np.complex128(R), 1j * R)
        assert p == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("call, name", [
        pytest.param(
            lambda: sample_counts(["0.5"], 100.0, 1.0, seed=0), r"probabilities\[0\]",
            id="sample_counts-str",
        ),
        pytest.param(
            lambda: sample_counts(np.array(["0.5", "1"]), 100.0, 1.0, seed=0),
            r"probabilities\[0\]", id="sample_counts-str-array",
        ),
        pytest.param(
            lambda: sample_counts([0.5, True], 100.0, 1.0, seed=0), r"probabilities\[1\]",
            id="sample_counts-bool",
        ),
        pytest.param(
            lambda: fit_malus(["a", "b", "c"], [1.0, 2.0, 3.0]), r"thetas\[0\]", id="fit-thetas"
        ),
        pytest.param(
            lambda: fit_malus([0.0, 10.0, 20.0], [1.0, "2", 3.0]), r"values\[1\]", id="fit-values"
        ),
        pytest.param(
            lambda: ExperimentConfig(thetas=(0.0, 10.0, np.True_)), r"thetas\[2\]",
            id="config-bool",
        ),
        pytest.param(lambda: hom_scan([0.0, False], 1e-12), r"delays\[1\]", id="hom_scan-bool"),
    ])
    def test_strings_and_bools_in_a_sequence_named(self, call, name):
        with pytest.raises(ValidationError, match=f"{name} must be a real number"):
            call()

    @pytest.mark.parametrize("call, message", [
        pytest.param(
            lambda: sample_counts([[[0.5]]], 100.0, 1.0, seed=0),
            "probabilities must be one- or two-dimensional, got shape (1, 1, 1)",
            id="sample_counts",
        ),
        pytest.param(
            lambda: fit_malus(np.zeros((3, 1)), np.zeros(3)),
            "thetas must be one-dimensional", id="fit",
        ),
        pytest.param(
            lambda: ExperimentConfig(thetas=5.0), "thetas must be one-dimensional", id="config"
        ),
    ])
    def test_grids_must_be_one_dimensional(self, call, message):
        """A grid has one axis; the sampler also takes a stack of curves, but no more."""
        with pytest.raises(ValidationError, match=re.escape(message)):
            call()

    def test_numeric_arrays_take_the_one_pass_route(self):
        config = ExperimentConfig(thetas=np.arange(-90, 91, 10, dtype=np.int16))
        assert config.thetas == DEFAULT_THETAS
        assert all(type(theta) is float for theta in config.thetas)
        assert ExperimentConfig(thetas=[Fraction(1, 2), 10**20]).thetas == (0.5, 1e20)

    def test_a_ragged_grid_names_its_entry(self):
        with pytest.raises(ValidationError, match=r"delays\[1\] must be a real number"):
            hom_scan([0.0, [1.0, 2.0]], 1e-12)


class TestConstantElements:
    """Elements with fixed ports are built once, not on every call."""

    def test_each_mode_operator_is_built_once_over_a_sweep(self):
        """200 configs build no operator and read none: the encoder's PBS on
        its four paths and the Pockels cell on the survivor's paths were
        built at import, for the survivor bases and the herald forms."""
        from loqec import detection, experiment, state_core

        rng = np.random.default_rng(10)
        configs = [
            ExperimentConfig(
                qubit_hwp_angle=float(rng.uniform(-45.0, 45.0)),
                overlap_v=float(rng.uniform()),
                pc_enabled=bool(rng.integers(2)),
                wiring=list(WiringConfig)[int(rng.integers(2))],
                thetas=(-45.0, 0.0, 45.0),
            )
            for _ in range(200)
        ]
        triggered = sum(config.pc_enabled for config in configs)
        assert 0 < triggered < 200 and len({config.wiring for config in configs}) == 2
        state_core._mode_operator.cache_clear()
        for config in configs:
            run_analytic(config)
        info = state_core._mode_operator.cache_info()
        assert (info.misses, info.currsize) == (0, 0)
        assert info.hits == 0
        survivor_paths = ("qubit-in", "ancilla-in", "C")
        for paths, element in (
            (("qubit-in", "ancilla-in", "A", "B"), experiment._ENCODER_PBS),
            (survivor_paths, detection._FLIP),
        ):
            operator = state_core._mode_operator(paths, element)
            assert not operator.flags.writeable
        assert state_core._mode_operator.cache_info().misses == 2

    @pytest.mark.parametrize("name, call", [
        ("pbs", lambda: encode_qubit(1.0, 0.0)),
        ("bs5050", lambda: hom_scan([0.0], 1e-12)),
        ("pockels", lambda: run_analytic(ExperimentConfig(pc_enabled=True))),
        ("hwp", lambda: run_analytic(ExperimentConfig(qubit_hwp_angle=10.0))),
    ], ids=["pbs", "bs5050", "pockels", "hwp"])
    def test_no_element_is_rebuilt_per_call(self, monkeypatch, name, call):
        from loqec import detection, elements, experiment

        def rebuilt(*args):
            raise AssertionError(f"{name} was rebuilt")

        for module in (elements, experiment, detection):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, rebuilt)
        call()
