"""Unit tests for the sweep pipeline, fitting, sampling, and HOM scans."""
import dataclasses
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracle import curve_formula, encoder_branch_states, encoder_curve, hom_coincidence
from loqec import (
    DEFAULT_THETAS,
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
    jones_to_computational,
    product_state,
    rewire,
    run_analytic,
    run_experiment,
    sample_counts,
    visibility,
    z_measure,
)
from loqec.detection import analyzer_probabilities, herald_coherency

R = 1.0 / math.sqrt(2.0)


def label(path, pol, temporal=0):
    return ModeLabel(path, Polarization(pol), temporal)


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
        """The encoder's photon-wise PBS gives the congruence's state and probability.

        The state agrees bit for bit up to the sign of an exact zero, which
        the two routes' products may set differently.
        """
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
        assert (got.matrix + 0.0).tobytes() == (want.matrix + 0.0).tobytes()
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


def direct_chain(config):
    """Curves, success probability and fidelity of ``config``, computed
    through a two-photon state of its own, as the survivor basis replaces."""
    w = math.radians(config.qubit_hwp_angle)
    psi = np.array([math.cos(2.0 * w), math.sin(2.0 * w)])
    state, p_success = encode_qubit(*jones_to_computational(psi), config.overlap_v)
    survivor = z_measure(rewire(state, config.wiring), PATH_D)
    coherency = herald_coherency(apply_feedforward(survivor, config.pc_enabled))
    weights = np.trace(coherency, axis1=1, axis2=2).real
    eps = config.imperfection_eps
    coherency = (1.0 - eps) * coherency + eps * 0.5 * weights[:, None, None] * np.eye(2)
    curves = analyzer_probabilities(coherency, config.thetas)
    fidelity = float((psi @ coherency[0] @ psi).real / weights[0])
    return curves, p_success, min(max(fidelity, 0.0), 1.0)


class TestSurvivorBasis:
    """A sweep config reads its survivor off a basis built once per wiring."""

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
            "apply_feedforward", "herald_coherency", "SinglePhotonState",
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

    def test_each_wiring_and_pockels_setting_has_a_read_only_herald_form(self):
        from loqec import experiment

        assert set(experiment._HERALD_FORMS) == {
            (wiring, pc_enabled) for wiring in WiringConfig for pc_enabled in (False, True)
        }
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
        from loqec import experiment

        paths, basis = experiment._SURVIVOR_BASES[wiring]
        survivor = SinglePhotonState(paths, (np.reshape(c, (4, 1, 1, 1)) * basis).sum(axis=0))
        expected = herald_coherency(apply_feedforward(survivor, pc_enabled)).real
        form = experiment._HERALD_FORMS[wiring, pc_enabled]
        got = (np.multiply.outer(c, c)[..., None, None, None] * form).sum(axis=(0, 1))
        assert np.abs(got - expected).max() <= 1e-15

    def test_each_wiring_has_a_read_only_basis(self):
        from loqec import experiment

        assert set(experiment._SURVIVOR_BASES) == set(WiringConfig)
        for paths, basis in experiment._SURVIVOR_BASES.values():
            assert paths == ("qubit-in", "ancilla-in", "C")
            assert basis.shape == (4, 2, 2, 12)
            assert not basis.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                basis[0, 0, 0, 0] = 1.0


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

    @pytest.mark.parametrize("thetas, inits", [
        (DEFAULT_THETAS, 38), (tuple(float(t) for t in range(-90, 91)), 362),
    ], ids=["default-grid", "181-angles"])
    def test_one_philox_per_point(self, monkeypatch, thetas, inits):
        """Each point builds its own generator through ``np.random.Philox``,
        looked up on every call, so a rebound attribute sees every one."""
        config = ExperimentConfig(qubit_hwp_angle=30.0, thetas=thetas, seed=4)
        want = run_experiment(config)
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(args)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        assert run_experiment(config) == want
        assert len(built) == inits


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

    def test_a_bad_entry_of_a_stack_is_named(self):
        with pytest.raises(ValidationError, match=r"probabilities\[1\]\[0\] must lie in \[0, 1\]"):
            sample_counts([[0.5, 0.5], [1.5, 0.5]], 100.0, 1.0, seed=0)
        with pytest.raises(ValidationError, match=r"probabilities\[0\]\[1\] must be a real number"):
            sample_counts([[0.5, "x"], [0.5, 0.5]], 100.0, 1.0, seed=0)

    @pytest.mark.parametrize("n_words, dtype", [
        (1, np.uint64), (3, np.uint64), (4, np.uint64), (2, np.uint32), (2, np.float64),
        (2.0, np.uint64), (True, np.uint64),
    ])
    def test_key_sequence_serves_only_a_philox_key(self, n_words, dtype):
        from loqec.experiment import _key_sequence_type

        keys = _key_sequence_type()(2**64 - 1)
        words = keys.generate_state(2, np.uint64)
        assert words.dtype == np.uint64 and words.tolist() == [2**64 - 1, 0]
        assert keys.generate_state(2, np.uint64) is not words
        with pytest.raises(ValidationError, match="two uint64 words"):
            keys.generate_state(n_words, dtype)

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

    def test_too_few_distinct_angles_rejected(self):
        with pytest.raises(FitError):
            fit_malus([0.0, 0.0, 10.0], [1.0, 1.0, 2.0])

    def test_congruent_angles_are_rank_deficient(self):
        with pytest.raises(FitError):
            fit_malus([0.0, 90.0, 180.0, 270.0], [1.0, 2.0, 1.0, 2.0])

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

    def test_a_bad_grid_raises_on_every_call(self):
        for _ in range(2):
            with pytest.raises(FitError, match="rank-deficient"):
                fit_malus([0.0, 90.0, 180.0, 270.0], [1.0, 2.0, 1.0, 2.0])

    def test_a_sweep_on_one_grid_factors_it_once(self, monkeypatch):
        from loqec import experiment

        fits = []
        monkeypatch.setattr(
            experiment, "fit_malus", lambda *args: fits.append(args) or fit_malus(*args)
        )
        experiment._malus_solver.cache_clear()
        rng = np.random.default_rng(8)
        for angle, overlap_v in rng.uniform([-90.0, 0.0], [90.0, 1.0], size=(200, 2)):
            run_analytic(ExperimentConfig(qubit_hwp_angle=angle, overlap_v=overlap_v))
        info = experiment._malus_solver.cache_info()
        assert (info.misses, info.hits) == (1, 199)
        assert len(fits) == 200


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
        with pytest.raises(ValidationError, match="coherence time must be finite and positive"):
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

    def test_one_batched_call_per_stage(self, monkeypatch):
        """State preparation, the splitter and the post-selection each run once per scan."""
        from loqec import experiment

        calls = []
        for name in ("product_state", "apply_element", "coincidence_postselect"):
            original = getattr(experiment, name)
            monkeypatch.setattr(
                experiment, name,
                lambda *args, _name=name, _f=original: calls.append(_name) or _f(*args),
            )
        result = hom_scan(tuple(np.linspace(-3e-12, 3e-12, 7)), 1e-12)
        assert len(result.points) == 7
        assert sorted(calls) == ["apply_element", "coincidence_postselect", "product_state"]


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
