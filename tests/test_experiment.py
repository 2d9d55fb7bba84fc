"""Unit tests for the sweep pipeline, fitting, sampling, and HOM scans."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracle import curve_formula, encoder_branch_states, encoder_curve, hom_coincidence
from loqec import (
    DEFAULT_THETAS,
    ExperimentConfig,
    FitError,
    MalusFit,
    ModeLabel,
    Polarization,
    ValidationError,
    WiringConfig,
    encode_qubit,
    fit_malus,
    hom_scan,
    run_analytic,
    run_experiment,
    sample_counts,
    visibility,
)

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

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-90, 90, allow_nan=False), st.floats(0, 1, allow_nan=False))
    def test_success_probability_is_half_for_any_setting(self, angle, overlap_v):
        alpha, beta = coefficients_after_hwp(angle)
        _, p = encode_qubit(alpha, beta, overlap_v)
        assert p == pytest.approx(0.5, abs=1e-12)

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
        with pytest.raises(ValidationError, match=rf"probabilities\[1\] = {bad!r}"):
            sample_counts([0.5, bad], 100.0, 1.0, seed=0)

    @pytest.mark.parametrize("seed", [1.0, True, "7", math.nan])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValidationError, match="seed must be an integer"):
            sample_counts([0.5], 100.0, 1.0, seed=seed)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValidationError):
            sample_counts([0.1], -100.0, 1.0, seed=0)

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

    def test_visibility_needs_positive_offset(self):
        with pytest.raises(ValidationError):
            visibility(MalusFit(0.0, 0.1, 0.0))


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

    @pytest.mark.parametrize("coherence_time", [math.inf, math.nan])
    def test_non_finite_coherence_time_rejected(self, coherence_time):
        with pytest.raises(ValidationError, match="coherence time"):
            hom_scan((0.0,), coherence_time)
