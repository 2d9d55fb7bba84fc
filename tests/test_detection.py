"""Unit tests for post-selection, Z measurement, feed-forward, and curves."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracle import curve_formula, encoder_branch_states, encoder_curve
from loqec import (
    ConfigurationError,
    DetectorSpec,
    ModeLabel,
    PATH_C,
    PATH_D,
    Polarization,
    SinglePhotonSpec,
    TwoPhotonState,
    ValidationError,
    WiringConfig,
    Z_VALUE0_DETECTOR,
    Z_VALUE1_DETECTOR,
    analyzer_curve,
    apply_element,
    apply_feedforward,
    coincidence_postselect,
    computational_jones,
    encode_qubit,
    pbs,
    product_state,
    rewire,
    z_detectors,
    z_measure,
)

R = 1.0 / math.sqrt(2.0)


def label(path, pol, temporal=0):
    return ModeLabel(path, Polarization(pol), temporal)


def encoded_on_bench(alpha, beta, overlap_v=1.0, wiring=WiringConfig.A_TO_C_B_TO_D):
    state, _ = encode_qubit(alpha, beta, overlap_v)
    return rewire(state, wiring)


def survivor_jones(branch):
    """The survivor's (H, V) pair on arm C, at its one occupied temporal index."""
    per_temporal = [
        (branch.conditional.amplitude(label(PATH_C, "H", t)), branch.conditional.amplitude(label(PATH_C, "V", t)))
        for t in (0, 1)
    ]
    occupied = [jones for jones in per_temporal if jones != (0j, 0j)]
    assert len(occupied) <= 1
    return occupied[0] if occupied else (0j, 0j)


def assert_proportional(jones, target, scale):
    assert abs(jones[0] - scale * target[0]) < 1e-12
    assert abs(jones[1] - scale * target[1]) < 1e-12


class TestCoincidencePostselect:
    def test_encoder_success_probability_is_exactly_half(self):
        for alpha in (1.0, 0.0, 0.6, R):
            beta = math.sqrt(1.0 - alpha * alpha)
            _, p = encode_qubit(alpha, beta)
            assert p == pytest.approx(0.5, abs=1e-12)

    def test_same_port_pair_never_survives(self):
        """Two co-propagating H photons transmit together and are dropped."""
        spec = SinglePhotonSpec("in1", (1.0, 0.0))
        state = product_state(spec, spec, paths=("in2", "out1", "out2"))
        splitter = pbs("in1", "in2", "out1", "out2")
        selected, p = coincidence_postselect(apply_element(state, splitter))
        assert p == 0.0
        assert not selected.matrix.any()

    def test_already_selected_state_is_unchanged(self):
        state = TwoPhotonState.from_terms(
            {(label("A", "H"), label("B", "H")): 0.5, (label("A", "V"), label("B", "V")): 0.5}
        )
        selected, p = coincidence_postselect(state)
        assert selected == state
        assert p == pytest.approx(state.norm_squared)

    def test_declared_paths_survive_selection(self):
        state = TwoPhotonState.from_terms(
            {(label("A", "H"), label("A", "V")): 1.0}, paths=("B",)
        )
        selected, p = coincidence_postselect(state)
        assert p == 0.0
        assert set(selected.paths) == {"A", "B"}


class TestZMeasure:
    def test_ideal_heralds_project_onto_computational_states(self):
        branches = z_measure(encoded_on_bench(1.0, 0.0), PATH_D)
        assert len(branches) == 2
        by_id = {branch.detector: branch for branch in branches}
        for branch in branches:
            assert branch.probability == pytest.approx(0.25, abs=1e-12)
        assert_proportional(
            survivor_jones(by_id[Z_VALUE0_DETECTOR]), computational_jones(0), 0.5
        )
        assert_proportional(
            survivor_jones(by_id[Z_VALUE1_DETECTOR]), computational_jones(1), 0.5
        )

    def test_value_one_herald_marks_the_bit_flip(self):
        """Encoding |1>: a transmitted-arm click leaves the survivor in |0>."""
        branches = z_measure(encoded_on_bench(0.0, 1.0), PATH_D)
        by_id = {branch.detector: branch for branch in branches}
        assert_proportional(
            survivor_jones(by_id[Z_VALUE1_DETECTOR]), computational_jones(0), 0.5
        )
        assert_proportional(
            survivor_jones(by_id[Z_VALUE0_DETECTOR]), computational_jones(1), 0.5
        )

    def test_partial_overlap_adds_temporal_branches(self):
        branches = z_measure(encoded_on_bench(1.0, 0.0, overlap_v=0.5), PATH_D)
        assert len(branches) == 4
        weights = {}
        for branch in branches:
            weights[(branch.detector, branch.temporal)] = branch.probability
        expected = {}
        u = math.sqrt(0.5)
        for outcome, detector in ((0, Z_VALUE0_DETECTOR), (1, Z_VALUE1_DETECTOR)):
            for t, amps in encoder_branch_states(1.0, 0.0, u, outcome).items():
                expected[(detector, t)] = sum(abs(a) ** 2 for a in amps.values())
        assert weights == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0, 90, allow_nan=False), st.floats(0, 1, allow_nan=False))
    def test_branch_probabilities_sum_to_selected_norm(self, angle, overlap_v):
        alpha = math.cos(math.radians(angle))
        beta = math.sin(math.radians(angle))
        state, p_success = encode_qubit(alpha, beta, overlap_v)
        branches = z_measure(rewire(state, WiringConfig.A_TO_C_B_TO_D), PATH_D)
        total = sum(branch.probability for branch in branches)
        assert total == pytest.approx(p_success, abs=1e-12)

    def test_custom_detectors_must_be_orthogonal(self):
        skewed = (
            DetectorSpec("D2", PATH_D, computational_jones(0)),
            DetectorSpec("D3", PATH_D, (1.0, 0.0)),
        )
        with pytest.raises(ConfigurationError):
            z_measure(encoded_on_bench(1.0, 0.0), PATH_D, detectors=skewed)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_detector_jones_fails_the_orthogonality_check(self, bad):
        skewed = (
            DetectorSpec("D2", PATH_D, computational_jones(0)),
            DetectorSpec("D3", PATH_D, (bad, 0.0)),
        )
        with pytest.raises(ConfigurationError, match="orthogonal"):
            z_measure(encoded_on_bench(1.0, 0.0), PATH_D, detectors=skewed)

    def test_custom_detectors_must_sit_on_the_measured_path(self):
        misplaced = (
            DetectorSpec("D2", PATH_C, computational_jones(0)),
            DetectorSpec("D3", PATH_C, computational_jones(1)),
        )
        with pytest.raises(ConfigurationError):
            z_measure(encoded_on_bench(1.0, 0.0), PATH_D, detectors=misplaced)

    def test_default_detector_pair_layout(self):
        d2, d3 = z_detectors(PATH_D)
        assert (d2.id, d3.id) == (Z_VALUE0_DETECTOR, Z_VALUE1_DETECTOR)
        assert d2.jones == computational_jones(0)
        assert d3.jones == computational_jones(1)


class TestFeedForward:
    def test_trigger_branch_is_flipped_back(self):
        branches = z_measure(encoded_on_bench(1.0, 0.0), PATH_D)
        corrected = apply_feedforward(branches, enabled=True)
        by_id = {branch.detector: branch for branch in corrected}
        assert_proportional(
            survivor_jones(by_id[Z_VALUE1_DETECTOR]), computational_jones(0), 0.5
        )

    def test_non_trigger_branch_is_untouched(self):
        branches = z_measure(encoded_on_bench(1.0, 0.0), PATH_D)
        corrected = apply_feedforward(branches, enabled=True)
        for before, after in zip(branches, corrected):
            if before.detector != Z_VALUE1_DETECTOR:
                assert after is before

    def test_disabled_feed_forward_is_a_no_op(self):
        branches = z_measure(encoded_on_bench(1.0, 0.0), PATH_D)
        assert apply_feedforward(branches, enabled=False) == branches

    def test_probabilities_are_preserved(self):
        branches = z_measure(encoded_on_bench(0.3, math.sqrt(1 - 0.09), 0.4), PATH_D)
        corrected = apply_feedforward(branches, enabled=True)
        for before, after in zip(branches, corrected):
            assert after.probability == pytest.approx(before.probability, abs=1e-15)
            assert after.conditional.norm_squared == pytest.approx(
                before.conditional.norm_squared, abs=1e-15
            )


def bench_curves(alpha, beta, overlap_v, thetas, pc_enabled):
    branches = z_measure(encoded_on_bench(alpha, beta, overlap_v), PATH_D)
    branches = apply_feedforward(branches, pc_enabled)
    return analyzer_curve(branches, thetas)


class TestAnalyzerCurve:
    thetas = tuple(float(t) for t in range(-90, 91, 15))

    def test_ideal_curves_match_the_closed_form(self):
        curves = bench_curves(1.0, 0.0, 1.0, self.thetas, pc_enabled=False)
        for i, theta in enumerate(self.thetas):
            assert curves.p_d1_d2[i] == pytest.approx(
                curve_formula(1.0, 0.0, 1.0, theta, 0), abs=1e-12
            )
            assert curves.p_d1_d3[i] == pytest.approx(
                curve_formula(1.0, 0.0, 1.0, theta, 1), abs=1e-12
            )

    def test_peak_sits_at_plus_45_for_value_zero_herald(self):
        curves = bench_curves(1.0, 0.0, 1.0, (45.0, -45.0, 0.0), pc_enabled=False)
        assert curves.p_d1_d2[0] == pytest.approx(0.25, abs=1e-12)
        assert curves.p_d1_d2[1] == pytest.approx(0.0, abs=1e-12)
        assert curves.p_d1_d2[2] == pytest.approx(0.125, abs=1e-12)

    def test_decohered_pair_gives_flat_curves(self):
        curves = bench_curves(1.0, 0.0, 0.0, self.thetas, pc_enabled=True)
        for p2, p3 in zip(curves.p_d1_d2, curves.p_d1_d3):
            assert p2 == pytest.approx(0.125, abs=1e-12)
            assert p3 == pytest.approx(0.125, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0, 360, allow_nan=False), st.floats(0, 1, allow_nan=False))
    def test_corrected_transmit_curve_equals_reflect_curve(self, angle, overlap_v):
        alpha = math.cos(math.radians(angle))
        beta = math.sin(math.radians(angle))
        curves = bench_curves(alpha, beta, overlap_v, self.thetas, pc_enabled=True)
        for p2, p3 in zip(curves.p_d1_d2, curves.p_d1_d3):
            assert p3 == pytest.approx(p2, abs=1e-12)

    def test_quarter_period_pairs_resolve_the_selected_norm(self):
        """p(theta) + p(theta + 90) is flat: together the two heralded
        curves account for the full post-selected probability."""
        curves = bench_curves(0.6, 0.8, 0.7, (10.0, 100.0), pc_enabled=False)
        total = (
            curves.p_d1_d2[0]
            + curves.p_d1_d2[1]
            + curves.p_d1_d3[0]
            + curves.p_d1_d3[1]
        )
        assert total == pytest.approx(0.5, abs=1e-12)

    def test_period_180_exact_on_dyadic_grid(self):
        base = (-67.5, -12.25, 0.0, 33.5, 88.75)
        curves_a = bench_curves(0.6, 0.8, 0.9, base, pc_enabled=True)
        curves_b = bench_curves(0.6, 0.8, 0.9, tuple(t + 180.0 for t in base), pc_enabled=True)
        assert curves_a.p_d1_d2 == curves_b.p_d1_d2
        assert curves_a.p_d1_d3 == curves_b.p_d1_d3

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(0, 2 * math.pi, allow_nan=False),
        st.floats(0, 2 * math.pi, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
        st.sampled_from(list(WiringConfig)),
        st.booleans(),
        st.lists(
            st.floats(180.0, 1000.0, allow_nan=False).flatmap(
                lambda t: st.sampled_from((t, -t))
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_complex_inputs_match_the_branch_oracle(
        self, a, phi, overlap_v, wiring, pc_enabled, thetas
    ):
        """A complex (alpha, beta) gives the survivor an imaginary J_HV
        that no linear analyzer may see; angles beyond 180 wrap exactly."""
        alpha = complex(math.cos(a))
        beta = complex(math.cos(phi), math.sin(phi)) * math.sin(a)
        branches = z_measure(encoded_on_bench(alpha, beta, overlap_v, wiring), PATH_D)
        branches = apply_feedforward(branches, pc_enabled)
        curves = analyzer_curve(branches, thetas)
        u = math.sqrt(overlap_v)
        for i, theta in enumerate(thetas):
            assert curves.p_d1_d2[i] == pytest.approx(
                encoder_curve(alpha, beta, u, theta, 0), abs=1e-12
            )
            assert curves.p_d1_d3[i] == pytest.approx(
                encoder_curve(alpha, beta, u, theta, 1, corrected=pc_enabled), abs=1e-12
            )

    def test_empty_angle_grid_rejected(self):
        branches = z_measure(encoded_on_bench(1.0, 0.0), PATH_D)
        with pytest.raises(ValidationError):
            analyzer_curve(branches, ())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, bad):
        branches = z_measure(encoded_on_bench(1.0, 0.0), PATH_D)
        with pytest.raises(ValidationError, match=r"thetas\[1\]"):
            analyzer_curve(branches, (0.0, bad))
