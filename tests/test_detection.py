"""Unit tests for post-selection, Z measurement, feed-forward, and curves."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracle import curve_formula, encoder_branch_states, encoder_curve
from loqec import (
    ModeLabel,
    PATH_C,
    PATH_D,
    Polarization,
    SinglePhotonSpec,
    SinglePhotonState,
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
    pockels,
    product_state,
    rewire,
    z_measure,
)
from loqec.detection import analyzer_probabilities

R = 1.0 / math.sqrt(2.0)


def label(path, pol, temporal=0):
    return ModeLabel(path, Polarization(pol), temporal)


def encoded_on_bench(alpha, beta, overlap_v=1.0, wiring=WiringConfig.A_TO_C_B_TO_D):
    state, _ = encode_qubit(alpha, beta, overlap_v)
    return rewire(state, wiring)


def member(survivor, herald, temporal):
    """One (herald, measured temporal index) row of a survivor, as a state of its own."""
    return SinglePhotonState(survivor.paths, survivor.vector[herald, temporal])


def survivor_jones(row):
    """A survivor row's (H, V) pair on arm C, at its one occupied temporal index."""
    per_temporal = [
        (row.amplitude(label(PATH_C, "H", t)), row.amplitude(label(PATH_C, "V", t)))
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
        survivor = z_measure(encoded_on_bench(1.0, 0.0), PATH_D)
        assert survivor.vector.shape == (2, 2, 12)
        weights = survivor.norm_squared
        assert weights[:, 0] == pytest.approx([0.25, 0.25], abs=1e-12)
        assert not survivor.vector[:, 1].any()
        assert_proportional(survivor_jones(member(survivor, 0, 0)), computational_jones(0), 0.5)
        assert_proportional(survivor_jones(member(survivor, 1, 0)), computational_jones(1), 0.5)

    def test_value_one_herald_marks_the_bit_flip(self):
        """Encoding |1>: a transmitted-arm click leaves the survivor in |0>."""
        survivor = z_measure(encoded_on_bench(0.0, 1.0), PATH_D)
        assert_proportional(survivor_jones(member(survivor, 1, 0)), computational_jones(0), 0.5)
        assert_proportional(survivor_jones(member(survivor, 0, 0)), computational_jones(1), 0.5)

    def test_partial_overlap_adds_temporal_branches(self):
        weights = z_measure(encoded_on_bench(1.0, 0.0, overlap_v=0.5), PATH_D).norm_squared
        assert (weights > 0.0).all()
        expected = np.zeros((2, 2))
        u = math.sqrt(0.5)
        for outcome in (0, 1):
            for t, amps in encoder_branch_states(1.0, 0.0, u, outcome).items():
                expected[outcome, t] = sum(abs(a) ** 2 for a in amps.values())
        assert np.abs(weights - expected).max() <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0, 90, allow_nan=False), st.floats(0, 1, allow_nan=False))
    def test_branch_probabilities_sum_to_selected_norm(self, angle, overlap_v):
        alpha = math.cos(math.radians(angle))
        beta = math.sin(math.radians(angle))
        state, p_success = encode_qubit(alpha, beta, overlap_v)
        survivor = z_measure(rewire(state, WiringConfig.A_TO_C_B_TO_D), PATH_D)
        assert survivor.norm_squared.sum() == pytest.approx(p_success, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0, 2 * math.pi, allow_nan=False),
        st.floats(0, 2 * math.pi, allow_nan=False),
        st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0, 1, allow_nan=False)),
        st.sampled_from(list(WiringConfig)),
    )
    def test_survivor_matches_the_branch_oracle(self, a, phi, overlap_v, wiring):
        """Each herald's coherency, summed over the measured temporal index,
        is the oracle's for either wiring.  On the standard wiring each
        (herald, temporal) row holds exactly the oracle's amplitudes on arm
        C, a row the oracle lacks is exact zeros, and the weights resolve
        the post-selection probability."""
        alpha = complex(math.cos(a))
        beta = complex(math.cos(phi), math.sin(phi)) * math.sin(a)
        state, p_success = encode_qubit(alpha, beta, overlap_v)
        survivor = z_measure(rewire(state, wiring), PATH_D)
        assert survivor.vector.shape == (2, 2, 12)
        assert survivor.norm_squared.sum() == pytest.approx(p_success, abs=1e-12)
        coherency = survivor.coherency().sum(axis=1)
        for outcome in (0, 1):
            branches = encoder_branch_states(alpha, beta, math.sqrt(overlap_v), outcome)
            want = np.zeros((2, 2), dtype=complex)
            for amps in branches.values():
                for t_c in (0, 1):
                    jones = np.array([amps.get((pol, t_c), 0j) for pol in "HV"])
                    want += np.outer(jones, jones.conj())
            assert np.abs(coherency[outcome] - want).max() <= 1e-12
            if wiring is not WiringConfig.A_TO_C_B_TO_D:
                continue
            for t in (0, 1):
                row = member(survivor, outcome, t)
                on_c = {
                    label(PATH_C, pol, t_c): branches.get(t, {}).get((pol, t_c), 0j)
                    for pol in "HV" for t_c in (0, 1)
                }
                for lab, amp in on_c.items():
                    assert abs(row.amplitude(lab) - amp) <= 1e-12
                assert survivor.paths.index(PATH_C) == 2 and not row.vector[:8].any()
                if t not in branches:
                    assert not row.vector.any()

    @pytest.mark.parametrize("path", ["A", "B", "C"])
    def test_survivor_keeps_the_other_paths_modes_in_order(self, path):
        """Measuring the first, middle or last of three paths leaves the
        survivor on the other two, in their declared order, each amplitude
        on the mode it had in the pair."""
        others = tuple(p for p in ("A", "B", "C") if p != path)
        partner = {label(others[0], "V", 1): 0.6, label(others[1], "H"): -0.8j}
        pair = TwoPhotonState.from_terms(
            {(label(path, "H"), mode): amp for mode, amp in partner.items()}, paths=("A", "B", "C")
        )
        survivor = z_measure(pair, path)
        assert survivor.paths == others and survivor.vector.shape == (2, 2, 8)
        # An H photon on the measured path goes to either detector with amplitude 1/sqrt(2).
        want = SinglePhotonState.from_terms(partner, paths=others).vector * R
        for herald in (0, 1):
            assert np.abs(survivor.vector[herald, 0] - want).max() <= 1e-15
            assert not survivor.vector[herald, 1].any()

    def test_default_detector_pair_layout(self):
        """Axis 0 of the survivor is D2 (value 0, +45) then D3 (value 1, -45)."""
        assert (Z_VALUE0_DETECTOR, Z_VALUE1_DETECTOR) == ("D2", "D3")
        for value in (0, 1):
            h, v = computational_jones(value)
            state = TwoPhotonState.from_terms(
                {(label("A", "H"), label("B", "H")): h, (label("A", "H"), label("B", "V")): v}
            )
            weights = z_measure(state, "B").norm_squared
            assert weights[value, 0] == pytest.approx(1.0, abs=1e-12)
            assert weights[1 - value].tolist() == [0.0, 0.0]


class TestFeedForward:
    def test_trigger_branch_is_flipped_back(self):
        survivor = z_measure(encoded_on_bench(1.0, 0.0), PATH_D)
        corrected = apply_feedforward(survivor, enabled=True)
        assert_proportional(survivor_jones(member(corrected, 1, 0)), computational_jones(0), 0.5)

    def test_non_trigger_branch_is_untouched(self):
        survivor = z_measure(encoded_on_bench(0.3, math.sqrt(1 - 0.09), 0.4), PATH_D)
        corrected = apply_feedforward(survivor, enabled=True)
        assert corrected.paths == survivor.paths
        assert corrected.vector[0].tobytes() == survivor.vector[0].tobytes()
        assert corrected.vector[1].tobytes() != survivor.vector[1].tobytes()

    def test_disabled_feed_forward_is_a_no_op(self):
        survivor = z_measure(encoded_on_bench(1.0, 0.0), PATH_D)
        assert apply_feedforward(survivor, enabled=False) is survivor

    def test_probabilities_are_preserved(self):
        survivor = z_measure(encoded_on_bench(0.3, math.sqrt(1 - 0.09), 0.4), PATH_D)
        corrected = apply_feedforward(survivor, enabled=True)
        assert np.abs(corrected.norm_squared - survivor.norm_squared).max() <= 1e-15

    def test_one_operator_flips_every_trigger_branch(self, monkeypatch):
        """Both D3 rows (one per temporal index) share one Pockels operator,
        and the D3 row comes out exactly as the cell's matrix, laid over the
        survivor's modes, flips that row alone."""
        from loqec import state_core

        survivor = z_measure(encoded_on_bench(0.3, math.sqrt(1 - 0.09), 0.4), PATH_D)
        assert (survivor.norm_squared[1] > 0.0).all()
        cell = pockels(PATH_C, active=True)
        # The matrix acts on the cell's channels at either temporal index; other modes pass.
        u = np.eye(survivor.vector.shape[-1], dtype=complex)
        for t in (0, 1):
            modes = [4 * survivor.paths.index(p) + 2 * (pol == "V") + t for p, pol in cell.channels]
            u[np.ix_(modes, modes)] = cell.matrix
        want = (u * survivor.vector[1][..., None, :]).sum(axis=-1)
        built = []
        original = state_core._mode_operator
        monkeypatch.setattr(
            state_core, "_mode_operator", lambda *args: built.append(args) or original(*args)
        )
        corrected = apply_feedforward(survivor, enabled=True)
        assert len(built) == 1
        assert corrected.vector[1].tobytes() == want.tobytes()

    @pytest.mark.parametrize("reader", [
        lambda s: apply_feedforward(s, True),
        lambda s: apply_feedforward(s, False),
        lambda s: analyzer_curve(s, (0.0, 45.0)),
    ], ids=["feedforward-on", "feedforward-off", "analyzer_curve"])
    def test_a_state_of_another_shape_is_rejected(self, reader):
        survivor = z_measure(encoded_on_bench(1.0, 0.0), PATH_D)
        for vector in (survivor.vector[0], survivor.vector[0, 0], survivor.vector[:, :, None]):
            with pytest.raises(ValidationError, match="vector shape"):
                reader(SinglePhotonState(survivor.paths, vector))


def bench_curves(alpha, beta, overlap_v, thetas, pc_enabled):
    survivor = z_measure(encoded_on_bench(alpha, beta, overlap_v), PATH_D)
    survivor = apply_feedforward(survivor, pc_enabled)
    return analyzer_curve(survivor, thetas)


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
        survivor = z_measure(encoded_on_bench(alpha, beta, overlap_v, wiring), PATH_D)
        survivor = apply_feedforward(survivor, pc_enabled)
        curves = analyzer_curve(survivor, thetas)
        u = math.sqrt(overlap_v)
        for i, theta in enumerate(thetas):
            assert curves.p_d1_d2[i] == pytest.approx(
                encoder_curve(alpha, beta, u, theta, 0), abs=1e-12
            )
            assert curves.p_d1_d3[i] == pytest.approx(
                encoder_curve(alpha, beta, u, theta, 1, corrected=pc_enabled), abs=1e-12
            )

    def test_empty_angle_grid_rejected(self):
        survivor = z_measure(encoded_on_bench(1.0, 0.0), PATH_D)
        with pytest.raises(ValidationError):
            analyzer_curve(survivor, ())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, bad):
        survivor = z_measure(encoded_on_bench(1.0, 0.0), PATH_D)
        with pytest.raises(ValidationError, match=r"thetas\[1\]"):
            analyzer_curve(survivor, (0.0, bad))


class TestAnalyzerProbabilities:
    coherency = np.array([[[0.5, 0.25], [0.25, 0.5]], [[1.0, 0.0], [0.0, 0.0]]], dtype=complex)

    @pytest.mark.parametrize("thetas, message", [
        (["10", "20"], r"thetas\[0\] must be a real number, got '10'"),
        ([math.nan, 1.0], r"thetas\[0\] must be finite, got nan"),
        ((math.nan, 1.0), r"thetas\[0\] must be finite, got nan"),
        ((0.0, math.inf), r"thetas\[1\] must be finite, got inf"),
        ((), "thetas must hold at least one value"),
        (np.zeros((2, 2)), "thetas must be one-dimensional"),
        (5.0, "thetas must be one-dimensional"),
    ], ids=["strings", "nan-list", "nan-tuple", "inf-tuple", "empty", "2-d", "scalar"])
    def test_a_bad_grid_is_named(self, thetas, message):
        for _ in range(2):  # no cache entry lets a bad grid through the second time
            with pytest.raises(ValidationError, match=message):
                analyzer_probabilities(self.coherency, thetas)

    @pytest.mark.parametrize("coherency", [
        "abc", [[1, 2], [3, "x"]], np.eye(2, dtype=bool), [[1, None], [0, 0]], [[1, 2], [3]],
    ], ids=["string", "string-entry", "bools", "object", "ragged"])
    def test_a_non_numeric_coherency_is_rejected(self, coherency):
        with pytest.raises(ValidationError, match="coherency must be an array of numbers"):
            analyzer_probabilities(coherency, (0.0, 45.0))

    @pytest.mark.parametrize("coherency, shape", [
        (np.eye(3), (3, 3)), (np.zeros((2, 3)), (2, 3)), (np.zeros(4), (4,)), (0.5, ()),
    ], ids=["3x3", "2x3", "1-d", "scalar"])
    def test_a_coherency_not_of_2x2_matrices_is_rejected(self, coherency, shape):
        with pytest.raises(ValidationError, match=re.escape(f"got shape {shape}")):
            analyzer_probabilities(coherency, (0.0, 45.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_coherency_entry_is_named(self, bad):
        coherency = self.coherency.copy()
        coherency[1, 0, 1] = bad
        with pytest.raises(ValidationError, match=re.escape("at index (1, 0, 1) of shape (2, 2, 2)")):
            analyzer_probabilities(coherency, (0.0, 45.0))

    def test_a_bool_does_not_share_the_entry_of_its_number(self):
        analyzer_probabilities(self.coherency, (1.0, 2.0))
        with pytest.raises(ValidationError, match=r"thetas\[0\] must be a real number, got True"):
            analyzer_probabilities(self.coherency, (True, 2.0))

    def test_every_grid_form_gives_the_same_bytes(self):
        grid = (-90.0, -12.5, 0.0, 33.0, 181.0)
        want = analyzer_probabilities(self.coherency, grid)
        for form in (list(grid), np.array(grid), (-90, -12.5, 0, 33, 181)):
            assert analyzer_probabilities(self.coherency, form).tobytes() == want.tobytes()
        rad = np.radians(np.array(grid) % 180.0)
        c, s = np.cos(rad), np.sin(rad)
        j = self.coherency.real[..., None]
        direct = j[:, 0, 0] * c * c + j[:, 1, 1] * s * s + 2.0 * j[:, 0, 1] * c * s
        assert want.tobytes() == np.maximum(direct, 0.0).tobytes()

    @pytest.mark.parametrize("size", [19, 181, 1801])
    def test_the_readout_has_the_bytes_of_a_sweeps_cached_trig(self, size):
        """The public readout takes its grid's trig on each call, and a sweep
        reads it from its grid's one cache entry: both give the same bytes."""
        from loqec import experiment
        from loqec.detection import _pass_probabilities

        grid = tuple(np.linspace(-90.0, 90.0, size).tolist())
        c, s, _ = experiment._grid_tables(grid)
        want = _pass_probabilities(self.coherency, c, s).tobytes()
        for form in (grid, list(grid), np.array(grid)):
            assert analyzer_probabilities(self.coherency, form).tobytes() == want
