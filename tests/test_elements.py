"""Unit tests for wave plates, beam splitters, delays, and wiring."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracle import element_transfer, expand_two_photon
from _states import pair_terms
from loqec import (
    ConfigurationError,
    LinearElement,
    ModeLabel,
    Polarization,
    SinglePhotonSpec,
    SinglePhotonState,
    TwoPhotonState,
    ValidationError,
    WiringConfig,
    apply_element,
    bs5050,
    computational_jones,
    hwp,
    pbs,
    pockels,
    product_state,
    rewire,
)

R = 1.0 / math.sqrt(2.0)


def label(path, pol, temporal=0):
    return ModeLabel(path, Polarization(pol), temporal)


PORTS = ("in1", "in2", "out1", "out2")


def single(path, pol, temporal=0, paths=()):
    return SinglePhotonState.from_terms({label(path, pol, temporal): 1.0}, paths=paths)


def through(state, element):
    """The single photon ``state`` after ``element``, sent in as the partner of
    a spectator photon on a path of its own, which the element leaves alone."""
    n = state.vector.size
    pair = np.zeros((n + 4, n + 4), dtype=complex)
    pair[n, :n] = pair[:n, n] = state.vector  # the spectator's mode is (spectator, H, 0)
    out = apply_element(TwoPhotonState(state.paths + ("spectator",), pair), element)
    return SinglePhotonState(state.paths, out.matrix[n, :n])


def jones_of(state, path, temporal=0):
    return (
        state.amplitude(label(path, "H", temporal)),
        state.amplitude(label(path, "V", temporal)),
    )


class TestLinearElement:
    def test_non_unitary_matrix_rejected(self):
        with pytest.raises(ConfigurationError):
            LinearElement(
                "bad", ((("P"), Polarization.H), (("P"), Polarization.V)), np.eye(2) * 2
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            LinearElement("bad", ((("P"), Polarization.H),), np.eye(2))

    def test_duplicate_channels_rejected(self):
        channel = ("P", Polarization.H)
        with pytest.raises(ConfigurationError):
            LinearElement("bad", (channel, channel), np.eye(2))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_matrix_rejected(self, bad):
        channels = (("P", Polarization.H), ("P", Polarization.V))
        with pytest.raises(ConfigurationError, match="not unitary"):
            LinearElement("bad", channels, np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_matrix_is_frozen(self):
        element = hwp(10.0, "P")
        with pytest.raises(ValueError):
            element.matrix[0, 0] = 5.0

    def test_equal_elements_compare_and_hash_equal(self):
        assert hwp(10, "A") == hwp(10, "A")
        assert hash(hwp(10, "A")) == hash(hwp(10, "A"))
        assert pbs(*PORTS) == pbs(*PORTS) and len({pbs(*PORTS), pbs(*PORTS)}) == 1

    @pytest.mark.parametrize("other", [
        hwp(20, "A"),
        hwp(10, "B"),
        hwp(10.0000001, "A"),
        LinearElement("other", hwp(10, "A").channels, hwp(10, "A").matrix),
        "hwp[10]",
    ], ids=["angle", "path", "matrix-only", "name-only", "not-an-element"])
    def test_unequal_elements_compare_unequal(self, other):
        element = hwp(10, "A")
        assert element != other and not element == other

    def test_signed_zeros_compare_and_hash_equal(self):
        channels = (("P", Polarization.H), ("P", Polarization.V))
        plus = LinearElement("id", channels, np.array([[1.0, 0.0], [0.0, 1.0]]))
        minus = LinearElement("id", channels, np.array([[1.0, -0.0], [-0.0, 1.0]]))
        assert np.signbit(minus.matrix.real).any()
        assert plus == minus and hash(plus) == hash(minus)

    def test_channels_are_held_as_a_tuple_of_polarizations(self):
        element = hwp(10, "A")
        listed = LinearElement(element.name, [("A", "H"), ["A", "V"]], element.matrix)
        assert listed.channels == element.channels and isinstance(listed.channels, tuple)
        assert all(type(pol) is Polarization for _, pol in listed.channels)
        assert listed == element and hash(listed) == hash(element)

    def test_a_plain_polarization_letter_acts_as_its_polarization(self):
        """Built first, a "V" channel must not alias onto H."""
        from loqec import state_core

        state_core._mode_operator.cache_clear()
        swap = LinearElement("swap", (("P", "H"), ("P", "V")), [[0.0, 1.0], [1.0, 0.0]])
        out = through(single("P", "H"), swap)
        assert out.amplitude(label("P", "V")) == 1.0 and out.norm_squared == 1.0

    @pytest.mark.parametrize("channels", [
        (("P", "X"), ("P", "V")),
        (("P", "H", 0), ("P", "V")),
        (("P", "H"), 5),
        (("P", None), ("P", "V")),
    ], ids=["unknown-letter", "triple", "number", "none"])
    def test_malformed_channels_rejected(self, channels):
        with pytest.raises(ConfigurationError, match=r"channels must be \(path, 'H' or 'V'\) pairs"):
            LinearElement("bad", channels, np.eye(2))


class TestHwp:
    def test_at_22_5_prepares_plus_45_from_h(self):
        out = through(single("P", "H"), hwp(22.5, "P"))
        assert jones_of(out, "P") == pytest.approx(computational_jones(0), abs=1e-12)

    def test_at_minus_22_5_prepares_minus_45_from_h(self):
        out = through(single("P", "H"), hwp(-22.5, "P"))
        assert jones_of(out, "P") == pytest.approx(computational_jones(1), abs=1e-12)

    def test_at_45_swaps_h_and_v(self):
        out = through(single("P", "H"), hwp(45.0, "P"))
        assert jones_of(out, "P") == pytest.approx((0.0, 1.0), abs=1e-12)

    def test_at_0_flips_v_sign(self):
        out = through(single("P", "V"), hwp(0.0, "P"))
        assert jones_of(out, "P") == pytest.approx((0.0, -1.0), abs=1e-12)

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, angle):
        with pytest.raises(ValidationError, match="hwp angle must be finite"):
            hwp(angle, "P")

    @pytest.mark.parametrize("angle", ["x", True])
    def test_non_number_angle_named(self, angle):
        with pytest.raises(ValidationError, match="hwp angle must be a real number"):
            hwp(angle, "P")

    @given(st.floats(-180, 180, allow_nan=False))
    def test_same_plate_twice_is_identity(self, angle):
        plate = hwp(angle, "P")
        matrix = plate.matrix @ plate.matrix
        assert np.allclose(matrix, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("angle", [0.0, 10.0, 22.5, -22.5, 45.0, 81.1, 1e6])
    def test_image_of_h_is_the_first_column(self, angle):
        from loqec.elements import _hwp_image_of_h

        column = np.array(_hwp_image_of_h(angle), dtype=complex)
        assert column.tobytes() == hwp(angle, "P").matrix[:, 0].tobytes()


class TestPbs:
    def test_ports_must_be_distinct(self):
        with pytest.raises(ConfigurationError):
            pbs("a", "a", "c", "d")

    def test_transmits_h_and_reflects_v(self):
        splitter = pbs(*PORTS)
        routes = (("in1", "H", "out1"), ("in1", "V", "out2"), ("in2", "H", "out2"), ("in2", "V", "out1"))
        for source, pol, target in routes:
            out = through(single(source, pol, paths=PORTS), splitter)
            assert out == single(target, pol, paths=PORTS)

    def test_two_v_photons_exit_swapped_ports(self):
        """Opposite-port V inputs both reflect; no interference possible."""
        state = TwoPhotonState.from_terms(
            {(label("in1", "V"), label("in2", "V")): 1.0},
            paths=("out1", "out2"),
        )
        splitter = pbs("in1", "in2", "out1", "out2")
        out = apply_element(state, splitter)
        assert out.amplitude(label("out1", "V"), label("out2", "V")) == pytest.approx(1.0)
        terms = pair_terms(state)
        labels = sorted({l for key in terms for l in key})
        expected = expand_two_photon(terms, element_transfer(splitter, labels))
        assert set(pair_terms(out)) == set(expected)

    def test_coincidence_terms_of_the_encoder(self):
        """Generic qubit against a +45 ancilla: the four output terms."""
        alpha, beta = 0.6, 0.8
        qubit_jones = tuple(
            alpha * z + beta * o
            for z, o in zip(computational_jones(0), computational_jones(1))
        )
        state = product_state(
            SinglePhotonSpec("in1", qubit_jones),
            SinglePhotonSpec("in2", computational_jones(0)),
            paths=("out1", "out2"),
        )
        out = apply_element(state, pbs("in1", "in2", "out1", "out2"))
        a_h = (alpha + beta) * R
        a_v = (alpha - beta) * R
        # Coincidence terms: qubit H transmits to out1 with the ancilla H
        # going to out2, and ancilla V reflects to out1 with the qubit V on
        # out2.
        assert out.amplitude(label("out1", "H"), label("out2", "H")) == pytest.approx(
            a_h * R, abs=1e-12
        )
        assert out.amplitude(label("out1", "V"), label("out2", "V")) == pytest.approx(
            a_v * R, abs=1e-12
        )
        # Rejected terms: both photons on one output arm.
        assert abs(out.amplitude(label("out1", "H"), label("out1", "V"))) == pytest.approx(
            abs(a_h) * R, abs=1e-12
        )
        assert out.norm_squared == pytest.approx(1.0, abs=1e-12)

    def test_unitary_on_full_channel_space(self):
        splitter = pbs("in1", "in2", "out1", "out2")
        product = splitter.matrix.conj().T @ splitter.matrix
        assert np.allclose(product, np.eye(8), atol=1e-15)


class TestBs5050:
    def test_ports_must_be_distinct(self):
        with pytest.raises(ConfigurationError):
            bs5050("a", "b", "c", "c")

    def test_single_photon_splits_evenly(self):
        splitter = bs5050(*PORTS)
        out = through(single("in1", "H", paths=PORTS), splitter)
        assert out.amplitude(label("out1", "H")) == pytest.approx(R)
        assert out.amplitude(label("out2", "H")) == pytest.approx(R)

    def test_sign_convention_on_second_input(self):
        splitter = bs5050(*PORTS)
        out = through(single("in2", "V", paths=PORTS), splitter)
        assert out.amplitude(label("out1", "V")) == pytest.approx(R)
        assert out.amplitude(label("out2", "V")) == pytest.approx(-R)

    def test_identical_photons_never_coincide(self):
        state = TwoPhotonState.from_terms(
            {(label("in1", "H"), label("in2", "H")): 1.0}, paths=("out1", "out2")
        )
        out = apply_element(state, bs5050("in1", "in2", "out1", "out2"))
        assert out.amplitude(label("out1", "H"), label("out2", "H")) == 0
        assert out.norm_squared == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 1), st.integers(0, 1), st.sampled_from(list(Polarization)))
    def test_matches_permanent_oracle(self, t1, t2, pol):
        state = TwoPhotonState.from_terms(
            {(label("in1", pol, t1), label("in2", pol, t2)): 1.0},
            paths=("out1", "out2"),
        )
        splitter = bs5050("in1", "in2", "out1", "out2")
        out = apply_element(state, splitter)
        terms = pair_terms(state)
        labels = sorted({l for key in terms for l in key})
        expected = expand_two_photon(terms, element_transfer(splitter, labels))
        for key in set(pair_terms(out)) | set(expected):
            assert abs(out.amplitude(*key) - expected.get(key, 0j)) < 1e-12


class TestPockels:
    def test_active_cell_exchanges_computational_states(self):
        cell = pockels("C", active=True)
        zero_in = SinglePhotonState.from_terms(
            {label("C", "H"): R, label("C", "V"): R}
        )
        out = through(zero_in, cell)
        assert jones_of(out, "C") == pytest.approx(computational_jones(1), abs=1e-12)

    def test_inactive_cell_is_identity(self):
        cell = pockels("C", active=False)
        state = SinglePhotonState.from_terms({label("C", "H"): 0.6, label("C", "V"): 0.8})
        assert through(state, cell) == state

    def test_firing_twice_is_identity(self):
        cell = pockels("C", active=True)
        state = SinglePhotonState.from_terms({label("C", "H"): 0.6, label("C", "V"): 0.8})
        assert through(through(state, cell), cell) == state

    def test_undeclared_path_rejected(self):
        with pytest.raises(ConfigurationError):
            through(single("P", "H"), pockels("R", active=True))


class TestDelay:
    """A relative delay enters a state as ``product_state``'s overlap on its second photon."""

    def test_full_overlap_is_exact_identity(self):
        """Overlap 1 leaves the second photon exactly on index 0, as with no delay at all."""
        state = product_state(
            SinglePhotonSpec("P", (1.0, 0.0)), SinglePhotonSpec("Q", (0.0, 1.0)),
            1.0,
        )
        assert state == TwoPhotonState.from_terms({(label("P", "H"), label("Q", "V")): 1.0})

    def test_zero_overlap_moves_wavepacket_to_index_one(self):
        h = (1.0, 0.0)
        state = product_state(SinglePhotonSpec("P", h), SinglePhotonSpec("Q", h), 0.0)
        assert abs(state.amplitude(label("P", "H", 0), label("Q", "H", 1))) == pytest.approx(1.0)

    def test_partial_overlap_weights(self):
        h = (1.0, 0.0)
        state = product_state(SinglePhotonSpec("P", h), SinglePhotonSpec("Q", h), 0.5)
        assert state.amplitude(label("P", "H", 0), label("Q", "H", 0)) == pytest.approx(0.5)
        assert state.amplitude(label("P", "H", 0), label("Q", "H", 1)) == pytest.approx(
            0.8660254037844386  # sqrt(3)/2
        )

    def test_only_the_named_path_is_touched(self):
        """The second photon, here on P, is the one that moves to index 1."""
        h = (1.0, 0.0)
        state = product_state(SinglePhotonSpec("Q", h), SinglePhotonSpec("P", h), 0.0)
        assert abs(state.amplitude(label("P", "H", 1), label("Q", "H", 0))) == pytest.approx(1.0)
        assert state.amplitude(label("P", "H", 0), label("Q", "H", 1)) == 0

    @given(st.floats(0.0, 1.0, allow_nan=False))
    def test_norm_preserved_for_any_overlap(self, overlap):
        """The second photon's weight splits as v^2 on index 0 and 1 - v^2 on index 1."""
        state = product_state(
            SinglePhotonSpec("P", (0.6, 0.8)), SinglePhotonSpec("Q", (R, -R)),
            overlap,
        )
        late = sum(
            abs(state.amplitude(label("P", pol_p), label("Q", pol_q, 1))) ** 2
            for pol_p in "HV"
            for pol_q in "HV"
        )
        assert state.norm_squared == pytest.approx(1.0, abs=1e-12)
        assert late == pytest.approx(1.0 - overlap * overlap, abs=1e-12)


class TestWiring:
    def test_parse_accepts_both_routings(self):
        assert WiringConfig.parse("A:C,B:D") is WiringConfig.A_TO_C_B_TO_D
        assert WiringConfig.parse("A:D, B:C") is WiringConfig.A_TO_D_B_TO_C

    def test_parse_rejects_unknown_routing(self):
        with pytest.raises(ConfigurationError):
            WiringConfig.parse("A:B,C:D")

    @pytest.mark.parametrize("bad", [3, True, None, b"A:C,B:D", ["A:C", "B:D"]])
    def test_parse_rejects_a_non_string(self, bad):
        with pytest.raises(ConfigurationError, match=re.escape(f"wiring must be a string, got {bad!r}")):
            WiringConfig.parse(bad)

    def test_rewire_routes_encoder_outputs(self):
        state = TwoPhotonState.from_terms({(label("A", "H"), label("B", "V")): 1.0})
        out = rewire(state, WiringConfig.A_TO_C_B_TO_D)
        assert out.amplitude(label("C", "H"), label("D", "V")) == 1.0
        crossed = rewire(state, WiringConfig.A_TO_D_B_TO_C)
        assert crossed.amplitude(label("D", "H"), label("C", "V")) == 1.0

    def test_double_rewire_restores_original_labels(self):
        state = TwoPhotonState.from_terms(
            {(label("A", "H"), label("B", "V")): 0.6, (label("A", "V"), label("B", "H")): -0.8}
        )
        for wiring in WiringConfig:
            assert rewire(rewire(state, wiring), wiring) == state

    def test_rewire_preserves_norm(self):
        state = TwoPhotonState.from_terms(
            {(label("A", "H"), label("B", "V")): 0.6, (label("A", "V"), label("B", "H")): 0.8j}
        )
        out = rewire(state, WiringConfig.A_TO_D_B_TO_C)
        assert out.norm_squared == pytest.approx(state.norm_squared, abs=1e-15)
