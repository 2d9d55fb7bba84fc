"""Unit tests for mode labels, two-photon states, and conditioning on a detection."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracle import element_transfer, expand_two_photon, gram_schmidt_weights
from _states import pair_terms
from loqec import (
    ConfigurationError,
    LinearElement,
    ModeLabel,
    Polarization,
    SinglePhotonSpec,
    SinglePhotonState,
    StructureError,
    TwoPhotonState,
    ValidationError,
    apply_element,
    bs5050,
    coincidence_postselect,
    computational_jones,
    hwp,
    pbs,
    product_state,
    relabel_paths,
    z_measure,
)

R = 1.0 / math.sqrt(2.0)
_H1 = SinglePhotonSpec("1", (1.0, 0.0))
_H2 = SinglePhotonSpec("2", (1.0, 0.0))


def label(path, pol, temporal=0):
    return ModeLabel(path, Polarization(pol), temporal)


def pair_state(terms, paths=()):
    return TwoPhotonState.from_terms(
        {(label(*a), label(*b)): amp for (a, b), amp in terms.items()}, paths=paths
    )


jones_angles = st.floats(min_value=-360.0, max_value=360.0, allow_nan=False)


@st.composite
def unit_jones(draw):
    theta = draw(jones_angles)
    phi = draw(jones_angles)
    rad = math.radians(theta)
    phase = complex(math.cos(math.radians(phi)), math.sin(math.radians(phi)))
    return (math.cos(rad) + 0j, math.sin(rad) * phase)


@st.composite
def sparse_states(draw, paths=("P", "Q")):
    """Arbitrary (possibly same-path, same-mode) states with norm <= 1."""
    labels = st.builds(
        ModeLabel,
        st.sampled_from(paths),
        st.sampled_from(list(Polarization)),
        st.integers(0, 1),
    )
    n = draw(st.integers(1, 4))
    terms = {}
    for _ in range(n):
        l1, l2 = draw(labels), draw(labels)
        key = (l1, l2) if l1 <= l2 else (l2, l1)
        re = draw(st.floats(-1, 1, allow_nan=False))
        im = draw(st.floats(-1, 1, allow_nan=False))
        amp = complex(re, im)
        terms[key] = amp if abs(amp) > 1e-6 else 1.0 + 0j
    norm = math.sqrt(sum(abs(a) ** 2 for a in terms.values()))
    scale = draw(st.floats(0.3, 1.0)) / norm
    return TwoPhotonState.from_terms({k: a * scale for k, a in terms.items()}, paths=paths)


@st.composite
def coincidence_states(draw, path_a="P", path_b="Q"):
    """States with exactly one photon on each of two fixed paths."""
    one_photon = st.tuples(st.sampled_from(list(Polarization)), st.integers(0, 1))
    n = draw(st.integers(1, 4))
    terms = {}
    for _ in range(n):
        pol_a, t_a = draw(one_photon)
        pol_b, t_b = draw(one_photon)
        re = draw(st.floats(-1, 1, allow_nan=False))
        im = draw(st.floats(-1, 1, allow_nan=False))
        amp = complex(re, im)
        key = (ModeLabel(path_a, pol_a, t_a), ModeLabel(path_b, pol_b, t_b))
        terms[key] = amp if abs(amp) > 1e-6 else 1.0 + 0j
    norm = math.sqrt(sum(abs(a) ** 2 for a in terms.values()))
    scale = draw(st.floats(0.3, 1.0)) / norm
    return TwoPhotonState.from_terms({k: a * scale for k, a in terms.items()})


class TestPolarizationBasis:
    def test_computational_zero_is_plus_45(self):
        assert computational_jones(0) == pytest.approx((R, R))

    def test_computational_one_is_minus_45(self):
        assert computational_jones(1) == pytest.approx((R, -R))

    def test_invalid_value_rejected(self):
        with pytest.raises(ValidationError):
            computational_jones(2)

    @pytest.mark.parametrize("bad", [True, False, 1.0, 0.0, "1", None])
    def test_value_must_be_an_int_not_an_alias(self, bad):
        with pytest.raises(ValidationError, match=f"computational value must be 0 or 1, got {bad!r}"):
            computational_jones(bad)

    def test_numpy_integers_accepted(self):
        assert computational_jones(np.int64(1)) == computational_jones(1)

    @given(unit_jones())
    def test_basis_change_round_trips(self, jones):
        """The two computational states are an orthonormal basis: a Jones
        vector is the sum of its projections onto them."""
        zero, one = computational_jones(0), computational_jones(1)
        alpha = zero[0].conjugate() * jones[0] + zero[1].conjugate() * jones[1]
        beta = one[0].conjugate() * jones[0] + one[1].conjugate() * jones[1]
        back = (alpha * zero[0] + beta * one[0], alpha * zero[1] + beta * one[1])
        assert abs(back[0] - jones[0]) < 1e-12
        assert abs(back[1] - jones[1]) < 1e-12


class TestSpecValidation:
    def test_non_unit_jones_rejected(self):
        with pytest.raises(ValidationError):
            SinglePhotonSpec("P", (0.9, 0.1))

    @pytest.mark.parametrize(
        "jones", [(math.nan, 0.0), (1.0, math.inf), (complex(0, math.nan), 1.0)]
    )
    def test_non_finite_jones_rejected(self, jones):
        with pytest.raises(ValidationError, match="unit norm"):
            SinglePhotonSpec("P", jones)

    @pytest.mark.parametrize("jones,index,shown", [
        (("x", 0), 0, "'x'"),
        (("1", 0), 0, "'1'"),
        ((True, 0), 0, "True"),
        ((1.0, np.False_), 1, "np.False_|False"),
        ((1.0, None), 1, "None"),
    ])
    def test_non_number_jones_entry_named(self, jones, index, shown):
        message = rf"jones vector\[{index}\] must be a number, got ({shown})$"
        with pytest.raises(ValidationError, match=message):
            SinglePhotonSpec("a", jones)

    def test_non_sequence_jones_rejected(self):
        with pytest.raises(ValidationError, match="jones vector must be a pair of numbers, got 1.0"):
            SinglePhotonSpec("a", 1.0)

    @pytest.mark.parametrize("jones", [
        (1, 0),
        (1.0, -0.0),
        (0.6, 0.8j),
        (np.float64(R), np.complex128(-R)),
        np.array([0.0, 1.0]),
        [complex(R, 0.0), complex(0.0, -R)],
    ])
    def test_valid_jones_keep_their_bytes(self, jones):
        expected = tuple(complex(c) for c in jones)
        assert repr(SinglePhotonSpec("a", jones).jones) == repr(expected)

    @pytest.mark.parametrize("bad", [-0.1, 1.01, 2.0, math.nan])
    def test_overlap_out_of_range_rejected(self, bad):
        with pytest.raises(ValidationError, match=r"overlap must lie in \[0, 1\], got"):
            product_state(_H1, _H2, bad)

    @pytest.mark.parametrize(
        "bad", ["x", True, np.True_, b"\x00", None, {0.5}],
        ids=["str", "bool", "numpy-bool", "bytes", "none", "set"],
    )
    def test_non_number_overlap_rejected(self, bad):
        with pytest.raises(ValidationError, match="overlap must be a real number"):
            product_state(_H1, _H2, bad)


class TestModeLabel:
    def test_labels_order_canonically(self):
        assert label("A", "H") < label("A", "V") < label("B", "H")
        assert label("A", "H", 0) < label("A", "H", 1)

    def test_negative_temporal_rejected(self):
        with pytest.raises(ValidationError):
            ModeLabel("A", Polarization.H, -1)

    def test_temporal_index_overflow_rejected(self):
        """A state holds temporal indices 0 and 1 only, the two an overlap splits into."""
        with pytest.raises(ValidationError):
            ModeLabel("P", Polarization.H, 2)
        with pytest.raises(ValidationError):
            TwoPhotonState.from_terms({(label("P", "H", 2), label("Q", "H")): 1.0})

    @pytest.mark.parametrize("bad", ["X", "h", 0, None])
    def test_unknown_polarization_rejected(self, bad):
        with pytest.raises(ValidationError, match=f"polarization must be 'H' or 'V', got {bad!r}"):
            ModeLabel("a", bad)

    @pytest.mark.parametrize("bad", [1.0, 0.0, True, False, "1"])
    def test_temporal_index_must_be_an_int_not_an_alias(self, bad):
        with pytest.raises(ValidationError, match=f"temporal index must be 0 or 1, got {bad!r}"):
            ModeLabel("a", "H", bad)

    def test_temporal_index_stored_as_int(self):
        assert type(ModeLabel("a", "H", np.int64(1)).temporal) is int
        assert ModeLabel("a", "V", np.int64(1)) == ModeLabel("a", Polarization.V, 1)

    def test_amplitude_lookup_ignores_argument_order(self):
        state = pair_state({(("P", "H"), ("Q", "V")): 0.5})
        assert state.amplitude(label("Q", "V"), label("P", "H")) == 0.5


class TestFromTerms:
    def test_duplicate_keys_merge(self):
        l1, l2 = label("P", "H"), label("Q", "H")
        state = TwoPhotonState.from_terms([((l1, l2), 0.25), ((l2, l1), 0.25)])
        assert state.amplitude(l1, l2) == 0.5

    def test_overnormalized_state_rejected(self):
        with pytest.raises(ValidationError):
            pair_state({(("P", "H"), ("Q", "H")): 1.0, (("P", "V"), ("Q", "V")): 0.5})

    @pytest.mark.parametrize("amp", [math.nan, math.inf, complex(0.5, math.nan)])
    def test_non_finite_amplitude_rejected(self, amp):
        with pytest.raises(ValidationError, match="squared norm"):
            pair_state({(("P", "H"), ("Q", "H")): amp})
        with pytest.raises(ValidationError, match="squared norm"):
            SinglePhotonState.from_terms({label("P", "H"): amp})

    def test_matrix_shape_must_fit_the_paths(self):
        from loqec import ConfigurationError

        with pytest.raises(ValidationError):
            TwoPhotonState(("P", "Q"), np.zeros((4, 4)))
        with pytest.raises(ConfigurationError):
            TwoPhotonState(("P", "P"), np.zeros((8, 8)))

    def test_array_amplitude_rejected(self):
        with pytest.raises(ValidationError, match=r"builds one state.*shape \(2,\)"):
            pair_state({(("P", "H"), ("Q", "H")): np.array([0.5, 0.5])})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_matrix_or_vector_rejected(self, bad):
        matrix = np.zeros((8, 8), dtype=complex)
        matrix[0, 4] = matrix[4, 0] = bad
        with pytest.raises(ValidationError, match=r"must be finite.*index \(0, 4\)"):
            TwoPhotonState(("P", "Q"), matrix)
        vector = np.zeros(8, dtype=complex)
        vector[5] = bad
        with pytest.raises(ValidationError, match=r"must be finite.*index \(5,\)"):
            SinglePhotonState(("P", "Q"), vector)

    def test_large_finite_amplitudes_are_not_taken_for_non_finite(self):
        """Their squared norm overflows; each amplitude is still finite."""
        assert TwoPhotonState(("P", "Q"), np.full((8, 8), 1e200)).paths == ("P", "Q")
        assert SinglePhotonState(("P",), np.full(4, 1e200)).paths == ("P",)

    def test_declared_paths_cover_amplitudes_and_extras(self):
        state = pair_state({(("P", "H"), ("Q", "H")): 0.5}, paths=("R",))
        assert set(state.paths) == {"P", "Q", "R"}


class TestProductState:
    def test_identical_wavepackets_share_temporal_zero(self):
        """Two +45 photons on distinct paths: four equal pair amplitudes."""
        zero = computational_jones(0)
        state = product_state(SinglePhotonSpec("1", zero), SinglePhotonSpec("2", zero))
        assert state.norm_squared == pytest.approx(1.0, abs=1e-12)
        for pol_1 in "HV":
            for pol_2 in "HV":
                amp = state.amplitude(label("1", pol_1), label("2", pol_2))
                assert amp == pytest.approx(0.5, abs=1e-12)

    def test_orthogonal_wavepackets_split_temporal_indices(self):
        a = SinglePhotonSpec("1", (1.0, 0.0))
        b = SinglePhotonSpec("2", (1.0, 0.0))
        state = product_state(a, b, 0.0)
        assert state.amplitude(label("1", "H", 0), label("2", "H", 1)) == pytest.approx(1.0)
        assert state.amplitude(label("1", "H", 0), label("2", "H", 0)) == 0

    def test_partial_overlap_splits_by_gram_schmidt(self):
        """Overlap v splits photon 2 as Gram-Schmidt splits wavepacket (v, w) against (1, 0)."""
        v = 0.922
        w = 0.3871898759007006  # sqrt(1 - 0.922^2)
        state = product_state(
            SinglePhotonSpec("1", (1.0, 0.0)),
            SinglePhotonSpec("2", (1.0, 0.0)),
            v,
        )
        overlap, residual = gram_schmidt_weights((1.0, 0.0), (v, w))
        early = state.amplitude(label("1", "H", 0), label("2", "H", 0))
        late = state.amplitude(label("1", "H", 0), label("2", "H", 1))
        assert early == pytest.approx(overlap, abs=1e-12)
        assert late == pytest.approx(residual, abs=1e-12)

    def test_same_mode_double_occupation(self):
        """Identical photons on one path make a single doubly occupied term."""
        spec = SinglePhotonSpec("P", (1.0, 0.0))
        state = product_state(spec, spec)
        occupied = label("P", "H")
        assert state.amplitude(occupied, occupied) == pytest.approx(1.0, abs=1e-12)
        assert state.norm_squared == pytest.approx(1.0, abs=1e-12)

    @given(unit_jones(), unit_jones(), st.floats(0.0, 1.0, allow_nan=False))
    def test_result_is_normalized(self, jones_a, jones_b, overlap):
        state = product_state(
            SinglePhotonSpec("1", jones_a),
            SinglePhotonSpec("2", jones_b),
            overlap,
        )
        assert state.norm_squared == pytest.approx(1.0, abs=1e-12)


def beam_splitter_h(path_1, path_2):
    """50/50 coupling of the two H channels only; V passes through."""
    r = 1.0 / math.sqrt(2.0)
    matrix = np.array([[r, r], [r, -r]], dtype=complex)
    return LinearElement("bs-h", ((path_1, Polarization.H), (path_2, Polarization.H)), matrix)


class TestApplyElement:
    def test_identity_element_is_exact_noop(self):
        state = pair_state({(("P", "H"), ("Q", "V")): 0.6, (("P", "V"), ("Q", "H")): -0.8})
        identity = LinearElement(
            "id", ((("P"), Polarization.H), (("P"), Polarization.V)), np.eye(2)
        )
        assert apply_element(state, identity) == state

    def test_undeclared_path_rejected(self):
        from loqec import ConfigurationError

        state = pair_state({(("P", "H"), ("Q", "H")): 1.0})
        with pytest.raises(ConfigurationError):
            apply_element(state, beam_splitter_h("P", "missing"))

    def test_hom_cancellation_for_identical_photons(self):
        """Same temporal index: the one-per-output pair vanishes exactly."""
        state = pair_state({(("P", "H"), ("Q", "H")): 1.0})
        out = apply_element(state, beam_splitter_h("P", "Q"))
        assert out.amplitude(label("P", "H"), label("Q", "H")) == 0
        doubly = out.amplitude(label("P", "H"), label("P", "H"))
        assert abs(doubly) == pytest.approx(R, abs=1e-12)
        assert out.norm_squared == pytest.approx(1.0, abs=1e-12)

    def test_no_cancellation_for_orthogonal_temporal_indices(self):
        state = pair_state({(("P", "H", 0), ("Q", "H", 1)): 1.0})
        out = apply_element(state, beam_splitter_h("P", "Q"))
        p_coincidence = (
            abs(out.amplitude(label("P", "H", 0), label("Q", "H", 1))) ** 2
            + abs(out.amplitude(label("P", "H", 1), label("Q", "H", 0))) ** 2
        )
        assert p_coincidence == pytest.approx(0.5, abs=1e-12)

    def test_matches_permanent_oracle_on_mixed_terms(self):
        state = pair_state(
            {
                (("P", "H"), ("P", "H")): 0.5,
                (("P", "H"), ("Q", "H", 1)): 0.5,
                (("P", "V"), ("Q", "H")): -0.5,
                (("Q", "H"), ("Q", "H")): 0.5j,
            }
        )
        element = beam_splitter_h("P", "Q")
        out = apply_element(state, element)
        terms = pair_terms(state)
        labels = sorted({l for key in terms for l in key})
        expected = expand_two_photon(terms, element_transfer(element, labels))
        for key in set(pair_terms(out)) | set(expected):
            assert abs(out.amplitude(*key) - expected.get(key, 0j)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(sparse_states(), st.integers(0, 2**32 - 1))
    def test_random_unitaries_preserve_norm_and_match_oracle(self, state, seed):
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        unitary = np.linalg.qr(raw)[0]
        channels = tuple((p, pol) for p in ("P", "Q") for pol in Polarization)
        element = LinearElement("random", channels, unitary)
        out = apply_element(state, element)
        assert out.norm_squared == pytest.approx(state.norm_squared, abs=1e-12)
        terms = pair_terms(state)
        labels = sorted({l for key in terms for l in key})
        expected = expand_two_photon(terms, element_transfer(element, labels))
        for key in set(pair_terms(out)) | set(expected):
            assert abs(out.amplitude(*key) - expected.get(key, 0j)) < 1e-12


def random_element(seed, paths):
    """A Haar-ish random unitary on both polarizations of ``paths``."""
    rng = np.random.default_rng(seed)
    n = 2 * len(paths)
    unitary = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    channels = tuple((p, pol) for p in paths for pol in Polarization)
    return LinearElement("random", channels, unitary)


class TestModeOperator:
    def test_operator_is_read_only_and_built_once(self):
        from loqec import state_core

        element = random_element(3, ("1", "2"))
        first = state_core._mode_operator(("1", "2"), element)
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 2.0
        equal = LinearElement(element.name, element.channels, element.matrix.copy())
        assert state_core._mode_operator(("1", "2"), equal) is first


class TestBatch:
    """A leading batch axis on the two-photon matrix."""

    @settings(max_examples=60, deadline=None)
    @given(
        unit_jones(),
        unit_jones(),
        st.lists(st.floats(0.0, 1.0, allow_nan=False), max_size=6),
        st.sampled_from([bs5050, pbs]),
    )
    def test_batch_matches_each_unbatched_state(self, jones_a, jones_b, drawn, make_element):
        a, b = SinglePhotonSpec("1", jones_a), SinglePhotonSpec("2", jones_b)
        overlaps = [0.0, *drawn, 1.0]
        element = make_element("1", "2", "3", "4")
        batch = apply_element(product_state(a, b, overlaps, ("3", "4")), element)
        selected, p = coincidence_postselect(batch)
        assert selected.matrix.shape == (len(overlaps), 16, 16)
        assert p.shape == (len(overlaps),)
        for k, overlap in enumerate(overlaps):
            one = apply_element(product_state(a, b, overlap, ("3", "4")), element)
            one_selected, one_p = coincidence_postselect(one)
            assert one_selected.paths == selected.paths
            assert np.abs(selected.matrix[k] - one_selected.matrix).max() <= 1e-15
            assert abs(p[k] - one_p) <= 1e-15
            assert abs(batch.norm_squared[k] - one.norm_squared) <= 1e-15

    def test_leading_axes_on_matrices_and_vectors(self):
        batch = TwoPhotonState(("P", "Q"), np.zeros((2, 3, 8, 8)))
        assert batch.norm_squared.shape == (2, 3)
        singles = SinglePhotonState(("P", "Q"), np.zeros((2, 3, 8)))
        assert singles.norm_squared.shape == (2, 3)
        assert singles.coherency().shape == (2, 3, 2, 2)
        with pytest.raises(ValidationError, match=r"shape \(3, 7\)"):
            SinglePhotonState(("P", "Q"), np.zeros((3, 7)))

    def test_renaming_paths_keeps_the_batch(self):
        batch = product_state(_H1, _H2, [0.5] * 3)
        renamed = relabel_paths(batch, {"1": "A"})
        assert renamed.paths == ("A", "2")
        assert renamed.matrix is batch.matrix

    def test_one_state_readers_reject_a_batch(self):
        batch = product_state(_H1, _H2, np.array([1.0, 0.5]))
        with pytest.raises(ValidationError, match=r"batch of matrix shape \(2, 8, 8\)"):
            batch.amplitude(label("1", "H"), label("2", "H"))
        with pytest.raises(ValidationError, match=r"batch of matrix shape \(2, 8, 8\)"):
            z_measure(batch, "1")

    def test_single_photon_readers_reject_a_batch(self):
        batch = SinglePhotonState(("P",), np.full((2, 4), 0.5))
        with pytest.raises(ValidationError, match=r"amplitude reads one state.*\(2, 4\)"):
            batch.amplitude(label("P", "H"))
        with pytest.raises(ValidationError, match=r"projection_probability reads one.*\(2, 4\)"):
            batch.projection_probability((1.0, 0.0))

    @pytest.mark.parametrize("overlaps, name, value", [
        ([1.0, 0.5, 1.5, -1.0], r"overlap\[2\]", "1.5"),
        ((0.0, math.nan), r"overlap\[1\]", "nan"),
        (np.array([-0.25, 0.5]), r"overlap\[0\]", "-0.25"),
    ], ids=["list", "nan", "array"])
    def test_first_overlap_out_of_range_named(self, overlaps, name, value):
        with pytest.raises(ValidationError, match=rf"{name} must lie in \[0, 1\], got {value}$"):
            product_state(_H1, _H2, overlaps)

    @pytest.mark.parametrize("overlaps, message", [
        ([1.0, "0.5"], r"overlap\[1\] must be a real number"),
        ([0.5, True], r"overlap\[1\] must be a real number"),
        ([[0.5, 1.0]], "overlap must be one-dimensional"),
        (np.zeros((2, 1)), "overlap must be one-dimensional"),
    ], ids=["str", "bool", "nested", "2d-array"])
    def test_overlaps_must_be_a_flat_array_of_numbers(self, overlaps, message):
        with pytest.raises(ValidationError, match=message):
            product_state(_H1, _H2, overlaps)


class TestRelabelPaths:
    def test_round_trip_restores_labels(self):
        state = pair_state({(("A", "H"), ("B", "V")): 0.7})
        swapped = relabel_paths(state, {"A": "C", "C": "A"})
        assert swapped.amplitude(label("C", "H"), label("B", "V")) == 0.7
        assert relabel_paths(swapped, {"A": "C", "C": "A"}) == state

    def test_merging_paths_rejected(self):
        from loqec import ConfigurationError

        state = pair_state({(("A", "H"), ("B", "V")): 0.7})
        with pytest.raises(ConfigurationError):
            relabel_paths(state, {"A": "B"})


class TestJointProbability:
    @settings(max_examples=60, deadline=None)
    @given(coincidence_states(), st.floats(-180, 180, allow_nan=False), st.floats(-180, 180, allow_nan=False))
    def test_consistent_with_conditioning(self, state, theta_a, theta_b):
        """Analyzers on both paths: the joint probability, interfering the
        pair amplitudes within each pair of temporal indices, equals the
        conditioned survivor's pass probability summed over the branches."""
        rad_a, rad_b = math.radians(theta_a), math.radians(theta_b)
        jones_a = (math.cos(rad_a), math.sin(rad_a))
        jones_b = (math.cos(rad_b), math.sin(rad_b))
        joint = 0.0
        for t_a in (0, 1):
            for t_b in (0, 1):
                bucket = 0j
                for k_a, pol_a in enumerate(Polarization):
                    for k_b, pol_b in enumerate(Polarization):
                        amp = state.amplitude(label("P", pol_a, t_a), label("Q", pol_b, t_b))
                        bucket += amp * jones_a[k_a].conjugate() * jones_b[k_b].conjugate()
                joint += abs(bucket) ** 2
        # A half-wave plate at (45 + theta_b) / 2 maps the analyzer's pass
        # axis onto +45 degrees, the Z station's value 0, seen by D2.
        survivor = z_measure(apply_element(state, hwp(0.5 * (45.0 + theta_b), "Q")), "Q")
        split = sum(
            SinglePhotonState(survivor.paths, row).projection_probability(jones_a)
            for row in survivor.vector[0]
        )
        assert joint == pytest.approx(split, abs=1e-12)


class TestConditionOn:
    """Conditioning on one detected photon: the Z measurement's contraction."""

    def test_correlated_pair_collapses_to_pure_member(self):
        state = pair_state({(("A", "H"), ("B", "H")): 0.5, (("A", "V"), ("B", "V")): 0.5})
        survivor = z_measure(state, "B")
        assert survivor.paths == ("A",)
        assert survivor.norm_squared[1] == pytest.approx([0.25, 0.0], abs=1e-12)
        assert not survivor.vector[1, 1].any()
        member = SinglePhotonState(survivor.paths, survivor.vector[1, 0])
        # The D3 survivor is |1>: equal H and V magnitudes with opposite signs.
        amp_h = member.amplitude(label("A", "H"))
        amp_v = member.amplitude(label("A", "V"))
        assert amp_h == pytest.approx(0.25 * math.sqrt(2.0), abs=1e-12)
        assert amp_v == pytest.approx(-0.25 * math.sqrt(2.0), abs=1e-12)

    def test_temporally_tagged_state_splits_into_members(self):
        state = pair_state(
            {(("A", "H", 0), ("B", "H", 1)): 0.5, (("A", "V", 1), ("B", "V", 0)): 0.5}
        )
        survivor = z_measure(state, "B")
        weights = survivor.norm_squared[0].tolist()
        assert weights == pytest.approx([0.125, 0.125], abs=1e-12)
        members = [SinglePhotonState(survivor.paths, row) for row in survivor.vector[0]]
        assert [member.norm_squared for member in members] == pytest.approx(weights, abs=1e-15)

    def test_zero_probability_outcome_gives_empty_ensemble(self):
        """Photon B in |0>: the D3 row is exact zeros, not a pruned branch."""
        state = pair_state({(("A", "H"), ("B", "H")): R, (("A", "H"), ("B", "V")): R})
        survivor = z_measure(state, "B")
        assert survivor.vector.shape == (2, 2, 4)
        assert survivor.norm_squared[0] == pytest.approx([1.0, 0.0], abs=1e-12)
        assert survivor.norm_squared[1].tolist() == [0.0, 0.0]
        assert not survivor.vector[1].any()

    def test_two_photons_on_measured_path_rejected(self):
        state = pair_state({(("B", "H"), ("B", "V")): 1.0}, paths=("A",))
        with pytest.raises(StructureError):
            z_measure(state, "B")

    def test_no_photon_on_measured_path_rejected(self):
        state = pair_state({(("A", "H"), ("C", "V")): 1.0})
        with pytest.raises(StructureError):
            z_measure(state, "B")
        declared = pair_state({(("A", "H"), ("C", "V")): 1.0}, paths=("B",))
        with pytest.raises(StructureError):
            z_measure(declared, "B")

    @settings(max_examples=60, deadline=None)
    @given(coincidence_states())
    def test_outcome_probabilities_resolve_the_norm(self, state):
        total = z_measure(state, "Q").norm_squared.sum()
        assert total == pytest.approx(state.norm_squared, abs=1e-12)


class TestSinglePhotonState:
    def test_projection_groups_by_path_and_temporal(self):
        state = SinglePhotonState.from_terms(
            {label("A", "H", 0): 0.5, label("A", "V", 0): 0.5, label("A", "H", 1): 0.5}
        )
        p = state.projection_probability((R, R))
        coherent = abs(R * 0.5 + R * 0.5) ** 2
        incoherent = abs(R * 0.5) ** 2
        assert p == pytest.approx(coherent + incoherent, abs=1e-12)

    def test_blocked_analyzer_reads_exactly_zero(self):
        """A pure survivor at its orthogonal analyzer gives 0, never rounding noise below it."""
        for a in np.linspace(0.0, math.pi, 201):
            state = SinglePhotonState.from_terms(
                {label("A", "H"): math.cos(a), label("A", "V"): math.sin(a)}
            )
            assert state.projection_probability((-math.sin(a), math.cos(a))) >= 0.0

    def test_overnormalized_state_rejected(self):
        with pytest.raises(ValidationError):
            SinglePhotonState.from_terms({label("A", "H"): 0.8, label("A", "V"): 0.8})

    def test_norm_accumulates_squared_magnitudes(self):
        state = SinglePhotonState.from_terms({label("A", "H"): 0.6, label("B", "V"): 0.8j})
        assert state.norm_squared == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            st.builds(
                ModeLabel,
                st.sampled_from(("P", "Q")),
                st.sampled_from(list(Polarization)),
                st.integers(0, 1),
            ),
            st.complex_numbers(max_magnitude=0.35, allow_nan=False, allow_infinity=False),
            max_size=8,
        ),
        unit_jones(),
    )
    def test_coherency_matches_the_per_group_sum(self, terms, jones):
        """Reference: interfere within each (path, temporal) group, add the
        groups' squared magnitudes."""
        state = SinglePhotonState.from_terms(terms)
        groups = {}
        for lab, amp in terms.items():
            component = jones[0] if lab.pol is Polarization.H else jones[1]
            key = (lab.path, lab.temporal)
            groups[key] = groups.get(key, 0j) + component.conjugate() * amp
        reference = sum(abs(g) ** 2 for g in groups.values())
        coherency = state.coherency()
        assert np.allclose(coherency, coherency.conj().T, rtol=0, atol=1e-15)
        assert np.trace(coherency).real == pytest.approx(state.norm_squared, abs=1e-12)
        assert state.projection_probability(jones) == pytest.approx(reference, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=3),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_batched_coherency_is_each_states_own(self, lead, n_paths, seed):
        """A batch gives, byte for byte, the coherency of each vector alone."""
        rng = np.random.default_rng(seed)
        shape = (*lead, 4 * n_paths)
        vector = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        vector[rng.random(shape) < 0.3] = 0.0
        paths = tuple("PQR"[:n_paths])
        batch = SinglePhotonState(paths, vector)
        coherency = batch.coherency()
        norms = batch.norm_squared
        assert coherency.shape == (*lead, 2, 2) and norms.shape == tuple(lead)
        for index in np.ndindex(*lead):
            one = SinglePhotonState(paths, vector[index])
            assert coherency[index].tobytes() == one.coherency().tobytes()
            assert norms[index] == one.norm_squared
