"""Second-quantized two-photon states over labeled optical modes.

A mode is labeled by ``(path, polarization, temporal index)``.  Polarization
lives in the linear H/V basis.  The computational basis is fixed by the
convention that value 0 is +45 degree linear polarization and value 1 is
-45 degrees:

    |0> = (|H> + |V>) / sqrt(2)        |1> = (|H> - |V>) / sqrt(2)

Temporal indices refer to an orthonormal two-element wavepacket basis chosen
per state.  Partial distinguishability between two photons is produced by
Gram-Schmidt decomposition of the second photon's wavepacket against the
first, so an overlap ``v`` in this module is always an amplitude overlap.

Amplitudes are stored sparsely over canonically ordered unordered pairs of
mode labels.  A doubly occupied mode is a legal pair key ``(m, m)``; its
amplitude multiplies the normalized two-photon number state, so the squared
norm of any state is the plain sum of squared amplitude magnitudes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, StructureError, UsageError, ValidationError

if TYPE_CHECKING:
    from .elements import LinearElement

#: Amplitudes below this magnitude are dropped during canonicalization.
AMPLITUDE_TOL = 1e-12

#: Allowed deviation from exact normalization for vectors handed to us.
NORM_TOL = 1e-12

_SQRT2 = math.sqrt(2.0)
_INV_SQRT2 = 1.0 / _SQRT2


class Polarization(str, Enum):
    """Linear polarization along (H) or orthogonal to (V) the table."""

    H = "H"
    V = "V"


#: Pair of complex amplitudes on (H, V).
Jones = tuple[complex, complex]

#: Canonically ordered unordered pair of mode labels.
PairKey = tuple["ModeLabel", "ModeLabel"]


@dataclass(frozen=True, order=True)
class ModeLabel:
    """One bosonic mode: spatial path, polarization, temporal basis index."""

    path: str
    pol: Polarization
    temporal: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.pol, Polarization):
            object.__setattr__(self, "pol", Polarization(self.pol))
        if self.temporal < 0:
            raise ValidationError(f"temporal index must be >= 0, got {self.temporal}")


def _component(jones: Sequence[complex], pol: Polarization) -> complex:
    return complex(jones[0]) if pol is Polarization.H else complex(jones[1])


def _as_jones(values: Sequence[complex], what: str) -> Jones:
    vec = tuple(complex(c) for c in values)
    if len(vec) != 2:
        raise ValidationError(f"{what} must have exactly two components, got {len(vec)}")
    nrm = abs(vec[0]) ** 2 + abs(vec[1]) ** 2
    if abs(nrm - 1.0) > NORM_TOL:
        raise ValidationError(f"{what} must be unit norm, got squared norm {nrm!r}")
    return vec


def computational_jones(value: int) -> Jones:
    """H/V amplitudes of the computational state |0> (+45 deg) or |1> (-45 deg)."""
    if value == 0:
        return (_INV_SQRT2 + 0j, _INV_SQRT2 + 0j)
    if value == 1:
        return (_INV_SQRT2 + 0j, -_INV_SQRT2 + 0j)
    raise ValidationError(f"computational value must be 0 or 1, got {value!r}")


def jones_to_computational(jones: Sequence[complex]) -> tuple[complex, complex]:
    """Coefficients (alpha, beta) of a Jones vector on |0>, |1>."""
    vec = _as_jones(jones, "jones vector")
    alpha = (vec[0] + vec[1]) * _INV_SQRT2
    beta = (vec[0] - vec[1]) * _INV_SQRT2
    return alpha, beta


def analyzer_jones(theta_deg: float) -> Jones:
    """Jones vector passed by a linear analyzer at ``theta_deg`` from H.

    The angle is reduced modulo 180 first, which makes the 180 degree
    periodicity of every downstream probability exact rather than
    approximate.
    """
    rad = math.radians(float(theta_deg) % 180.0)
    return (math.cos(rad) + 0j, math.sin(rad) + 0j)


@dataclass(frozen=True)
class SinglePhotonSpec:
    """Input description of one photon: path, polarization, wavepacket.

    ``wavepacket`` holds amplitudes on an ambient orthonormal temporal basis
    shared by both photons of a pair.  It must be unit norm; degenerate
    (zero) vectors are rejected here rather than silently normalized.
    """

    path: str
    jones: Jones
    wavepacket: tuple[complex, ...] = (1.0 + 0j,)

    def __post_init__(self) -> None:
        object.__setattr__(self, "jones", _as_jones(self.jones, "jones vector"))
        wp = tuple(complex(c) for c in self.wavepacket)
        if not wp:
            raise ValidationError("wavepacket must have at least one component")
        nrm = sum(abs(c) ** 2 for c in wp)
        if abs(nrm - 1.0) > NORM_TOL:
            raise ValidationError(f"wavepacket must be unit norm, got squared norm {nrm!r}")
        object.__setattr__(self, "wavepacket", wp)


@dataclass(frozen=True)
class DistinguishabilitySpec:
    """Amplitude overlap between two photon wavepackets, in [0, 1]."""

    overlap: float = 1.0

    def __post_init__(self) -> None:
        v = float(self.overlap)
        if not 0.0 <= v <= 1.0:
            raise ValidationError(f"overlap must lie in [0, 1], got {v!r}")
        object.__setattr__(self, "overlap", v)

    @classmethod
    def from_delay(cls, delay: float, coherence_time: float) -> "DistinguishabilitySpec":
        """Overlap of two Gaussian wavepackets offset by ``delay`` seconds."""
        sigma = float(coherence_time)
        if sigma <= 0.0:
            raise ValidationError(f"coherence time must be positive, got {sigma!r}")
        tau = float(delay)
        return cls(math.exp(-(tau * tau) / (2.0 * sigma * sigma)))


def _canonical_pair(l1: ModeLabel, l2: ModeLabel) -> PairKey:
    return (l1, l2) if l1 <= l2 else (l2, l1)


@dataclass(frozen=True)
class TwoPhotonState:
    """Sparse two-photon state with a declared set of spatial paths.

    ``amplitudes`` maps canonical pairs to coefficients of normalized basis
    states.  ``paths`` declares every path the state logically spans, which
    may include paths that currently hold no amplitude (e.g. the empty
    output arms of an interferometer before light reaches them).
    """

    amplitudes: Mapping[PairKey, complex]
    paths: frozenset[str]

    @classmethod
    def from_terms(
        cls,
        terms: Mapping[PairKey, complex] | Iterable[tuple[PairKey, complex]],
        paths: Iterable[str] = (),
    ) -> "TwoPhotonState":
        """Canonicalize, merge, and prune raw pair/amplitude terms.

        Pair keys are reordered canonically, duplicate keys are summed, and
        amplitudes below ``AMPLITUDE_TOL`` are dropped.  The declared path
        set is the union of ``paths`` with every path appearing in a kept
        key.  The total squared norm may not exceed 1 (within tolerance).
        """
        items = terms.items() if isinstance(terms, Mapping) else terms
        merged: dict[PairKey, complex] = {}
        for (l1, l2), amp in items:
            key = _canonical_pair(l1, l2)
            merged[key] = merged.get(key, 0j) + complex(amp)
        kept = {k: v for k, v in merged.items() if abs(v) > AMPLITUDE_TOL}
        declared = set(paths)
        for l1, l2 in kept:
            declared.add(l1.path)
            declared.add(l2.path)
        state = cls(kept, frozenset(declared))
        nrm = state.norm_squared
        if nrm > 1.0 + NORM_TOL:
            raise ValidationError(f"state squared norm {nrm!r} exceeds 1")
        return state

    @property
    def norm_squared(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def amplitude(self, l1: ModeLabel, l2: ModeLabel) -> complex:
        """Coefficient of the (unordered) pair, zero when absent."""
        return complex(self.amplitudes.get(_canonical_pair(l1, l2), 0j))

    def items(self) -> Iterable[tuple[PairKey, complex]]:
        return self.amplitudes.items()


@dataclass(frozen=True)
class SinglePhotonState:
    """Sparse single-photon state, possibly subnormalized."""

    amplitudes: Mapping[ModeLabel, complex]

    @classmethod
    def from_terms(
        cls, terms: Mapping[ModeLabel, complex] | Iterable[tuple[ModeLabel, complex]]
    ) -> "SinglePhotonState":
        items = terms.items() if isinstance(terms, Mapping) else terms
        merged: dict[ModeLabel, complex] = {}
        for label, amp in items:
            merged[label] = merged.get(label, 0j) + complex(amp)
        return cls({k: v for k, v in merged.items() if abs(v) > AMPLITUDE_TOL})

    @property
    def norm_squared(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def coherency(self) -> np.ndarray:
        """Polarization coherency matrix ``J = sum_g v_g v_g^dagger`` (2x2, H/V).

        ``v_g`` is the (H, V) amplitude pair of one (path, temporal) group.
        A polarization analyzer resolves neither path nor wavepacket, so
        amplitudes interfere within a group and add incoherently across
        groups; ``J`` therefore fixes every analyzer probability, and its
        trace is the squared norm.
        """
        groups: dict[tuple[str, int], list[complex]] = {}
        for label, amp in self.amplitudes.items():
            vec = groups.setdefault((label.path, label.temporal), [0j, 0j])
            vec[0 if label.pol is Polarization.H else 1] += amp
        vectors = np.array(list(groups.values()), dtype=complex).reshape(-1, 2)
        return vectors.T @ vectors.conj()

    def projection_probability(self, jones: Sequence[complex]) -> float:
        """Probability ``Re(j^dagger J j)`` of passing an analyzer set to ``jones``.

        Clamped at zero: for a pure state blocked by the analyzer the
        product is rounding noise of either sign.
        """
        vec = np.array(_as_jones(jones, "analyzer jones vector"))
        return max(float((vec.conj() @ self.coherency() @ vec).real), 0.0)


@dataclass(frozen=True)
class PolarizationProjector:
    """Rank-one polarization projector on one spatial path."""

    path: str
    jones: Jones

    def __post_init__(self) -> None:
        object.__setattr__(self, "jones", _as_jones(self.jones, "projector jones vector"))


def computational_projector(path: str, value: int) -> PolarizationProjector:
    return PolarizationProjector(path, computational_jones(value))


def analyzer_projector(path: str, theta_deg: float) -> PolarizationProjector:
    return PolarizationProjector(path, analyzer_jones(theta_deg))


def product_state(
    photon_a: SinglePhotonSpec,
    photon_b: SinglePhotonSpec,
    paths: Iterable[str] = (),
) -> TwoPhotonState:
    """Normalized two-photon product state of two input specs.

    The first photon's wavepacket defines temporal basis element 0; the
    second photon's wavepacket is split by Gram-Schmidt into its component
    along element 0 (the amplitude overlap) and an orthogonal remainder on
    element 1.  Identical wavepackets therefore land entirely on temporal
    index 0, orthogonal ones put the second photon on index 1.

    The two specs may share a spatial path; double occupation of a single
    mode is handled with the standard bosonic normalization.
    """
    wp_a = photon_a.wavepacket
    wp_b = photon_b.wavepacket
    n = max(len(wp_a), len(wp_b))
    ambient_a = wp_a + (0j,) * (n - len(wp_a))
    ambient_b = wp_b + (0j,) * (n - len(wp_b))

    overlap = sum(c.conjugate() * d for c, d in zip(ambient_a, ambient_b))
    residual = [d - overlap * c for c, d in zip(ambient_a, ambient_b)]
    res_norm = math.sqrt(sum(abs(c) ** 2 for c in residual))

    # Second photon's coefficients on the derived temporal basis (e0, e1).
    coeffs_b: dict[int, complex] = {}
    if abs(overlap) > AMPLITUDE_TOL:
        coeffs_b[0] = overlap
    if res_norm > AMPLITUDE_TOL:
        coeffs_b[1] = complex(res_norm)

    monomials: dict[PairKey, complex] = {}
    for pol_a in Polarization:
        amp_a = _component(photon_a.jones, pol_a)
        if amp_a == 0:
            continue
        label_a = ModeLabel(photon_a.path, pol_a, 0)
        for pol_b in Polarization:
            amp_b = _component(photon_b.jones, pol_b)
            if amp_b == 0:
                continue
            for t_b, coeff_t in coeffs_b.items():
                label_b = ModeLabel(photon_b.path, pol_b, t_b)
                key = _canonical_pair(label_a, label_b)
                monomials[key] = monomials.get(key, 0j) + amp_a * amp_b * coeff_t

    terms = {
        key: (amp * _SQRT2 if key[0] == key[1] else amp) for key, amp in monomials.items()
    }
    nrm = math.sqrt(sum(abs(a) ** 2 for a in terms.values()))
    if nrm <= AMPLITUDE_TOL:
        raise ValidationError("product state vanished; input specs are degenerate")
    normalized = {key: amp / nrm for key, amp in terms.items()}
    declared = {photon_a.path, photon_b.path, *paths}
    return TwoPhotonState.from_terms(normalized, paths=declared)


def _apply_label_map(
    state: TwoPhotonState,
    expand: Callable[[ModeLabel], Iterable[tuple[ModeLabel, complex]]],
    paths: Iterable[str] | None = None,
) -> TwoPhotonState:
    """Push the state through a linear map given per-label expansions.

    ``expand(label)`` returns the image of one creation operator as
    (label, coefficient) terms.  Monomial coefficients are accumulated with
    the bosonic sqrt(2) bookkeeping for doubly occupied modes, so any
    unitary expansion preserves the norm.
    """
    monomials: dict[PairKey, complex] = {}
    for (l1, l2), amp in state.amplitudes.items():
        coeff = amp * _INV_SQRT2 if l1 == l2 else amp
        image_1 = tuple(expand(l1))
        image_2 = image_1 if l2 == l1 else tuple(expand(l2))
        for m1, c1 in image_1:
            for m2, c2 in image_2:
                key = _canonical_pair(m1, m2)
                monomials[key] = monomials.get(key, 0j) + coeff * c1 * c2
    terms = {
        key: (amp * _SQRT2 if key[0] == key[1] else amp) for key, amp in monomials.items()
    }
    declared = state.paths if paths is None else frozenset(paths)
    return TwoPhotonState.from_terms(terms, paths=declared)


def apply_element(state: TwoPhotonState, element: "LinearElement") -> TwoPhotonState:
    """Apply a linear optical element; modes off its channels pass through.

    The element's matrix columns index input channels and rows index output
    channels.  Temporal indices ride along unchanged.
    """
    needed = {path for path, _ in element.channels}
    missing = needed - state.paths
    if missing:
        raise ConfigurationError(
            f"element {element.name!r} addresses undeclared paths {sorted(missing)}"
        )
    columns = {channel: j for j, channel in enumerate(element.channels)}
    matrix = element.matrix

    def expand(label: ModeLabel) -> tuple[tuple[ModeLabel, complex], ...]:
        col = columns.get((label.path, label.pol))
        if col is None:
            return ((label, 1.0 + 0j),)
        out = []
        for row, (path, pol) in enumerate(element.channels):
            coeff = matrix[row, col]
            if coeff != 0:
                out.append((ModeLabel(path, pol, label.temporal), complex(coeff)))
        return tuple(out)

    return _apply_label_map(state, expand)


def apply_element_single(
    state: SinglePhotonState, element: "LinearElement"
) -> SinglePhotonState:
    """Single-photon version of :func:`apply_element`."""
    columns = {channel: j for j, channel in enumerate(element.channels)}
    matrix = element.matrix
    out: dict[ModeLabel, complex] = {}
    for label, amp in state.amplitudes.items():
        col = columns.get((label.path, label.pol))
        if col is None:
            out[label] = out.get(label, 0j) + amp
            continue
        for row, (path, pol) in enumerate(element.channels):
            coeff = matrix[row, col]
            if coeff != 0:
                target = ModeLabel(path, pol, label.temporal)
                out[target] = out.get(target, 0j) + complex(coeff) * amp
    return SinglePhotonState.from_terms(out)


def relabel_paths(state: TwoPhotonState, mapping: Mapping[str, str]) -> TwoPhotonState:
    """Rename spatial paths; identity on paths absent from ``mapping``.

    The mapping must stay injective on the state's declared paths, since
    merging two paths is not a linear-optics relabeling.
    """
    images = [mapping.get(p, p) for p in state.paths]
    if len(set(images)) != len(state.paths):
        raise ConfigurationError(f"path relabeling {dict(mapping)!r} merges declared paths")
    terms = {}
    for (l1, l2), amp in state.amplitudes.items():
        new_1 = ModeLabel(mapping.get(l1.path, l1.path), l1.pol, l1.temporal)
        new_2 = ModeLabel(mapping.get(l2.path, l2.path), l2.pol, l2.temporal)
        terms[_canonical_pair(new_1, new_2)] = amp
    return TwoPhotonState.from_terms(terms, paths=images)


def joint_probability(
    state: TwoPhotonState,
    projector_a: PolarizationProjector,
    projector_b: PolarizationProjector,
) -> float:
    """Coincidence probability for one polarization projector on each path.

    Amplitudes interfere within each pair of temporal indices and add
    incoherently across them.  Terms that do not put exactly one photon on
    each projector path cannot produce this coincidence and contribute
    nothing.
    """
    if projector_a.path == projector_b.path:
        raise UsageError("joint probability requires projectors on two distinct paths")
    buckets: dict[tuple[int, int], complex] = {}
    for (l1, l2), amp in state.amplitudes.items():
        if {l1.path, l2.path} != {projector_a.path, projector_b.path}:
            continue
        on_a, on_b = (l1, l2) if l1.path == projector_a.path else (l2, l1)
        contrib = (
            amp
            * _component(projector_a.jones, on_a.pol).conjugate()
            * _component(projector_b.jones, on_b.pol).conjugate()
        )
        key = (on_a.temporal, on_b.temporal)
        buckets[key] = buckets.get(key, 0j) + contrib
    return float(sum(abs(b) ** 2 for b in buckets.values()))


@dataclass(frozen=True)
class EnsembleMember:
    """One temporal outcome of a destructive single-photon measurement."""

    measured_temporal: int
    state: SinglePhotonState


@dataclass(frozen=True)
class ConditionalEnsemble:
    """Subnormalized conditional states keyed by the measured photon's temporal index."""

    members: tuple[EnsembleMember, ...]

    @property
    def probability(self) -> float:
        return float(sum(m.state.norm_squared for m in self.members))


def condition_on(
    state: TwoPhotonState, projector: PolarizationProjector
) -> ConditionalEnsemble:
    """Condition on detecting one photon behind a polarization projector.

    Every amplitude must place exactly one photon on the projector's path;
    anything else means the caller conditioned on the wrong path and raises
    a structural error.  The detector does not resolve temporal structure,
    so one subnormalized pure state is returned per measured temporal index;
    their squared norms sum to the outcome probability.
    """
    partial: dict[int, dict[ModeLabel, complex]] = {}
    for (l1, l2), amp in state.amplitudes.items():
        on_path = (l1.path == projector.path, l2.path == projector.path)
        if on_path == (True, False):
            measured, rest = l1, l2
        elif on_path == (False, True):
            measured, rest = l2, l1
        else:
            count = sum(on_path)
            raise StructureError(
                f"path {projector.path!r} holds {count} photons in term "
                f"({l1}, {l2}); conditioning requires exactly one"
            )
        contrib = amp * _component(projector.jones, measured.pol).conjugate()
        bucket = partial.setdefault(measured.temporal, {})
        bucket[rest] = bucket.get(rest, 0j) + contrib
    members = []
    for temporal in sorted(partial):
        member_state = SinglePhotonState.from_terms(partial[temporal])
        if member_state.amplitudes:
            members.append(EnsembleMember(temporal, member_state))
    return ConditionalEnsemble(tuple(members))
