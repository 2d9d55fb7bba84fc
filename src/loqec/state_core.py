"""Two-photon states as one symmetric amplitude matrix over labeled modes.

A mode is labeled by ``(path, polarization, temporal index)``.  Polarization
lives in the linear H/V basis.  The computational basis is fixed by the
convention that value 0 is +45 degree linear polarization and value 1 is
-45 degrees:

    |0> = (|H> + |V>) / sqrt(2)        |1> = (|H> - |V>) / sqrt(2)

Temporal indices 0 and 1 refer to an orthonormal two-element wavepacket
basis chosen per state.  Partial distinguishability between two photons
enters in one place: :func:`product_state` puts the first photon on
temporal index 0 and splits the second by its amplitude overlap ``v`` with
the first, ``v`` on index 0 and ``sqrt(1 - v^2)`` on index 1.  An overlap
in this module is always an amplitude overlap.

A state declares a tuple of paths and holds every mode of them, ordered as
``(path, polarization, temporal)``: mode ``(paths[p], pol, t)`` has index
``4 p + 2 pol + t`` with H = 0 and V = 1.  A two-photon state is a complex
symmetric matrix ``A`` over these modes,
``|psi> = 1/2 sum_ij A_ij a_i^dagger a_j^dagger |0>``, whose squared norm is
``||A||_F^2 / 2`` (the permanent picture).  A linear element with mode
matrix ``U`` acts as ``A -> U A U^T``, renaming paths leaves ``A`` alone,
and a single-photon state is a vector ``v`` over the same modes with
``v -> U v``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, ValidationError

if TYPE_CHECKING:
    from .elements import LinearElement

#: Amplitudes at or below this magnitude count as absent.
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


@dataclass(frozen=True, order=True)
class ModeLabel:
    """One bosonic mode: spatial path, polarization, temporal basis index."""

    path: str
    pol: Polarization
    temporal: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.pol, Polarization):
            object.__setattr__(self, "pol", Polarization(self.pol))
        if self.temporal not in (0, 1):
            raise ValidationError(f"temporal index must be 0 or 1, got {self.temporal}")


def _as_jones(values: Sequence[complex], what: str) -> Jones:
    vec = tuple(complex(c) for c in values)
    if len(vec) != 2:
        raise ValidationError(f"{what} must have exactly two components, got {len(vec)}")
    nrm = abs(vec[0]) ** 2 + abs(vec[1]) ** 2
    if not abs(nrm - 1.0) <= NORM_TOL:
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
    """Input description of one photon: path and unit-norm Jones vector."""

    path: str
    jones: Jones

    def __post_init__(self) -> None:
        object.__setattr__(self, "jones", _as_jones(self.jones, "jones vector"))


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
        if not (math.isfinite(sigma) and sigma > 0.0):
            raise ValidationError(f"coherence time must be finite and positive, got {sigma!r}")
        tau = float(delay)
        if not math.isfinite(tau):
            raise ValidationError(f"delay must be finite, got {tau!r}")
        # The ratio keeps a tiny coherence time from squaring to zero.
        ratio = tau / sigma
        return cls(math.exp(-0.5 * ratio * ratio))


def _mode(paths: tuple[str, ...], path: str, pol: Polarization, temporal: int) -> int:
    """Index of a mode on a declared path, per the order in the module docstring."""
    return 4 * paths.index(path) + (2 if pol is Polarization.V else 0) + temporal


def _find(paths: tuple[str, ...], label: ModeLabel) -> int | None:
    """Index of ``label``'s mode, or None when its path is not declared."""
    if label.path not in paths:
        return None
    return _mode(paths, label.path, label.pol, label.temporal)


def _declare(paths: Iterable[str], labels: Iterable[ModeLabel]) -> tuple[str, ...]:
    """``paths`` in order, then each further path of ``labels`` as first seen."""
    return tuple(dict.fromkeys([*paths, *(label.path for label in labels)]))


def _checked(
    values: np.ndarray, paths: Iterable[str], ndim: int
) -> tuple[tuple[str, ...], np.ndarray]:
    """Distinct paths, and the amplitudes as a read-only complex array of their modes."""
    paths = tuple(paths)
    if len(set(paths)) != len(paths):
        raise ConfigurationError(f"paths must be distinct, got {paths!r}")
    values = np.asarray(values, dtype=complex)
    if values.shape != (4 * len(paths),) * ndim:
        raise ValidationError(
            f"amplitude array shape {values.shape} does not fit {len(paths)} paths"
        )
    values.setflags(write=False)
    return paths, values


def _mode_operator(paths: tuple[str, ...], element: "LinearElement") -> np.ndarray:
    """The element's mode matrix over the modes of ``paths``.

    The element's matrix acts alike on its channels at either temporal
    index; every other mode passes through.
    """
    missing = sorted({path for path, _ in element.channels} - set(paths))
    if missing:
        raise ConfigurationError(f"element {element.name!r} addresses undeclared paths {missing}")
    u = np.eye(4 * len(paths), dtype=complex)
    for t in (0, 1):
        index = np.array([_mode(paths, path, pol, t) for path, pol in element.channels])
        u[index[:, None], index] = element.matrix
    return u


@dataclass(frozen=True, eq=False)
class TwoPhotonState:
    """Two-photon state: symmetric amplitude ``matrix`` over the modes of ``paths``.

    ``paths`` declares every path the state logically spans, which may
    include paths that currently hold no amplitude (e.g. the empty output
    arms of an interferometer before light reaches them).  Equality is
    exact on both fields.
    """

    paths: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        paths, matrix = _checked(self.matrix, self.paths, 2)
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "matrix", matrix)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TwoPhotonState):
            return NotImplemented
        return self.paths == other.paths and np.array_equal(self.matrix, other.matrix)

    @classmethod
    def from_terms(
        cls,
        terms: Mapping[tuple[ModeLabel, ModeLabel], complex]
        | Iterable[tuple[tuple[ModeLabel, ModeLabel], complex]],
        paths: Iterable[str] = (),
    ) -> "TwoPhotonState":
        """Build a state from normalized-pair coefficients keyed by label pairs.

        Pairs are unordered and repeated pairs add up.  The declared paths
        are ``paths`` followed by every further path a label names.  The
        total squared norm may not exceed 1 (within tolerance).
        """
        items = list(terms.items() if isinstance(terms, Mapping) else terms)
        declared = _declare(paths, (label for pair, _ in items for label in pair))
        matrix = np.zeros((4 * len(declared),) * 2, dtype=complex)
        for (l1, l2), amp in items:
            i, j = _find(declared, l1), _find(declared, l2)
            if i == j:
                matrix[i, i] += _SQRT2 * complex(amp)
            else:
                matrix[i, j] += amp
                matrix[j, i] += amp
        state = cls(declared, matrix)
        nrm = state.norm_squared
        if not nrm <= 1.0 + NORM_TOL:
            raise ValidationError(f"state squared norm {nrm!r} exceeds 1")
        return state

    @property
    def norm_squared(self) -> float:
        return 0.5 * float(np.vdot(self.matrix, self.matrix).real)

    def amplitude(self, l1: ModeLabel, l2: ModeLabel) -> complex:
        """Coefficient of the normalized (unordered) pair state, zero when absent."""
        i, j = _find(self.paths, l1), _find(self.paths, l2)
        if i is None or j is None:
            return 0j
        if i == j:
            return complex(self.matrix[i, i]) / _SQRT2
        return complex(self.matrix[min(i, j), max(i, j)])


@dataclass(frozen=True, eq=False)
class SinglePhotonState:
    """Single-photon state: amplitude ``vector`` over the modes of ``paths``.

    The state may be subnormalized.  Equality is exact on both fields.
    """

    paths: tuple[str, ...]
    vector: np.ndarray

    def __post_init__(self) -> None:
        paths, vector = _checked(self.vector, self.paths, 1)
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "vector", vector)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SinglePhotonState):
            return NotImplemented
        return self.paths == other.paths and np.array_equal(self.vector, other.vector)

    @classmethod
    def from_terms(
        cls,
        terms: Mapping[ModeLabel, complex] | Iterable[tuple[ModeLabel, complex]],
        paths: Iterable[str] = (),
    ) -> "SinglePhotonState":
        """Build a state from amplitudes keyed by mode label; repeats add up.

        The declared paths are ``paths`` followed by every further path a
        label names.  The squared norm may not exceed 1 (within tolerance).
        """
        items = list(terms.items() if isinstance(terms, Mapping) else terms)
        declared = _declare(paths, (label for label, _ in items))
        vector = np.zeros(4 * len(declared), dtype=complex)
        for label, amp in items:
            vector[_find(declared, label)] += amp
        state = cls(declared, vector)
        nrm = state.norm_squared
        if not nrm <= 1.0 + NORM_TOL:
            raise ValidationError(f"state squared norm {nrm!r} exceeds 1")
        return state

    @property
    def norm_squared(self) -> float:
        return float(np.vdot(self.vector, self.vector).real)

    def amplitude(self, label: ModeLabel) -> complex:
        """Amplitude on one mode, zero when its path is not declared."""
        i = _find(self.paths, label)
        return 0j if i is None else complex(self.vector[i])

    def coherency(self) -> np.ndarray:
        """Polarization coherency matrix ``J = sum_g v_g v_g^dagger`` (2x2, H/V).

        ``v_g`` is the (H, V) amplitude pair of one (path, temporal) group.
        A polarization analyzer resolves neither path nor wavepacket, so
        amplitudes interfere within a group and add incoherently across
        groups; ``J`` therefore fixes every analyzer probability, and its
        trace is the squared norm.
        """
        vectors = self.vector.reshape(-1, 2, 2).transpose(0, 2, 1).reshape(-1, 2)
        return vectors.T @ vectors.conj()

    def projection_probability(self, jones: Sequence[complex]) -> float:
        """Probability ``Re(j^dagger J j)`` of passing an analyzer set to ``jones``.

        Clamped at zero: for a pure state blocked by the analyzer the
        product is rounding noise of either sign.
        """
        vec = np.array(_as_jones(jones, "analyzer jones vector"))
        return max(float((vec.conj() @ self.coherency() @ vec).real), 0.0)


def product_state(
    photon_a: SinglePhotonSpec,
    photon_b: SinglePhotonSpec,
    overlap: DistinguishabilitySpec = DistinguishabilitySpec(),
    paths: Iterable[str] = (),
) -> TwoPhotonState:
    """Normalized two-photon product state of two input specs.

    Photon a occupies temporal index 0.  Photon b's wavepacket has amplitude
    overlap ``v = overlap.overlap`` with photon a's, so it puts ``v`` on
    temporal index 0 and the orthogonal remainder ``sqrt(1 - v^2)`` on
    index 1: indistinguishable photons share index 0, fully distinguishable
    ones sit on different indices.

    With ``a`` and ``b`` the two photons' mode vectors the matrix is
    ``a b^T + b a^T``, normalized; the two specs may share a spatial path,
    even a mode.  The declared paths are the two photons' paths, then
    ``paths``.
    """
    u = overlap.overlap
    w = math.sqrt(max(0.0, 1.0 - u * u))
    declared = tuple(dict.fromkeys((photon_a.path, photon_b.path, *paths)))
    a = np.zeros(4 * len(declared), dtype=complex)
    b = np.zeros_like(a)
    start_a = 4 * declared.index(photon_a.path)
    start_b = 4 * declared.index(photon_b.path)
    (h_a, v_a), (h_b, v_b) = photon_a.jones, photon_b.jones
    a[start_a : start_a + 4] = (h_a, 0j, v_a, 0j)
    b[start_b : start_b + 4] = (h_b * u, h_b * w, v_b * u, v_b * w)
    matrix = np.outer(a, b)
    matrix = matrix + matrix.T
    nrm = math.sqrt(0.5 * float(np.vdot(matrix, matrix).real))
    if nrm <= AMPLITUDE_TOL:
        raise ValidationError("product state vanished; input specs are degenerate")
    return TwoPhotonState(declared, matrix / nrm)


def apply_element(state: TwoPhotonState, element: "LinearElement") -> TwoPhotonState:
    """Apply a linear optical element as ``A -> U A U^T``.

    The element's matrix columns index input channels and rows index output
    channels; it acts alike on both temporal indices, and modes off its
    channels pass through.

    Each product is rounded on its own before the sums.  A matrix product
    may fuse multiply and add, which leaves the rounding error of one of
    two exactly opposite terms (e.g. the two paths of a balanced splitter)
    in place of an exact zero.  Only the occupied modes of ``A`` enter the
    sums; the others would add exact zeros.
    """
    u = _mode_operator(state.paths, element)
    matrix = state.matrix
    occupied = np.flatnonzero(matrix.any(axis=0) | matrix.any(axis=1))
    u = u[:, occupied]
    half = (u[:, :, None] * matrix[occupied[:, None], occupied][None]).sum(axis=1)
    return TwoPhotonState(state.paths, (half[:, None, :] * u[None]).sum(axis=2))


def apply_element_single(
    state: SinglePhotonState, element: "LinearElement"
) -> SinglePhotonState:
    """Single-photon version of :func:`apply_element`: ``v -> U v``."""
    u = _mode_operator(state.paths, element)
    return SinglePhotonState(state.paths, (u * state.vector).sum(axis=1))


def relabel_paths(state: TwoPhotonState, mapping: Mapping[str, str]) -> TwoPhotonState:
    """Rename spatial paths; identity on paths absent from ``mapping``.

    The mapping must stay injective on the state's declared paths, since
    merging two paths is not a linear-optics relabeling.
    """
    images = tuple(mapping.get(p, p) for p in state.paths)
    if len(set(images)) != len(images):
        raise ConfigurationError(f"path relabeling {dict(mapping)!r} merges declared paths")
    return TwoPhotonState(images, state.matrix)
