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
in this module is always an amplitude overlap, and always a plain real
number in [0, 1].

A state declares a tuple of paths and holds every mode of them, ordered as
``(path, polarization, temporal)``: mode ``(paths[p], pol, t)`` has index
``4 p + 2 pol + t`` with H = 0 and V = 1.  A two-photon state is a complex
symmetric matrix ``A`` over these modes,
``|psi> = 1/2 sum_ij A_ij a_i^dagger a_j^dagger |0>``, whose squared norm is
``||A||_F^2 / 2`` (the permanent picture).  A linear element with mode
matrix ``U`` acts as ``A -> U A U^T``, renaming paths leaves ``A`` alone,
and a single-photon state is a vector ``v`` over the same modes with
``v -> U v``.

A two-photon matrix may carry leading batch axes, shape ``(..., n, n)``:
one state per batch index, all over the same paths.  :func:`product_state`
builds a batch from a 1-D array of overlaps, :func:`apply_element`,
:func:`relabel_paths` and ``detection.coincidence_postselect`` act on
every matrix of it, and ``norm_squared`` is then an array.  A
single-photon vector batches alike, shape ``(..., n)``: it is how
``detection.z_measure`` returns its survivor, and ``norm_squared`` and
``coherency()`` act per vector.  Whatever reads one state
(``amplitude``, ``from_terms``, ``projection_probability``,
``detection.z_measure``) rejects a batch.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    ValidationError,
    as_complex,
    as_real,
    as_real_array,
    check_unit_interval,
)

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


def _bit(value: object, name: str) -> int:
    """``value`` as an int 0 or 1; a bool or a float is rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value not in (0, 1):
        raise ValidationError(f"{name} must be 0 or 1, got {value!r}")
    return int(value)


@dataclass(frozen=True, order=True)
class ModeLabel:
    """One bosonic mode: spatial path, polarization, temporal basis index."""

    path: str
    pol: Polarization
    temporal: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.pol, Polarization):
            try:
                pol = Polarization(self.pol)
            except (TypeError, ValueError):
                raise ValidationError(
                    f"polarization must be 'H' or 'V', got {self.pol!r}"
                ) from None
            object.__setattr__(self, "pol", pol)
        object.__setattr__(self, "temporal", _bit(self.temporal, "temporal index"))


def _as_jones(values: Sequence[complex], what: str) -> Jones:
    try:
        items = list(values)
    except TypeError:
        raise ValidationError(f"{what} must be a pair of numbers, got {values!r}") from None
    vec = tuple(as_complex(c, f"{what}[{i}]") for i, c in enumerate(items))
    if len(vec) != 2:
        raise ValidationError(f"{what} must have exactly two components, got {len(vec)}")
    nrm = abs(vec[0]) ** 2 + abs(vec[1]) ** 2
    if not abs(nrm - 1.0) <= NORM_TOL:
        raise ValidationError(f"{what} must be unit norm, got squared norm {nrm!r}")
    return vec


def computational_jones(value: int) -> Jones:
    """H/V amplitudes of the computational state |0> (+45 deg) or |1> (-45 deg)."""
    if _bit(value, "computational value"):
        return (_INV_SQRT2 + 0j, -_INV_SQRT2 + 0j)
    return (_INV_SQRT2 + 0j, _INV_SQRT2 + 0j)


@dataclass(frozen=True)
class SinglePhotonSpec:
    """Input description of one photon: path and unit-norm Jones vector."""

    path: str
    jones: Jones

    def __post_init__(self) -> None:
        object.__setattr__(self, "jones", _as_jones(self.jones, "jones vector"))


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
    """Distinct paths, and the amplitudes as a read-only complex array of their modes.

    The last ``ndim`` axes run over the modes; any leading axes are batch
    axes.  Every amplitude must be finite.
    """
    paths = tuple(paths)
    if len(set(paths)) != len(paths):
        raise ConfigurationError(f"paths must be distinct, got {paths!r}")
    values = np.asarray(values, dtype=complex)
    lead = values.ndim - ndim
    if lead < 0 or values.shape[lead:] != (4 * len(paths),) * ndim:
        raise ValidationError(
            f"amplitude array shape {values.shape} does not fit {len(paths)} paths"
        )
    # A finite sum of squares has finite terms; only an overflow needs the full test.
    if not math.isfinite(np.vdot(values, values).real) and not np.isfinite(values).all():
        index = tuple(int(i) for i in np.argwhere(~np.isfinite(values))[0])
        raise ValidationError(
            f"amplitudes must be finite, got {values[index]!r} at index {index} "
            f"of shape {values.shape}"
        )
    values.setflags(write=False)
    return paths, values


def _one_state(values: np.ndarray, ndim: int, reader: str) -> None:
    """Reject a batch, which ``reader`` cannot read."""
    if values.ndim != ndim:
        kind = "matrix" if ndim == 2 else "vector"
        raise ValidationError(f"{reader} reads one state, got a batch of {kind} shape {values.shape}")


def _norm_squared(matrix: np.ndarray) -> float | np.ndarray:
    """``||A||_F^2 / 2`` of one matrix, or an array of them over the batch axes."""
    if matrix.ndim == 2:
        return 0.5 * float(np.vdot(matrix, matrix).real)
    return 0.5 * (matrix.real**2 + matrix.imag**2).sum(axis=(-2, -1))


def _polarization_pairs(vector: np.ndarray) -> np.ndarray:
    """The (H, V) amplitude pairs of ``vector``, one per (path, temporal) group.

    The shape is ``(..., g, 2)`` for a vector of shape ``(..., n)``.  A
    polarization analyzer resolves neither path nor wavepacket, so the
    groups add incoherently in what it reads.
    """
    lead = vector.shape[:-1]
    return vector.reshape(lead + (-1, 2, 2)).swapaxes(-1, -2).reshape(lead + (-1, 2))


@functools.lru_cache(maxsize=16)
def _mode_operator(paths: tuple[str, ...], element: "LinearElement") -> np.ndarray:
    """The element's read-only mode matrix over the modes of ``paths``.

    The element's matrix acts alike on its channels at either temporal
    index; every other mode passes through.  The matrix depends on the
    bench layout alone, so it is cached per ``(paths, element)``.  No sweep
    builds one: the encoder and the feed-forward build theirs at import,
    and ``experiment.hom_scan`` its splitter on its first call; these three
    fit well within the 16 kept.  An undeclared path raises on every call,
    since ``lru_cache`` keeps no exception.
    """
    missing = sorted({path for path, _ in element.channels} - set(paths))
    if missing:
        raise ConfigurationError(f"element {element.name!r} addresses undeclared paths {missing}")
    u = np.eye(4 * len(paths), dtype=complex)
    for t in (0, 1):
        index = np.array([_mode(paths, path, pol, t) for path, pol in element.channels])
        u[index[:, None], index] = element.matrix
    u.setflags(write=False)
    return u


@dataclass(frozen=True, eq=False)
class TwoPhotonState:
    """Two-photon state: symmetric amplitude ``matrix`` over the modes of ``paths``.

    ``paths`` declares every path the state logically spans, which may
    include paths that currently hold no amplitude (e.g. the empty output
    arms of an interferometer before light reaches them).  ``matrix`` has
    shape ``(..., n, n)``: leading axes, if any, make it a batch of states
    on the same paths.  Equality is exact on both fields.
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
            if np.ndim(amp):
                raise ValidationError(
                    f"from_terms builds one state; the amplitude of ({l1}, {l2}) "
                    f"has shape {np.shape(amp)}"
                )
            i, j = _find(declared, l1), _find(declared, l2)
            if i == j:
                matrix[i, i] += _SQRT2 * complex(amp)
            else:
                matrix[i, j] += amp
                matrix[j, i] += amp
        nrm = _norm_squared(matrix)
        if not nrm <= 1.0 + NORM_TOL:
            raise ValidationError(f"state squared norm {nrm!r} exceeds 1")
        return cls(declared, matrix)

    @property
    def norm_squared(self) -> float | np.ndarray:
        """Squared norm; an array over the batch axes for a batch."""
        return _norm_squared(self.matrix)

    def amplitude(self, l1: ModeLabel, l2: ModeLabel) -> complex:
        """Coefficient of the normalized (unordered) pair state, zero when absent."""
        _one_state(self.matrix, 2, "amplitude")
        i, j = _find(self.paths, l1), _find(self.paths, l2)
        if i is None or j is None:
            return 0j
        if i == j:
            return complex(self.matrix[i, i]) / _SQRT2
        return complex(self.matrix[min(i, j), max(i, j)])


@dataclass(frozen=True, eq=False)
class SinglePhotonState:
    """Single-photon state: amplitude ``vector`` over the modes of ``paths``.

    Leading axes of ``vector``, shape ``(..., n)``, make it a batch on the
    same paths.  It may be subnormalized.  Equality is exact on both fields.
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
        nrm = float(np.vdot(vector, vector).real)
        if not nrm <= 1.0 + NORM_TOL:
            raise ValidationError(f"state squared norm {nrm!r} exceeds 1")
        return cls(declared, vector)

    @property
    def norm_squared(self) -> float | np.ndarray:
        """Squared norm; an array over the batch axes for a batch."""
        nrm = (self.vector.real**2 + self.vector.imag**2).sum(axis=-1)
        return float(nrm) if self.vector.ndim == 1 else nrm

    def amplitude(self, label: ModeLabel) -> complex:
        """Amplitude on one mode, zero when its path is not declared."""
        _one_state(self.vector, 1, "amplitude")
        i = _find(self.paths, label)
        return 0j if i is None else complex(self.vector[i])

    def coherency(self) -> np.ndarray:
        """Polarization coherency matrix ``J = sum_g v_g v_g^dagger`` (2x2, H/V).

        ``v_g`` is the (H, V) amplitude pair of one (path, temporal) group.
        A polarization analyzer resolves neither path nor wavepacket, so
        amplitudes interfere within a group and add incoherently across
        groups; ``J`` therefore fixes every analyzer probability, and its
        trace is the squared norm.  A batch gives one ``J`` per vector.
        """
        vectors = _polarization_pairs(self.vector)
        return vectors.swapaxes(-1, -2) @ vectors.conj()

    def projection_probability(self, jones: Sequence[complex]) -> float:
        """Probability ``Re(j^dagger J j)`` of passing an analyzer set to ``jones``.

        Clamped at zero: for a pure state blocked by the analyzer the
        product is rounding noise of either sign.
        """
        _one_state(self.vector, 1, "projection_probability")
        vec = np.array(_as_jones(jones, "analyzer jones vector"))
        return max(float((vec.conj() @ self.coherency() @ vec).real), 0.0)


def product_state(
    photon_a: SinglePhotonSpec,
    photon_b: SinglePhotonSpec,
    overlap: float | Sequence[float] | np.ndarray = 1.0,
    paths: Iterable[str] = (),
) -> TwoPhotonState:
    """Normalized two-photon product state of two input specs.

    Photon a occupies temporal index 0.  Photon b's wavepacket has amplitude
    overlap ``v``, a real number in [0, 1], with photon a's, so it puts
    ``v`` on temporal index 0 and the orthogonal remainder ``sqrt(1 - v^2)``
    on index 1: indistinguishable photons share index 0, fully
    distinguishable ones sit on different indices.  A one-dimensional
    sequence or array of overlaps gives a batch with one matrix per
    overlap, in order.

    With ``a`` and ``b`` the two photons' mode vectors the matrix is
    ``a b^T + b a^T``, normalized; the two specs may share a spatial path,
    even a mode.  The declared paths are the two photons' paths, then
    ``paths``.
    """
    batch = isinstance(overlap, (Sequence, np.ndarray)) and not isinstance(overlap, (str, bytes))
    u = as_real_array(overlap, "overlap") if batch else np.array(as_real(overlap, "overlap"))
    check_unit_interval(u, "overlap")
    u = u.reshape(-1)
    w = np.sqrt(1.0 - u * u)
    declared = tuple(dict.fromkeys((photon_a.path, photon_b.path, *paths)))
    # Row 0 is photon a's mode vector, then one row of photon b's per overlap.
    vectors = np.zeros((1 + u.size, 4 * len(declared)), dtype=complex)
    start_a = 4 * declared.index(photon_a.path)
    start_b = 4 * declared.index(photon_b.path)
    h_a, v_a = photon_a.jones
    vectors[0, start_a : start_a + 4] = (h_a, 0j, v_a, 0j)
    # (overlap, polarization, temporal) -> the four modes of photon b's path
    wavepackets = np.array((u, w)).T[:, None, :]
    vectors[1:, start_b : start_b + 4] = (
        np.array(photon_b.jones)[:, None] * wavepackets
    ).reshape(-1, 4)
    matrix = _pairs(vectors)
    # Unit Jones vectors and an overlap in [0, 1] give a squared norm 1 + |<a|b>|^2 >= 1.
    norm = np.sqrt(_norm_squared(matrix if batch else matrix[0]))
    matrix = matrix / norm[..., None, None]
    return TwoPhotonState(declared, matrix if batch else matrix[0])


def _pairs(vectors: np.ndarray) -> np.ndarray:
    """``a b^T + b a^T`` with ``a = vectors[0]``, for each further row ``b``."""
    a, b = vectors[0], vectors[1:]
    matrix = a[:, None] * b[:, None, :]
    return matrix + matrix.transpose(0, 2, 1)


def apply_element(state: TwoPhotonState, element: "LinearElement") -> TwoPhotonState:
    """Apply a linear optical element as ``A -> U A U^T``.

    The element's matrix columns index input channels and rows index output
    channels; it acts alike on both temporal indices, and modes off its
    channels pass through.  A batch is transformed matrix by matrix with
    one operator ``U``.

    Each product is rounded on its own before the sums.  A matrix product
    may fuse multiply and add, which leaves the rounding error of one of
    two exactly opposite terms (e.g. the two paths of a balanced splitter)
    in place of an exact zero.  Only the modes occupied somewhere in the
    batch enter the sums, and only the modes ``U`` maps them onto are
    computed; every other sum would be of exact zeros.  ``U`` comes from
    the cache of :func:`_mode_operator`.
    """
    u = _mode_operator(state.paths, element)
    matrix = state.matrix
    occupancy = matrix.any(axis=-2) | matrix.any(axis=-1)
    occupied = np.flatnonzero(occupancy.reshape(-1, u.shape[0]).any(axis=0))
    u = u[:, occupied]
    reached = np.flatnonzero(u.any(axis=1))
    u = u[reached]
    block = matrix[..., occupied[:, None], occupied]
    half = (u[:, :, None] * block[..., None, :, :]).sum(axis=-2)
    out = np.zeros(matrix.shape, dtype=complex)
    out[..., reached[:, None], reached] = (half[..., :, None, :] * u).sum(axis=-1)
    return TwoPhotonState(state.paths, out)


def relabel_paths(state: TwoPhotonState, mapping: Mapping[str, str]) -> TwoPhotonState:
    """Rename spatial paths; identity on paths absent from ``mapping``.

    The mapping must stay injective on the state's declared paths, since
    merging two paths is not a linear-optics relabeling.
    """
    images = tuple(mapping.get(p, p) for p in state.paths)
    if len(set(images)) != len(images):
        raise ConfigurationError(f"path relabeling {dict(mapping)!r} merges declared paths")
    return TwoPhotonState(images, state.matrix)
