"""Detectors, post-selection, Z measurement, feed-forward, analyzer curves.

Detector roles follow the bench layout: D1 sits behind the analyzer on arm
C; the Z-measurement station on arm D splits the computational basis onto
D2 (value 0) and D3 (value 1).  A D3 click heralds the encoded bit flip and
triggers the Pockels correction on arm C.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .elements import PATH_C, pockels
from .errors import ConfigurationError, StructureError, ValidationError
from .state_core import (
    AMPLITUDE_TOL,
    Jones,
    SinglePhotonState,
    TwoPhotonState,
    apply_element_single,
    computational_jones,
)

#: Z station: reflected output, heralds computational value 0.
Z_VALUE0_DETECTOR = "D2"
#: Z station: transmitted output, heralds computational value 1 (a bit flip).
Z_VALUE1_DETECTOR = "D3"

_ORTHO_TOL = 1e-12


@dataclass(frozen=True)
class DetectorSpec:
    """Single-photon detector behind a polarization filter on one path."""

    id: str
    path: str
    jones: Jones


def z_detectors(path: str) -> tuple[DetectorSpec, DetectorSpec]:
    """The standard Z-measurement detector pair on ``path``."""
    return (
        DetectorSpec(Z_VALUE0_DETECTOR, path, computational_jones(0)),
        DetectorSpec(Z_VALUE1_DETECTOR, path, computational_jones(1)),
    )


def _check_measurement_pair(pair: Sequence[DetectorSpec], path: str) -> None:
    if len(pair) != 2:
        raise ConfigurationError(f"a Z measurement needs exactly two detectors, got {len(pair)}")
    first, second = pair
    if first.path != path or second.path != path:
        raise ConfigurationError(
            f"detectors {first.id!r}/{second.id!r} must both sit on path {path!r}"
        )
    if first.id == second.id:
        raise ConfigurationError(f"detector ids must differ, both are {first.id!r}")
    inner = np.vdot(first.jones, second.jones)
    if not abs(inner) <= _ORTHO_TOL:
        raise ConfigurationError(
            f"detector projections must be orthogonal, overlap {abs(inner):.3e}"
        )
    # Two orthogonal unit vectors in a two-dimensional space are complete.


@dataclass(frozen=True)
class MeasurementBranch:
    """One outcome of the Z measurement: detector, temporal index, remainder."""

    detector: str
    temporal: int
    probability: float
    conditional: SinglePhotonState


def z_measure(
    state: TwoPhotonState,
    path: str,
    detectors: Sequence[DetectorSpec] | None = None,
) -> tuple[MeasurementBranch, ...]:
    """Destructively measure the photon on ``path`` in the detector basis.

    Returns one branch per (detector, temporal index) with nonzero weight.
    Branch probabilities sum to the squared norm of the input state, so a
    subnormalized post-selected state yields branch weights on the same
    scale.

    With ``beta`` the detector's conjugate Jones vector on the measured
    path at one temporal index, the survivor is the contraction
    ``v = beta^T A`` over the modes of the other paths, and the branch
    weight is ``|v|^2``; an outcome of weight at most ``AMPLITUDE_TOL**2``
    yields no branch.  The measured path's own block and the other paths'
    block among themselves must hold no more weight than that, since every
    amplitude must put exactly one photon on ``path``; anything else
    raises a structural error.
    """
    pair = tuple(detectors) if detectors is not None else z_detectors(path)
    _check_measurement_pair(pair, path)
    if path not in state.paths:
        raise StructureError(f"path {path!r} is not declared, so it holds no photon")
    # Modes are (path, pol, temporal), four per path, in state_core's order.
    on_path = np.arange(state.matrix.shape[0]) // 4 == state.paths.index(path)
    rows = state.matrix[on_path]
    for count, block in ((2, rows[:, on_path]), (0, state.matrix[~on_path][:, ~on_path])):
        weight = float(np.vdot(block, block).real)
        if weight > AMPLITUDE_TOL**2:
            raise StructureError(
                f"path {path!r} holds {count} photons with weight {weight:.3e}; "
                "a Z measurement requires exactly one"
            )
    # (detector, pol) x (pol, temporal, other mode) -> (detector, temporal, other mode)
    beta = np.conj([det.jones for det in pair])[:, :, None, None]
    survivors = (beta * rows[:, ~on_path].reshape(1, 2, 2, -1)).sum(axis=1)
    weights = (survivors.real**2 + survivors.imag**2).sum(axis=2).tolist()
    survivor_paths = tuple(p for p in state.paths if p != path)
    return tuple(
        MeasurementBranch(
            det.id, t, weights[d][t], SinglePhotonState(survivor_paths, survivors[d, t])
        )
        for d, det in enumerate(pair)
        for t in (0, 1)
        if weights[d][t] > AMPLITUDE_TOL**2
    )


def apply_feedforward(
    branches: Iterable[MeasurementBranch], enabled: bool
) -> tuple[MeasurementBranch, ...]:
    """Fire the Pockels cell on arm C for every bit-flip (D3) branch.

    The correction is unitary, so branch probabilities are untouched; with
    ``enabled=False`` the branches pass through unchanged.
    """
    branches = tuple(branches)
    if not enabled:
        return branches
    cell = pockels(PATH_C, active=True)
    corrected = []
    for branch in branches:
        if branch.detector == Z_VALUE1_DETECTOR:
            flipped = apply_element_single(branch.conditional, cell)
            corrected.append(replace(branch, conditional=flipped))
        else:
            corrected.append(branch)
    return tuple(corrected)


def coincidence_postselect(state: TwoPhotonState) -> tuple[TwoPhotonState, float]:
    """Keep only amplitudes with one photon on each of two distinct paths.

    Returns the subnormalized kept state and its squared norm, which is the
    success probability of the coincidence-basis post-selection.  The kept
    state is the amplitude matrix with every same-path block zeroed.
    """
    n_paths = len(state.paths)
    same_path = np.eye(n_paths, dtype=bool)[:, None, :, None]
    blocks = state.matrix.reshape(n_paths, 4, n_paths, 4)
    kept = np.where(same_path, 0j, blocks).reshape(state.matrix.shape)
    selected = TwoPhotonState(state.paths, kept)
    return selected, selected.norm_squared


@dataclass(frozen=True)
class AnalyzerCurves:
    """Coincidence probabilities versus analyzer angle, one curve per herald."""

    thetas: tuple[float, ...]
    p_d1_d2: tuple[float, ...]
    p_d1_d3: tuple[float, ...]


def herald_coherency(branches: Iterable[MeasurementBranch]) -> np.ndarray:
    """The survivor's coherency matrix summed over each herald's branches.

    Returns a (2, 2, 2) array: index 0 is the D2 (value 0) herald, index 1
    the D3 (value 1) herald.  Branches of any other detector are ignored.
    """
    heralds = (Z_VALUE0_DETECTOR, Z_VALUE1_DETECTOR)
    total = np.zeros((2, 2, 2), dtype=complex)
    for branch in branches:
        if branch.detector in heralds:
            total[heralds.index(branch.detector)] += branch.conditional.coherency()
    return total


def analyzer_probabilities(coherency: np.ndarray, thetas: Sequence[float]) -> np.ndarray:
    """Probability of passing a linear analyzer at each angle of ``thetas``.

    ``p(theta) = J_HH cos^2 + J_VV sin^2 + 2 Re J_HV cos sin`` for every
    2x2 matrix of the leading axes of ``coherency``; the angle axis comes
    last.  Angles are reduced modulo 180 first, which makes the 180 degree
    periodicity exact rather than approximate.  The sum cancels terms of
    order one where an analyzer blocks a pure survivor, so the result is
    clamped at zero to keep rounding noise from going negative.
    """
    rad = np.radians(np.asarray(thetas, dtype=float) % 180.0)
    c, s = np.cos(rad), np.sin(rad)
    j = np.asarray(coherency).real[..., None]
    p = j[..., 0, 0, :] * c * c + j[..., 1, 1, :] * s * s + 2.0 * j[..., 0, 1, :] * c * s
    return np.maximum(p, 0.0)


def analyzer_curve(
    branches: Iterable[MeasurementBranch], thetas: Sequence[float]
) -> AnalyzerCurves:
    """Sweep the analyzer over ``thetas`` for both heralded branch families.

    Each point is the total probability that the surviving photon passes
    the analyzer, incoherently summed over the temporal branches of the
    matching herald.
    """
    grid = tuple(float(t) for t in thetas)
    if not grid:
        raise ValidationError("analyzer sweep needs at least one angle")
    for index, theta in enumerate(grid):
        if not math.isfinite(theta):
            raise ValidationError(f"thetas[{index}] must be finite, got {theta!r}")
    p_d2, p_d3 = analyzer_probabilities(herald_coherency(branches), grid).tolist()
    return AnalyzerCurves(grid, tuple(p_d2), tuple(p_d3))
