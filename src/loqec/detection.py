"""Post-selection, Z measurement, feed-forward and the analyzer readout.

Detector roles follow the bench layout: D1 sits behind the analyzer on arm
C; the Z-measurement station on arm D splits the computational basis onto
D2 (value 0) and D3 (value 1).  A D3 click heralds the encoded bit flip and
triggers the Pockels correction on arm C.  The photon surviving the Z
measurement is one batched state (see :func:`z_measure`), and the
feed-forward and the readout act on it as a whole.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import state_core
from .elements import PATH_C, pockels
from .errors import StructureError, ValidationError, as_grid
from .state_core import (
    AMPLITUDE_TOL,
    SinglePhotonState,
    TwoPhotonState,
    _one_state,
    computational_jones,
)

#: Z station: reflected output, heralds computational value 0.
Z_VALUE0_DETECTOR = "D2"
#: Z station: transmitted output, heralds computational value 1 (a bit flip).
Z_VALUE1_DETECTOR = "D3"

#: Conjugate Jones vectors of D2 and D3, shaped (detector, pol, 1, 1).
_Z_BASIS = np.conj([computational_jones(0), computational_jones(1)])[:, :, None, None]
#: The feed-forward's Pockels cell on arm C, fired by a D3 click.
_FLIP = pockels(PATH_C, active=True)


def _survivor_rows(survivor: SinglePhotonState) -> np.ndarray:
    """The vector of a survivor, which has the shape ``z_measure`` gives."""
    if survivor.vector.shape[:-1] != (2, 2):
        raise ValidationError(f"a survivor has vector shape (2, 2, n), got {survivor.vector.shape}")
    return survivor.vector


def z_measure(state: TwoPhotonState, path: str) -> SinglePhotonState:
    """Destructively measure the photon on ``path`` in the computational basis.

    Returns the survivor on the other paths as one batch of vector shape
    ``(2, 2, n)``: axis 0 is the herald, D2 (value 0) then D3 (value 1),
    and axis 1 the measured photon's temporal index.  Its ``norm_squared``
    is the ``(2, 2)`` table of outcome weights, on the scale of the input's
    squared norm; an outcome of zero weight is a row of zeros.

    With ``beta`` a detector's conjugate Jones vector on the measured path
    at one temporal index, the survivor is the contraction ``v = beta^T A``
    over the modes of the other paths.  The measured path's rows are the
    slice ``4p:4p+4`` of ``A`` for path index ``p``.  That path's own
    block and the other paths' block among themselves must hold no more
    weight than ``AMPLITUDE_TOL**2``, since every amplitude must put
    exactly one photon on ``path``; anything else raises a structural error.
    """
    _one_state(state.matrix, 2, "z_measure")
    if path not in state.paths:
        raise StructureError(f"path {path!r} is not declared, so it holds no photon")
    # Modes are (path, pol, temporal), four per path, in state_core's order.
    index = state.paths.index(path)
    on_path = slice(4 * index, 4 * index + 4)
    others = np.delete(np.arange(4 * len(state.paths)), on_path)
    rows = state.matrix[on_path]
    for count, block in ((2, rows[:, on_path]), (0, state.matrix[others[:, None], others])):
        weight = float(np.vdot(block, block).real)
        if weight > AMPLITUDE_TOL**2:
            raise StructureError(
                f"path {path!r} holds {count} photons with weight {weight:.3e}; "
                "a Z measurement requires exactly one"
            )
    # (detector, pol) x (pol, temporal, other mode) -> (detector, temporal, other mode)
    survivors = (_Z_BASIS * rows.take(others, axis=1).reshape(1, 2, 2, -1)).sum(axis=1)
    return SinglePhotonState(tuple(p for p in state.paths if p != path), survivors)


def apply_feedforward(survivor: SinglePhotonState, enabled: bool) -> SinglePhotonState:
    """Fire the Pockels cell on arm C for the bit-flip (D3) herald.

    The cell's cached mode operator ``U`` acts on the survivor's D3 row as
    ``v -> U v``, each product rounded on its own before the sum, as in
    :func:`~loqec.state_core.apply_element`; the D2 row is kept as it is,
    and one state is built for the result.  The correction is
    unitary, so the outcome weights are untouched; with ``enabled=False``
    the survivor passes through unchanged.
    """
    rows = _survivor_rows(survivor)
    if not enabled:
        return survivor
    u = state_core._mode_operator(survivor.paths, _FLIP)
    vector = rows.copy()
    vector[1] = (u * rows[1][..., None, :]).sum(axis=-1)
    return SinglePhotonState(survivor.paths, vector)


def coincidence_postselect(
    state: TwoPhotonState,
) -> tuple[TwoPhotonState, float | np.ndarray]:
    """Keep only amplitudes with one photon on each of two distinct paths.

    Returns the subnormalized kept state and its squared norm, which is the
    success probability of the coincidence-basis post-selection.  The kept
    state is the amplitude matrix with every same-path block zeroed; for a
    batch, every matrix is post-selected and the probability is an array.
    """
    n_paths = len(state.paths)
    same_path = np.eye(n_paths, dtype=bool)[:, None, :, None]
    blocks = state.matrix.reshape(state.matrix.shape[:-2] + (n_paths, 4, n_paths, 4))
    kept = np.where(same_path, 0j, blocks).reshape(state.matrix.shape)
    selected = TwoPhotonState(state.paths, kept)
    return selected, selected.norm_squared


@dataclass(frozen=True)
class AnalyzerCurves:
    """Coincidence probabilities versus analyzer angle, one curve per herald."""

    thetas: tuple[float, ...]
    p_d1_d2: tuple[float, ...]
    p_d1_d3: tuple[float, ...]


def analyzer_probabilities(coherency: np.ndarray, thetas: Sequence[float]) -> np.ndarray:
    """Probability of passing a linear analyzer at each angle of ``thetas``.

    ``p(theta) = J_HH cos^2 + J_VV sin^2 + 2 Re J_HV cos sin`` for every
    2x2 matrix of the leading axes of ``coherency``; the angle axis comes
    last.  Angles are reduced modulo 180 first, which makes the 180 degree
    periodicity exact rather than approximate.  The sum cancels terms of
    order one where an analyzer blocks a pure survivor, so the result is
    clamped at zero to keep rounding noise from going negative.

    ``coherency`` must be an array of numbers of shape ``(..., 2, 2)``
    with finite entries; anything else raises a ``ValidationError``.
    ``thetas`` is checked as by :func:`~loqec.errors.as_grid`, and its
    cosines and sines are taken on each call (:func:`_analyzer_trig`).  A
    sweep, whose config has checked its grid, reads the same arrays from
    its grid's one cache entry and calls the same kernel directly.
    """
    j = _coherency_array(coherency)
    return _pass_probabilities(j, *_analyzer_trig(as_grid(thetas, "thetas")))


def _pass_probabilities(j: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The readout of the checked coherency array ``j`` on a grid's cached ``c`` and ``s``."""
    j = j.real[..., None]
    p = j[..., 0, 0, :] * c * c + j[..., 1, 1, :] * s * s + 2.0 * j[..., 0, 1, :] * c * s
    return np.maximum(p, 0.0)


def _coherency_array(coherency: object) -> np.ndarray:
    """``coherency`` as an array of finite numbers of shape ``(..., 2, 2)``."""
    try:
        j = np.asarray(coherency)
    except (TypeError, ValueError):  # a ragged nest of sequences
        raise ValidationError("coherency must be an array of numbers, got a ragged nest") from None
    if j.dtype.kind not in "iufc":
        raise ValidationError(f"coherency must be an array of numbers, got dtype {j.dtype}")
    if j.shape[-2:] != (2, 2):
        raise ValidationError(f"coherency must have shape (..., 2, 2), got shape {j.shape}")
    if not np.isfinite(j).all():
        index = tuple(np.argwhere(~np.isfinite(j))[0].tolist())
        raise ValidationError(
            f"coherency entries must be finite, got {j[index].item()!r} at index {index} "
            f"of shape {j.shape}"
        )
    return j


def _analyzer_trig(thetas: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """``cos`` and ``sin`` of a checked grid, a tuple or an array, reduced modulo 180."""
    rad = np.radians(np.asarray(thetas) % 180.0)
    return np.cos(rad), np.sin(rad)


def analyzer_curve(survivor: SinglePhotonState, thetas: Sequence[float]) -> AnalyzerCurves:
    """Sweep the analyzer over ``thetas`` for both heralds of a survivor.

    Each point is the total probability that the surviving photon passes
    the analyzer, incoherently summed over the measured temporal index.
    """
    _survivor_rows(survivor)
    grid = as_grid(thetas, "thetas")
    p_d2, p_d3 = analyzer_probabilities(survivor.coherency().sum(axis=1), grid).tolist()
    return AnalyzerCurves(tuple(grid.tolist()), tuple(p_d2), tuple(p_d3))
