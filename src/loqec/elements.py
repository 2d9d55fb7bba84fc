"""Linear optical elements and the fiber routing between bench stages.

Every element is a unitary on a tuple of (path, polarization) channels;
matrix columns index input channels, rows index output channels.  All
constructors here produce real matrices, so no element introduces a phase
the bench does not.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, as_finite_real
from .state_core import Polarization, TwoPhotonState, relabel_paths

#: Canonical path names used by the experiment pipeline.
PATH_QUBIT_IN = "qubit-in"
PATH_ANCILLA_IN = "ancilla-in"
PATH_A = "A"
PATH_B = "B"
PATH_C = "C"
PATH_D = "D"

_UNITARY_TOL = 1e-12

Channel = tuple[str, Polarization]


@dataclass(frozen=True, eq=False)
class LinearElement:
    """Unitary acting on an ordered tuple of (path, polarization) channels.

    A polarization given as ``"H"`` or ``"V"`` is held as its
    :class:`Polarization`.  Equality is exact on all three fields.  The hash
    reads the name and the channels only, so matrices that compare equal
    (``-0.0`` and ``0.0`` entries alike) never hash apart.
    """

    name: str
    channels: tuple[Channel, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        # A plain "V" equals Polarization.V, so equal elements must build equal operators.
        try:
            channels = tuple((path, Polarization(pol)) for path, pol in self.channels)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"element {self.name!r}: channels must be (path, 'H' or 'V') pairs, "
                f"got {self.channels!r}"
            ) from None
        object.__setattr__(self, "channels", channels)
        mat = np.asarray(self.matrix, dtype=complex)
        n = len(channels)
        if mat.shape != (n, n):
            raise ConfigurationError(
                f"element {self.name!r}: matrix shape {mat.shape} does not match "
                f"{n} channels"
            )
        if len(set(channels)) != n:
            raise ConfigurationError(f"element {self.name!r}: duplicate channels")
        deviation = np.abs(mat.conj().T @ mat - np.eye(n)).max() if n else 0.0
        if not deviation <= _UNITARY_TOL:
            raise ConfigurationError(
                f"element {self.name!r}: matrix is not unitary "
                f"(deviation {float(deviation):.3e})"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearElement):
            return NotImplemented
        return (
            self.name == other.name
            and self.channels == other.channels
            and np.array_equal(self.matrix, other.matrix)
        )

    def __hash__(self) -> int:
        return hash((self.name, self.channels))


def _hwp_image_of_h(angle: float) -> tuple[float, float]:
    """``(cos 2w, sin 2w)``: the Jones vector a plate at finite ``angle`` degrees makes of |H>."""
    w = math.radians(angle)
    return math.cos(2.0 * w), math.sin(2.0 * w)


def hwp(angle_deg: float, path: str) -> LinearElement:
    """Half-wave plate with its fast axis at ``angle_deg`` from horizontal.

    At 22.5 degrees it maps |H> onto +45 degree polarization, i.e. prepares
    computational |0> from a horizontally polarized photon.
    """
    angle = as_finite_real(angle_deg, "hwp angle")
    c, s = _hwp_image_of_h(angle)
    matrix = np.array([[c, s], [s, -c]], dtype=complex)
    channels = ((path, Polarization.H), (path, Polarization.V))
    return LinearElement(f"hwp[{angle:g}]", channels, matrix)


def _four_port(
    name: str, ports: tuple[str, str, str, str], blocks: Sequence[Sequence[Sequence[float]]]
) -> LinearElement:
    """Element from ``ports = (in1, in2, out1, out2)`` and one 2x2 block per polarization.

    ``blocks[pol][o][i]`` is the amplitude from input ``i`` to output ``o``
    (H first).  The matrix also holds each block's transpose, which routes
    the reverse direction, so it stays unitary on all eight channels.
    """
    if len(set(ports)) != 4:
        raise ConfigurationError(f"{name} requires four distinct paths, got {ports!r}")
    channels = tuple((p, pol) for p in ports for pol in Polarization)
    matrix = np.zeros((8, 8), dtype=complex)
    for pol, block in enumerate(blocks):
        inputs, outputs = [pol, 2 + pol], [4 + pol, 6 + pol]
        matrix[np.ix_(outputs, inputs)] = block
        matrix[np.ix_(inputs, outputs)] = np.transpose(block)
    return LinearElement(name, channels, matrix)


def pbs(in1: str, in2: str, out1: str, out2: str) -> LinearElement:
    """Polarizing beam splitter: transmits H, reflects V, no extra phases.

    ``in1`` transmits to ``out1`` and reflects to ``out2``; ``in2``
    transmits to ``out2`` and reflects to ``out1``.  All four paths must be
    distinct.
    """
    return _four_port("pbs", (in1, in2, out1, out2), ([[1, 0], [0, 1]], [[0, 1], [1, 0]]))


def bs5050(in1: str, in2: str, out1: str, out2: str) -> LinearElement:
    """Polarization-preserving 50/50 beam splitter in the real convention.

    Each polarization sees the Hadamard-type coupling
    ``(a1, a2) -> ((a1 + a2), (a1 - a2)) / sqrt(2)``, the sign landing on
    the ``in2 -> out2`` transfer.
    """
    r = 1.0 / math.sqrt(2.0)
    block = [[r, r], [r, -r]]
    return _four_port("bs5050", (in1, in2, out1, out2), (block, block))


def pockels(path: str, active: bool) -> LinearElement:
    """Pockels cell with fast axis horizontal: H -> H, V -> -V when active.

    On the computational basis the active cell exchanges |0> and |1>, which
    is exactly the bit-flip correction the feed-forward stage needs.  When
    inactive it is the identity.
    """
    matrix = np.diag([1.0, -1.0 if active else 1.0]).astype(complex)
    channels = ((path, Polarization.H), (path, Polarization.V))
    return LinearElement(f"pockels[{'on' if active else 'off'}]", channels, matrix)


class WiringConfig(Enum):
    """Fiber routing from encoder outputs A, B to analyzer arm C and Z arm D.

    The two members are the two ways of plugging the pair of fibers; the
    swap is a pure relabeling, so both produce identical statistics once
    detector roles are fixed by arm.
    """

    A_TO_C_B_TO_D = "A:C,B:D"
    A_TO_D_B_TO_C = "A:D,B:C"

    @property
    def mapping(self) -> Mapping[str, str]:
        """Bidirectional path swap realized by plugging the two fibers."""
        if self is WiringConfig.A_TO_C_B_TO_D:
            return {PATH_A: PATH_C, PATH_C: PATH_A, PATH_B: PATH_D, PATH_D: PATH_B}
        return {PATH_A: PATH_D, PATH_D: PATH_A, PATH_B: PATH_C, PATH_C: PATH_B}

    @classmethod
    def parse(cls, text: str) -> "WiringConfig":
        """The member whose value is ``text``, spaces aside."""
        if not isinstance(text, str):
            raise ConfigurationError(f"wiring must be a string, got {text!r}")
        cleaned = text.replace(" ", "")
        for member in cls:
            if member.value == cleaned:
                return member
        valid = ", ".join(repr(m.value) for m in cls)
        raise ConfigurationError(f"unknown wiring {text!r}; expected one of {valid}")


def rewire(state: TwoPhotonState, wiring: WiringConfig) -> TwoPhotonState:
    """Relabel encoder output paths through the configured fiber swap.

    Applying the same rewiring twice restores the original labels.
    """
    return relabel_paths(state, wiring.mapping)
