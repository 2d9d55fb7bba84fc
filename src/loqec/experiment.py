"""End-to-end experiment pipelines: encoding sweeps, fits, HOM scans.

The sweep pipeline mirrors the bench: a half-wave plate prepares the input
qubit from |H>, a polarizing beam splitter entangles it with the ancilla
under coincidence post-selection, the fiber wiring routes the pair to the
analyzer arm C and the Z-measurement arm D, and the optional Pockels cell
undoes the heralded bit flip before the analyzer.

Overlap convention: ``ExperimentConfig.overlap_v`` is the degree of
indistinguishability on the probability scale, i.e. the weight of the
interfering (temporally matched) component in the detected ensemble.  It
equals the fringe visibility of the heralded analyzer curves and enters
state preparation as an amplitude overlap of sqrt(overlap_v).  The HOM
scan, which measures amplitude overlaps directly, uses
:class:`~loqec.state_core.DistinguishabilitySpec` unchanged.
"""
from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .detection import (
    analyzer_curve,  # noqa: F401  (kept importable from this module)
    analyzer_probabilities,
    apply_feedforward,
    coincidence_postselect,
    herald_coherency,
    z_measure,
)
from .elements import (
    PATH_A,
    PATH_ANCILLA_IN,
    PATH_B,
    PATH_D,
    PATH_QUBIT_IN,
    WiringConfig,
    bs5050,
    hwp,
    pbs,
    rewire,
)
from .errors import FitError, ValidationError
from .state_core import (
    DistinguishabilitySpec,
    SinglePhotonSpec,
    TwoPhotonState,
    apply_element,
    computational_jones,
    jones_to_computational,
    product_state,
)

#: Default analyzer grid: -90 to 90 degrees in 10 degree steps.
DEFAULT_THETAS = tuple(float(t) for t in range(-90, 91, 10))

#: Largest Poisson mean numpy's generator accepts (its ``POISSON_LAM_MAX``).
_POISSON_MEAN_MAX = float(np.iinfo(np.int64).max - 10.0 * np.sqrt(np.iinfo(np.int64).max))

#: Fits whose amplitude is at most this share of the offset report phase 0.
_FLAT_FIT_TOL = 1e-12

_HOM_IN1 = "hom-in-1"
_HOM_IN2 = "hom-in-2"
_HOM_OUT1 = "hom-out-1"
_HOM_OUT2 = "hom-out-2"


def _check_exposure(pair_rate: float, duration: float) -> None:
    """Reject a run whose largest mean count numpy cannot draw from."""
    mean = pair_rate * duration
    if mean > _POISSON_MEAN_MAX:
        raise ValidationError(
            f"pair_rate * duration = {mean:.6g} exceeds the largest Poisson mean "
            f"{_POISSON_MEAN_MAX:.6g} (pair_rate={pair_rate!r}, duration={duration!r})"
        )


def _real(value: object, name: str) -> float:
    """``value`` as a float; a bool, a string or another non-number is rejected."""
    try:
        if not isinstance(value, (bool, np.bool_, str, bytes)):
            return float(value)
    except (TypeError, ValueError):
        pass
    raise ValidationError(f"{name} must be a real number, got {value!r}")


def _check_seed(seed: int) -> int:
    """The seed as an int, which must fit the 64-bit Philox key unaltered."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise ValidationError(f"seed must be an integer, got {seed!r}")
    value = int(seed)
    if not 0 <= value < 2**64:
        raise ValidationError(f"seed must lie in [0, 2**64), got {value!r}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one sweep needs, in bench units (degrees, Hz, seconds)."""

    qubit_hwp_angle: float = 22.5
    wiring: WiringConfig = WiringConfig.A_TO_C_B_TO_D
    overlap_v: float = 1.0
    imperfection_eps: float = 0.0
    pc_enabled: bool = True
    thetas: tuple[float, ...] = DEFAULT_THETAS
    pair_rate: float = 1000.0
    duration: float = 60.0
    seed: int = 0

    def __post_init__(self) -> None:
        angle = _real(self.qubit_hwp_angle, "qubit_hwp_angle")
        if not math.isfinite(angle):
            raise ValidationError(f"qubit_hwp_angle must be finite, got {angle!r}")
        object.__setattr__(self, "qubit_hwp_angle", angle)
        if not isinstance(self.wiring, WiringConfig):
            object.__setattr__(self, "wiring", WiringConfig.parse(self.wiring))
        for name in ("overlap_v", "imperfection_eps"):
            value = _real(getattr(self, name), name)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1], got {value!r}")
            object.__setattr__(self, name, value)
        if not isinstance(self.pc_enabled, (bool, np.bool_)):
            raise ValidationError(f"pc_enabled must be a boolean, got {self.pc_enabled!r}")
        object.__setattr__(self, "pc_enabled", bool(self.pc_enabled))
        try:
            thetas = tuple(_real(t, f"thetas[{i}]") for i, t in enumerate(self.thetas))
        except TypeError:
            raise ValidationError(f"thetas must be a sequence, got {self.thetas!r}") from None
        if not thetas:
            raise ValidationError("thetas must contain at least one angle")
        for index, theta in enumerate(thetas):
            if not math.isfinite(theta):
                raise ValidationError(f"thetas[{index}] must be finite, got {theta!r}")
        object.__setattr__(self, "thetas", thetas)
        for name in ("pair_rate", "duration"):
            value = _real(getattr(self, name), name)
            if value < 0.0 or not math.isfinite(value):
                raise ValidationError(f"{name} must be finite and >= 0, got {value!r}")
            object.__setattr__(self, name, value)
        _check_exposure(self.pair_rate, self.duration)
        object.__setattr__(self, "seed", _check_seed(self.seed))


@dataclass(frozen=True)
class MalusFit:
    """Least-squares parameters of ``offset + amplitude * cos(2(theta - phase))``."""

    offset: float
    amplitude: float
    phase_deg: float


@dataclass(frozen=True)
class CurveResult:
    """One heralded analyzer curve with its fit and derived visibility."""

    probabilities: tuple[float, ...]
    counts: tuple[int, ...] | None
    fit: MalusFit
    visibility: float


@dataclass(frozen=True)
class SweepResult:
    """Full output of one analyzer sweep."""

    config: ExperimentConfig
    thetas: tuple[float, ...]
    d1_d2: CurveResult
    d1_d3: CurveResult
    success_probability: float
    discarded_probability: float
    fidelity: float
    fidelity_fit: float


def encode_qubit(
    alpha: complex, beta: complex, overlap_v: float = 1.0
) -> tuple[TwoPhotonState, float]:
    """Entangle a qubit with the |0> ancilla on the encoding beam splitter.

    ``(alpha, beta)`` are the computational-basis coefficients of the input
    photon; ``overlap_v`` is the probability-scale indistinguishability of
    the photon pair (see the module docstring).  Returns the coincidence
    post-selected two-photon state on output arms A and B together with the
    success probability, which is exactly one half for any normalized
    input.
    """
    alpha = complex(alpha)
    beta = complex(beta)
    norm = abs(alpha) ** 2 + abs(beta) ** 2
    if not abs(norm - 1.0) <= 1e-12:
        raise ValidationError(f"qubit coefficients must be normalized, got norm^2 {norm!r}")
    if not 0.0 <= float(overlap_v) <= 1.0:
        raise ValidationError(f"overlap_v must lie in [0, 1], got {overlap_v!r}")

    zero, one = computational_jones(0), computational_jones(1)
    qubit_jones = (
        alpha * zero[0] + beta * one[0],
        alpha * zero[1] + beta * one[1],
    )
    qubit = SinglePhotonSpec(PATH_QUBIT_IN, qubit_jones)
    ancilla = SinglePhotonSpec(PATH_ANCILLA_IN, zero)
    overlap = DistinguishabilitySpec(math.sqrt(float(overlap_v)))
    state = product_state(qubit, ancilla, overlap, (PATH_A, PATH_B))
    state = apply_element(state, pbs(PATH_QUBIT_IN, PATH_ANCILLA_IN, PATH_A, PATH_B))
    return coincidence_postselect(state)


def run_analytic(config: ExperimentConfig) -> SweepResult:
    """Run the sweep with exact probabilities (no counting noise).

    The flat background replaces a share ``imperfection_eps`` of each
    herald's coherency matrix ``J`` with the unpolarized ``tr(J) I / 2``.
    The fidelity is the input state's weight in the admixed D2 survivor,
    ``<psi|J|psi> / tr J``, which holds for any input polarization.
    """
    psi = hwp(config.qubit_hwp_angle, PATH_QUBIT_IN).matrix[:, 0]  # |H> after the wave plate
    state, p_success = encode_qubit(*jones_to_computational(psi), config.overlap_v)
    state = rewire(state, config.wiring)
    branches = z_measure(state, PATH_D)
    branches = apply_feedforward(branches, config.pc_enabled)

    eps = config.imperfection_eps
    coherency = herald_coherency(branches)
    weights = np.trace(coherency, axis1=1, axis2=2).real
    coherency = (1.0 - eps) * coherency + eps * 0.5 * weights[:, None, None] * np.eye(2)
    p_d2, p_d3 = (tuple(p) for p in analyzer_probabilities(coherency, config.thetas).tolist())

    fit_d2 = fit_malus(config.thetas, p_d2)
    fit_d3 = fit_malus(config.thetas, p_d3)
    vis_d2 = visibility(fit_d2)
    vis_d3 = visibility(fit_d3)
    fidelity = float((psi.conj() @ coherency[0] @ psi).real / weights[0])

    return SweepResult(
        config=config,
        thetas=config.thetas,
        d1_d2=CurveResult(p_d2, None, fit_d2, vis_d2),
        d1_d3=CurveResult(p_d3, None, fit_d3, vis_d3),
        success_probability=p_success,
        discarded_probability=1.0 - p_success,
        fidelity=fidelity,
        fidelity_fit=0.5 * (1.0 + vis_d2),
    )


def run_experiment(config: ExperimentConfig) -> SweepResult:
    """Run the sweep and attach Poisson coincidence counts to both curves."""
    result = run_analytic(config)
    counts_d2 = sample_counts(
        result.d1_d2.probabilities, config.pair_rate, config.duration, config.seed, stream=0
    )
    counts_d3 = sample_counts(
        result.d1_d3.probabilities, config.pair_rate, config.duration, config.seed, stream=1
    )
    return dataclasses.replace(
        result,
        d1_d2=dataclasses.replace(result.d1_d2, counts=tuple(int(c) for c in counts_d2)),
        d1_d3=dataclasses.replace(result.d1_d3, counts=tuple(int(c) for c in counts_d3)),
    )


def sample_counts(
    probabilities: Sequence[float],
    pair_rate: float,
    duration: float,
    seed: int,
    *,
    stream: int = 0,
) -> np.ndarray:
    """Poisson coincidence counts for a probability grid, reproducibly.

    Each grid point draws from its own counter-based generator keyed by
    ``(seed, point index, stream)``, so results do not depend on evaluation
    order and distinct curves of one run stay decorrelated via ``stream``.
    """
    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 1:
        raise ValidationError(f"probabilities must be one-dimensional, got shape {p.shape}")
    outside = np.flatnonzero(~((p >= 0.0) & (p <= 1.0)))
    if outside.size:
        index = int(outside[0])
        raise ValidationError(
            f"probabilities must lie in [0, 1], got probabilities[{index}] = {float(p[index])!r}"
        )
    rate = float(pair_rate)
    time = float(duration)
    if rate < 0.0 or time < 0.0 or not (math.isfinite(rate) and math.isfinite(time)):
        raise ValidationError("pair_rate and duration must be finite and >= 0")
    _check_exposure(rate, time)
    key = _check_seed(seed)
    means = rate * time * p
    counts = np.empty(p.size, dtype=np.int64)
    for index, mean in enumerate(means):
        bits = np.random.Philox(key=key, counter=[0, index, int(stream), 0])
        counts[index] = np.random.Generator(bits).poisson(mean)
    return counts


def fit_malus(thetas: Sequence[float], values: Sequence[float]) -> MalusFit:
    """Least-squares fit of a fixed-period analyzer curve.

    The model is ``offset + amplitude * cos(2(theta - phase))``, linearized
    on the basis ``{1, cos(2 theta), sin(2 theta)}``.  The returned
    amplitude is nonnegative and the phase lies in (-90, 90] degrees; it is
    0 for a flat curve, whose amplitude is at most 1e-12 times the offset.
    """
    th = np.asarray(thetas, dtype=float)
    y = np.asarray(values, dtype=float)
    if th.ndim != 1 or th.shape != y.shape:
        raise FitError(f"angle and value grids must match, got {th.shape} and {y.shape}")
    for name, grid in (("thetas", th), ("values", y)):
        non_finite = np.flatnonzero(~np.isfinite(grid))
        if non_finite.size:
            index = int(non_finite[0])
            raise FitError(f"{name}[{index}] must be finite, got {float(grid[index])!r}")
    if np.unique(th).size < 3:
        raise FitError(f"need at least 3 distinct angles, got {np.unique(th).size}")
    angles = np.deg2rad(2.0 * th)
    design = np.column_stack([np.ones_like(angles), np.cos(angles), np.sin(angles)])
    coeffs, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < 3:
        raise FitError(
            "analyzer grid is rank-deficient for a fixed-period fit "
            "(angles congruent modulo 90 degrees?)"
        )
    offset, c, s = (float(x) for x in coeffs)
    amplitude = math.hypot(c, s)
    if amplitude <= _FLAT_FIT_TOL * abs(offset):
        # A flat curve has no phase; the fitted one would be rounding noise.
        return MalusFit(offset, amplitude, 0.0)
    phase_deg = math.degrees(0.5 * math.atan2(s, c))
    if phase_deg <= -90.0:
        phase_deg += 180.0
    return MalusFit(offset, amplitude, phase_deg)


def visibility(fit: MalusFit) -> float:
    """Fringe visibility amplitude/offset of a fitted analyzer curve."""
    if fit.offset <= 0.0:
        raise ValidationError(f"visibility undefined for offset {fit.offset!r}")
    return fit.amplitude / fit.offset


@dataclass(frozen=True)
class HomScanPoint:
    """One delay setting of the two-photon interference scan."""

    delay: float
    overlap: float
    p_coincidence: float


@dataclass(frozen=True)
class HomScanResult:
    """Coincidence dip of two |H> photons on a 50/50 beam splitter."""

    coherence_time: float
    points: tuple[HomScanPoint, ...]


def hom_scan(delays: Sequence[float], coherence_time: float) -> HomScanResult:
    """Two-photon coincidence probability versus relative delay.

    Each point prepares two horizontally polarized photons, delays one by
    ``tau`` (Gaussian wavepackets of coherence time ``sigma``, amplitude
    overlap ``exp(-tau^2 / 2 sigma^2)``), interferes them on a 50/50 beam
    splitter, and records the probability of a coincidence across the two
    outputs.  Zero delay gives zero coincidences; far beyond the coherence
    time the classical value one half is recovered.
    """
    grid = tuple(float(t) for t in delays)
    if not grid:
        raise ValidationError("delay grid must contain at least one value")
    sigma = float(coherence_time)
    splitter = bs5050(_HOM_IN1, _HOM_IN2, _HOM_OUT1, _HOM_OUT2)
    horizontal = (1.0 + 0j, 0j)
    first = SinglePhotonSpec(_HOM_IN1, horizontal)
    second = SinglePhotonSpec(_HOM_IN2, horizontal)
    outputs = (_HOM_OUT1, _HOM_OUT2)
    points = []
    for tau in grid:
        spec = DistinguishabilitySpec.from_delay(tau, sigma)
        state = apply_element(product_state(first, second, spec, outputs), splitter)
        _, p_coincidence = coincidence_postselect(state)
        points.append(HomScanPoint(tau, spec.overlap, p_coincidence))
    return HomScanResult(sigma, tuple(points))
