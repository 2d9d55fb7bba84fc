"""End-to-end experiment pipelines: encoding sweeps, fits, HOM scans.

The sweep pipeline mirrors the bench: a half-wave plate prepares the input
qubit from |H>, a polarizing beam splitter entangles it with the ancilla
under coincidence post-selection, the fiber wiring routes the pair to the
analyzer arm C and the Z-measurement arm D, and the optional Pockels cell
undoes the heralded bit flip before the analyzer.

Everything from the encoder to the Z station is fixed optics, so the
survivor of the Z measurement is linear in the qubit's Jones vector and in
photon b's two temporal amplitudes.  Each wiring's survivors of the four
basis inputs, H or V times temporal index 0 or 1, are built once at import
through :func:`encode_qubit`'s own chain.  The Pockels cell is fixed too,
and the analyzer reads a herald only through its 2x2 coherency matrix
``J``, which is therefore a fixed quadratic form in the four real input
amplitudes.  That form is built at import for each wiring and Pockels
setting from the survivor basis, and a sweep config reads both heralds'
``J`` off it (see :func:`run_analytic`): no config builds a two-photon or
a single-photon state.

Overlap convention: ``ExperimentConfig.overlap_v`` is the degree of
indistinguishability on the probability scale, i.e. the weight of the
interfering (temporally matched) component in the detected ensemble.  It
equals the fringe visibility of the heralded analyzer curves and enters
state preparation as the amplitude overlap sqrt(overlap_v), the plain
number :func:`~loqec.state_core.product_state` takes.  The HOM scan
measures amplitude overlaps directly and passes its array of them as is.
"""
from __future__ import annotations

import functools
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
    z_measure,
)
from .elements import (
    PATH_A,
    PATH_ANCILLA_IN,
    PATH_B,
    PATH_D,
    PATH_QUBIT_IN,
    WiringConfig,
    _hwp_image_of_h,
    bs5050,
    pbs,
    rewire,
)
from .errors import (
    FitError,
    ValidationError,
    _shown,
    as_complex,
    as_grid,
    as_real,
    as_real_array,
    check_unit_interval,
)
from .state_core import (
    Jones,
    SinglePhotonSpec,
    SinglePhotonState,
    TwoPhotonState,
    _polarization_pairs,
    apply_element,
    computational_jones,
    product_state,
)

#: Default analyzer grid: -90 to 90 degrees in 10 degree steps.
DEFAULT_THETAS = tuple(float(t) for t in range(-90, 91, 10))

#: Largest Poisson mean numpy's generator accepts (its ``POISSON_LAM_MAX``).
_POISSON_MEAN_MAX = float(np.iinfo(np.int64).max - 10.0 * np.sqrt(np.iinfo(np.int64).max))

#: Fits whose amplitude is at most this share of the offset report phase 0.
_FLAT_FIT_TOL = 1e-12

#: The 2x2 identity, read-only: the flat background is ``tr(J) I / 2``.
_IDENTITY = np.eye(2)
_IDENTITY.flags.writeable = False

_HOM_IN1 = "hom-in-1"
_HOM_IN2 = "hom-in-2"
_HOM_OUT1 = "hom-out-1"
_HOM_OUT2 = "hom-out-2"

#: Fixed parts of the bench: the encoder's polarizing beam splitter, and
#: the HOM scan's two horizontal photons and 50/50 splitter.
_ENCODER_PBS = pbs(PATH_QUBIT_IN, PATH_ANCILLA_IN, PATH_A, PATH_B)
_HOM_PHOTONS = (SinglePhotonSpec(_HOM_IN1, (1.0, 0.0)), SinglePhotonSpec(_HOM_IN2, (1.0, 0.0)))
_HOM_SPLITTER = bs5050(_HOM_IN1, _HOM_IN2, _HOM_OUT1, _HOM_OUT2)


def _encode(qubit_jones: Jones, amplitude_overlap: float) -> tuple[TwoPhotonState, float]:
    """The bench's encoder on a qubit's Jones vector, with the |0> ancilla.

    Photon b, the ancilla, has amplitude overlap ``amplitude_overlap`` with
    the qubit.  Returns the coincidence post-selected state on arms A and B
    and its squared norm.
    """
    qubit = SinglePhotonSpec(PATH_QUBIT_IN, qubit_jones)
    ancilla = SinglePhotonSpec(PATH_ANCILLA_IN, computational_jones(0))
    state = product_state(
        qubit, ancilla, amplitude_overlap, (PATH_A, PATH_B), element=_ENCODER_PBS
    )
    return coincidence_postselect(state)


def _survivor_basis(wiring: WiringConfig) -> tuple[tuple[str, ...], np.ndarray]:
    """The survivor's paths and its read-only ``(4, 2, 2, n)`` basis for ``wiring``.

    Row ``2 p + t`` is the survivor of ``z_measure`` on arm D for the qubit
    on H (``p = 0``) or V (``p = 1``) and the ancilla on temporal index
    ``t``: amplitude overlap 1 for index 0, 0 for index 1.
    """
    survivors = [
        z_measure(rewire(_encode(jones, overlap)[0], wiring), PATH_D)
        for jones in ((1.0, 0.0), (0.0, 1.0))
        for overlap in (1.0, 0.0)
    ]
    basis = np.array([survivor.vector for survivor in survivors])
    basis.flags.writeable = False
    return survivors[0].paths, basis


#: Each wiring's survivor basis, built at import so that no sweep builds it.
_SURVIVOR_BASES = {wiring: _survivor_basis(wiring) for wiring in WiringConfig}


def _herald_form(wiring: WiringConfig, pc_enabled: bool) -> np.ndarray:
    """The read-only real ``(4, 4, 2, 2, 2)`` herald form of ``wiring`` and ``pc_enabled``.

    With ``u[k]`` the survivor basis row ``k`` after :func:`apply_feedforward`,
    ``F[k, l, h]`` is the real part of ``sum_g u[k, h, g] u[l, h, g]^dagger``
    for herald ``h``, averaged with its ``(l, k)`` twin.  ``g`` runs over the
    (measured temporal index, path, temporal) groups that
    :func:`~loqec.detection.herald_coherency` sums over.  A survivor
    ``sum_k c_k u[k]`` with real ``c`` then has the real herald coherencies
    ``sum_kl c_k c_l F[k, l]``; the average drops only the antisymmetric
    part, which cancels in that sum.
    """
    paths, basis = _SURVIVOR_BASES[wiring]
    rows = [apply_feedforward(SinglePhotonState(paths, row), pc_enabled).vector for row in basis]
    # (k, herald, measured temporal, group, pol) -> (k, herald, group, pol)
    u = _polarization_pairs(np.array(rows)).reshape(4, 2, -1, 2)
    form = np.einsum("khga,lhgb->klhab", u, u.conj()).real
    form = 0.5 * (form + form.swapaxes(0, 1))
    form.flags.writeable = False
    return form


#: Each wiring's and Pockels setting's herald form, built at import so that
#: no sweep builds a survivor.
_HERALD_FORMS = {
    (wiring, pc_enabled): _herald_form(wiring, pc_enabled)
    for wiring in WiringConfig
    for pc_enabled in (False, True)
}


def _probability(value: object, name: str) -> float:
    """``value`` as a float in [0, 1]; NaN is rejected."""
    value = as_real(value, name)
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def _exposure(pair_rate: object, duration: object) -> tuple[float, float]:
    """Finite floats >= 0 whose product, a run's largest mean count, numpy can draw from.

    Scalar Python only: every counted run checks its exposure.
    """
    rate = as_real(pair_rate, "pair_rate")
    time = as_real(duration, "duration")
    for name, value in (("pair_rate", rate), ("duration", time)):
        if not 0.0 <= value < math.inf:
            raise ValidationError(f"{name} must be finite and >= 0, got {value!r}")
    mean = rate * time
    if mean > _POISSON_MEAN_MAX:
        raise ValidationError(
            f"pair_rate * duration = {mean:.6g} exceeds the largest Poisson mean "
            f"{_POISSON_MEAN_MAX:.6g} (pair_rate={rate!r}, duration={time!r})"
        )
    return rate, time


def _check_word(value: int, name: str) -> int:
    """``value`` as an int, which must fit one 64-bit Philox word unaltered."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if not 0 <= value < 2**64:
        raise ValidationError(f"{name} must lie in [0, 2**64), got {_shown(value)}")
    return value


@functools.cache
def _key_sequence_type() -> type:
    """The seed sequence that hands each point's Philox its key ``[seed, 0]``.

    Built on first use: subclassing numpy's ``ISeedSequence`` imports
    ``numpy.random``, which an import of loqec should not pay for.
    """
    from numpy.random.bit_generator import ISeedSequence

    class KeySequence(ISeedSequence):
        def __init__(self, seed: int) -> None:
            self._words = np.array([seed, 0], dtype=np.uint64)

        def generate_state(self, n_words, dtype=np.uint32):
            # Exact types only: this runs once per point, and Philox asks for nothing else.
            if type(n_words) is not int or n_words != 2 or dtype is not np.uint64:
                raise ValidationError(
                    f"a Philox key is two uint64 words, not {n_words!r} of {dtype!r}"
                )
            return self._words.copy()

    return KeySequence


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
        angle = as_real(self.qubit_hwp_angle, "qubit_hwp_angle")
        if not math.isfinite(angle):
            raise ValidationError(f"qubit_hwp_angle must be finite, got {angle!r}")
        object.__setattr__(self, "qubit_hwp_angle", angle)
        if not isinstance(self.wiring, WiringConfig):
            object.__setattr__(self, "wiring", WiringConfig.parse(self.wiring))
        for name in ("overlap_v", "imperfection_eps"):
            object.__setattr__(self, name, _probability(getattr(self, name), name))
        if not isinstance(self.pc_enabled, (bool, np.bool_)):
            raise ValidationError(f"pc_enabled must be a boolean, got {self.pc_enabled!r}")
        object.__setattr__(self, "pc_enabled", bool(self.pc_enabled))
        object.__setattr__(self, "thetas", tuple(as_grid(self.thetas, "thetas").tolist()))
        pair_rate, duration = _exposure(self.pair_rate, self.duration)
        object.__setattr__(self, "pair_rate", pair_rate)
        object.__setattr__(self, "duration", duration)
        object.__setattr__(self, "seed", _check_word(self.seed, "seed"))


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
    alpha = as_complex(alpha, "alpha")
    beta = as_complex(beta, "beta")
    norm = abs(alpha) ** 2 + abs(beta) ** 2
    if not abs(norm - 1.0) <= 1e-12:
        raise ValidationError(f"qubit coefficients must be normalized, got norm^2 {norm!r}")
    overlap_v = _probability(overlap_v, "overlap_v")

    zero, one = computational_jones(0), computational_jones(1)
    qubit_jones = (
        alpha * zero[0] + beta * one[0],
        alpha * zero[1] + beta * one[1],
    )
    return _encode(qubit_jones, math.sqrt(overlap_v))


def run_analytic(config: ExperimentConfig) -> SweepResult:
    """Run the sweep with exact probabilities (no counting noise).

    Both heralds' coherency matrices are read off the herald form of the
    config's wiring and Pockels setting (see the module docstring): with
    ``psi`` the qubit's Jones vector and ``v = overlap_v``, the real
    amplitudes ``c = psi (x) (sqrt v, sqrt(1 - v))`` give
    ``J = sum_kl c_k c_l F[k, l]``, an elementwise sum with no matrix
    product.  ``J`` is real, since ``c`` and the form are, and its
    imaginary part never reaches the analyzer.  The success probability is
    the sum of the heralds' traces, which is the post-selected norm, since
    every kept amplitude puts one photon on arm D.  The readout, the fits
    and the fidelities then run per config.

    The flat background replaces a share ``imperfection_eps`` of each
    herald's coherency matrix ``J`` with the unpolarized ``tr(J) I / 2``.
    The fidelity is the input state's weight in the admixed D2 survivor,
    ``<psi|J|psi> / tr J``, which holds for any input polarization.  Both
    it and ``fidelity_fit = (1 + V) / 2`` are clamped into [0, 1], where
    rounding can put an ideal run a few ulp above 1; the visibilities are
    not clamped.
    """
    return _sweep(config, counted=False)


def run_experiment(config: ExperimentConfig) -> SweepResult:
    """Run the sweep and attach Poisson coincidence counts to both curves.

    The probabilities are those of :func:`run_analytic`, from the same
    kernel.  Both curves are counted in one :func:`sample_counts` call on
    their ``(2, n)`` stack: D1-D2 on stream 0, D1-D3 on stream 1.
    """
    return _sweep(config, counted=True)


def _sweep(config: ExperimentConfig, counted: bool) -> SweepResult:
    """The sweep of ``config``, with Poisson counts when ``counted``."""
    psi = np.array(_hwp_image_of_h(config.qubit_hwp_angle))  # |H> after the plate
    v = config.overlap_v
    c = (psi[:, None] * (math.sqrt(v), math.sqrt(1.0 - v))).reshape(4)
    form = _HERALD_FORMS[config.wiring, config.pc_enabled]
    coherency = ((c[:, None] * c)[..., None, None, None] * form).sum(axis=(0, 1))
    weights = coherency[:, 0, 0] + coherency[:, 1, 1]
    p_success = float(weights.sum())

    eps = config.imperfection_eps
    coherency = (1.0 - eps) * coherency + eps * 0.5 * weights[:, None, None] * _IDENTITY
    curves = analyzer_probabilities(coherency, config.thetas)
    counts_d2 = counts_d3 = None
    if counted:
        counts = sample_counts(curves, config.pair_rate, config.duration, config.seed)
        counts_d2, counts_d3 = (tuple(row) for row in counts.tolist())
    p_d2, p_d3 = (tuple(p) for p in curves.tolist())

    fit_d2, fit_d3 = fit_malus(config.thetas, curves)
    vis_d2 = visibility(fit_d2)
    vis_d3 = visibility(fit_d3)
    fidelity = float(psi @ coherency[0] @ psi / weights[0])
    fidelity_fit = 0.5 * (1.0 + vis_d2)

    return SweepResult(
        config=config,
        thetas=config.thetas,
        d1_d2=CurveResult(p_d2, counts_d2, fit_d2, vis_d2),
        d1_d3=CurveResult(p_d3, counts_d3, fit_d3, vis_d3),
        success_probability=p_success,
        discarded_probability=1.0 - p_success,
        fidelity=min(max(fidelity, 0.0), 1.0),
        fidelity_fit=min(max(fidelity_fit, 0.0), 1.0),
    )


def sample_counts(
    probabilities: Sequence[float] | Sequence[Sequence[float]],
    pair_rate: float,
    duration: float,
    seed: int,
    *,
    stream: int = 0,
) -> np.ndarray:
    """Poisson coincidence counts for one curve or a stack of curves, reproducibly.

    ``probabilities`` is one curve of shape ``(n,)`` or a stack of shape
    ``(k, n)``, and the counts take its shape.  Point ``i`` of row ``r``
    draws from its own counter-based Philox with key ``[seed, 0]`` and
    counter ``[0, i, stream + r, 0]``; one curve is row 0.  So results do
    not depend on evaluation order, distinct curves of one run stay
    decorrelated via their streams, and each row of a stack has the counts
    that row alone gets on stream ``stream + r``: a stack only checks its
    inputs and builds its counter table once.  ``seed`` and every row's
    stream are integers in ``[0, 2**64)``.  The key goes in through a seed
    sequence that returns it as is: the generator state is the one
    ``Philox(key=seed)`` builds, without the OS entropy read that
    ``Philox(key=...)`` makes and discards.
    """
    p = as_real_array(probabilities, "probabilities", stack=True)
    check_unit_interval(p, "probabilities")
    rate, time = _exposure(pair_rate, duration)
    key = _key_sequence_type()(_check_word(seed, "seed"))
    first = _check_word(stream, "stream")
    rows = p.shape[0] if p.ndim == 2 else 1
    if first + rows > 2**64:
        raise ValidationError(
            f"stream + {rows - 1} must lie in [0, 2**64) for {rows} curves, got stream {first}"
        )
    counters = np.zeros((rows, p.shape[-1], 4), dtype=np.uint64)
    counters[:, :, 1] = np.arange(p.shape[-1])
    counters[:, :, 2] = np.arange(rows, dtype=np.uint64)[:, None] + np.uint64(first)
    means = (rate * time * p).reshape(-1).tolist()
    # Looked up per call, not bound at import: the attribute may be rebound, as a tracer does.
    philox, generator = np.random.Philox, np.random.Generator
    counts = [
        generator(philox(key, counter=counter)).poisson(mean)
        for counter, mean in zip(counters.reshape(-1, 4), means)
    ]
    return np.array(counts, dtype=np.int64).reshape(p.shape)


def fit_malus(
    thetas: Sequence[float], values: Sequence[float] | Sequence[Sequence[float]]
) -> MalusFit | tuple[MalusFit, ...]:
    """Least-squares fit of fixed-period analyzer curves on one angle grid.

    The model is ``offset + amplitude * cos(2(theta - phase))``, linearized
    on the basis ``{1, cos(2 theta), sin(2 theta)}``.  The returned
    amplitude is nonnegative and the phase lies in (-90, 90] degrees; it is
    0 for a flat curve, whose amplitude is at most 1e-12 times the offset,
    and exactly 0 or 90 when the sine coefficient is at most 1e-12 times
    the amplitude, so that rounding noise cannot flip it between -90 and
    90.  Finite values whose fit overflows raise a ``FitError``.

    ``values`` is one curve of shape ``(n,)``, which returns one fit, or a
    stack of curves of shape ``(k, n)``, which returns a tuple of ``k``
    fits.  The grid's checks and its least-squares solver depend on the
    grid alone: the solver is the design's pseudo-inverse, built from one
    SVD and cached per grid (see :func:`_malus_solver`), so a sweep of many
    configs on one grid checks and factors it once.  The coefficients are
    elementwise products with the solver, summed over the grid, not a BLAS
    matrix product, whose blocking may depend on the stack size: a curve's
    fit has the same bytes alone as in any stack.
    """
    th = as_real_array(thetas, "thetas")
    y = as_real_array(values, "values", stack=True)
    if th.shape != y.shape[-1:]:
        raise FitError(f"angle and value grids must match, got {th.shape} and {y.shape}")
    solver = _malus_solver(tuple(th.tolist()))
    finite = np.isfinite(y)
    if not finite.all():
        index = tuple(np.argwhere(~finite)[0].tolist())
        shown = ", ".join(map(str, index))
        raise FitError(f"values[{shown}] must be finite, got {float(y[index])!r}")
    # Finite values may still overflow; _malus_fit rejects what does.
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = (y[..., None, :] * solver).sum(axis=-1)
    if y.ndim == 1:
        return _malus_fit(*coeffs.tolist())
    return tuple(_malus_fit(*row) for row in coeffs.tolist())


@functools.lru_cache(maxsize=8)
def _malus_solver(thetas: tuple[float, ...]) -> np.ndarray:
    """The read-only ``(3, n)`` least-squares solver of the grid ``thetas``.

    The grid is checked here, once per grid: its angles must be finite and
    hold at least 3 distinct values.  The solver is the pseudo-inverse
    ``V diag(1/s) U^T`` of the design ``{1, cos 2 theta, sin 2 theta}``,
    from a thin SVD, under the rank rule ``np.linalg.lstsq`` applies by
    default: a singular value counts when it exceeds ``eps * max(n, 3)``
    times the largest.  A bad grid raises, and ``lru_cache`` keeps no
    exception, so it raises on every call.
    """
    th = np.array(thetas)
    non_finite = np.flatnonzero(~np.isfinite(th))
    if non_finite.size:
        index = int(non_finite[0])
        raise FitError(f"thetas[{index}] must be finite, got {float(th[index])!r}")
    distinct = np.unique(th).size
    if distinct < 3:
        raise FitError(f"need at least 3 distinct angles, got {distinct}")
    # fmod is exact and leaves |theta| < 180 as is; doubling 1e308 would overflow.
    angles = np.deg2rad(2.0 * np.fmod(th, 180.0))
    design = np.column_stack([np.ones_like(angles), np.cos(angles), np.sin(angles)])
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    if not s[-1] > np.finfo(float).eps * max(design.shape) * s[0]:
        raise FitError(
            "analyzer grid is rank-deficient for a fixed-period fit "
            "(angles congruent modulo 90 degrees?)"
        )
    solver = (vt.T / s) @ u.T
    solver.flags.writeable = False
    return solver


def _malus_fit(offset: float, c: float, s: float) -> MalusFit:
    """The fit ``offset + c cos 2 theta + s sin 2 theta`` as amplitude and phase."""
    amplitude = math.hypot(c, s)
    if not (math.isfinite(offset) and math.isfinite(amplitude)):
        raise FitError(
            f"the fit overflows: offset {offset!r}, cos coefficient {c!r}, "
            f"sin coefficient {s!r}, amplitude {amplitude!r}"
        )
    if amplitude <= _FLAT_FIT_TOL * abs(offset):
        # A flat curve has no phase; the fitted one would be rounding noise.
        return MalusFit(offset, amplitude, 0.0)
    if abs(s) <= _FLAT_FIT_TOL * amplitude:
        # Rounding noise in s would otherwise put the phase at -90 or +90 by its sign.
        s = 0.0
    phase_deg = math.degrees(0.5 * math.atan2(s, c))
    if phase_deg <= -90.0:
        phase_deg += 180.0
    return MalusFit(offset, amplitude, phase_deg)


def visibility(fit: MalusFit) -> float:
    """Fringe visibility amplitude/offset of a fitted analyzer curve."""
    if not fit.offset > 0.0:
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
    time the classical value one half is recovered.  The whole grid is one
    batch of states through the splitter and the post-selection.
    """
    grid = as_grid(delays, "delays")
    sigma = as_real(coherence_time, "coherence_time")
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValidationError(f"coherence time must be finite and positive, got {sigma!r}")
    # The ratio keeps a tiny coherence time from squaring to zero; a ratio
    # beyond the float range is an overlap of exactly 0.
    with np.errstate(over="ignore"):
        ratio = grid / sigma
        overlaps = np.exp(-0.5 * ratio * ratio)
    state = product_state(*_HOM_PHOTONS, overlaps, (_HOM_OUT1, _HOM_OUT2))
    state = apply_element(state, _HOM_SPLITTER)
    _, p_coincidence = coincidence_postselect(state)
    points = zip(grid.tolist(), overlaps.tolist(), p_coincidence.tolist())
    return HomScanResult(sigma, tuple(HomScanPoint(*point) for point in points))
