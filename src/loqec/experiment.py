"""End-to-end experiment pipelines: encoding sweeps, fits, HOM scans.

The sweep pipeline mirrors the bench: a half-wave plate prepares the input
qubit from |H>, a polarizing beam splitter entangles it with the ancilla
under coincidence post-selection, the fiber wiring routes the pair to the
analyzer arm C and the Z-measurement arm D, and the optional Pockels cell
undoes the heralded bit flip before the analyzer.

Everything from the encoder to the Z station is fixed optics, so the
survivor of the Z measurement is linear in the qubit's Jones vector and in
photon b's two temporal amplitudes.  The Pockels cell is fixed too, and
the analyzer reads a herald only through its 2x2 coherency matrix ``J``,
which is therefore a fixed quadratic form in the four real input
amplitudes.  One import-time build (:func:`_herald_forms`) makes the
survivors of the four basis inputs, H or V times temporal index 0 or 1,
through :func:`encode_qubit`'s own chain, and from them the form of each
Pockels setting.  The fiber swap only relabels paths, so one wiring's
forms serve both.  A sweep config reads both heralds' ``J`` off them (see
:func:`run_analytic`): no config builds a two-photon or a single-photon
state.

A sweep's inputs are checked once, by :class:`ExperimentConfig`, which
holds its grid as a tuple of finite floats and its exposure and seed as
checked numbers.  A grid's analyzer trig and Malus solver have one cache,
one entry per grid (see :func:`_grid_tables`).  The sweep reads it and
runs the readout, the fits and the counting through the private kernels
that :func:`~loqec.detection.analyzer_probabilities`, :func:`fit_malus`
and :func:`sample_counts` call after their own checks, so no config
re-checks or re-converts its grid or its counting inputs, and the bytes
are those of the public functions.

Counts are numpy's Poisson draws, each point from its own fresh Philox
state (see :func:`sample_counts`, and :func:`_draw` for how it is set).
A dense draw decides most points in ufuncs first, from their first
Philox block, and sends the rest to numpy's scalar draw.

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
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .detection import (
    _analyzer_trig,
    _pass_probabilities,
    analyzer_curve,  # noqa: F401  (unused; perfbench's tracing test looks it up here)
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
    as_finite_real,
    as_grid,
    as_integer,
    as_real,
    as_real_array,
    check_unit_interval,
)
from .state_core import (
    Jones,
    SinglePhotonSpec,
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

#: Delays per batch of states in :func:`hom_scan`, which bounds a scan's memory.
#: A delay's largest arrays are 4096 B: the (16, 16) complex pair matrices of
#: the state, the splitter's output and the post-selected copy.  31 delays keep
#: each batch array at 126 976 B, under glibc's default mmap threshold of
#: 128 KiB, which glibc only ever raises; the batches then come from the heap,
#: where 32-delay ones would be mapped afresh and fault on every call.
_HOM_BLOCK = (128 * 1024 - 1) // (16 * 16 * 16)

#: Points a draw needs before :func:`_draw` runs its vectorized prefilter;
#: a smaller draw calls numpy's scalar Poisson draw on every point.
_PREFILTER_MIN = 512

#: Points per block of the prefilter, which bounds a large draw's memory.
_DRAW_BLOCK = 4096

#: Philox4x64-10 (Salmon et al., SC'11): the round multipliers of counter
#: words 0 and 2, as a column against the ``(2, n)`` rows of those words,
#: with their 32-bit halves, and the Weyl increments of the two key words.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)
_PHILOX_M_LO = _PHILOX_M & _LOW32
_PHILOX_M_HI = _PHILOX_M >> 32
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)

#: Relative distance from a try's comparisons of ``V`` with ``vr`` and with
#: ``us``, and of the floor's argument with an integer, within which the
#: prefilter hands a point to numpy's draw, so that no rounding difference
#: between numpy's C and its ufuncs can change a count.
_QUICK_MARGIN = 2.0**-40

#: Relative distance, of the summed sizes of its terms, within which the
#: ``log`` test of numpy's Poisson rejection hands a point to numpy's draw:
#: ``np.log`` and libm's ``log`` may differ by an ulp or so.
_LOG_MARGIN = 2.0**-30

#: The series of numpy's ``random_loggam``, highest order first.
_LOGGAM_SERIES = (
    -1.39243221690590e00, 1.796443723688307e-01, -2.955065359477124e-02, 6.410256410256410e-03,
    -1.917526917526918e-03, 8.417508417508418e-04, -5.952380952380952e-04,
    7.936507936507937e-04, -2.777777777777778e-03, 8.333333333333333e-02,
)

#: Fits whose amplitude is at most this share of the offset report phase 0.
_FLAT_FIT_TOL = 1e-12

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
    state = product_state(qubit, ancilla, amplitude_overlap, (PATH_A, PATH_B))
    return coincidence_postselect(apply_element(state, _ENCODER_PBS))


def _herald_forms(wiring: WiringConfig) -> dict[bool, np.ndarray]:
    """The read-only real ``(4, 4, 2, 2, 2)`` herald form of ``wiring`` for each Pockels setting.

    Survivor ``k = 2 p + t`` is that of ``z_measure`` on arm D for the
    qubit on H (``p = 0``) or V (``p = 1``) and the ancilla on temporal
    index ``t``: amplitude overlap 1 for index 0, 0 for index 1; the four
    serve both settings.  With ``u[k]`` survivor ``k`` after
    :func:`apply_feedforward`, ``F[k, l, h]`` is the real part of
    ``sum_g u[k, h, g] u[l, h, g]^dagger`` for herald ``h``, averaged with
    its ``(l, k)`` twin.  ``g`` runs over the (measured temporal index,
    path, temporal) groups, whose coherency matrices add up to the
    herald's ``J``.  A survivor ``sum_k c_k u[k]`` with real ``c`` then has
    the real herald coherencies ``sum_kl c_k c_l F[k, l]``; the average
    drops only the antisymmetric part, which cancels in that sum.
    """
    survivors = [
        z_measure(rewire(_encode(jones, overlap)[0], wiring), PATH_D)
        for jones in ((1.0, 0.0), (0.0, 1.0))
        for overlap in (1.0, 0.0)
    ]
    forms = {}
    for pc_enabled in (False, True):
        rows = [apply_feedforward(survivor, pc_enabled).vector for survivor in survivors]
        # (k, herald, measured temporal, group, pol) -> (k, herald, group, pol)
        u = _polarization_pairs(np.array(rows)).reshape(4, 2, -1, 2)
        form = np.einsum("khga,lhgb->klhab", u, u.conj()).real
        form = 0.5 * (form + form.swapaxes(0, 1))
        form.flags.writeable = False
        forms[pc_enabled] = form
    return forms


#: Each Pockels setting's herald form, built at import so that no sweep builds
#: a survivor.  The fiber swap only relabels paths: one wiring serves both.
_HERALD_FORMS = _herald_forms(WiringConfig.A_TO_C_B_TO_D)


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
    value = as_integer(value, name)
    if not 0 <= value < 2**64:
        raise ValidationError(f"{name} must lie in [0, 2**64), got {_shown(value)}")
    return value


#: Each thread's generator (see :func:`_thread_generator`): a thread's
#: draws run one after another, so no two draws share a generator at once.
_THREAD = threading.local()


def _thread_generator() -> tuple[object, object]:
    """This thread's one ``np.random.Philox`` and its ``Generator.poisson``.

    Built on the thread's first draw, through ``np.random.Philox`` and
    ``np.random.Generator`` looked up then, so that an import of loqec does
    not import ``numpy.random``.  :func:`_draw` sets its whole state before
    every point.
    """
    try:
        return _THREAD.generator
    except AttributeError:
        bit_generator = np.random.Philox(key=0)
        _THREAD.generator = bit_generator, np.random.Generator(bit_generator).poisson
        return _THREAD.generator


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
        angle = as_finite_real(self.qubit_hwp_angle, "qubit_hwp_angle")
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
    config's Pockels setting, the same for both wirings (module docstring):
    with ``psi`` the qubit's Jones vector and ``v = overlap_v``, the real
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
    kernel.  Both curves are counted as one ``(2, n)`` stack through the
    kernel :func:`sample_counts` calls after its checks, with the config's
    own checked exposure and seed: D1-D2 on stream 0, D1-D3 on stream 1.
    The counts are those of ``sample_counts(curves, pair_rate, duration,
    seed)`` on the run's probabilities.
    """
    return _sweep(config, counted=True)


def _sweep(config: ExperimentConfig, counted: bool) -> SweepResult:
    """The sweep of ``config``, with Poisson counts when ``counted``.

    The 2-vectors and each herald's weight and flat-background mix are
    Python floats, in the operation order of the numpy expressions they
    stand for (``x * 0.0`` is the identity's off-diagonal term): at this
    size a numpy call costs more than its arithmetic.  The form contraction,
    the readout, the fits and the fidelity's matrix products stay numpy.
    """
    h, v_pol = _hwp_image_of_h(config.qubit_hwp_angle)  # |H> after the plate
    matched, unmatched = math.sqrt(config.overlap_v), math.sqrt(1.0 - config.overlap_v)
    psi = np.array((h, v_pol))
    c = np.array((h * matched, h * unmatched, v_pol * matched, v_pol * unmatched))
    form = _HERALD_FORMS[config.pc_enabled]
    heralds = ((c[:, None] * c)[..., None, None, None] * form).sum(axis=(0, 1)).tolist()

    keep = 1.0 - config.imperfection_eps
    half = config.imperfection_eps * 0.5
    weights = []
    mixed = []
    for (j_hh, j_hv), (j_vh, j_vv) in heralds:
        weight = j_hh + j_vv
        flat = half * weight
        off = flat * 0.0
        weights.append(weight)
        mixed += (keep * j_hh + flat, keep * j_hv + off, keep * j_vh + off, keep * j_vv + flat)
    p_success = weights[0] + weights[1]
    coherency = np.array(mixed).reshape(2, 2, 2)
    # The config checked its grid, exposure and seed; the cache keys on its tuple.
    c_trig, s_trig, solver = _grid_tables(config.thetas)
    curves = _pass_probabilities(coherency, c_trig, s_trig)
    counts_d2 = counts_d3 = None
    if counted:
        # The readout lies in [0, tr J], inside [0, 1]: no unit-interval check.
        means = config.pair_rate * config.duration * curves
        counts_d2, counts_d3 = (tuple(row) for row in _draw(means, config.seed, 0).tolist())
    p_d2, p_d3 = (tuple(p) for p in curves.tolist())

    fit_d2, fit_d3 = _fits(solver, curves)
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
    draws what a fresh Philox with key ``[seed, 0]`` and counter
    ``[0, i, stream + r, 0]`` draws; one curve is row 0.  So results do not
    depend on evaluation order, distinct curves of one run stay
    decorrelated via their streams, and each row of a stack has the counts
    that row alone gets on stream ``stream + r``.  ``seed`` and every row's
    stream are integers in ``[0, 2**64)``.

    A call of at least ``_PREFILTER_MIN`` points decides most points of
    mean 10 or more in numpy, from their first Philox block, and gets the
    same counts.  The checks come first; the draws are the private kernel
    :func:`_draw`, which says how each point's state is set, and which a
    sweep calls directly on its config's checked exposure and seed (see
    :func:`run_experiment`).
    """
    p = as_real_array(probabilities, "probabilities", stack=True)
    check_unit_interval(p, "probabilities")
    rate, time = _exposure(pair_rate, duration)
    seed = _check_word(seed, "seed")
    first = _check_word(stream, "stream")
    rows = p.shape[0] if p.ndim == 2 else 1
    if first + rows > 2**64:
        raise ValidationError(
            f"stream + {rows - 1} must lie in [0, 2**64) for {rows} curves, got stream {first}"
        )
    means = (rate * time * p).reshape(rows, p.shape[-1])
    return _draw(means, seed, first).reshape(p.shape)


def _draw(means: np.ndarray, seed: int, first_stream: int) -> np.ndarray:
    """Poisson counts of checked ``(k, n)`` ``means``, row ``r`` on stream ``first_stream + r``.

    The kernel of :func:`sample_counts`, which checks every input first:
    the means are finite floats in ``[0, _POISSON_MEAN_MAX]``, ``seed`` and
    every row's stream lie in ``[0, 2**64)``.  Returns an ``int64`` array of
    the means' shape.

    Every point numpy's scalar draw decides runs through the thread's one
    generator (:func:`_thread_generator`).  Philox is counter-based: its
    draws depend on its key and counter alone.  So a call builds one state
    dict, the whole state a fresh Philox starts in (key, counter, an empty
    buffer, ``has_uint32`` and ``uinteger``), whose counter is one list.
    Before each point it writes the point's stream and index into that
    list and sets the generator's state from the dict.  numpy's setter
    copies every value and keeps no reference, so each point starts from
    exactly that state, whatever the previous draw or any other use of the
    generator left; the generator's key 0 and the one OS entropy read
    ``Philox(key=...)`` makes and discards never reach a count.  A draw of at
    least ``_PREFILTER_MIN`` points first runs a prefilter over blocks of
    ``_DRAW_BLOCK`` points: each point's first Philox block, all at once
    (:func:`_philox_words`), and the first two tries of numpy's rejection
    method for means of at least 10 (:func:`_ptrs_try`), the first on
    words 0 and 1 of every point, the second on words 2 and 3 of the points
    the first tries again.  A point either try accepts has numpy's count;
    every other point (a mean below 10, a decision within its margin,
    ``us == 0``, ``V == 0`` or ``k + 1 < 7`` at the ``log`` test, or a third
    try) gets the scalar draw.
    """
    bit_generator, draw = _thread_generator()
    # A fresh Philox's state.  buffer_pos 4 marks the buffer empty, so the
    # first draw bumps the counter and refills it, as a fresh one does.  The
    # setter reads lists faster than uint64 arrays.
    counter = [0, 0, 0, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": [seed, 0]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    if means.size < _PREFILTER_MIN:
        counts = []
        for row_stream, row in enumerate(means.tolist(), first_stream):
            counter[2] = row_stream
            drawn = []
            append = drawn.append
            for i, mean in enumerate(row):
                counter[1] = i
                bit_generator.state = state
                append(draw(mean))
            counts.append(drawn)
        return np.array(counts, dtype=np.int64).reshape(means.shape)

    flat = means.reshape(-1)
    n = means.shape[1]
    counts = np.empty(flat.size, dtype=np.int64)
    for start in range(0, flat.size, _DRAW_BLOCK):
        points = np.arange(start, min(start + _DRAW_BLOCK, flat.size), dtype=np.uint64)
        row, index = np.divmod(points, np.uint64(n))
        block = slice(start, start + points.size)
        lam = flat[block]
        w0, w1, w2, w3 = _philox_words(seed, index, row + np.uint64(first_stream))
        done, again, counts[block] = _ptrs_try(lam, w0, w1)
        retry = _compressed(again)
        done[retry], _, counts[block][retry] = _ptrs_try(lam[retry], w2[retry], w3[retry])
        rest = np.flatnonzero(~done) + start
        drawn = []
        append = drawn.append
        for point, mean in zip(rest.tolist(), flat[rest].tolist()):
            r, counter[1] = divmod(point, n)
            counter[2] = first_stream + r
            bit_generator.state = state
            append(draw(mean))
        counts[rest] = drawn
    return counts.reshape(means.shape)


def _philox_words(
    seed: int, index: np.ndarray, stream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The first four words a fresh Philox with key ``[seed, 0]`` draws at each counter.

    Point ``j`` starts at counter ``[0, index[j], stream[j], 0]``; its first
    draw bumps word 0 and fills the buffer with the Philox4x64-10 block of
    counter ``[1, index[j], stream[j], 0]``, whose four words are returned
    in draw order as ``uint64`` arrays: a Poisson draw's first try reads
    words 0 and 1, its second try words 2 and 3.  A round maps
    ``(x0, x1, x2, x3)`` to
    ``(hi(M1 x2) ^ x1 ^ k0, lo(M1 x2), hi(M0 x0) ^ x3 ^ k1, lo(M0 x0))``,
    and the key is bumped by ``(W0, W1)`` between rounds.  Words 0 and 2
    ride in one ``(2, n)`` buffer and words 1 and 3 in another; the high
    word of a 64x64-bit product is summed from its 32-bit halves, none of
    whose partial sums can overflow.
    """
    size = index.size
    words = np.empty((2, size), dtype=np.uint64)  # (x0, x2)
    words[0] = 1
    words[1] = stream
    odd = np.zeros((2, size), dtype=np.uint64)  # (x1, x3)
    odd[0] = index
    low, a, b, c = (np.empty_like(words) for _ in range(4))
    keys = np.array(
        [[[(seed + r * _PHILOX_W[0]) % 2**64], [r * _PHILOX_W[1] % 2**64]] for r in range(10)],
        dtype=np.uint64,
    )
    for key in keys:
        np.multiply(words, _PHILOX_M, out=low)  # (lo(M0 x0), lo(M1 x2))
        np.bitwise_and(words, _LOW32, out=a)
        np.right_shift(words, 32, out=b)
        np.multiply(a, _PHILOX_M_LO, out=c)
        np.multiply(a, _PHILOX_M_HI, out=a)
        np.right_shift(c, 32, out=c)
        np.add(a, c, out=a)  # the middle sum t
        np.multiply(b, _PHILOX_M_LO, out=c)
        np.multiply(b, _PHILOX_M_HI, out=b)
        np.bitwise_and(a, _LOW32, out=words)
        np.add(words, c, out=words)
        np.right_shift(a, 32, out=a)
        np.add(b, a, out=b)
        np.right_shift(words, 32, out=words)
        np.add(b, words, out=b)  # (hi(M0 x0), hi(M1 x2))
        np.bitwise_xor(b[::-1], odd, out=words)
        np.bitwise_xor(words, key, out=words)
        odd, low = low[::-1], odd
    return words[0], odd[0], words[1], odd[1]


def _ptrs_try(
    means: np.ndarray, wu: np.ndarray, wv: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One try of numpy's PTRS loop: the points it accepts, those it tries again, and the counts.

    numpy draws a mean of at least 10 by Hoermann's transformed rejection
    (PTRS; *Insurance: Math. Econ.* 12, 39 (1993)), each try from the
    doubles ``U = wu / 2**64 - 0.5`` and ``V = wv / 2**64`` (53 bits each).
    Every point's terms are computed once, in the C source's operation
    order: ``b``, ``a``, ``us = 0.5 - |U|``, ``vr`` and
    ``k = floor((2 a / us + b) U + mean + 0.43)``, with whether the floor's
    argument lies more than a relative ``_QUICK_MARGIN`` from an integer,
    so that ``k`` is numpy's.  numpy returns ``k`` at once when
    ``us >= 0.07`` and ``V <= vr``; the other such points run the rest of
    the try, compressed: numpy tries again when ``k < 0``, or
    ``us < 0.013`` and ``V > us``, and otherwise accepts iff ``log V +
    log invalpha - log(a / us**2 + b) <= -mean + k log mean - loggam(k +
    1)``, with numpy's ``random_loggam`` series.  A point is decided only
    when every comparison clears its margin: ``_QUICK_MARGIN`` for ``vr``,
    the floor and ``V`` against ``us``, and for the ``log`` test
    ``_LOG_MARGIN`` times the summed sizes of its terms.  ``us == 0``, and
    ``V == 0`` or ``k + 1 < 7`` (where ``random_loggam`` shifts its
    argument) at the ``log`` test, are left undecided too.  An accepted
    point's count is numpy's; every other count is 0.
    """
    u = (wu >> 11) * 2.0**-53 - 0.5
    v = (wv >> 11) * 2.0**-53
    b = 0.931 + 2.53 * np.sqrt(means)
    a = -0.059 + 0.02483 * b
    us = 0.5 - np.abs(u)
    # us is 0 for a first word below 2**11, and means below 10 may put b at 2.
    with np.errstate(divide="ignore", invalid="ignore"):
        vr = 0.9277 - 3.6224 / (b - 2)
        x = (2 * a / us + b) * u + means + 0.43
        sure = np.abs(x - np.rint(x)) > _QUICK_MARGIN * np.abs(x)
    k = np.floor(x)
    del u, x  # the full-size temporaries the rest of the try no longer reads
    ptrs = means >= 10.0
    accept = sure & ptrs & (us >= 0.07) & (vr - v > _QUICK_MARGIN * vr)
    counts = np.where(accept, k, 0.0).astype(np.int64)
    again = np.zeros_like(accept)
    rest = _compressed(~accept & ptrs)
    lam = means[rest]
    v, b, a, us, vr, k, sure = (term[rest] for term in (v, b, a, us, vr, k, sure))
    # Past the accept at once, numpy tries again or runs the log test.
    past = sure & ((us < 0.07) | (v - vr > _QUICK_MARGIN * vr))
    low = us < 0.013
    skip = past & ((k < 0) | low & (v - us > _QUICK_MARGIN * us))
    tested = past & (k >= 6) & (v > 0) & (~low | (us - v > _QUICK_MARGIN * us))
    # Points outside ``tested`` may take logs of 0 or of negatives; they are masked out.
    with np.errstate(divide="ignore", invalid="ignore"):
        x0 = k + 1
        x2 = (1.0 / x0) * (1.0 / x0)
        gl0 = np.full_like(x2, _LOGGAM_SERIES[0])
        for coefficient in _LOGGAM_SERIES[1:]:
            gl0 *= x2
            gl0 += coefficient
        loggam = gl0 / x0 + 0.5 * 1.8378770664093453 + (x0 - 0.5) * np.log(x0) - x0
        log_v, log_hat = np.log(v), np.log(a / (us * us) + b)
        log_invalpha = np.log(1.1239 + 1.1328 / (b - 3.4))
        k_loglam = k * np.log(lam)
        lhs = log_v + log_invalpha - log_hat
        rhs = -lam + k_loglam - loggam
        terms = (log_v, log_invalpha, log_hat, lam, k_loglam, loggam)
        tested &= np.abs(lhs - rhs) > _LOG_MARGIN * sum(np.abs(term) for term in terms)
    accept[rest] = tested & (lhs <= rhs)
    again[rest] = skip | tested & (lhs > rhs)
    counts[rest] = np.where(accept[rest], k, 0.0)
    return accept, again, counts


def _compressed(mask: np.ndarray) -> np.ndarray:
    """The indices of ``mask``'s true entries, cycled to a multiple of 128 of them.

    Repeated indices gather and scatter the same values.  The padding keeps
    a try's temporaries to a few sizes: numpy keeps up to 7 freed buffers of
    every size under 1 KiB it allocates, so subsets of every size would
    grow a long run's memory by megabytes.
    """
    index = np.flatnonzero(mask)
    return np.resize(index, -(-index.size // 128) * 128)


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
    fits.  The least-squares solver is the design's pseudo-inverse, built
    from one SVD of the grid on each call (see :func:`_malus_solver`).  The
    coefficients are elementwise products with the solver, summed over the
    grid, not a BLAS matrix product, whose blocking may depend on the
    stack size: a curve's fit has the same bytes alone as in any stack.  A
    sweep, whose config has checked its grid, reads the same solver from
    its grid's one cache entry (see :func:`_grid_tables`), so a sweep of
    many configs on one grid factors it once, and calls the same fit
    kernel directly.
    """
    th = as_real_array(thetas, "thetas")
    y = as_real_array(values, "values", stack=True)
    if th.shape != y.shape[-1:]:
        raise FitError(f"angle and value grids must match, got {th.shape} and {y.shape}")
    solver = _malus_solver(th)
    finite = np.isfinite(y)
    if not finite.all():
        index = tuple(np.argwhere(~finite)[0].tolist())
        shown = ", ".join(map(str, index))
        raise FitError(f"values[{shown}] must be finite, got {float(y[index])!r}")
    # Finite values may still overflow; _malus_fit rejects what does.  A
    # sweep's probabilities cannot, so its calls to _fits skip the errstate.
    with np.errstate(over="ignore", invalid="ignore"):
        return _fits(solver, y)


def _fits(solver: np.ndarray, y: np.ndarray) -> MalusFit | tuple[MalusFit, ...]:
    """The fits of the finite curve or stack ``y`` through the grid's ``solver``."""
    coeffs = (y[..., None, :] * solver).sum(axis=-1)
    if y.ndim == 1:
        return _malus_fit(*coeffs.tolist())
    return tuple(_malus_fit(*row) for row in coeffs.tolist())


def _malus_solver(thetas: Sequence[float]) -> np.ndarray:
    """The ``(3, n)`` least-squares solver of the grid ``thetas``, a tuple or an array.

    The grid's angles must be finite and hold at least 3 distinct values.
    They are counted as a set of the grid's floats, which holds ``-0.0``
    and ``0.0`` as one value, as ``np.unique`` does; ``np.unique`` would
    import ``numpy.ma`` into the process for its masked-array check.  The
    solver is the pseudo-inverse ``V diag(1/s) U^T`` of the design
    ``{1, cos 2 theta, sin 2 theta}``, from a thin SVD, under the rank rule
    ``np.linalg.lstsq`` applies by default: a singular value counts when
    it exceeds ``eps * max(n, 3)`` times the largest.
    """
    th = np.asarray(thetas)
    non_finite = np.flatnonzero(~np.isfinite(th))
    if non_finite.size:
        index = int(non_finite[0])
        raise FitError(f"thetas[{index}] must be finite, got {float(th[index])!r}")
    distinct = len(set(th.tolist()))
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
    return (vt.T / s) @ u.T


@functools.lru_cache(maxsize=8)
def _grid_tables(thetas: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The read-only analyzer ``cos`` and ``sin`` and Malus solver of a config's checked grid.

    The one cache of a grid's tables, one entry per grid, so a sweep hashes
    its angle tuple once per config (a tuple does not keep its hash) and
    takes the trig (:func:`~loqec.detection._analyzer_trig`) and factors
    the grid (:func:`_malus_solver`) once per grid.  A grid the fit rejects
    raises on every call, since ``lru_cache`` keeps no exception.
    """
    tables = (*_analyzer_trig(thetas), _malus_solver(thetas))
    for table in tables:
        table.flags.writeable = False
    return tables


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
    time the classical value one half is recovered.  The grid runs in
    blocks of ``_HOM_BLOCK`` (31) delays, each one batch of states through
    the splitter and the post-selection, so a scan's memory does not grow
    with its grid and every batch array stays under the allocator's mmap
    threshold; a grid of one block is one batch.  A delay's point does not
    depend on its block.
    """
    grid = as_grid(delays, "delays")
    sigma = as_real(coherence_time, "coherence_time")
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValidationError(f"coherence_time must be finite and positive, got {sigma!r}")
    # The ratio keeps a tiny coherence time from squaring to zero; a ratio
    # beyond the float range is an overlap of exactly 0.
    with np.errstate(over="ignore"):
        ratio = grid / sigma
        overlaps = np.exp(-0.5 * ratio * ratio)
    p_coincidence = np.concatenate([
        _hom_block(overlaps[start : start + _HOM_BLOCK])
        for start in range(0, overlaps.size, _HOM_BLOCK)
    ])
    points = zip(grid.tolist(), overlaps.tolist(), p_coincidence.tolist())
    return HomScanResult(sigma, tuple(HomScanPoint(*point) for point in points))


def _hom_block(overlaps: np.ndarray) -> np.ndarray:
    """Coincidence probabilities of the HOM pair at each amplitude overlap, as one batch."""
    state = product_state(*_HOM_PHOTONS, overlaps, (_HOM_OUT1, _HOM_OUT2))
    state = apply_element(state, _HOM_SPLITTER)
    return coincidence_postselect(state)[1]
