"""Mean-field three-wave-mixing dynamics for complex mode amplitudes.

With kappa' = kappa * exp(-i*phi) the coupled equations are

    d(alpha0)/dt = -i omega0 alpha0 - i conj(kappa') alpha1 alpha2
    d(alpha1)/dt = -i omega1 alpha1 - i kappa' alpha0 conj(alpha2)
    d(alpha2)/dt = -i omega2 alpha2 - i kappa' alpha0 conj(alpha1)

They conserve the three Manley-Rowe combinations |a0|^2 + |a1|^2,
|a0|^2 + |a2|^2 and |a1|^2 - |a2|^2, which bound every trajectory; the
fixed-step RK4 integrator below is checked against those invariants and
against the closed-form undepleted-pump solution.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ResourceLimitError
from .fockspace import TRAJECTORY_SAMPLE_CAP, ModeParams

#: Amplitudes beyond this magnitude abort the integration as divergent.
DIVERGENCE_LIMIT = 1e6

#: Relative slack used when counting whole steps into a final time.
_STEP_ROUNDING = 1e-9

#: Rows of one block of a streamed trajectory (192 kB of amplitudes), so a
#: consumer of the blocks holds one block, not the whole trajectory.
TRAJECTORY_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class MeanFieldState:
    """Complex amplitudes of pump, signal and idler; |alpha|^2 is a photon number."""

    alpha0: complex
    alpha1: complex
    alpha2: complex

    def __post_init__(self):
        for name in ("alpha0", "alpha1", "alpha2"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def as_tuple(self) -> tuple[complex, complex, complex]:
        return (self.alpha0, self.alpha1, self.alpha2)


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled mean-field evolution.

    ``samples`` is an (n+1, 3) complex array; row k holds (alpha0, alpha1,
    alpha2) at time ``k * dt``.  The equations do not depend on time, so
    the trajectory starts at t = 0.
    """

    dt: float
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=complex)
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if samples.ndim != 2 or samples.shape[1] != 3:
            raise ValueError(f"samples must have shape (n+1, 3), got {samples.shape}")
        if samples.shape[0] < 2:
            raise ValueError("a trajectory needs at least 2 samples")
        object.__setattr__(self, "samples", samples)

    @property
    def t_final(self) -> float:
        return (len(self.samples) - 1) * self.dt


def num_steps(t_final: float, dt: float) -> int:
    """Whole steps of size dt fitting into t_final (rounding-tolerant); a
    count that overflows a float exceeds every cap (:class:`ResourceLimitError`).

    Raises :class:`ValueError` unless ``dt`` is finite and > 0 and
    ``t_final`` is finite and at least ``dt``.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if not dt <= t_final < math.inf:
        raise ValueError(f"t_final = {t_final} must be finite and at least dt = {dt}")
    ratio = t_final / dt
    if math.isinf(ratio):
        raise ResourceLimitError(f"t_final / dt = {t_final} / {dt} overflows")
    return int(math.floor(ratio + _STEP_ROUNDING))


def rhs_coefficients(params: ModeParams) -> tuple[complex, ...]:
    """The right-hand side's constant factors, folded once per run.

    (-i w0, -i w1, -i w2, i conj(kappa'), i kappa'): each is the leading
    product of the unfolded expression ``-1j * w0 * a0 - 1j * conj(kp) *
    a1 * a2``, so folding it changes no bit of the result.
    """
    kp = params.kappa_prime
    w0, w1, w2 = params.omegas
    return (-1j * w0, -1j * w1, -1j * w2, 1j * kp.conjugate(), 1j * kp)


def _rhs(a0, a1, a2, coeffs):
    """Mean-field right-hand side; the amplitudes are Python complex
    numbers or equally shaped complex arrays (one entry per trajectory)."""
    w0, w1, w2, kc, k = coeffs
    ka0 = k * a0  # shared leading product of the two daughter terms
    return (w0 * a0 - kc * a1 * a2,
            w1 * a1 - ka0 * a2.conjugate(),
            w2 * a2 - ka0 * a1.conjugate())


def rk4_step(a0, a1, a2, dt: float, coeffs):
    """One classic RK4 step of :func:`_rhs`; returns the new (a0, a1, a2)."""
    h = 0.5 * dt
    k10, k11, k12 = _rhs(a0, a1, a2, coeffs)
    k20, k21, k22 = _rhs(a0 + h * k10, a1 + h * k11, a2 + h * k12, coeffs)
    k30, k31, k32 = _rhs(a0 + h * k20, a1 + h * k21, a2 + h * k22, coeffs)
    k40, k41, k42 = _rhs(a0 + dt * k30, a1 + dt * k31, a2 + dt * k32, coeffs)
    w = dt / 6.0
    return (a0 + w * (k10 + 2 * k20 + 2 * k30 + k40),
            a1 + w * (k11 + 2 * k21 + 2 * k31 + k41),
            a2 + w * (k12 + 2 * k22 + 2 * k32 + k42))


def rk4_stepper(n: int, dt: float, coeffs) -> Callable[[np.ndarray], None]:
    """The in-place form of :func:`rk4_step` for a (3, n) complex array of
    n trajectories, one row per mode.

    Returns ``step(a)``, which overwrites ``a`` with its RK4 step.  Every
    entry goes through the elementwise operations of :func:`rk4_step` on
    one array per mode, in the same order, so the two agree bit for bit;
    the buffers are allocated here, once.  ``k1 + 2 k2`` is accumulated as
    soon as ``k2`` exists, so the four slopes share two buffers.
    """
    w0, w1, w2, kc, k = coeffs
    omega = np.array([[w0], [w1], [w2]])
    h, w = 0.5 * dt, dt / 6.0
    acc = np.empty((3, n), dtype=complex)    # k1 + 2 k2 + 2 k3 + k4
    slope = np.empty((3, n), dtype=complex)  # the latest k
    stage = np.empty((3, n), dtype=complex)  # a + h k: the next rhs input
    daughters = np.empty((2, n), dtype=complex)
    tmp = np.empty(n, dtype=complex)

    def rhs(x, out):
        np.multiply(omega, x, out=out)
        np.multiply(k, x[0], out=tmp)  # shared leading product k a0
        np.conjugate(x[2:0:-1], out=daughters)
        np.multiply(tmp, daughters, out=daughters)
        np.subtract(out[1:], daughters, out=out[1:])
        np.multiply(kc, x[1], out=tmp)
        np.multiply(tmp, x[2], out=tmp)
        np.subtract(out[0], tmp, out=out[0])

    def step(a):
        rhs(a, acc)
        np.multiply(h, acc, out=stage)
        np.add(a, stage, out=stage)
        for size in (h, dt):  # k2, then k3
            rhs(stage, slope)
            np.multiply(size, slope, out=stage)
            np.add(a, stage, out=stage)
            np.multiply(2, slope, out=slope)
            np.add(acc, slope, out=acc)
        rhs(stage, slope)  # k4
        np.add(acc, slope, out=acc)
        np.multiply(w, acc, out=acc)
        np.add(a, acc, out=a)

    return step


def trajectory_blocks(s0: MeanFieldState, params: ModeParams, t_final: float,
                      dt: float) -> tuple[int, Iterator[np.ndarray]]:
    """The classic fixed-step RK4 trajectory from ``s0``, in blocks of rows.

    Returns the step count and an iterator over ``(rows, 3)`` complex
    blocks of at most ``TRAJECTORY_BLOCK_ROWS`` rows; stacked, they are the
    ``steps + 1`` samples at times ``k * dt``, the first of them ``s0``.
    The last sample sits at the largest multiple of ``dt`` not exceeding
    ``t_final``.  The arguments and ``TRAJECTORY_SAMPLE_CAP`` are checked
    here, before any step (:class:`ValueError`,
    :class:`ResourceLimitError`); the iterator raises
    :class:`DivergenceError` (reporting the time) once any amplitude
    leaves the divergence guard.
    """
    steps = num_steps(t_final, dt)
    if steps + 1 > TRAJECTORY_SAMPLE_CAP:
        raise ResourceLimitError(
            f"trajectory of {steps + 1} samples exceeds the cap "
            f"{TRAJECTORY_SAMPLE_CAP}"
        )
    return steps, _rk4_blocks(s0.as_tuple(), rhs_coefficients(params), steps, dt)


def _rk4_blocks(a, coeffs, steps: int, dt: float) -> Iterator[np.ndarray]:
    a0, a1, a2 = a
    # one flat list of complex numbers per block: the garbage collector
    # tracks none of its entries, which it would for a list of tuples
    flat = [a0, a1, a2]
    for start in range(0, steps + 1, TRAJECTORY_BLOCK_ROWS):
        extend = flat.extend
        first = max(start, 1)  # s0 is a given, not a step
        for _ in range(first, min(start + TRAJECTORY_BLOCK_ROWS, steps + 1)):
            a0, a1, a2 = a = rk4_step(a0, a1, a2, dt, coeffs)
            extend(a)
        block = np.array(flat, dtype=complex).reshape(-1, 3)
        # the guard, once per block: np.hypot is the libm call behind
        # Python's abs(complex), so the first failing row is the one a
        # per-step check finds; NaN and inf both fail the comparison
        stepped = block[first - start:]
        with np.errstate(over="ignore", invalid="ignore"):
            bad = ~np.all(np.hypot(stepped.real, stepped.imag) < DIVERGENCE_LIMIT,
                          axis=1)
        if bad.any():
            t = (first + int(np.argmax(bad))) * dt
            raise DivergenceError(
                f"mean-field amplitudes diverged at t = {t:.6g}", time=t)
        yield block
        flat = []


def integrate_rk4(s0: MeanFieldState, params: ModeParams,
                  t_final: float, dt: float) -> Trajectory:
    """Classic fixed-step RK4 trajectory from ``s0``: the blocks of
    :func:`trajectory_blocks` gathered into one array.

    Raises as :func:`trajectory_blocks` does, so the sample cap is checked
    before integrating.
    """
    steps, blocks = trajectory_blocks(s0, params, t_final, dt)
    samples = np.empty((steps + 1, 3), dtype=complex)
    start = 0
    for block in blocks:
        samples[start:start + len(block)] = block
        start += len(block)
    return Trajectory(dt=dt, samples=samples)


def manley_rowe(s: MeanFieldState) -> tuple[float, float, float]:
    """The conserved triples (|a0|^2+|a1|^2, |a0|^2+|a2|^2, |a1|^2-|a2|^2)."""
    n0 = abs(s.alpha0) ** 2
    n1 = abs(s.alpha1) ** 2
    n2 = abs(s.alpha2) ** 2
    return (n0 + n1, n0 + n2, n1 - n2)


def undepleted_pump_solution(b1_0: complex, b2_0: complex,
                             params: ModeParams, t: float) -> tuple[complex, complex]:
    """Signal/idler amplitudes when the pump only oscillates, never depletes.

    In the rotating frame b_j = alpha_j * exp(i omega_j t) the linearized
    equations close into

        b1(t) = b1(0) cosh(gt) - i e^{i theta} conj(b2(0)) sinh(gt)
        b2(t) = b2(0) cosh(gt) - i e^{i theta} conj(b1(0)) sinh(gt)

    with gain g = kappa |alpha0(0)| and theta = arg(alpha0(0)) - phi.
    Returns the lab-frame amplitudes (alpha1(t), alpha2(t)).  Valid only
    while pump depletion stays negligible; the tests quantify that window
    against the full RK4 integration.
    """
    g = params.kappa_mag * abs(params.pump_alpha0)
    theta = cmath.phase(params.pump_alpha0) - params.phi if params.pump_alpha0 != 0 \
        else -params.phi
    ch = math.cosh(g * t)
    sh = math.sinh(g * t)
    mix = -1j * cmath.exp(1j * theta) * sh
    b1_t = b1_0 * ch + mix * b2_0.conjugate()
    b2_t = b2_0 * ch + mix * b1_0.conjugate()
    return (b1_t * cmath.exp(-1j * params.omega1 * t),
            b2_t * cmath.exp(-1j * params.omega2 * t))
