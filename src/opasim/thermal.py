"""Boltzmann-weighted thermal seeding and mean-field fluorescence ensembles.

Temperatures are in frequency units (k_B = 1).  Boltzmann weighting of the
oscillator levels implies Bose-Einstein mean occupancy, and the unique
phase-symmetric amplitude distribution with that occupancy is the isotropic
complex Gaussian sampled here.  Ensembles are reproducible: member k draws
from ``default_rng(SeedSequence(seed, spawn_key=(k,)))``, the k-th child of
the master seed.  The ensemble hashes those seeds for a block of members at
once, steps all members in place as one (3, N) array and reduces each
step's statistics over the members as soon as the step is taken.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ResourceLimitError
from .fockspace import (
    ENSEMBLE_MEMBER_CAP,
    ENSEMBLE_MEMBER_STEP_CAP,
    TRAJECTORY_SAMPLE_CAP,
    ModeParams,
)
from .meanfield import DIVERGENCE_LIMIT, num_steps, rhs_coefficients, rk4_stepper

#: Beyond this value of omega/T the occupancy underflows to zero anyway.
_EXP_ARG_LIMIT = 700.0

#: Members whose seeds are hashed in one vectorised pass.
_SEED_BLOCK = 1024

#: numpy's SeedSequence hash (``numpy/random/bit_generator.pyx``): the pool
#: size in 32-bit words and the hash constants.
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

@dataclass(frozen=True)
class ThermalParams:
    """Bath temperature (k_B = 1) and master RNG seed."""

    temperature: float
    seed: int = 0

    def __post_init__(self):
        if not (self.temperature >= 0 and math.isfinite(self.temperature)):
            raise ValueError(f"temperature must be finite and >= 0, "
                             f"got {self.temperature}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def mean_occupancy(omega: float, temperature: float) -> float:
    """Bose-Einstein mean photon number 1 / (exp(omega/T) - 1)."""
    if omega <= 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    if temperature < 0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    if temperature == 0:
        return 0.0
    x = omega / temperature
    if x > _EXP_ARG_LIMIT:
        return 0.0
    return 1.0 / math.expm1(x)


def sample_thermal_amplitude(omega: float, temperature: float,
                             rng: np.random.Generator) -> complex:
    """One thermal coherent label: isotropic complex Gaussian, E|alpha|^2 = nbar."""
    nbar = mean_occupancy(omega, temperature)
    if nbar == 0.0:
        return 0j
    scale = math.sqrt(nbar / 2.0)
    re, im = rng.normal(0.0, scale, size=2)
    return complex(re, im)


@dataclass
class EnsembleStats:
    """Per-time-step statistics of |alpha1|^2 and |alpha2|^2 over an ensemble.

    Means and variances (ddof=1) are taken over the surviving samples;
    trajectories that hit the divergence guard are excluded entirely and
    counted in ``n_failures``.
    """

    times: np.ndarray
    mean_n1: np.ndarray
    var_n1: np.ndarray
    mean_n2: np.ndarray
    var_n2: np.ndarray
    n_samples: int
    n_failures: int


def _hashmix(value, hash_const: int):
    """numpy's ``hashmix`` on a Python int or a uint32 array; returns the
    mixed value and the next hash constant."""
    value = value ^ hash_const
    hash_const = (hash_const * _MULT_A) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> 16), hash_const


def _mix(x, y):
    """numpy's ``mix`` on Python ints or uint32 arrays."""
    value = (((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)) & _MASK32
    return value ^ (value >> 16)


def _member_states(seed: int, start: int, stop: int) -> np.ndarray:
    """Rows ``SeedSequence(seed, spawn_key=(k,)).generate_state(4, np.uint64)``
    for the members k = start, ..., stop - 1, as one (stop - start, 4) array.

    Member k's seed is the k-th child of ``SeedSequence(seed).spawn(...)``.
    Its entropy is the seed's 32-bit words, padded with zeros to the
    4-word pool, followed by the one word k (k < 2**32).  Everything before
    k is the same for every member and is hashed once on Python ints; k
    and the state drawn from the pool are hashed on uint32 arrays, one
    entry per member, where the products wrap as numpy's uint32 ones do.
    """
    n = operator.index(seed)
    words = [n & _MASK32]
    while n >> 32:
        n >>= 32
        words.append(n & _MASK32)
    words += [0] * (_POOL_SIZE - len(words))
    hash_const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], value)
    for word in words[_POOL_SIZE:] + [np.arange(start, stop, dtype=np.uint32)]:
        for dst in range(_POOL_SIZE):
            value, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], value)
    state = np.empty((stop - start, 2 * _POOL_SIZE), dtype=np.uint32)
    hash_const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state[:, i] = value ^ (value >> 16)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _GivenState:
    """A seed sequence whose state was generated already: PCG64 asks for
    ``generate_state(4, np.uint64)`` once and gets the given row."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _member_generators(seed: int, start: int, stop: int):
    """``default_rng(SeedSequence(seed, spawn_key=(k,)))`` for the members
    k = start, ..., stop - 1, one at a time: each PCG64 is seeded from its
    row of :func:`_member_states`."""
    # numpy.random loads here, on first use, not on this module's import
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_GivenState)
    for state in _member_states(seed, start, stop):
        yield np.random.Generator(np.random.PCG64(_GivenState(state)))


def _seed_members(a: np.ndarray, params: ModeParams,
                  thermal: ThermalParams) -> None:
    """Write every member's thermal signal and idler draws into rows 1 and 2
    of the (3, N) state array ``a``.

    Member k draws exactly as ``sample_thermal_amplitude`` at omega1, then
    at omega2, with ``default_rng(SeedSequence(seed, spawn_key=(k,)))``:
    its PCG64 is seeded from the same state, draws the same standard
    normals z, and ``normal(0.0, scale)`` is ``0.0 + scale * z``.  A mode
    with zero occupancy takes no draws and stays 0.  Seeds are hashed
    ``_SEED_BLOCK`` members at a time.
    """
    a[1:] = 0.0
    scales = []  # (row, scale) of each mode that draws
    for row, omega in ((1, params.omega1), (2, params.omega2)):
        nbar = mean_occupancy(omega, thermal.temperature)
        if nbar:
            scales.append((row, math.sqrt(nbar / 2.0)))
    if not scales:
        return
    n = a.shape[1]
    normals = np.empty((min(n, _SEED_BLOCK), 2 * len(scales)))
    for start in range(0, n, _SEED_BLOCK):
        stop = min(n, start + _SEED_BLOCK)
        z = normals[:stop - start]
        for row, rng in zip(z, _member_generators(thermal.seed, start, stop)):
            rng.standard_normal(out=row)
        for i, (row, scale) in enumerate(scales):
            a[row, start:stop].real = 0.0 + scale * z[:, 2 * i]
            a[row, start:stop].imag = 0.0 + scale * z[:, 2 * i + 1]


def _streamed_moments(a: np.ndarray, steps: int, dt: float, coeffs,
                      keep: np.ndarray):
    """Step every member of the (3, N) array ``a`` in place and reduce
    |alpha1|^2 and |alpha2|^2 over the members that the boolean mask
    ``keep`` selects, one step at a time.

    Returns the (4, steps + 1) rows mean_n1, var_n1, mean_n2, var_n2 and
    the mask of the members that never diverged.  Each step's mean and
    variance are numpy's two-pass ones: the sum, then the sum of squared
    deviations from the mean.  ``np.add.accumulate`` (``cumsum``) adds the
    members strictly one after another, the order in which ``mean`` and
    ``var`` reduce the members of the masked copy of a full
    (steps + 1, members) buffer, so the two agree bit for bit.  ``np.sum``
    of one contiguous row would add pairwise and round differently.
    """
    n = a.shape[1]
    count = int(np.count_nonzero(keep))
    ddof = 1 if count > 1 else 0
    out = np.empty((4, steps + 1))
    alive = np.ones(n, dtype=bool)
    step = rk4_stepper(n, dt, coeffs)
    mag = np.abs(a)
    squares = np.empty(n)
    sums = np.empty(count)
    reduced = ((0, mag[1]), (2, mag[2]))  # out row of each mean, |alpha|
    for r in range(steps + 1):
        if r:
            step(a)
            np.abs(a, out=mag)
            # NaN and inf both fail the comparison
            bad = ~np.all(mag < DIVERGENCE_LIMIT, axis=0)
            if np.any(bad & alive):
                alive &= ~bad
                a[:, bad] = 0.0  # frozen; excluded by the second pass
                mag[:, bad] = 0.0
        for i, amplitude in reduced:
            x = np.square(amplitude, out=squares)
            if count < n:
                x = x[keep]
            mean = np.add.accumulate(x, out=sums)[-1] / count
            np.subtract(x, mean, out=x)
            np.square(x, out=x)
            out[i, r] = mean
            out[i + 1, r] = np.add.accumulate(x, out=sums)[-1] / (count - ddof)
    return out, alive


def fluorescence_ensemble(params: ModeParams, thermal: ThermalParams,
                          t_final: float, dt: float,
                          n_samples: int) -> EnsembleStats:
    """Mean-field fluorescence statistics over thermally seeded trajectories.

    Every sample starts from (pump_alpha0, thermal draw at omega1, thermal
    draw at omega2), each draw that of :func:`sample_thermal_amplitude`
    with the member's own generator (see :func:`_seed_members`).  The
    members are one (3, n_samples) array, stepped in place by
    :func:`opasim.meanfield.rk4_stepper`, which agrees bit for bit with
    :func:`opasim.meanfield.rk4_step` on one array per mode.  The
    statistics are streamed: each step's |alpha|^2 is reduced as soon as
    the step is taken (see :func:`_streamed_moments`), so no buffer holds
    more than one step and memory is O(n_samples + steps).  Which members
    diverge is known only at the end; if any did, the ensemble is
    integrated a second time from its saved initial amplitudes, reducing
    only the survivors.  Identical master seeds give bit-identical
    statistics.  Raises
    :class:`ResourceLimitError` before seeding if ``n_samples`` exceeds
    ``ENSEMBLE_MEMBER_CAP``, ``steps + 1`` exceeds ``TRAJECTORY_SAMPLE_CAP``
    or ``(steps + 1) * n_samples`` exceeds ``ENSEMBLE_MEMBER_STEP_CAP``,
    and :class:`ValueError` for a ``dt`` or ``t_final`` that
    :func:`opasim.meanfield.num_steps` rejects.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    steps = num_steps(t_final, dt)
    if n_samples > ENSEMBLE_MEMBER_CAP:
        raise ResourceLimitError(
            f"ensemble of {n_samples} members exceeds the cap of "
            f"{ENSEMBLE_MEMBER_CAP} members"
        )
    if steps + 1 > TRAJECTORY_SAMPLE_CAP:
        raise ResourceLimitError(
            f"ensemble of {steps + 1} samples exceeds the cap of "
            f"{TRAJECTORY_SAMPLE_CAP} samples per trajectory"
        )
    if (steps + 1) * n_samples > ENSEMBLE_MEMBER_STEP_CAP:
        raise ResourceLimitError(
            f"ensemble of {n_samples} members x {steps + 1} samples exceeds "
            f"the cap of {ENSEMBLE_MEMBER_STEP_CAP} member-steps"
        )

    a = np.empty((3, n_samples), dtype=complex)
    a[0] = params.pump_alpha0
    _seed_members(a, params, thermal)

    coeffs = rhs_coefficients(params)
    moments, alive = _streamed_moments(a.copy(), steps, dt, coeffs,
                                       np.ones(n_samples, dtype=bool))
    n_failures = int(n_samples - np.count_nonzero(alive))
    if n_failures == n_samples:
        raise DivergenceError("every ensemble member diverged")
    if n_failures:
        moments, _ = _streamed_moments(a, steps, dt, coeffs, alive)

    mean_n1, var_n1, mean_n2, var_n2 = moments
    return EnsembleStats(
        times=np.arange(steps + 1) * dt,
        mean_n1=mean_n1, var_n1=var_n1, mean_n2=mean_n2, var_n2=var_n2,
        n_samples=n_samples, n_failures=n_failures,
    )
