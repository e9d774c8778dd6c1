"""Boltzmann-weighted thermal seeding and mean-field fluorescence ensembles.

Temperatures are in frequency units (k_B = 1).  Boltzmann weighting of the
oscillator levels implies Bose-Einstein mean occupancy, and the unique
phase-symmetric amplitude distribution with that occupancy is the isotropic
complex Gaussian sampled here.  Ensembles are reproducible: every sample
draws from its own generator, derived from the master seed by counter-mode
splitting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ResourceLimitError
from .fockspace import (
    ENSEMBLE_MEMBER_CAP,
    ENSEMBLE_MEMBER_STEP_CAP,
    TRAJECTORY_SAMPLE_CAP,
    ModeParams,
)
from .meanfield import DIVERGENCE_LIMIT, num_steps, rhs_coefficients, rk4_step

#: Beyond this value of omega/T the occupancy underflows to zero anyway.
_EXP_ARG_LIMIT = 700.0

#: Bytes of the two |alpha|^2 chunk buffers of an ensemble; sets how many
#: steps are reduced at once.
_CHUNK_BYTES = 4 * 2 ** 20


@dataclass(frozen=True)
class ThermalParams:
    """Bath temperature (k_B = 1) and master RNG seed."""

    temperature: float
    seed: int = 0

    def __post_init__(self):
        if not (self.temperature >= 0 and math.isfinite(self.temperature)):
            raise ValueError(f"temperature must be finite and >= 0, "
                             f"got {self.temperature}")
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


def _child_seed(seed: int, k: int) -> np.random.SeedSequence:
    """Member k's seed: the k-th child of ``SeedSequence(seed).spawn(...)``,
    made on its own so that no list of children is held."""
    return np.random.SeedSequence(seed, spawn_key=(k,))


def _streamed_moments(a0, a1, a2, steps: int, dt: float, coeffs,
                      keep: np.ndarray):
    """Step every member and reduce |alpha1|^2 and |alpha2|^2 over the
    members that the boolean mask ``keep`` selects, in chunks of steps.

    Returns the (4, steps + 1) rows mean_n1, var_n1, mean_n2, var_n2 and
    the mask of the members that never diverged.  A chunk holds the rows
    of several steps, and its masked copy ``chunk[:, keep]``, which numpy
    lays out F-ordered, is reduced by ``mean``/``var`` along the members:
    every step's members are summed one after another in member order,
    exactly as for the masked copy of a full (steps + 1, members) buffer.
    A chunk always holds at least two rows: numpy would sum the contiguous
    row of a one-row chunk pairwise.
    """
    n = a1.size
    ddof = 1 if np.count_nonzero(keep) > 1 else 0
    total = steps + 1
    rows = min(total, max(2, _CHUNK_BYTES // (16 * n)))
    # one spare row takes a one-row tail into the chunk before it
    n1 = np.empty((rows + 1, n))
    n2 = np.empty((rows + 1, n))
    out = np.empty((4, total))
    alive = np.ones(n, dtype=bool)
    start = 0
    m1, m2 = np.abs(a1), np.abs(a2)
    for r in range(total):
        if r:
            a0, a1, a2 = rk4_step(a0, a1, a2, dt, coeffs)
            m1, m2 = np.abs(a1), np.abs(a2)
            # NaN and inf both fail the comparison
            bad = ~((np.abs(a0) < DIVERGENCE_LIMIT) & (m1 < DIVERGENCE_LIMIT)
                    & (m2 < DIVERGENCE_LIMIT))
            if np.any(bad & alive):
                alive &= ~bad
                for a in (a0, a1, a2, m1, m2):
                    a[bad] = 0.0  # frozen; excluded by the second pass
        np.square(m1, out=n1[r - start])
        np.square(m2, out=n2[r - start])
        filled = r + 1 - start
        if r + 1 == total or (filled == rows and total - r - 1 != 1):
            for i, buf in ((0, n1), (2, n2)):
                chunk = buf[:filled, keep]
                out[i, start:r + 1] = chunk.mean(axis=1)
                out[i + 1, start:r + 1] = chunk.var(axis=1, ddof=ddof)
            start = r + 1
    return out, alive


def fluorescence_ensemble(params: ModeParams, thermal: ThermalParams,
                          t_final: float, dt: float,
                          n_samples: int) -> EnsembleStats:
    """Mean-field fluorescence statistics over thermally seeded trajectories.

    Every sample starts from (pump_alpha0, thermal draw at omega1, thermal
    draw at omega2) and is integrated with the same
    :func:`opasim.meanfield.rk4_step` as
    :func:`opasim.meanfield.integrate_rk4`, on one array per mode.  The
    statistics are streamed: each step's |alpha|^2 goes into a chunk of
    steps whose size a fixed byte budget sets, and a full chunk is reduced
    at once, so memory is O(n_samples + steps).  Which members diverge is
    known only at the end; if any did, the ensemble is integrated a second
    time from its saved initial amplitudes, reducing only the survivors.  Identical
    master seeds give bit-identical statistics.  Raises
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

    a0 = np.full(n_samples, params.pump_alpha0, dtype=complex)
    a1 = np.empty(n_samples, dtype=complex)
    a2 = np.empty(n_samples, dtype=complex)
    for k in range(n_samples):
        rng = np.random.default_rng(_child_seed(thermal.seed, k))
        a1[k] = sample_thermal_amplitude(params.omega1, thermal.temperature, rng)
        a2[k] = sample_thermal_amplitude(params.omega2, thermal.temperature, rng)

    coeffs = rhs_coefficients(params)
    moments, alive = _streamed_moments(a0, a1, a2, steps, dt, coeffs,
                                       np.ones(n_samples, dtype=bool))
    n_failures = int(n_samples - np.count_nonzero(alive))
    if n_failures == n_samples:
        raise DivergenceError("every ensemble member diverged")
    if n_failures:
        moments, _ = _streamed_moments(a0, a1, a2, steps, dt, coeffs, alive)

    mean_n1, var_n1, mean_n2, var_n2 = moments
    return EnsembleStats(
        times=np.arange(steps + 1) * dt,
        mean_n1=mean_n1, var_n1=var_n1, mean_n2=mean_n2, var_n2=var_n2,
        n_samples=n_samples, n_failures=n_failures,
    )
