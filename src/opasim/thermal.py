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
from .fockspace import ENSEMBLE_MEMBER_STEP_CAP, ModeParams
from .meanfield import DIVERGENCE_LIMIT, num_steps, rhs_coefficients, rk4_step

#: Beyond this value of omega/T the occupancy underflows to zero anyway.
_EXP_ARG_LIMIT = 700.0


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


def fluorescence_ensemble(params: ModeParams, thermal: ThermalParams,
                          t_final: float, dt: float,
                          n_samples: int) -> EnsembleStats:
    """Mean-field fluorescence statistics over thermally seeded trajectories.

    Every sample starts from (pump_alpha0, thermal draw at omega1, thermal
    draw at omega2) and is integrated with the same
    :func:`opasim.meanfield.rk4_step` as
    :func:`opasim.meanfield.integrate_rk4`, on one array per mode.
    Identical master seeds give bit-identical statistics.  Raises
    :class:`ResourceLimitError` before seeding if the two (steps + 1) x
    n_samples buffers would exceed ``ENSEMBLE_MEMBER_STEP_CAP`` entries.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if t_final < dt:
        raise ValueError(f"t_final = {t_final} must be at least dt = {dt}")

    steps = num_steps(t_final, dt)
    if (steps + 1) * n_samples > ENSEMBLE_MEMBER_STEP_CAP:
        raise ResourceLimitError(
            f"ensemble of {n_samples} members x {steps + 1} samples exceeds "
            f"the cap of {ENSEMBLE_MEMBER_STEP_CAP} member-steps"
        )

    seed_seq = np.random.SeedSequence(thermal.seed)
    children = seed_seq.spawn(n_samples)
    a0 = np.full(n_samples, params.pump_alpha0, dtype=complex)
    a1 = np.empty(n_samples, dtype=complex)
    a2 = np.empty(n_samples, dtype=complex)
    for k, child in enumerate(children):
        rng = np.random.default_rng(child)
        a1[k] = sample_thermal_amplitude(params.omega1, thermal.temperature, rng)
        a2[k] = sample_thermal_amplitude(params.omega2, thermal.temperature, rng)

    coeffs = rhs_coefficients(params)
    n1 = np.empty((steps + 1, n_samples))
    n2 = np.empty((steps + 1, n_samples))
    n1[0] = np.abs(a1) ** 2
    n2[0] = np.abs(a2) ** 2
    alive = np.ones(n_samples, dtype=bool)

    for k in range(steps):
        a0, a1, a2 = rk4_step(a0, a1, a2, dt, coeffs)
        # NaN and inf both fail the comparison
        bad = ~((np.abs(a0) < DIVERGENCE_LIMIT) & (np.abs(a1) < DIVERGENCE_LIMIT)
                & (np.abs(a2) < DIVERGENCE_LIMIT))
        if np.any(bad & alive):
            alive &= ~bad
            for a in (a0, a1, a2):
                a[bad] = 0.0  # frozen; excluded from the aggregates below
        n1[k + 1] = np.abs(a1) ** 2
        n2[k + 1] = np.abs(a2) ** 2

    n_failures = int(n_samples - np.count_nonzero(alive))
    if n_failures == n_samples:
        raise DivergenceError("every ensemble member diverged")

    n1 = n1[:, alive]
    n2 = n2[:, alive]
    ddof = 1 if n1.shape[1] > 1 else 0
    times = np.arange(steps + 1) * dt
    return EnsembleStats(
        times=times,
        mean_n1=n1.mean(axis=1), var_n1=n1.var(axis=1, ddof=ddof),
        mean_n2=n2.mean(axis=1), var_n2=n2.var(axis=1, ddof=ddof),
        n_samples=n_samples, n_failures=n_failures,
    )
