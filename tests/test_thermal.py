"""Thermal occupancy, amplitude sampling and seeded fluorescence ensembles.

Statistical assertions use 3-sigma bands computed from the exact moments
of the sampled distributions (|alpha|^2 is exponential for an isotropic
complex Gaussian), with fixed seeds so every run is identical.
"""

import math
import tracemalloc

import numpy as np
import pytest

from opasim import thermal as thermal_module
from opasim.errors import DivergenceError, ResourceLimitError
from opasim.fockspace import ENSEMBLE_MEMBER_CAP, TRAJECTORY_SAMPLE_CAP, ModeParams
from opasim.meanfield import DIVERGENCE_LIMIT, MeanFieldState, integrate_rk4
from opasim.thermal import (
    ThermalParams,
    fluorescence_ensemble,
    mean_occupancy,
    sample_thermal_amplitude,
)

PARAMS = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.005, pump_alpha0=100.0)


class TestMeanOccupancy:
    def test_zero_temperature(self):
        assert mean_occupancy(1.7, 0.0) == 0.0

    def test_ratio_ln_two_gives_unity(self):
        """omega/T = ln 2 puts exactly one photon in the mode on average."""
        assert mean_occupancy(math.log(2.0), 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_unit_ratio(self):
        """omega/T = 1 gives 1/(e-1)."""
        assert mean_occupancy(2.0, 2.0) == pytest.approx(0.5819767068693265,
                                                         abs=1e-12)

    def test_extreme_ratio_underflows_to_zero(self):
        assert mean_occupancy(1000.0, 1.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mean_occupancy(0.0, 1.0)
        with pytest.raises(ValueError):
            mean_occupancy(-1.0, 1.0)
        with pytest.raises(ValueError):
            mean_occupancy(1.0, -0.5)


class TestSampling:
    def test_zero_temperature_is_exactly_zero(self):
        rng = np.random.default_rng(0)
        assert sample_thermal_amplitude(1.0, 0.0, rng) == 0j

    def test_mean_intensity_convergence(self):
        """1e5 draws at nbar = 1: sample mean of |alpha|^2 in [0.99, 1.01].

        |alpha|^2 is exponential with variance nbar^2, so the 3-sigma band
        is 1 +- 3/sqrt(1e5) ~ 1 +- 0.0095.
        """
        rng = np.random.default_rng(421)
        omega, temperature = math.log(2.0), 1.0
        n = 100_000
        total = 0.0
        for _ in range(n):
            total += abs(sample_thermal_amplitude(omega, temperature, rng)) ** 2
        assert 0.99 < total / n < 1.01

    def test_phase_isotropy(self):
        """The complex sample mean of 1e5 draws has modulus < 0.02."""
        rng = np.random.default_rng(97)
        omega, temperature = math.log(2.0), 1.0
        n = 100_000
        total = 0j
        for _ in range(n):
            total += sample_thermal_amplitude(omega, temperature, rng)
        assert abs(total / n) < 0.02

    def test_determinism_for_fixed_generator_state(self):
        a = sample_thermal_amplitude(1.0, 0.7, np.random.default_rng(5))
        b = sample_thermal_amplitude(1.0, 0.7, np.random.default_rng(5))
        assert a == b


class TestFluorescenceEnsemble:
    def test_bit_reproducible(self):
        thermal = ThermalParams(temperature=1.0, seed=77)
        first = fluorescence_ensemble(PARAMS, thermal, 0.5, 0.01, 64)
        second = fluorescence_ensemble(PARAMS, thermal, 0.5, 0.01, 64)
        assert np.array_equal(first.mean_n1, second.mean_n1)
        assert np.array_equal(first.var_n1, second.var_n1)
        assert np.array_equal(first.mean_n2, second.mean_n2)
        assert np.array_equal(first.var_n2, second.var_n2)

    def test_different_seeds_differ(self):
        first = fluorescence_ensemble(PARAMS, ThermalParams(1.0, seed=1),
                                      0.2, 0.01, 32)
        second = fluorescence_ensemble(PARAMS, ThermalParams(1.0, seed=2),
                                       0.2, 0.01, 32)
        assert not np.array_equal(first.mean_n1, second.mean_n1)

    def test_zero_temperature_is_a_fixed_point(self):
        """T = 0 seeds are exactly zero and stay zero: mean-field theory has
        no spontaneous fluorescence, unlike the quantum vacuum evolution."""
        stats = fluorescence_ensemble(PARAMS, ThermalParams(0.0, seed=9),
                                      1.0, 0.01, 16)
        assert np.all(stats.mean_n1 == 0.0)
        assert np.all(stats.mean_n2 == 0.0)
        assert stats.n_failures == 0

    def test_ensemble_gain_matches_bogoliubov_mixing(self):
        """Ensemble mean of |alpha1(t)|^2 equals cosh^2 nbar1 + sinh^2 nbar2.

        Isotropic independent seeds kill the cross terms of the linearized
        solution, leaving the mixing of the two thermal occupancies.  The
        estimator's standard error is m/sqrt(N) (exponential law), asserted
        at 3 sigma; depletion at |alpha0| = 100 is ~1e-4 and negligible.
        """
        thermal = ThermalParams(temperature=1.0, seed=2024)
        n = 10_000
        t_final, dt = 1.0, 0.002
        stats = fluorescence_ensemble(PARAMS, thermal, t_final, dt, n)
        g = PARAMS.kappa_mag * abs(PARAMS.pump_alpha0)
        nbar1 = mean_occupancy(PARAMS.omega1, 1.0)
        nbar2 = mean_occupancy(PARAMS.omega2, 1.0)
        for idx in (0, len(stats.times) // 2, len(stats.times) - 1):
            gt = g * stats.times[idx]
            m = math.cosh(gt) ** 2 * nbar1 + math.sinh(gt) ** 2 * nbar2
            assert abs(stats.mean_n1[idx] - m) < 3.0 * m / math.sqrt(n)
            m2 = math.cosh(gt) ** 2 * nbar2 + math.sinh(gt) ** 2 * nbar1
            assert abs(stats.mean_n2[idx] - m2) < 3.0 * m2 / math.sqrt(n)

    def test_standard_error_halves_when_samples_double(self):
        """SEM estimated from the sample variance scales as 1/sqrt(N)."""
        thermal_a = ThermalParams(temperature=1.0, seed=31)
        thermal_b = ThermalParams(temperature=1.0, seed=32)
        small = fluorescence_ensemble(PARAMS, thermal_a, 0.5, 0.005, 4000)
        large = fluorescence_ensemble(PARAMS, thermal_b, 0.5, 0.005, 8000)
        sem_small = math.sqrt(small.var_n1[-1] / 4000)
        sem_large = math.sqrt(large.var_n1[-1] / 8000)
        ratio = sem_small / sem_large
        assert math.sqrt(2.0) * 0.8 < ratio < math.sqrt(2.0) * 1.2

    def test_matches_scalar_integrator_per_sample(self):
        """The ensemble mean reproduces integrate_rk4 run on each sample's
        seeds.  The step is the same, but numpy's and Python's complex
        products may round differently in the last bit, so the means are
        compared at rel 1e-12, not bit for bit."""
        thermal = ThermalParams(temperature=0.8, seed=55)
        stats = fluorescence_ensemble(PARAMS, thermal, 0.3, 0.01, 3)
        seeds = np.random.SeedSequence(55).spawn(3)
        k = 1
        rng = np.random.default_rng(seeds[k])
        a1 = sample_thermal_amplitude(PARAMS.omega1, 0.8, rng)
        a2 = sample_thermal_amplitude(PARAMS.omega2, 0.8, rng)
        traj = integrate_rk4(MeanFieldState(PARAMS.pump_alpha0, a1, a2),
                             PARAMS, 0.3, 0.01)
        # single-sample cross-check against the aggregate of 3: rebuild all
        rngs = [np.random.default_rng(s) for s in seeds]
        seeds_n1 = []
        for r in rngs:
            s1 = sample_thermal_amplitude(PARAMS.omega1, 0.8, r)
            s2 = sample_thermal_amplitude(PARAMS.omega2, 0.8, r)
            seeds_n1.append((s1, s2))
        trajs = [integrate_rk4(MeanFieldState(PARAMS.pump_alpha0, s1, s2),
                               PARAMS, 0.3, 0.01) for s1, s2 in seeds_n1]
        for step in (0, 10, 30):
            expected = np.mean([abs(t.samples[step, 1]) ** 2 for t in trajs])
            assert stats.mean_n1[step] == pytest.approx(expected, rel=1e-12)
        assert abs(traj.samples[-1, 1]) ** 2 == pytest.approx(
            abs(trajs[k].samples[-1, 1]) ** 2, rel=0)

    def test_partial_divergence_excluded_and_counted(self):
        """A marginally unstable step size kills only the largest-seed
        trajectories; they are dropped from the aggregates and counted."""
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=11.0, pump_alpha0=2.0)
        stats = fluorescence_ensemble(params, ThermalParams(1.5, seed=14),
                                      4.0, 0.06, 64)
        assert 0 < stats.n_failures < 64
        assert np.all(np.isfinite(stats.mean_n1))
        assert np.all(np.isfinite(stats.var_n2))

    def test_all_diverged_raises(self):
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=50.0, pump_alpha0=50.0)
        with pytest.raises(DivergenceError):
            fluorescence_ensemble(params, ThermalParams(1.0, seed=3),
                                  10.0, 1.0, 8)

    def test_member_step_cap_checked_before_seeding(self):
        with pytest.raises(ResourceLimitError):
            fluorescence_ensemble(PARAMS, ThermalParams(1.0), 1.0, 0.01, 10 ** 9)

    def test_member_cap_checked_before_seeding(self):
        """One step keeps the member-steps under their cap; the member
        count alone must stop the run before any member is seeded."""
        with pytest.raises(ResourceLimitError, match="members exceeds"):
            fluorescence_ensemble(PARAMS, ThermalParams(1.0), 0.01, 0.01,
                                  ENSEMBLE_MEMBER_CAP + 1)

    def test_step_cap_checked_before_seeding(self, monkeypatch):
        """One member keeps the member-steps under their cap; the step
        count alone must stop the run before any member is seeded."""
        def no_seeding(*args):
            raise AssertionError("a member was seeded")

        monkeypatch.setattr(thermal_module, "_member_states", no_seeding)
        dt = 0.01
        with pytest.raises(ResourceLimitError, match="samples per trajectory"):
            fluorescence_ensemble(PARAMS, ThermalParams(1.0),
                                  TRAJECTORY_SAMPLE_CAP * dt, dt, 1)

    def test_lazy_children_equal_spawned_list(self):
        seed, n = 1234, 50
        states = thermal_module._member_states(seed, 0, n)
        for state, child in zip(states, np.random.SeedSequence(seed).spawn(n)):
            assert np.array_equal(state, child.generate_state(4, np.uint64))

    def test_peak_memory_does_not_grow_with_steps(self):
        """Only the (4, steps + 1) statistics and the times grow with the
        step count: at most 40 bytes per step.  Two (steps + 1) x 2000
        buffers would grow by 32 kB per step."""
        def peak(t_final):
            tracemalloc.start()
            try:
                fluorescence_ensemble(PARAMS, ThermalParams(1.0, seed=3),
                                      t_final, 0.01, 2000)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak(2.0), peak(8.0)
        assert long - short < 64 * 600

    def test_peak_memory_per_member(self):
        """A step is reduced as soon as it is taken, so the peak holds only
        per-member arrays: the state and its saved copy, |alpha|, the
        stepper's buffers and one row of squares, about 330 bytes per
        member, plus the seeding block's arrays.  Rows of |alpha|^2 for
        many steps at once would take 16 bytes per member per step."""
        n = 2000
        tracemalloc.start()
        try:
            fluorescence_ensemble(PARAMS, ThermalParams(1.0, seed=3), 2.0, 0.01, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 400 * n + 200 * thermal_module._SEED_BLOCK

    def test_validation(self):
        with pytest.raises(ValueError):
            fluorescence_ensemble(PARAMS, ThermalParams(1.0), 1.0, 0.01, 0)
        with pytest.raises(ValueError):
            ThermalParams(temperature=-0.1)
        with pytest.raises(ValueError):
            ThermalParams(temperature=1.0, seed=-1)

    @pytest.mark.parametrize("seed", [1.5, True])
    def test_rejects_non_integer_seeds(self, seed):
        """A float seed would fail only when the members are seeded, and a
        bool would run as seed 0 or 1."""
        with pytest.raises(ValueError, match="seed must be an integer"):
            ThermalParams(1.0, seed=seed)

    @pytest.mark.parametrize("t_final,dt,name", [
        (1.0, math.nan, "dt"), (math.nan, 0.01, "t_final"),
    ])
    def test_rejects_non_finite_times(self, t_final, dt, name):
        with pytest.raises(ValueError, match=f"^{name} "):
            fluorescence_ensemble(PARAMS, ThermalParams(1.0), t_final, dt, 4)


def spawned_rng(seed, k):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))


class TestSeeding:
    """Member seeds hashed block by block reproduce numpy's SeedSequence
    children, and the members draw from them as ``default_rng`` does."""

    @pytest.mark.parametrize("seed", [
        0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5,
        # five 32-bit words: the run entropy is longer than the pool
        2 ** 130 + 1,
    ])
    def test_states_and_draws_equal_spawned_children(self, seed):
        block = thermal_module._SEED_BLOCK
        start, stop = block - 3, block + 3  # across the first seam
        states = thermal_module._member_states(seed, start, stop)
        assert states.shape == (stop - start, 4) and states.dtype == np.uint64
        rngs = thermal_module._member_generators(seed, start, stop)
        for k, state, rng in zip(range(start, stop), states, rngs, strict=True):
            child = np.random.SeedSequence(seed, spawn_key=(k,))
            assert np.array_equal(state, child.generate_state(4, np.uint64))
            assert np.array_equal(rng.standard_normal(4),
                                  spawned_rng(seed, k).standard_normal(4))

    @pytest.mark.parametrize("temperature", [0.7, 0.0])
    def test_members_draw_as_sample_thermal_amplitude(self, monkeypatch,
                                                      temperature):
        monkeypatch.setattr(thermal_module, "_SEED_BLOCK", 7)
        thermal = ThermalParams(temperature, seed=2 ** 40 + 7)
        n = 23  # three seams and a short last block
        a = np.full((3, n), np.nan, dtype=complex)
        thermal_module._seed_members(a, PARAMS, thermal)
        for k in range(n):
            rng = spawned_rng(thermal.seed, k)
            want = [sample_thermal_amplitude(w, temperature, rng)
                    for w in (PARAMS.omega1, PARAMS.omega2)]
            assert np.array_equal(a[1:, k].copy().view(np.uint64),
                                  np.array(want).view(np.uint64))

    @pytest.mark.parametrize("cold", [1, 2])
    def test_a_cold_mode_takes_no_draws(self, cold):
        """omega/T > 700 leaves a mode's occupancy at zero: it stays 0 and
        the warm mode takes the first two normals of the stream."""
        omegas = (1.0, 800.0) if cold == 2 else (800.0, 1.0)
        params = ModeParams(sum(omegas), *omegas, kappa_mag=0.005,
                            pump_alpha0=100.0)
        thermal = ThermalParams(1.0, seed=19)
        n = 5
        a = np.empty((3, n), dtype=complex)
        thermal_module._seed_members(a, params, thermal)
        warm = 3 - cold
        scale = math.sqrt(mean_occupancy(1.0, 1.0) / 2.0)
        for k in range(n):
            z = spawned_rng(thermal.seed, k).standard_normal(2)
            assert a[cold, k] == 0.0
            assert a[warm, k] == complex(0.0 + scale * z[0], 0.0 + scale * z[1])


def batched_reference(params, thermal, t_final, dt, n_samples):
    """Ensemble statistics from one (3, N) array and an unfolded batched
    right-hand side, with the same seeding, guard and reduction."""
    children = np.random.SeedSequence(thermal.seed).spawn(n_samples)
    a = np.empty((3, n_samples), dtype=complex)
    a[0] = params.pump_alpha0
    for k, child in enumerate(children):
        rng = np.random.default_rng(child)
        a[1, k] = sample_thermal_amplitude(params.omega1, thermal.temperature, rng)
        a[2, k] = sample_thermal_amplitude(params.omega2, thermal.temperature, rng)
    omegas = np.array(params.omegas)
    kp = params.kappa_prime

    def rhs(a):
        out = np.empty_like(a)
        out[0] = -1j * omegas[0] * a[0] - 1j * np.conj(kp) * a[1] * a[2]
        out[1] = -1j * omegas[1] * a[1] - 1j * kp * a[0] * np.conj(a[2])
        out[2] = -1j * omegas[2] * a[2] - 1j * kp * a[0] * np.conj(a[1])
        return out

    steps = int(math.floor(t_final / dt + 1e-9))
    first_failure = None
    n1 = np.empty((steps + 1, n_samples))
    n2 = np.empty((steps + 1, n_samples))
    n1[0] = np.abs(a[1]) ** 2
    n2[0] = np.abs(a[2]) ** 2
    alive = np.ones(n_samples, dtype=bool)
    for k in range(steps):
        k1 = rhs(a)
        k2 = rhs(a + 0.5 * dt * k1)
        k3 = rhs(a + 0.5 * dt * k2)
        k4 = rhs(a + dt * k3)
        a = a + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        bad = ~np.all(np.isfinite(a) & (np.abs(a) < DIVERGENCE_LIMIT), axis=0)
        if np.any(bad & alive):
            alive &= ~bad
            a[:, bad] = 0.0
            first_failure = first_failure or k + 1
        n1[k + 1] = np.abs(a[1]) ** 2
        n2[k + 1] = np.abs(a[2]) ** 2
    n1 = n1[:, alive]
    n2 = n2[:, alive]
    ddof = 1 if n1.shape[1] > 1 else 0
    return (n_samples - np.count_nonzero(alive), first_failure,
            n1.mean(axis=1), n1.var(axis=1, ddof=ddof),
            n2.mean(axis=1), n2.var(axis=1, ddof=ddof))


DEPLETING = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.3, phi=2.1,
                       pump_alpha0=1.5 - 0.5j)
DIVERGING = ModeParams(2.0, 1.2, 0.8, kappa_mag=11.0, pump_alpha0=2.0)


class TestBitIdentity:
    """Driving the shared RK4 step over one array per mode, and reducing
    the statistics one step at a time, changes no bit of the statistics of
    a (3, N) batched integration reduced at the end."""

    @pytest.mark.parametrize("params,thermal,t_final,dt,n", [
        (PARAMS, ThermalParams(1.0, seed=77), 0.5, 0.01, 64),
        (DEPLETING, ThermalParams(0.7, seed=5), 3.0, 0.01, 33),
        # the partially divergent case of test_partial_divergence_excluded_and_counted
        (DIVERGING, ThermalParams(1.5, seed=14), 4.0, 0.06, 64),
        # more members than one block of seeds, with a multi-word seed
        (PARAMS, ThermalParams(1.0, seed=2 ** 40 + 7), 0.05, 0.01, 1500),
    ], ids=["stable", "stable-depleting", "partially-divergent",
            "members-span-seeding-blocks"])
    def test_matches_batched_reference(self, params, thermal, t_final, dt, n):
        stats = fluorescence_ensemble(params, thermal, t_final, dt, n)
        failures, _, *moments = batched_reference(params, thermal, t_final, dt, n)
        assert_same_statistics(stats, failures, moments)

    @pytest.mark.parametrize("params,thermal,t_final,dt,n", [
        # a member count that is not a multiple of numpy's 8-way unrolled sums
        (DEPLETING, ThermalParams(0.7, seed=5), 1.0, 0.01, 37),
        # one member: ddof is 0
        (DEPLETING, ThermalParams(1.1, seed=8), 0.5, 0.01, 1),
        # 3 of 37 members diverge from step 4 on, so the survivors'
        # statistics come from the second, masked pass
        (DIVERGING, ThermalParams(1.5, seed=15), 4.0, 0.06, 37),
        # T = 0: signal and idler are exact zeros at every step
        (PARAMS, ThermalParams(0.0, seed=2), 0.2, 0.01, 37),
    ], ids=["not-multiple-of-8", "one-member", "diverges-mid-run",
            "zero-temperature"])
    def test_per_step_matches_batched_reference(self, params, thermal, t_final,
                                                dt, n):
        stats = fluorescence_ensemble(params, thermal, t_final, dt, n)
        failures, first_failure, *moments = batched_reference(
            params, thermal, t_final, dt, n)
        if params is DIVERGING:
            assert 1 < failures < n
            assert 1 < first_failure < len(stats.times) - 1
        if thermal.temperature == 0:
            assert not np.any(moments)
        assert_same_statistics(stats, failures, moments)


def assert_same_statistics(stats, failures, moments):
    assert stats.n_failures == failures
    for got, want in zip((stats.mean_n1, stats.var_n1, stats.mean_n2,
                          stats.var_n2), moments):
        assert np.array_equal(got, want)
