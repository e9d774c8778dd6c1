"""Mean-field equations, RK4 integration and the undepleted-pump law.

The derived expectations are validated against closed-form free motion,
Richardson step-halving, algebraic conservation identities evaluated at
random states, and the full RK4 integration as the oracle for the
hyperbolic gain solution.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opasim import meanfield
from opasim.errors import DivergenceError, ResourceLimitError
from opasim.fockspace import ModeParams
from opasim.meanfield import (
    DIVERGENCE_LIMIT,
    MeanFieldState,
    Trajectory,
    _rhs,
    integrate_rk4,
    manley_rowe,
    num_steps,
    rhs_coefficients,
    rk4_step,
    rk4_stepper,
    trajectory_blocks,
    undepleted_pump_solution,
)

PARAMS = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.2, phi=0.4)


def bounded_complex(limit):
    reals = st.floats(-limit, limit, allow_nan=False, allow_infinity=False)
    return st.builds(complex, reals, reals)


class TestDerivatives:
    """The right-hand side ``_rhs`` with its folded constant factors."""

    def test_free_rotation(self):
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.0)
        assert _rhs(1 + 0j, 1 + 0j, 1 + 0j, rhs_coefficients(params)) == (
            -2.0j, -1.2j, -0.8j)

    def test_pump_alone_never_feeds_daughters(self):
        """With alpha1 = alpha2 = 0 both daughter derivatives vanish."""
        d0, d1, d2 = _rhs(2.5 - 1.0j, 0j, 0j, rhs_coefficients(PARAMS))
        assert d0 == -1j * PARAMS.omega0 * (2.5 - 1.0j)
        assert d1 == 0.0
        assert d2 == 0.0

    def test_intensity_sum_identities_at_random_states(self):
        """d/dt of each Manley-Rowe combination vanishes algebraically.

        Evaluated via 2 Re(conj(alpha) * dalpha/dt) at 100 random states;
        the residual is pure floating-point noise.
        """
        rng = np.random.default_rng(23)
        for _ in range(100):
            s = [complex(rng.normal(), rng.normal()) for _ in range(3)]
            d = _rhs(*s, rhs_coefficients(PARAMS))
            rates = [2 * (a.conjugate() * da).real for a, da in zip(s, d)]
            scale = max(1.0, max(abs(x) for x in rates))
            assert abs(rates[0] + rates[1]) < 1e-14 * scale
            assert abs(rates[0] + rates[2]) < 1e-14 * scale
            assert abs(rates[1] - rates[2]) < 1e-14 * scale


class TestIntegrateRk4:
    def test_free_motion_matches_closed_form(self):
        """kappa = 0: alpha_j(t) = alpha_j(0) e^{-i w_j t} to 1e-10 at t=10."""
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.0)
        s0 = MeanFieldState(1.0 + 0.5j, -0.3, 0.7j)
        traj = integrate_rk4(s0, params, 10.0, 1e-3)
        t = traj.t_final
        assert t == pytest.approx(10.0, abs=1e-9)
        expected = [a * cmath.exp(-1j * w * t)
                    for a, w in zip(s0.as_tuple(), params.omegas)]
        for got, want in zip(traj.samples[-1], expected):
            assert abs(got - want) < 1e-10

    def test_fourth_order_step_halving(self):
        """Richardson against a dt/8 reference: e(dt)/e(dt/2) in [12, 20]."""
        s0 = MeanFieldState(2.0, 0.5, 0.3j)  # visibly depleted pump run
        dt = 0.02
        t_final = 2.0

        def endpoint(step):
            return integrate_rk4(s0, PARAMS, t_final, step).samples[-1]

        ref = endpoint(dt / 8)
        err_coarse = np.linalg.norm(endpoint(dt) - ref)
        err_fine = np.linalg.norm(endpoint(dt / 2) - ref)
        assert 12.0 < err_coarse / err_fine < 20.0

    def test_manley_rowe_drift_tiny(self):
        """Invariant drift < 1e-8 relative over t=10 at dt=1e-3."""
        s0 = MeanFieldState(5.0, 0.1, 0.1j)
        traj = integrate_rk4(s0, PARAMS, 10.0, 1e-3)
        mr0 = np.array(manley_rowe(s0))
        scale = max(abs(mr0[0]), abs(mr0[1]))
        worst = max(
            np.max(np.abs(np.array(manley_rowe(MeanFieldState(*row))) - mr0))
            for row in traj.samples[::100]
        )
        assert worst / scale < 1e-8

    def test_sampling_grid(self):
        traj = integrate_rk4(MeanFieldState(1, 0, 0), PARAMS, 0.0105, 1e-3)
        assert len(traj.samples) == 11  # last multiple of dt below t_final
        assert traj.dt == 1e-3

    def test_divergence_guard_reports_time(self, monkeypatch):
        """The guard, checked once per block of rows, stops at the first
        step that leaves it and reports that step's time: the step a
        per-step check finds when stepping rk4_step here."""
        cases = [
            # kappa = 5 at dt = 10: step 1 leaves the guard, in block 0
            (MeanFieldState(4.0, 2.0, 2.0), 5.0, 10.0, 100.0, 4096, 0, False),
            # free RK4 at omega0 * dt = 3: the pump grows 50% a step and
            # leaves the guard mid-block, in block 8 of 4 rows
            (MeanFieldState(2.0, 0.3, 0j), 0.0, 1.5, 300.0, 4, 8, False),
            # kappa = 1e200: step 1 overflows to NaN, in block 1 of 1 row
            (MeanFieldState(1.0, 1.0, 1.0), 1e200, 0.1, 1.0, 1, 1, True),
        ]
        for s0, kappa, dt, t_final, block_rows, block, nan in cases:
            monkeypatch.setattr(meanfield, "TRAJECTORY_BLOCK_ROWS", block_rows)
            params = ModeParams(2.0, 1.2, 0.8, kappa_mag=kappa)
            a = s0.as_tuple()
            for r in range(1, num_steps(t_final, dt) + 1):
                a = rk4_step(*a, dt, rhs_coefficients(params))
                if not all(abs(x) < DIVERGENCE_LIMIT for x in a):
                    break
            else:
                pytest.fail("the reference run stays inside the guard")
            assert r // block_rows == block
            assert any(cmath.isnan(x) for x in a) == nan
            with pytest.raises(DivergenceError) as excinfo:
                integrate_rk4(s0, params, t_final, dt)
            assert excinfo.value.time == r * dt
            assert str(excinfo.value) == (
                f"mean-field amplitudes diverged at t = {r * dt:.6g}")

    def test_sample_cap_checked_before_integrating(self):
        # the block producer checks on the call, not on the first block
        for integrate in (integrate_rk4, trajectory_blocks):
            with pytest.raises(ResourceLimitError):
                integrate(MeanFieldState(1, 0, 0), PARAMS, 1.0, 1e-12)
            # t_final / dt overflows to inf: more steps than any cap allows
            with pytest.raises(ResourceLimitError):
                integrate(MeanFieldState(1, 0, 0), PARAMS, 1.0, 5e-324)

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            integrate_rk4(MeanFieldState(1, 0, 0), PARAMS, 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate_rk4(MeanFieldState(1, 0, 0), PARAMS, 0.05, 0.1)

    @pytest.mark.parametrize("t_final,dt,name", [
        (1.0, math.nan, "dt"), (1.0, math.inf, "dt"),
        (math.nan, 0.01, "t_final"), (math.inf, 0.01, "t_final"),
    ])
    def test_rejects_non_finite_times(self, t_final, dt, name):
        with pytest.raises(ValueError, match=f"^{name} "):
            integrate_rk4(MeanFieldState(1, 0, 0), PARAMS, t_final, dt)

    def test_blocks_stack_to_the_trajectory(self, monkeypatch):
        monkeypatch.setattr(meanfield, "TRAJECTORY_BLOCK_ROWS", 7)
        s0 = MeanFieldState(1.2 - 0.3j, 0.4 + 0.1j, -0.2j)
        steps, blocks = trajectory_blocks(s0, PARAMS, 0.1, 1e-3)
        blocks = list(blocks)
        assert steps == 100
        assert [len(b) for b in blocks] == [7] * 14 + [3]
        assert blocks[0][0].tolist() == list(s0.as_tuple())
        assert np.array_equal(np.concatenate(blocks),
                              integrate_rk4(s0, PARAMS, 0.1, 1e-3).samples)


class TestManleyRowe:
    def test_vacuum(self):
        assert manley_rowe(MeanFieldState(0, 0, 0)) == (0.0, 0.0, 0.0)

    def test_simple_values(self):
        assert manley_rowe(MeanFieldState(2, 1, 1)) == (5.0, 5.0, 0.0)


class TestUndepletedPump:
    def test_identity_at_zero_time(self):
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.1, pump_alpha0=10.0)
        b1, b2 = undepleted_pump_solution(0.3 + 0.1j, -0.2j, params, 0.0)
        assert b1 == 0.3 + 0.1j
        assert b2 == -0.2j

    def test_gain_magnitude_cosh(self):
        """|alpha1(t)| = cosh(1) for b1(0)=1, b2(0)=0 at gt = 1."""
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.01, pump_alpha0=100.0)
        t = 1.0 / (0.01 * 100.0)
        a1, a2 = undepleted_pump_solution(1.0, 0.0, params, t)
        assert abs(a1) == pytest.approx(1.5430806348152437, rel=1e-12)
        assert abs(a2) == pytest.approx(math.sinh(1.0), rel=1e-12)

    def test_hyperbolic_difference_invariant(self):
        """|b1|^2 - |b2|^2 is exactly preserved (cosh^2 - sinh^2 = 1)."""
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.02, pump_alpha0=50.0,
                            phi=0.9)
        b1_0, b2_0 = 1.3 - 0.4j, 0.2 + 0.6j
        for t in (0.3, 0.9, 1.7):
            a1, a2 = undepleted_pump_solution(b1_0, b2_0, params, t)
            got = abs(a1) ** 2 - abs(a2) ** 2
            want = abs(b1_0) ** 2 - abs(b2_0) ** 2
            assert got == pytest.approx(want, rel=1e-12)

    def test_validated_against_rk4_oracle(self):
        """Anti-hallucination gate: the cosh/sinh law must reproduce the
        full nonlinear integration while depletion is negligible.

        |alpha0(0)| = 100 with kappa = 0.005 gives g = 0.5; over gt <= 1
        the daughters gain ~2.4 photons against 10^4 pump photons, so the
        linearization must agree with RK4 to much better than 1e-3.
        """
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.005,
                            pump_alpha0=100.0 * cmath.exp(0.3j), phi=0.7)
        b1_0, b2_0 = 0.8 + 0.2j, -0.5j
        traj = integrate_rk4(MeanFieldState(params.pump_alpha0, b1_0, b2_0),
                             params, 2.0, 1e-3)
        for idx in (500, 1000, 2000):
            t = idx * 1e-3
            rk4_0, rk4_1, rk4_2 = traj.samples[idx]
            depletion = abs(1.0 - abs(rk4_0) ** 2 / 1e4)
            assert depletion < 0.01
            a1, a2 = undepleted_pump_solution(b1_0, b2_0, params, t)
            deviation = max(abs(a1 - rk4_1) / abs(rk4_1),
                            abs(a2 - rk4_2) / abs(rk4_2))
            assert deviation < 1e-3
            # the error of the linearization is set by the depletion itself
            assert deviation < 10.0 * depletion


class TestSymmetries:
    @settings(max_examples=25, deadline=None)
    @given(chi=st.floats(0.0, 2.0 * math.pi),
           a1=bounded_complex(1.5), a2=bounded_complex(1.5))
    def test_phase_covariance(self, chi, a1, a2):
        """alpha1 -> e^{i chi} alpha1, alpha2 -> e^{-i chi} alpha2 maps every
        trajectory sample by the same phases (the coupling sees alpha1*alpha2).
        """
        base = integrate_rk4(MeanFieldState(1.5, a1, a2), PARAMS, 0.2, 0.01)
        phase1 = cmath.exp(1j * chi)
        phase2 = cmath.exp(-1j * chi)
        mapped = integrate_rk4(
            MeanFieldState(1.5, a1 * phase1, a2 * phase2), PARAMS, 0.2, 0.01)
        for s_base, s_map in zip(base.samples[::5], mapped.samples[::5]):
            assert cmath.isclose(s_map[0], s_base[0],
                                 rel_tol=1e-12, abs_tol=1e-12)
            assert cmath.isclose(s_map[1], s_base[1] * phase1,
                                 rel_tol=1e-12, abs_tol=1e-12)
            assert cmath.isclose(s_map[2], s_base[2] * phase2,
                                 rel_tol=1e-12, abs_tol=1e-12)


class TestTrajectoryType:
    def test_uniform_grid_metadata(self):
        traj = Trajectory(dt=0.5, samples=np.zeros((5, 3), dtype=complex))
        assert traj.t_final == 2.0

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Trajectory(dt=-0.1, samples=np.zeros((3, 3)))
        with pytest.raises(ValueError):
            Trajectory(dt=0.1, samples=np.zeros((1, 3)))
        with pytest.raises(ValueError):
            Trajectory(dt=0.1, samples=np.zeros((4, 2)))

    def test_integrated_samples_are_one_complex_array(self):
        traj = integrate_rk4(MeanFieldState(1.0, 0.5j, 0.0), PARAMS, 0.05, 0.01)
        assert traj.samples.shape == (6, 3)
        assert traj.samples.dtype == complex
        assert traj.samples[0].tolist() == [1.0, 0.5j, 0.0]

    def test_state_requires_finite_amplitudes(self):
        with pytest.raises(ValueError):
            MeanFieldState(float("inf"), 0.0, 0.0)


def unfolded_rk4(s0, params, t_final, dt):
    """RK4 written out with the unfolded right-hand side, one step per loop.

    Every constant is multiplied in place (``-1j * w0 * a0``,
    ``1j * conj(kp) * a1 * a2``), so this pins the folded coefficients and
    the shared step of :func:`integrate_rk4` to the same bits.
    """
    w0, w1, w2 = params.omegas
    kp = params.kappa_prime

    def rhs(a0, a1, a2):
        return (
            -1j * w0 * a0 - 1j * kp.conjugate() * a1 * a2,
            -1j * w1 * a1 - 1j * kp * a0 * a2.conjugate(),
            -1j * w2 * a2 - 1j * kp * a0 * a1.conjugate(),
        )

    a0, a1, a2 = s0.as_tuple()
    samples = [(a0, a1, a2)]
    for _ in range(round(t_final / dt)):
        k1 = rhs(a0, a1, a2)
        k2 = rhs(a0 + 0.5 * dt * k1[0], a1 + 0.5 * dt * k1[1],
                 a2 + 0.5 * dt * k1[2])
        k3 = rhs(a0 + 0.5 * dt * k2[0], a1 + 0.5 * dt * k2[1],
                 a2 + 0.5 * dt * k2[2])
        k4 = rhs(a0 + dt * k3[0], a1 + dt * k3[1], a2 + dt * k3[2])
        a0 = a0 + (dt / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        a1 = a1 + (dt / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        a2 = a2 + (dt / 6.0) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        samples.append((a0, a1, a2))
    return np.array(samples, dtype=complex)


class TestBitIdentity:
    """The folded, shared RK4 step changes no bit of a trajectory."""

    @pytest.mark.parametrize("s0,params", [
        (MeanFieldState(2.0 - 0.7j, 0.4 + 0.1j, -0.3j), PARAMS),
        (MeanFieldState(1.5, 0.2, 0.6j), ModeParams(2.0, 1.2, 0.8, kappa_mag=0.3)),
        # the pump-only fixed point: the daughters stay at (signed) zero
        (MeanFieldState(2.5 - 1.0j, 0j, -0j), PARAMS),
        (MeanFieldState(-1.0j, 0.0, 0.0), ModeParams(2.0, 1.2, 0.8, kappa_mag=0.0)),
    ], ids=["generic", "generic-phi0", "fixed-point", "fixed-point-free"])
    def test_matches_unfolded_reference(self, s0, params):
        got = integrate_rk4(s0, params, 2.0, 1e-3).samples
        want = unfolded_rk4(s0, params, 2.0, 1e-3)
        assert got.shape == want.shape
        assert np.all(got == want)
        # == cannot tell -0.0 from 0.0, and the CSVs can
        assert np.array_equal(np.signbit(got.view(float)),
                              np.signbit(want.view(float)))

    def test_blocks_of_5_match_unfolded_reference(self, monkeypatch):
        monkeypatch.setattr(meanfield, "TRAJECTORY_BLOCK_ROWS", 5)
        s0 = MeanFieldState(2.0 - 0.7j, 0.4 + 0.1j, -0.3j)
        got = integrate_rk4(s0, PARAMS, 0.5, 1e-3).samples
        want = unfolded_rk4(s0, PARAMS, 0.5, 1e-3)
        assert np.array_equal(got.view(float), want.view(float))
        assert np.array_equal(np.signbit(got.view(float)),
                              np.signbit(want.view(float)))

    def test_derivatives_match_unfolded_rhs(self):
        s = MeanFieldState(0.3 - 1.1j, -0.7 + 0.2j, 0.5j)
        kp = PARAMS.kappa_prime
        want = (-1j * PARAMS.omega0 * s.alpha0 - 1j * kp.conjugate() * s.alpha1 * s.alpha2,
                -1j * PARAMS.omega1 * s.alpha1 - 1j * kp * s.alpha0 * s.alpha2.conjugate(),
                -1j * PARAMS.omega2 * s.alpha2 - 1j * kp * s.alpha0 * s.alpha1.conjugate())
        assert _rhs(*s.as_tuple(), rhs_coefficients(PARAMS)) == want


class TestInPlaceStepper:
    """The in-place (3, N) step and :func:`rk4_step` on one array per mode
    are the same elementwise operations in the same order."""

    def test_matches_rk4_step_bit_for_bit(self):
        rng = np.random.default_rng(8)
        n = 40
        a = (rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))) * 3.0
        a[:, 0] = 0.0  # a frozen member: zero is a fixed point
        a[1:, 1] = -0.0  # the pump-only fixed point, daughters at signed zero
        a[:, 2] = 1e154  # overflows to inf within a step, then to nan
        a[1, 3] = np.inf
        a[2, 4] = complex(np.nan, 1.0)
        a[0, 5] = 1e120j
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.7, phi=1.1)
        coeffs = rhs_coefficients(params)
        dt = 0.02
        got = a.copy()
        want = tuple(a.copy())
        step = rk4_stepper(n, dt, coeffs)
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(200):
                step(got)
                want = rk4_step(*want, dt, coeffs)
        want = np.array(want)
        assert np.isnan(got[:, 2]).all() and np.isnan(got[:, 3]).any()
        assert np.isfinite(got[:, 6:]).all()
        # raw bits: signed zeros and nan payloads agree too
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(got[:, 0], np.zeros(3))
