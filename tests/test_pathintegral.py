"""Slice kernels, slice products, the discrete action and its stationarity.

Key oracles: the exact truncated-space matrix element of U(eta) for the
per-slice error, the closed-form free-mode overlap for product convergence,
finite differences for action stationarity, and plain algebra for the
interaction-term equivalence.
"""

import cmath
import math

import numpy as np
import pytest

from opasim import meanfield
from opasim.errors import CoarseStepWarning, DivergenceError
from opasim.fockspace import ModeParams, TruncationDims
from opasim.meanfield import MeanFieldState, integrate_rk4
from opasim.pathintegral import (
    LOG_OVERFLOW_LIMIT,
    SlicedPath,
    _slice_kernels,
    classical_action,
    free_mode_path,
    free_propagator_closed_form,
    lagrangian_difference,
    path_from_trajectory,
    product_propagator,
    stationary_propagator,
)
from opasim.quantum import propagator_exact

PARAMS = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.2, phi=0.4)
FREE = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.0)


def random_path(rng, n, scale=0.8, t=1.0):
    labels = scale * (rng.normal(size=(n + 1, 3))
                      + 1j * rng.normal(size=(n + 1, 3)))
    return SlicedPath(t=t, labels=labels)


def looped_product(path, params):
    """The slice product as a per-slice loop with a running log-magnitude
    guard: the reference for the vectorised product."""
    product = 1.0 + 0.0j
    log_mag = 0.0
    for k in _slice_kernels(path.labels, path.eta, params):
        mag = abs(k)
        if mag == 0.0:
            raise DivergenceError("slice product vanished")
        log_mag += np.log(mag)
        if abs(log_mag) > LOG_OVERFLOW_LIMIT:
            raise DivergenceError("slice product log-magnitude overflow")
        product *= k
    return complex(product)


def alternating_path(n, eta=1e-3):
    """Labels +a, -a, +a, ... with |a|^2 = 0.5: every slice's overlap is
    e^{-|2a|^2 / 2} = e^{-1}, so the product's log-magnitude falls by
    about 1 per slice."""
    a = np.array([0.5, 0.5j, 0.0])
    signs = (-1.0) ** np.arange(n + 1)
    return SlicedPath(n * eta, signs[:, None] * a)


def kernel(prev, nxt, eta, params):
    """The one kernel <nxt| (1 - i eta H) |prev> of a two-row label array."""
    return _slice_kernels(np.array([prev, nxt], dtype=complex), eta, params)[0]


class TestSliceKernel:
    def test_vacuum_labels_give_unity(self):
        zero = (0j, 0j, 0j)
        assert kernel(zero, zero, 1e-3, PARAMS) == 1.0

    def test_free_identical_labels(self):
        """K = 1 - i eta w |alpha|^2 when bra = ket and kappa = 0."""
        alpha = 0.7 - 0.4j
        eta = 2e-3
        value = kernel((alpha, 0j, 0j), (alpha, 0j, 0j), eta, FREE)
        expected = 1.0 - 1j * eta * FREE.omega0 * abs(alpha) ** 2
        assert value == pytest.approx(expected, abs=1e-15)

    def test_second_order_error_against_exact_element(self):
        """|<next|e^{-iH eta}|prev> - K| scales as eta^2 per slice.

        The exact element is computed in a truncated space big enough that
        truncation error sits far below the eta^2 signal.
        """
        dims = TruncationDims(12, 12, 12)
        prev = (0.5 + 0.2j, -0.3 + 0.1j, 0.2 - 0.4j)
        nxt = (0.45 + 0.25j, -0.2 + 0.15j, 0.25 - 0.35j)
        diffs = {}
        for eta in (1e-3, 1e-4):
            exact = propagator_exact(PARAMS, dims, prev, nxt, eta)
            diffs[eta] = abs(exact - kernel(prev, nxt, eta, PARAMS))
        ratio = diffs[1e-3] / diffs[1e-4]
        assert 60.0 < ratio < 170.0
        assert diffs[1e-3] < 1e-4

    def test_coarse_step_warns(self):
        """eta * omega0 = 0.4 on a one-slice path."""
        coarse = SlicedPath(0.2, np.full((2, 3), 0.1, dtype=complex))
        with pytest.warns(CoarseStepWarning):
            product_propagator(coarse, PARAMS)

    def test_coarse_step_warning_names_the_caller(self):
        """Both entry points warn at the line that called them."""
        coarse = SlicedPath(0.4, np.full((3, 3), 0.1, dtype=complex))
        with pytest.warns(CoarseStepWarning) as record:
            product_propagator(coarse, PARAMS)
            stationary_propagator((0.1, 0, 0), (0.1, 0, 0), 0.4, PARAMS, 2)
        assert [w.filename for w in record] == [__file__, __file__]

    def test_limit_recovers_pure_overlap(self):
        """As eta -> 0 the kernel tends to the bare coherent overlap."""
        prev = (0.4, 0.2j, -0.1)
        nxt = (0.3, 0.1j, 0.1)
        overlap = kernel(prev, nxt, 1e-9, PARAMS)
        explicit = np.exp(sum(
            -0.5 * abs(b) ** 2 - 0.5 * abs(k) ** 2 + np.conj(b) * k
            for b, k in zip(nxt, prev)))
        assert overlap == pytest.approx(explicit, rel=1e-7)


class TestProductPropagator:
    def test_all_zero_path_is_exactly_one(self):
        # eta*omega0 = 2/n exceeds 0.1 at n = 1 and 5
        with pytest.warns(CoarseStepWarning):
            for n in (1, 5, 128):
                path = SlicedPath(1.0, np.zeros((n + 1, 3), dtype=complex))
                assert product_propagator(path, PARAMS) == 1.0

    def test_single_slice_equals_kernel(self):
        rng = np.random.default_rng(3)
        path = random_path(rng, 1, t=0.01)
        assert product_propagator(path, PARAMS) == kernel(*path.labels, 0.01, PARAMS)

    def test_matches_per_slice_loop_bit_for_bit(self):
        """Random, RK4 and pinned free paths: the same value and sign bits
        as multiplying the kernels one slice at a time."""
        rng = np.random.default_rng(21)
        paths = [random_path(rng, n, scale=0.1, t=n * 1e-3)
                 for n in (1, 2, 7, 64, 1000, 4097)]
        for dt in (1e-2, 1e-3):
            start = MeanFieldState(1.2 - 0.3j, 0.4 + 0.1j, -0.2j)
            paths.append(path_from_trajectory(integrate_rk4(start, PARAMS, 1.0, dt)))
        paths += [free_mode_path(1.3, 2.0, 1.0, n, pinned_end=1.3)
                  for n in (64, 4096)]
        for path in paths:
            for params in (PARAMS, FREE):
                got = product_propagator(path, params)
                want = looped_product(path, params)
                assert got == want
                assert np.signbit([got.real, got.imag]).tolist() == \
                    np.signbit([want.real, want.imag]).tolist()

    def test_free_product_first_order_convergence(self):
        """Pinned-endpoint free path: error vs the closed form halves with n.

        The path follows alpha e^{-i w t} with the final bra label pinned
        back to alpha, so the product approximates <alpha|U(t)|alpha> =
        exp(-|alpha|^2 (1 - e^{-i w t})).
        """
        alpha, omega, t = 1.3, 2.0, 1.0
        exact = free_propagator_closed_form(alpha, alpha, omega, t)
        errors = []
        for n in (64, 128, 256, 512):
            path = free_mode_path(alpha, omega, t, n, pinned_end=alpha)
            errors.append(abs(product_propagator(path, FREE) - exact))
        for coarse, fine in zip(errors, errors[1:]):
            assert 1.6 < coarse / fine < 2.4

    def test_unpinned_classical_path_converges_to_endpoint_propagator(self):
        """On the launched free path the product tends to the propagator
        between the path's own endpoints, which equals exactly 1."""
        alpha, omega, t = 0.9, 2.0, 1.0
        path = free_mode_path(alpha, omega, t, 2048)
        end = alpha * cmath.exp(-1j * omega * t)
        exact = free_propagator_closed_form(alpha, end, omega, t)
        assert exact == pytest.approx(1.0, abs=1e-12)
        assert abs(product_propagator(path, FREE) - exact) < 5e-3

    def test_overflow_guard(self):
        labels = np.zeros((3, 3), dtype=complex)
        labels[1, 0] = 45.0  # overlap magnitude e^{-45^2/2} underflows
        with pytest.raises(DivergenceError):
            product_propagator(SlicedPath(1e-3, labels), PARAMS)

    def test_overflow_guard_is_cumulative(self):
        """No single slice comes near the limit; the running sum of 690
        slices stays inside it, that of 710 leaves it."""
        inside = product_propagator(alternating_path(690), PARAMS)
        assert inside == looped_product(alternating_path(690), PARAMS)
        assert np.log(abs(inside)) == pytest.approx(-690.0, rel=1e-6)
        with pytest.raises(DivergenceError, match="log-magnitude"):
            product_propagator(alternating_path(710), PARAMS)

    def test_overflow_guard_checks_every_prefix(self):
        """310 static slices at |a|^2 = 500 grow the log-magnitude by
        ln|1 - 10i| = 2.31 each, past 700 at slice 304; the final jump by
        10 takes about 48 back off.  The product ends inside the window,
        but it left it on the way."""
        labels = np.zeros((312, 3), dtype=complex)
        labels[:, 0] = np.sqrt(500.0)
        labels[-1, 0] -= 10.0
        path = SlicedPath(3.11, labels)
        magnitudes = np.abs(_slice_kernels(path.labels, path.eta, FREE))
        assert abs(np.sum(np.log(magnitudes))) < LOG_OVERFLOW_LIMIT
        for product in (product_propagator, looped_product):
            with pytest.raises(DivergenceError, match="log-magnitude"):
                product(path, FREE)


class TestClassicalAction:
    def test_static_vacuum_path(self):
        path = SlicedPath(1.0, np.zeros((11, 3), dtype=complex))
        assert classical_action(path, PARAMS) == 0.0

    def test_free_classical_path_action_vanishes(self):
        """L = w|a|^2 - w|a|^2 = 0 on alpha e^{-iwt}; discrete remainder
        is the centered-difference bias, bounded by w^3 |a|^2 t dt^2 / 6."""
        omega, t, n = 2.0, 1.0, 1000
        path = free_mode_path(1.0, omega, t, n)
        action = classical_action(path, FREE)
        bound = omega ** 3 * 1.0 * t * (t / n) ** 2 / 6.0
        assert abs(action) < 2.0 * bound

    def test_additive_under_concatenation(self):
        """Splitting a path at a shared sample splits its action exactly:
        the trapezoid half-weights at the junction rebuild the centered
        difference of the unsplit path."""
        rng = np.random.default_rng(11)
        traj = integrate_rk4(MeanFieldState(1.0, 0.4 - 0.2j, 0.3j),
                             PARAMS, 1.0, 1e-2)
        path = path_from_trajectory(traj)
        labels = path.labels
        mid = 40
        first = SlicedPath(mid * 1e-2, labels[:mid + 1])
        second = SlicedPath(1.0 - mid * 1e-2, labels[mid:])
        total = classical_action(path, PARAMS)
        split_sum = classical_action(first, PARAMS) + classical_action(second, PARAMS)
        assert abs(total - split_sum) < 1e-10

    def test_stationary_along_rk4_path(self):
        """Finite-difference gradient over interior labels ~ 0.

        Interior components of the discrete action gradient reduce to
        dt * [i alpha_dot - dh/dconj(alpha)], which the integrated path
        satisfies to O(dt^2); the norm must sit far below 1e-5 of the
        path norm.
        """
        traj = integrate_rk4(MeanFieldState(1.2, 0.4 - 0.2j, 0.3j),
                             PARAMS, 0.5, 2e-3)
        path = path_from_trajectory(traj)
        labels = path.labels
        eps = 1e-6
        grad = []
        for j in range(1, labels.shape[0] - 1, 10):
            for mode in range(3):
                for direction in (1.0, 1j):
                    bumped = labels.copy()
                    bumped[j, mode] += eps * direction
                    plus = classical_action(SlicedPath(0.5, bumped), PARAMS)
                    bumped = labels.copy()
                    bumped[j, mode] -= eps * direction
                    minus = classical_action(SlicedPath(0.5, bumped), PARAMS)
                    grad.append((plus - minus) / (2 * eps))
        probed = len(range(1, labels.shape[0] - 1, 10)) * 6
        full_count = (labels.shape[0] - 2) * 6
        grad_norm = np.linalg.norm(grad) * np.sqrt(full_count / probed)
        path_norm = np.sqrt(np.sum(np.abs(labels) ** 2) * 2)
        assert grad_norm < 1e-5 * path_norm

    def test_bump_response_is_second_order(self):
        """S(path + eps*bump) - S(path) carries no first-order term."""
        traj = integrate_rk4(MeanFieldState(1.2, 0.4 - 0.2j, 0.3j),
                             PARAMS, 1.0, 1e-3)
        path = path_from_trajectory(traj)
        n_pts = path.labels.shape[0]
        rng = np.random.default_rng(7)
        envelope = np.sin(np.pi * np.linspace(0.0, 1.0, n_pts))[:, None]
        bump = envelope * (rng.normal(size=(n_pts, 3))
                           + 1j * rng.normal(size=(n_pts, 3)))
        bump[0] = bump[-1] = 0.0
        bump_norm = np.linalg.norm(bump)
        base = classical_action(path, PARAMS)
        for eps in (1e-3, 1e-4):
            plus = classical_action(
                SlicedPath(1.0, path.labels + eps * bump), PARAMS)
            minus = classical_action(
                SlicedPath(1.0, path.labels - eps * bump), PARAMS)
            first_order = abs(plus - minus) / (2 * eps)
            quadratic = abs(plus + minus - 2 * base) / eps ** 2
            assert first_order < 1e-6 * bump_norm
            assert quadratic > 1.0  # the response is genuinely second order


class TestActionEquivalence:
    def test_zero_for_matched_coupling(self):
        """The phenomenological interaction with eta = -kappa' reproduces
        the original Lagrangian identically, sample by sample."""
        rng = np.random.default_rng(2)
        for _ in range(20):
            path = random_path(rng, 16)
            gap = lagrangian_difference(path, PARAMS, -PARAMS.kappa_prime).max()
            assert gap < 1e-12

    def test_zero_when_uncoupled(self):
        rng = np.random.default_rng(4)
        path = random_path(rng, 8)
        assert lagrangian_difference(path, FREE, 0j).max() == 0.0

    def test_positive_for_flipped_sign(self):
        rng = np.random.default_rng(6)
        path = random_path(rng, 8)
        assert lagrangian_difference(path, PARAMS, PARAMS.kappa_prime).max() > 1e-3


class TestStationaryPropagator:
    def test_zero_time(self):
        start = (0.5 + 0j, 0.1j, -0.2 + 0j)
        result = stationary_propagator(start, start, 0.0, PARAMS, 64)
        assert result.value == 1.0
        assert result.endpoint == start
        assert result.endpoint_gap == 0.0

    def test_free_case_converges_to_exact_phase(self):
        """kappa = 0 with alpha_b the free image of alpha_a: the product
        approaches the exact propagator (= 1) as n grows."""
        alpha_a = (0.9 + 0j, 0j, 0j)
        t = 1.0
        image = (0.9 * cmath.exp(-1j * FREE.omega0 * t), 0j, 0j)
        exact = free_propagator_closed_form(alpha_a[0], image[0],
                                            FREE.omega0, t)
        errors = []
        for n in (128, 512, 2048):
            result = stationary_propagator(alpha_a, image, t, FREE, n)
            assert result.endpoint_gap < 1e-9
            errors.append(abs(result.value - exact))
        assert errors[2] < errors[1] < errors[0]
        assert errors[2] < 5e-3

    def test_weak_coupling_matches_exact_propagator(self):
        """kappa t = 0.1, |alpha| <= 1: slice product on the classical path
        agrees with the truncated-space propagator to the achieved endpoint
        within 0.05 (no fluctuation prefactor is computed)."""
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.1)
        alpha_a = (0.8 + 0j, 0.5 + 0j, -0.3j)
        result = stationary_propagator(alpha_a, alpha_a, 1.0, params, 1024)
        dims = TruncationDims(10, 10, 10)
        exact = propagator_exact(params, dims, alpha_a, result.endpoint, 1.0)
        assert abs(result.value - exact) < 0.05

    def test_divergence_propagates(self):
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=5.0)
        with pytest.raises(DivergenceError):
            stationary_propagator((4.0, 2.0, 2.0), (0, 0, 0), 100.0, params, 10)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_time(self, t):
        with pytest.raises(ValueError, match="^t must be finite"):
            stationary_propagator((0.5, 0, 0), (0.5, 0, 0), t, PARAMS, 8)

    @pytest.mark.parametrize("block_rows", [None, 5], ids=["default-blocks", "blocks-of-5"])
    def test_streamed_matches_product_on_integrated_path(self, block_rows, monkeypatch):
        """Around every block seam, value and endpoint are the same bits as
        the product along the whole integrated path."""
        alpha_a = (0.8 - 0.1j, 0.5 + 0.2j, -0.3j)
        if block_rows is not None:
            monkeypatch.setattr(meanfield, "TRAJECTORY_BLOCK_ROWS", block_rows)
        b, t = meanfield.TRAJECTORY_BLOCK_ROWS, 0.04
        for n in (1, b - 1, b, b + 1, 3 * b + 5):
            traj = integrate_rk4(MeanFieldState(*alpha_a), PARAMS, t, t / n)
            want = product_propagator(path_from_trajectory(traj), PARAMS)
            got = stationary_propagator(alpha_a, alpha_a, t, PARAMS, n)
            assert got.value == want
            assert np.signbit([got.value.real, got.value.imag]).tolist() == \
                np.signbit([want.real, want.imag]).tolist()
            assert got.endpoint == tuple(traj.samples[-1].tolist())

    def test_multi_block_run_warns_once(self, monkeypatch):
        """eta * omega0 = 0.5: coarse in every one of the 6 blocks, and
        reported once, at the caller."""
        monkeypatch.setattr(meanfield, "TRAJECTORY_BLOCK_ROWS", 4)
        with pytest.warns(CoarseStepWarning) as record:
            stationary_propagator((0.3, 0.1, 0), (0.3, 0.1, 0), 5.0, FREE, 20)
        assert [w.filename for w in record] == [__file__]


class TestSlicedPathType:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SlicedPath(1.0, np.zeros((1, 3), dtype=complex))
        with pytest.raises(ValueError):
            SlicedPath(1.0, np.zeros((4, 2), dtype=complex))
        for t in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="duration"):
                SlicedPath(t, np.zeros((4, 3), dtype=complex))

    def test_from_trajectory_metadata(self):
        traj = integrate_rk4(MeanFieldState(1.0, 0.1, 0.0), PARAMS, 0.5, 0.01)
        path = path_from_trajectory(traj)
        assert path.t == pytest.approx(0.5)
        assert path.n_slices == 50
        assert path.eta == pytest.approx(0.01)
