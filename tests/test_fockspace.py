"""Operator algebra, coherent states and Hamiltonian assembly.

Derived expectations come from independent oracles computed in the tests
themselves: direct matrix multiplication for commutators, explicit series
summation for coherent overlaps, conjugate transposition for Hermiticity.
"""

import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import gammaln

from opasim.errors import DivergenceError, ResourceLimitError, TruncationWarning
from opasim.fockspace import (
    ModeParams,
    TruncationDims,
    _embedded,
    build_annihilation,
    build_hamiltonian,
    build_hamiltonian_sparse,
    coherent_amplitudes,
    coherent_state,
    occupation_arrays,
    product_coherent_state,
)

RNG = np.random.default_rng(101)


def flat_index(n0, n1, n2, dims):
    """Position of |n0, n1, n2> in the mode-0-slowest basis."""
    return int(np.ravel_multi_index((n0, n1, n2), (dims.d0, dims.d1, dims.d2)))


def random_params(rng, kappa_max=0.5, pump=0j):
    w1 = rng.uniform(0.5, 2.0)
    w2 = rng.uniform(0.5, 2.0)
    return ModeParams(w1 + w2, w1, w2,
                      kappa_mag=rng.uniform(0.0, kappa_max),
                      phi=rng.uniform(0.0, 2.0 * np.pi),
                      pump_alpha0=pump)


class TestAnnihilation:
    def test_d2_matrix(self):
        """a on a 2-level ladder is [[0, 1], [0, 0]]."""
        np.testing.assert_array_equal(build_annihilation(2),
                                      np.array([[0, 1], [0, 0]], dtype=complex))

    def test_d3_superdiagonal(self):
        """Superdiagonal carries sqrt(1), sqrt(2)."""
        a = build_annihilation(3)
        assert a[0, 1] == 1.0
        assert a[1, 2] == pytest.approx(1.4142135623730951, abs=0)
        assert np.count_nonzero(a) == 2

    @pytest.mark.parametrize("d", [1, 0, -3])
    def test_rejects_small_dimension(self, d):
        with pytest.raises(ValueError):
            build_annihilation(d)

    @pytest.mark.parametrize("d", range(2, 17))
    def test_commutator_truncation_artifact(self, d):
        """[a, a+] is the identity except entry (d-1, d-1) = -(d-1).

        Oracle: direct matrix multiplication; the corner value is forced
        by the missing level d.
        """
        a = build_annihilation(d)
        comm = a @ a.conj().T - a.conj().T @ a
        expected = np.eye(d, dtype=complex)
        expected[d - 1, d - 1] = -(d - 1)
        np.testing.assert_allclose(comm, expected, rtol=0,
                                   atol=4 * d * np.finfo(float).eps)


class TestEmbedding:
    """The Kronecker embedding the Hamiltonian builder lifts each mode's
    ladder operator with."""

    def test_identity_embeds_to_identity(self):
        dims = TruncationDims(2, 3, 4)
        for mode in range(3):
            op = _embedded(np.eye(dims.dim(mode)), mode, dims)
            np.testing.assert_array_equal(op.toarray(), np.eye(dims.total))

    def test_number_operator_on_basis_state(self):
        """n1 embedded in dims (2,3,2) gives eigenvalue n1 on every |n0, n1, n2>."""
        dims = TruncationDims(2, 3, 2)
        a = build_annihilation(3)
        n1 = _embedded(a.conj().T @ a, 1, dims).toarray()
        for n in np.ndindex(2, 3, 2):
            psi = np.zeros(dims.total)
            psi[flat_index(*n, dims)] = 1.0
            np.testing.assert_allclose(n1 @ psi, n[1] * psi, rtol=0, atol=1e-15)

    def test_operators_on_different_modes_commute(self):
        """[embed(a1), embed(a2+)] = 0 on dims (2,3,3), by direct product."""
        dims = TruncationDims(2, 3, 3)
        a1 = _embedded(build_annihilation(3), 1, dims).toarray()
        a2_dag = _embedded(build_annihilation(3).conj().T, 2, dims).toarray()
        comm = a1 @ a2_dag - a2_dag @ a1
        np.testing.assert_allclose(comm, 0, atol=1e-15)

    def test_basis_ordering_mode0_slowest(self):
        dims = TruncationDims(2, 3, 4)
        assert flat_index(1, 2, 3, dims) == (1 * 3 + 2) * 4 + 3
        n0, n1, n2 = occupation_arrays(dims)
        idx = flat_index(1, 0, 2, dims)
        assert (n0[idx], n1[idx], n2[idx]) == (1, 0, 2)


class TestHamiltonian:
    def test_uncoupled_is_diagonal_number_sum(self):
        """With kappa = 0 the matrix is diag(w0 n0 + w1 n1 + w2 n2)."""
        dims = TruncationDims(3, 2, 4)
        params = ModeParams(2.0, 1.25, 0.75, kappa_mag=0.0)
        h = build_hamiltonian(params, dims)
        n0, n1, n2 = occupation_arrays(dims)
        expected = np.diag(2.0 * n0 + 1.25 * n1 + 0.75 * n2)
        np.testing.assert_allclose(h, expected, atol=1e-15)

    def test_single_pair_creation_matrix_element(self):
        """<n0-1, n1+1, n2+1| H |n0, n1, n2> = kappa' sqrt(n0 (n1+1) (n2+1))
        for every coupled pair on (3,4,3), and H has no other off-diagonal
        entry."""
        dims = TruncationDims(3, 4, 3)
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.37, phi=1.1)
        h = build_hamiltonian(params, dims)
        coupled = np.zeros_like(h)
        for n0, n1, n2 in np.ndindex(3, 3, 2):
            if n0 == 0:
                continue
            pair = (flat_index(n0 - 1, n1 + 1, n2 + 1, dims),
                    flat_index(n0, n1, n2, dims))
            want = params.kappa_prime * math.sqrt(n0 * (n1 + 1) * (n2 + 1))
            assert h[pair] == pytest.approx(want, rel=1e-14, abs=0)
            coupled[pair] = h[pair]
        np.testing.assert_array_equal(h - np.diag(np.diag(h)),
                                      coupled + coupled.conj().T)

    def test_hermitian_for_random_parameters(self):
        """max|H - H^+| stays below 1e-14, conjugate-transpose oracle."""
        dims = TruncationDims(3, 3, 3)
        for _ in range(25):
            h = build_hamiltonian(random_params(RNG), dims)
            assert np.max(np.abs(h - h.conj().T)) < 1e-14

    def test_zero_point_shifts_diagonal(self):
        dims = TruncationDims(2, 2, 2)
        base = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.2)
        shifted = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.2,
                             include_zero_point=True)
        h0 = build_hamiltonian(base, dims)
        h1 = build_hamiltonian(shifted, dims)
        np.testing.assert_allclose(
            h1 - h0, 0.5 * (2.0 + 1.2 + 0.8) * np.eye(dims.total), atol=1e-15)

    def test_commutes_with_conserved_charges_away_from_boundary(self):
        """[H, Q] annihilates states with every n_j <= d_j - 2.

        Q runs over n0+n1, n0+n2, n1-n2; the interaction moves occupations
        by (-1,+1,+1) so each Q is untouched.
        """
        dims = TruncationDims(4, 4, 4)
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.4, phi=0.3)
        h = build_hamiltonian(params, dims)
        n0, n1, n2 = occupation_arrays(dims)
        charges = [np.diag((n0 + n1).astype(complex)),
                   np.diag((n0 + n2).astype(complex)),
                   np.diag((n1 - n2).astype(complex))]
        rng = np.random.default_rng(5)
        interior = (n0 <= dims.d0 - 2) & (n1 <= dims.d1 - 2) & (n2 <= dims.d2 - 2)
        psi = rng.normal(size=dims.total) + 1j * rng.normal(size=dims.total)
        psi[~interior] = 0.0
        psi /= np.linalg.norm(psi)
        for q in charges:
            residual = (h @ q - q @ h) @ psi
            assert np.linalg.norm(residual) < 1e-10

    def test_commutes_with_manley_rowe_charges(self):
        """max|[H, N0+N1]| and max|[H, N0+N2]| <= 1e-12 on the whole
        truncated space, at random parameters.

        Oracle: N_j = a_j+ a_j from build_annihilation, embedded here by
        np.kron; the charges are checked on the operator itself, with no
        help from the charge-sector route.
        """
        dims = TruncationDims(3, 4, 3)
        sizes = (dims.d0, dims.d1, dims.d2)
        numbers = []
        for mode, d in enumerate(sizes):
            a = build_annihilation(d)
            factors = [a.conj().T @ a if m == mode else np.eye(sizes[m])
                       for m in range(3)]
            numbers.append(np.kron(factors[0], np.kron(factors[1], factors[2])))
        rng = np.random.default_rng(7)
        for _ in range(10):
            h = build_hamiltonian(random_params(rng), dims)
            for q in (numbers[0] + numbers[1], numbers[0] + numbers[2]):
                assert np.max(np.abs(h @ q - q @ h)) <= 1e-12

    def test_sparse_matches_dense(self):
        dims = TruncationDims(3, 4, 3)
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.3, phi=0.9)
        dense = build_hamiltonian(params, dims)
        np.testing.assert_allclose(
            build_hamiltonian_sparse(params, dims).toarray(), dense, atol=0)

    def test_dense_limit_guard(self):
        dims = TruncationDims(32, 32, 32)  # 32768 states
        params = ModeParams(2.0, 1.2, 0.8)
        with pytest.raises(ResourceLimitError):
            build_hamiltonian(params, dims)


class TestCoherentStates:
    def test_vacuum_label(self):
        psi = coherent_state(0.0, 12)
        expected = np.zeros(12)
        expected[0] = 1.0
        np.testing.assert_array_equal(psi, expected)

    def test_ground_amplitude_closed_form(self):
        """c0 = e^{-1/2} for alpha = 1 (truncation negligible at d = 40)."""
        psi = coherent_state(1.0, 40)
        assert psi[0] == pytest.approx(0.6065306597126334, abs=1e-12)

    def test_overlap_matches_series_oracle(self):
        """<1|0.5> against both the closed form and an explicit series sum.

        Closed form e^{-1/2 - 1/8 + 0.5} = e^{-0.125}; the series oracle
        sums conj(c_n(1)) c_n(0.5) with factorial terms computed directly.
        """
        d = 40
        lhs = complex(np.vdot(coherent_state(1.0, d), coherent_state(0.5, d)))
        series = sum(
            (1.0 ** n) * (0.5 ** n) / math.factorial(n) for n in range(d)
        ) * math.exp(-0.5 * (1.0 + 0.25))
        assert lhs == pytest.approx(series, abs=1e-12)
        assert lhs == pytest.approx(0.8824969025845955, abs=1e-10)

    def test_truncation_threshold_warns(self):
        with pytest.warns(TruncationWarning):
            coherent_state(3.0, 16)  # the ladder loses 1.1e-2 of its norm

    @pytest.mark.parametrize("alpha,d", [
        (1.0, 40), (2.0, 28), (2.6457513110645907, 28), (3.1622776601683795, 40),
    ])
    def test_norm_deficit_small_below_threshold(self, alpha, d):
        """Raw norm >= 1 - 1e-8 for |alpha|^2 <= d/4, d >= 28.

        The last two labels saturate |alpha|^2 = d/4 exactly.  Below
        d ~ 28 the Poisson tail past the top level exceeds 1e-8 even at
        the threshold, so the bound genuinely needs these ladder sizes.
        """
        raw = coherent_amplitudes(alpha, d)
        assert abs(alpha) ** 2 <= d / 4 + 1e-12
        assert np.linalg.norm(raw) >= 1.0 - 1e-8

    def test_returned_state_is_normalized(self):
        with pytest.warns(TruncationWarning):
            psi = coherent_state(2.5, 10)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [3.0 - 1.0j, 38.0])
    def test_plain_recurrence_kept_while_ground_amplitude_is_nonzero(self, alpha):
        """Bit for bit the recurrence c_n = c_{n-1} alpha / sqrt(n) on
        complex128 entries, down to alpha = 38, where exp(-|alpha|^2/2) is
        subnormal, so that no CSV built on it moves."""
        d = 1700
        expected = np.empty(d, dtype=complex)
        expected[0] = math.exp(-0.5 * abs(alpha) ** 2)
        for n in range(1, d):
            expected[n] = expected[n - 1] * alpha / math.sqrt(n)
        raw = coherent_amplitudes(alpha, d)
        assert raw[0] > 0
        assert raw.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("alpha,d", [(40.0, 4), (1e10, 4), (-40.0j, 3)],
                             ids=["alpha-40", "alpha-1e10", "imaginary-alpha-40"])
    def test_ladder_without_weight_raises(self, alpha, d):
        """Every amplitude underflows to zero, so there is no state to
        normalise: a DivergenceError, with no truncation warning first and
        no NaN state."""
        assert not coherent_amplitudes(alpha, d).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match=f"no weight on a {d}-level"):
                coherent_state(alpha, d)

    @pytest.mark.parametrize("alpha", [math.nan, complex(math.inf, 0.0),
                                       complex(0.5, -math.inf)])
    def test_non_finite_label_raises(self, alpha):
        """A value error, raised before any amplitude is computed: no NaN
        vector and no RuntimeWarning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be finite"):
                coherent_state(alpha, 6)

    @pytest.mark.parametrize("alpha", [40.0, 40.0 * cmath.exp(0.7j)])
    def test_large_label_does_not_underflow(self, alpha):
        """exp(-|alpha|^2/2) = exp(-800) underflows to 0, yet the state is
        finite, of unit norm, Poisson with mean |alpha|^2, and matches a
        log-gamma reference."""
        d = 2021  # |alpha|^2 + 10 |alpha| + 20
        assert math.exp(-0.5 * abs(alpha) ** 2) == 0.0
        psi = coherent_state(alpha, d)
        n = np.arange(d)
        log_mag = -0.5 * abs(alpha) ** 2 + n * math.log(abs(alpha)) - 0.5 * gammaln(n + 1)
        reference = np.exp(log_mag + 1j * n * cmath.phase(alpha))
        reference /= np.linalg.norm(reference)
        assert np.all(np.isfinite(psi))
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        assert float(np.sum(n * np.abs(psi) ** 2)) == pytest.approx(abs(alpha) ** 2,
                                                                    rel=1e-12)
        np.testing.assert_allclose(psi, reference, rtol=0, atol=1e-12)


class TestProductStates:
    def test_triple_vacuum(self):
        dims = TruncationDims(3, 3, 3)
        psi = product_coherent_state(0.0, 0.0, 0.0, dims)
        assert psi[0] == 1.0
        assert np.count_nonzero(psi) == 1

    def test_amplitudes_factorize(self):
        dims = TruncationDims(6, 7, 8)
        a0, a1, a2 = 0.4 + 0.2j, -0.3j, 0.5
        psi = product_coherent_state(a0, a1, a2, dims)
        c0 = coherent_state(a0, dims.d0)
        c1 = coherent_state(a1, dims.d1)
        c2 = coherent_state(a2, dims.d2)
        for n0, n1, n2 in [(0, 0, 0), (2, 1, 3), (5, 6, 7), (1, 0, 4)]:
            assert psi[flat_index(n0, n1, n2, dims)] == pytest.approx(
                c0[n0] * c1[n1] * c2[n2], abs=1e-15)

    def test_mode_occupancies_match_labels(self):
        """<n_j> = |alpha_j|^2 up to truncation error (expectation oracle)."""
        dims = TruncationDims(16, 14, 12)
        labels = (1.1 - 0.3j, 0.8j, -0.6)
        psi = product_coherent_state(*labels, dims)
        occs = occupation_arrays(dims)
        for mode, label in enumerate(labels):
            value = float(np.sum(occs[mode] * np.abs(psi) ** 2))
            assert value == pytest.approx(abs(label) ** 2, rel=1e-8)


class TestParameterValidation:
    def test_frequency_matching_enforced(self):
        with pytest.raises(ValueError, match="frequency matching"):
            ModeParams(2.0, 1.5, 1.0)

    @pytest.mark.parametrize("omegas", [(1.3, 0.7, 0.6), (2.0 + 5e-13, 1.2, 0.8)],
                             ids=["by-rounding", "5e-13"])
    def test_near_resonance_stored_exact(self, omegas):
        """A mismatch within the tolerance is stored as exact resonance,
        bit for bit; one past it is still rejected."""
        params = ModeParams(*omegas)
        assert params.omega0 == params.omega1 + params.omega2
        assert params.omegas == (omegas[1] + omegas[2], *omegas[1:])
        with pytest.raises(ValueError, match="frequency matching"):
            ModeParams(omegas[0] + 2e-12, *omegas[1:])

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError, match="kappa"):
            ModeParams(2.0, 1.0, 1.0, kappa_mag=-0.1)

    def test_kappa_prime_folds_phase(self):
        params = ModeParams(2.0, 1.0, 1.0, kappa_mag=0.5, phi=np.pi / 2)
        assert params.kappa_prime == pytest.approx(-0.5j, abs=1e-15)

    def test_dims_require_at_least_two_levels(self):
        with pytest.raises(ValueError):
            TruncationDims(1, 2, 2)

    def test_dims_cap_enforced(self):
        """Dims alone are not capped; building one entry per basis state is,
        before anything is allocated."""
        dims = TruncationDims(100, 100, 100)
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.3)
        for build in (lambda: product_coherent_state(0.5, 0.3, 0.0, dims),
                      lambda: occupation_arrays(dims),
                      lambda: build_hamiltonian_sparse(params, dims)):
            tracemalloc.start()
            try:
                with pytest.raises(ResourceLimitError, match="exceeds cap"):
                    build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20  # a dense state would take 16 MB
