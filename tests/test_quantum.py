"""Unitary evolution, exact propagators and vacuum fluorescence.

Oracles used here: closed-form free-mode overlaps, the mode-1/mode-2
exchange symmetry of the coupled system, conservation laws forced by the
interaction's selection rule, the hyperbolic gain law of the linearized
(undepleted pump) dynamics, and the generic eigh/Krylov propagation of the
assembled Hamiltonian as the oracle for the charge-sector route.
"""

import numpy as np
import pytest
from scipy.sparse.linalg import expm_multiply

from opasim.errors import ResourceLimitError, TruncationWarning
from opasim.fockspace import (
    ModeParams,
    TruncationDims,
    basis_state,
    build_hamiltonian,
    build_hamiltonian_sparse,
    product_coherent_state,
)
from opasim.quantum import (
    chain_rule_compose,
    evolve_state,
    expectation_number,
    fluorescence_from_vacuum,
    propagator_exact,
    single_mode_propagator,
    system_hamiltonian,
    top_level_population,
)


def free_overlap(alpha_a, alpha_b, omega, t):
    """Untruncated <alpha_b| e^{-i omega n t} |alpha_a>, used as an oracle."""
    return np.exp(-0.5 * abs(alpha_b) ** 2 - 0.5 * abs(alpha_a) ** 2
                  + np.conj(alpha_b) * alpha_a * np.exp(-1j * omega * t))


class TestEvolveState:
    def test_zero_time_returns_initial_state(self):
        dims = TruncationDims(3, 3, 3)
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.3)
        with pytest.warns(TruncationWarning):  # every ladder is cut at d = 3
            psi0 = product_coherent_state(0.5, 0.3, 0.2j, dims)
        result = evolve_state(build_hamiltonian(params, dims), psi0, 0.0, 1,
                              dims=dims)
        np.testing.assert_allclose(result.states[0], psi0, atol=1e-14)

    def test_free_evolution_conserves_occupation(self):
        """kappa = 0: <n_j>(t) stays at |alpha_j|^2 for all t."""
        dims = TruncationDims(12, 10, 2)
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.0)
        psi0 = product_coherent_state(1.0, 0.8, 0.0, dims)
        h = build_hamiltonian(params, dims)
        result = evolve_state(h, psi0, 5.0, 11, dims=dims)
        for k in range(11):
            np.testing.assert_allclose(result.expectations[k],
                                       result.expectations[0], atol=1e-10)

    def test_twin_photon_growth_symmetric(self):
        """dims (8,12,12), kappa=0.1, pump alpha0=2: <n1> = <n2> to 1e-8."""
        dims = TruncationDims(8, 12, 12)
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.1, pump_alpha0=2.0)
        with pytest.warns(TruncationWarning):  # the pump ladder keeps 97.4%
            result = fluorescence_from_vacuum(params, dims, 1.0, 5)
        gap = np.abs(result.expectations[:, 1] - result.expectations[:, 2])
        assert np.max(gap) < 1e-8
        assert result.expectations[-1, 1] > 1e-3  # actual growth happened

    def test_mode_swap_oracle(self):
        """Swapping signal/idler roles swaps <n1> and <n2> exactly.

        The swapped system is an independent evolution of the relabelled
        Hamiltonian, not a re-read of the same data.
        """
        dims = TruncationDims(6, 9, 7)
        params = ModeParams(2.0, 1.3, 0.7, kappa_mag=0.15, pump_alpha0=1.5)
        sdims = dims.swapped()
        sparams = params.swapped()
        with pytest.warns(TruncationWarning):  # the pump ladder is cut at d0 = 6
            psi0 = product_coherent_state(1.5, 0.4, 0.1j, dims)
            swapped_psi0 = product_coherent_state(1.5, 0.1j, 0.4, sdims)
        base = evolve_state(build_hamiltonian(params, dims), psi0, 2.0, 7,
                            dims=dims)
        swapped = evolve_state(build_hamiltonian(sparams, sdims), swapped_psi0,
                               2.0, 7, dims=sdims)
        np.testing.assert_allclose(base.expectations[:, 1],
                                   swapped.expectations[:, 2], atol=1e-10)
        np.testing.assert_allclose(base.expectations[:, 2],
                                   swapped.expectations[:, 1], atol=1e-10)
        np.testing.assert_allclose(base.expectations[:, 0],
                                   swapped.expectations[:, 0], atol=1e-10)

    def test_unitarity_energy_and_charges(self):
        """Random boundary-safe states: norm 1e-9, charges/energy conserved."""
        dims = TruncationDims(5, 5, 5)
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.3, phi=0.5)
        h = build_hamiltonian(params, dims)
        rng = np.random.default_rng(17)
        from opasim.fockspace import occupation_arrays
        n0, n1, n2 = occupation_arrays(dims)
        interior = (n0 <= 2) & (n1 <= 2) & (n2 <= 2)
        charges = [n0 + n1, n0 + n2, n1 - n2]
        for _ in range(5):
            psi = rng.normal(size=dims.total) + 1j * rng.normal(size=dims.total)
            psi[~interior] = 0.0
            psi /= np.linalg.norm(psi)
            result = evolve_state(h, psi, 4.0, 9, dims=dims)
            assert result.max_norm_deviation < 1e-9
            energies = result.energies
            scale = max(abs(energies[0]), 1.0)
            assert np.max(np.abs(energies - energies[0])) / scale < 1e-8
            probs = np.abs(result.states) ** 2
            for q in charges:
                series = probs @ q
                qscale = max(abs(series[0]), 1.0)
                assert np.max(np.abs(series - series[0])) / qscale < 1e-7

    def test_sparse_route_matches_dense(self):
        """Krylov propagation agrees with eigendecomposition to 1e-10."""
        dims = TruncationDims(4, 5, 4)
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.25, pump_alpha0=1.0)
        with pytest.warns(TruncationWarning):  # the pump ladder is cut at d0 = 4
            psi0 = product_coherent_state(1.0, 0.2, 0.1, dims)
        dense = evolve_state(build_hamiltonian(params, dims), psi0, 3.0, 7,
                             dims=dims)
        sparse_res = evolve_state(build_hamiltonian_sparse(params, dims),
                                  psi0, 3.0, 7, dims=dims)
        np.testing.assert_allclose(sparse_res.states, dense.states, atol=1e-10)

    def test_non_hermitian_rejected(self):
        h = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            evolve_state(h, np.array([1.0, 0.0], dtype=complex), 1.0, 2)

    def test_sample_cap_checked_before_allocating(self):
        dims = TruncationDims(8, 8, 8)
        psi0 = product_coherent_state(0.5, 0.0, 0.0, dims)
        h = system_hamiltonian(ModeParams(2.0, 1.0, 1.0, kappa_mag=0.1), dims)
        with pytest.raises(ResourceLimitError, match="cap"):
            evolve_state(h, psi0, 1.0, 10 ** 12, dims=dims)

    def test_dimension_mismatch_rejected(self):
        dims = TruncationDims(2, 2, 2)
        params = ModeParams(2.0, 1.0, 1.0)
        h = build_hamiltonian(params, dims)
        with pytest.raises(ValueError, match="mismatch"):
            evolve_state(h, np.zeros(4, dtype=complex), 1.0, 2)


class TestSectorRoute:
    """The charge-sector propagation against eigh/Krylov of the assembled H."""

    PHI = float(np.random.default_rng(23).uniform(-np.pi, np.pi))

    @pytest.mark.parametrize("dims", [
        TruncationDims(9, 5, 4), TruncationDims(4, 9, 5), TruncationDims(5, 4, 9),
    ], ids=["pump-largest", "signal-largest", "idler-largest"])
    @pytest.mark.parametrize("params", [
        ModeParams(2.0, 1.3, 0.7, kappa_mag=0.25, phi=PHI, pump_alpha0=1.5),
        ModeParams(2.0, 1.3, 0.7, kappa_mag=0.0, phi=PHI, pump_alpha0=1.5),
        ModeParams(2.0, 1.3, 0.7, kappa_mag=0.4, phi=-2.0, pump_alpha0=1.5,
                   include_zero_point=True),
    ], ids=["random-phi", "uncoupled", "zero-point"])
    @pytest.mark.filterwarnings("ignore::opasim.errors.TruncationWarning")
    def test_matches_oracle(self, dims, params):
        """States, energies and expectations agree to 1e-10.

        The vacuum signal/idler state touches only the chains with
        n1 = n2, so the route skips all the others; the random state
        occupies every chain.
        """
        rng = np.random.default_rng(dims.total)
        generic = rng.normal(size=dims.total) + 1j * rng.normal(size=dims.total)
        vacuum_pair = product_coherent_state(params.pump_alpha0, 0, 0, dims)
        for psi0 in (vacuum_pair, generic / np.linalg.norm(generic)):
            sector = evolve_state(system_hamiltonian(params, dims), psi0, 3.0, 7,
                                  dims=dims)
            oracle = evolve_state(build_hamiltonian_sparse(params, dims), psi0,
                                  3.0, 7, dims=dims)
            np.testing.assert_allclose(sector.states, oracle.states, atol=1e-10)
            np.testing.assert_allclose(sector.energies, oracle.energies,
                                       atol=1e-10)
            np.testing.assert_allclose(sector.expectations, oracle.expectations,
                                       atol=1e-10)

    def test_propagator_above_dense_limit(self):
        """1320 states, past the dense-eigh size: matches expm_multiply."""
        dims = TruncationDims(12, 11, 10)
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.2, phi=self.PHI)
        alpha_a, alpha_b, t = (1.2, 0.5j, -0.3), (1.1 - 0.2j, 0.4, 0.2j), 1.7
        psi_a = product_coherent_state(*alpha_a, dims)
        psi_b = product_coherent_state(*alpha_b, dims)
        reference = np.vdot(psi_b, expm_multiply(
            -1j * t * build_hamiltonian_sparse(params, dims), psi_a))
        value = propagator_exact(params, dims, alpha_a, alpha_b, t)
        assert abs(value - reference) < 1e-10

    @pytest.mark.filterwarnings("ignore::opasim.errors.TruncationWarning")
    def test_leakage_is_top_level_population(self):
        dims = TruncationDims(5, 5, 5)
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.3, pump_alpha0=2.0)
        result = fluorescence_from_vacuum(params, dims, 2.0, 5)
        assert result.leakage.shape == (5,)
        assert result.leakage[-1] > 1e-6
        for k in range(5):
            assert result.leakage[k] == top_level_population(result.states[k],
                                                             dims)


class TestExpectationNumber:
    def test_vacuum(self):
        dims = TruncationDims(3, 3, 3)
        assert expectation_number(basis_state(0, 0, 0, dims), 1, dims) == 0.0

    def test_coherent_label_squared(self):
        """Mode-1 coherent state with alpha = 1.5 at d1 = 40 gives 2.25."""
        dims = TruncationDims(2, 40, 2)
        psi = product_coherent_state(0.0, 1.5, 0.0, dims)
        assert expectation_number(psi, 1, dims) == pytest.approx(2.25, abs=1e-6)

    def test_basis_state_occupations(self):
        dims = TruncationDims(4, 5, 3)
        psi = basis_state(2, 3, 1, dims)
        values = [expectation_number(psi, m, dims) for m in range(3)]
        assert values == [2.0, 3.0, 1.0]

    def test_dims_mismatch_rejected(self):
        dims = TruncationDims(2, 2, 2)
        with pytest.raises(ValueError):
            expectation_number(np.zeros(5, dtype=complex), 0, dims)


class TestPropagatorExact:
    def test_identity_at_zero_time(self):
        dims = TruncationDims(6, 6, 6)
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.2)
        labels = (0.5, 0.3j, -0.2)
        value = propagator_exact(params, dims, labels, labels, 0.0)
        assert value == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.5, 1.0 + 0.5j, 1.5])
    def test_free_single_mode_closed_form(self, alpha):
        """kappa = 0, modes 1 and 2 in vacuum: matches the free overlap."""
        dims = TruncationDims(40, 2, 2)
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.0)
        t = 0.7
        value = propagator_exact(params, dims, (alpha, 0, 0), (alpha, 0, 0), t)
        expected = free_overlap(alpha, alpha, 2.0, t)
        assert value == pytest.approx(expected, abs=1e-8)

    def test_single_mode_helper_matches_closed_form(self):
        value = single_mode_propagator(1.3, 0.9, 0.4 - 0.2j, 1.1, 40)
        expected = free_overlap(0.9, 0.4 - 0.2j, 1.3, 1.1)
        assert value == pytest.approx(expected, abs=1e-10)

    def test_chain_rule_composition(self):
        """Resolving the identity at t/2 reproduces the direct propagator.

        Oracle: the direct U(t) matrix element; the composed value carries
        only coherent-grid quadrature error.
        """
        omega, t, d = 2.0, 0.9, 40
        for alpha_a, alpha_b in [(0.7 + 0.2j, 0.5 - 0.3j), (1.2, -0.8j)]:
            direct = single_mode_propagator(omega, alpha_a, alpha_b, t, d)
            composed = chain_rule_compose(omega, alpha_a, alpha_b, t, d)
            assert abs(direct - composed) < 1e-5


class TestFluorescence:
    def test_uncoupled_vacuum_stays_dark(self):
        dims = TruncationDims(8, 4, 4)
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.0, pump_alpha0=1.5)
        with pytest.warns(TruncationWarning):  # the pump ladder is cut at d0 = 8
            result = fluorescence_from_vacuum(params, dims, 2.0, 5)
        assert np.max(result.expectations[:, 1:]) < 1e-12

    def test_gain_matches_hyperbolic_law_at_low_depletion(self):
        """<n1>(t) tracks sinh^2(gt) within 2% while depletion stays < 1%.

        Pump truncation is converged here (d0 = 24 for |alpha0|^2 = 9), so
        the only deviations are genuine quantum/depletion corrections.
        """
        alpha0, kappa = 3.0, 0.1
        g = kappa * alpha0
        dims = TruncationDims(24, 10, 10)
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=kappa, pump_alpha0=alpha0)
        # 1.2e-5 of the pump's norm lies above d0 = 24
        with pytest.warns(TruncationWarning):
            result = fluorescence_from_vacuum(params, dims, 0.3 / g, 4)
        for k in range(1, 4):
            gt = g * result.times[k]
            n1 = result.expectations[k, 1]
            assert n1 / alpha0 ** 2 < 0.011  # inside the validity window
            assert n1 == pytest.approx(np.sinh(gt) ** 2, rel=0.02)

    def test_twin_balance_exact(self):
        dims = TruncationDims(12, 10, 10)
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.15, pump_alpha0=2.0)
        with pytest.warns(TruncationWarning):  # the pump ladder is cut at d0 = 12
            result = fluorescence_from_vacuum(params, dims, 1.5, 7)
        gap = np.abs(result.expectations[:, 1] - result.expectations[:, 2])
        assert np.max(gap) < 1e-8

    def test_boundary_leakage_attaches_warning(self):
        """Population reaching the top Fock levels is flagged on the result."""
        dims = TruncationDims(5, 5, 5)
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.3, pump_alpha0=2.0)
        with pytest.warns(Warning):  # the pump label also trips truncation
            result = fluorescence_from_vacuum(params, dims, 2.0, 5)
        assert any("boundary" in note for note in result.warnings)

    def test_no_leakage_warning_when_converged(self):
        dims = TruncationDims(12, 6, 6)
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.05, pump_alpha0=1.0)
        result = fluorescence_from_vacuum(params, dims, 0.5, 3)
        assert result.warnings == []
