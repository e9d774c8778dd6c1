"""Unitary evolution, exact propagators and vacuum fluorescence.

Oracles used here: closed-form free-mode overlaps, the mode-1/mode-2
exchange symmetry of the coupled system, conservation laws forced by the
interaction's selection rule, the hyperbolic gain law of the linearized
(undepleted pump) dynamics, and the generic eigh/Krylov propagation of the
assembled Hamiltonian as the oracle for the charge-sector route.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import expm_multiply

from opasim import quantum
from opasim.errors import DivergenceError, ResourceLimitError, TruncationWarning
from opasim.fockspace import (
    DEFAULT_DIM_CAP,
    ModeParams,
    TruncationDims,
    build_hamiltonian,
    build_hamiltonian_sparse,
    coherent_amplitudes,
    coherent_state,
    occupation_arrays,
    product_coherent_state,
)
from opasim.pathintegral import free_propagator_closed_form
from opasim.quantum import (
    ProductState,
    evolve_state,
    fluorescence_from_vacuum,
    propagator_exact,
    system_hamiltonian,
)


def free_overlap(alpha_a, alpha_b, omega, t):
    """Untruncated <alpha_b| e^{-i omega n t} |alpha_a>, used as an oracle."""
    return np.exp(-0.5 * abs(alpha_b) ** 2 - 0.5 * abs(alpha_a) ** 2
                  + np.conj(alpha_b) * alpha_a * np.exp(-1j * omega * t))


def number_state(n0, n1, n2, dims):
    """The unit vector |n0, n1, n2> in the mode-0-slowest basis."""
    psi = np.zeros(dims.total, dtype=complex)
    psi[np.ravel_multi_index((n0, n1, n2), (dims.d0, dims.d1, dims.d2))] = 1.0
    return psi


def number_expectations(psi, dims):
    """(<n0>, <n1>, <n2>) of a dense state."""
    return [float(occ @ np.abs(psi) ** 2) for occ in occupation_arrays(dims)]


def top_level_population(psi, dims):
    """Probability weight on states with any mode at its top Fock level."""
    n0, n1, n2 = occupation_arrays(dims)
    top = (n0 == dims.d0 - 1) | (n1 == dims.d1 - 1) | (n2 == dims.d2 - 1)
    return float(np.sum(np.abs(psi[top]) ** 2))


def assert_top_level_population(leakage, states, dims):
    """The leakage is a sum taken by matmul over the gauge-frame
    populations, so it matches the states' top-level population to
    rounding, not bit for bit."""
    expected = [top_level_population(psi, dims) for psi in states]
    np.testing.assert_allclose(leakage, expected, rtol=1e-14, atol=0)


def single_mode_propagator(omega, alpha_a, alpha_b, t, d):
    """<alpha_b| e^{-i omega n t} |alpha_a> on a truncated single-mode ladder."""
    phases = np.exp(-1j * omega * np.arange(d) * t)
    return complex(np.vdot(coherent_state(alpha_b, d),
                           phases * coherent_state(alpha_a, d)))


def chain_rule_compose(omega, alpha_a, alpha_b, t, d, points=41, radius=4.0):
    """Single-mode propagator rebuilt by resolving the identity at t/2.

    Approximates

        integral d^2 beta / pi  <alpha_b|U(t/2)|beta> <beta|U(t/2)|alpha_a>

    on the square Re/Im grid of ``points`` x ``points`` coherent labels of
    half-width ``radius``.  The grid states enter raw (unnormalized): the
    identity resolution holds for the truncated Gaussian amplitudes as they
    are, and renormalizing them would re-weight the poorly-truncated
    corners of the grid.
    """
    xs = np.linspace(-radius, radius, points)
    step = xs[1] - xs[0]
    betas = (xs[:, None] + 1j * xs[None, :]).ravel()
    grid = np.array([coherent_amplitudes(beta, d) for beta in betas])
    half_phases = np.exp(-1j * omega * np.arange(d) * t / 2.0)
    right = grid.conj() @ (half_phases * coherent_state(alpha_a, d))  # <beta|U|alpha_a>
    left = (grid * half_phases) @ coherent_state(alpha_b, d).conj()   # <alpha_b|U|beta>
    return complex(np.sum(left * right) * step * step / np.pi)


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
        sdims = TruncationDims(6, 7, 9)
        sparams = ModeParams(2.0, 0.7, 1.3, kappa_mag=0.15, pump_alpha0=1.5)
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
        """An asymmetric H, and one with a NaN entry, dense and sparse."""
        dims = TruncationDims(2, 2, 2)
        asymmetric = np.zeros((8, 8), dtype=complex)
        asymmetric[0, 1] = 1.0
        not_a_number = np.diag(np.arange(8.0)).astype(complex)
        not_a_number[3, 3] = np.nan
        for h in (asymmetric, not_a_number):
            for form in (h, csr_matrix(h)):
                with pytest.raises(ValueError, match="Hermitian"):
                    evolve_state(form, number_state(0, 0, 0, dims), 1.0, 2,
                                 dims=dims)

    @pytest.mark.parametrize("form", ["sector", "dense"])
    @pytest.mark.parametrize("t_final", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, form, t_final):
        """A NaN or infinite duration raises instead of returning NaN
        observables past the unitarity guard."""
        dims = TruncationDims(4, 4, 4)
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.2)
        h = (system_hamiltonian(params, dims) if form == "sector"
             else build_hamiltonian(params, dims))
        with pytest.raises(ValueError, match="finite"):
            evolve_state(h, number_state(1, 0, 0, dims), t_final, 3, dims=dims)

    @pytest.mark.parametrize("form", ["sector", "dense"])
    def test_nan_state_trips_unitarity_guard(self, form):
        dims = TruncationDims(4, 4, 4)
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.2)
        h = (system_hamiltonian(params, dims) if form == "sector"
             else build_hamiltonian(params, dims))
        psi0 = number_state(1, 0, 0, dims)
        psi0[0] = np.nan
        with pytest.raises(DivergenceError, match="unitarity"):
            evolve_state(h, psi0, 1.0, 3, dims=dims)

    def test_sample_cap_checked_before_allocating(self):
        dims = TruncationDims(8, 8, 8)
        psi0 = product_coherent_state(0.5, 0.0, 0.0, dims)
        h = system_hamiltonian(ModeParams(2.0, 1.0, 1.0, kappa_mag=0.1), dims)
        with pytest.raises(ResourceLimitError, match="cap"):
            evolve_state(h, psi0, 1.0, 10 ** 12, dims=dims)

    def test_sector_form_rejects_other_dims(self):
        """The chains carry the Hamiltonian's own occupations."""
        dims = TruncationDims(4, 5, 3)
        h = system_hamiltonian(ModeParams(2.0, 1.2, 0.8, kappa_mag=0.1), dims)
        with pytest.raises(ValueError, match="do not match"):
            evolve_state(h, number_state(1, 2, 0, dims), 1.0, 2,
                         dims=TruncationDims(4, 3, 5))

    def test_dimension_mismatch_rejected(self):
        dims = TruncationDims(2, 2, 2)
        params = ModeParams(2.0, 1.0, 1.0)
        h = build_hamiltonian(params, dims)
        with pytest.raises(ValueError, match="mismatch"):
            evolve_state(h, np.zeros(4, dtype=complex), 1.0, 2, dims=dims)


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
        ModeParams(1.3, 0.7, 0.6, kappa_mag=0.25, phi=PHI, pump_alpha0=1.5),
        ModeParams(2.0 + 5e-13, 1.2, 0.8, kappa_mag=0.25, phi=PHI, pump_alpha0=1.5),
    ], ids=["random-phi", "uncoupled", "zero-point", "near-resonant-by-rounding",
            "near-resonant-5e-13"])
    @pytest.mark.filterwarnings("ignore::opasim.errors.TruncationWarning")
    def test_matches_oracle(self, dims, params):
        """States, energies and expectations agree to 1e-10.

        The vacuum signal/idler state touches only the chains with
        n1 = n2, so the route skips all the others, whether it comes as a
        dense vector or as a :class:`ProductState`; the random state
        occupies every chain, and the coherent product state, read on
        every chain from its three ladders, nearly every one.  The last
        two inputs miss resonance within the frequency-match tolerance
        (1.3 - (0.7 + 0.6) is 2.2e-16 in floats); ``ModeParams`` stores
        them resonant, so the oracle and the chains evolve the same H.
        """
        rng = np.random.default_rng(dims.total)
        generic = rng.normal(size=dims.total) + 1j * rng.normal(size=dims.total)
        generic /= np.linalg.norm(generic)
        vacuum_pair = product_coherent_state(params.pump_alpha0, 0, 0, dims)
        labels = (complex(params.pump_alpha0), 0.4j, -0.3 + 0j)
        for psi0, dense in ((vacuum_pair, vacuum_pair),
                            (ProductState((labels[0], 0, 0), dims), vacuum_pair),
                            (ProductState(labels, dims),
                             product_coherent_state(*labels, dims)),
                            (generic, generic)):
            sector = evolve_state(system_hamiltonian(params, dims), psi0, 3.0, 7,
                                  dims=dims)
            oracle = evolve_state(build_hamiltonian_sparse(params, dims), dense,
                                  3.0, 7, dims=dims)
            np.testing.assert_allclose(sector.states, oracle.states, atol=1e-10)
            np.testing.assert_allclose(sector.energies, oracle.energies,
                                       atol=1e-10)
            np.testing.assert_allclose(sector.expectations, oracle.expectations,
                                       atol=1e-10)
            np.testing.assert_allclose(sector.norm_deviations,
                                       oracle.norm_deviations, atol=1e-10)
            np.testing.assert_allclose(sector.leakage, oracle.leakage, atol=1e-10)

    @pytest.mark.parametrize("params", [
        ModeParams(2.0, 1.2, 0.8, kappa_mag=0.3, phi=PHI),
        ModeParams(1.3, 0.7, 0.6, kappa_mag=0.3, phi=PHI),
        ModeParams(2.0 + 5e-13, 1.2, 0.8, kappa_mag=0.3, phi=PHI),
    ], ids=["resonant", "detuned-by-rounding", "detuned-5e-13"])
    @pytest.mark.filterwarnings("ignore::opasim.errors.TruncationWarning")
    def test_eigh_only_under_detuning(self, monkeypatch, params):
        """No input reaches the chains detuned, so none takes ``eigh``.

        ``ModeParams`` stores the two inputs that miss resonance by
        rounding or by 5e-13 with omega0 = omega1 + omega2, and the
        half-size SVD alone diagonalises the chains, for a dense and a
        product state, observables and assembled states alike.
        """
        assert params.omega0 == params.omega1 + params.omega2
        calls, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: calls.append(a.shape) or eigh(a))
        dims = TruncationDims(7, 6, 5)
        h = system_hamiltonian(params, dims)
        for psi0 in (product_coherent_state(1.2, 0.4j, -0.3, dims),
                     ProductState((1.2 + 0j, 0, 0), dims)):
            assert evolve_state(h, psi0, 2.0, 9, dims).states.shape == (9, dims.total)
        assert calls == []

    @pytest.mark.parametrize("links", [
        *(np.random.default_rng(length).uniform(0.1, 5.0, size=(4, length - 1))
          for length in range(1, 13)),
        np.zeros((3, 6)),
        np.array([[1.0, 2.0, 0.0, 3.0, 0.5, 4.0, 1.5]]),
    ], ids=[*(f"length-{length}" for length in range(1, 13)), "uncoupled",
            "joined-odd-segments"])
    def test_bipartite_eigenpairs(self, links):
        """The half-size SVD gives the eigenpairs of zero-diagonal
        tridiagonal blocks: V diag(lambda) V^T rebuilds the block and V is
        orthogonal, also for a joined row of two odd segments (3 and 5
        positions, no link at the seam), whose two zero modes the SVD may
        mix."""
        m, length = links.shape[0], links.shape[1] + 1
        block = np.zeros((m, length, length))
        j = np.arange(length)
        block[:, j[:-1], j[1:]] = block[:, j[1:], j[:-1]] = links
        eigvals, vectors = quantum._bipartite_modes(links)
        assert eigvals.shape == (m, length) and vectors.shape == block.shape
        rebuilt = (vectors * eigvals[:, None, :]) @ vectors.transpose(0, 2, 1)
        np.testing.assert_allclose(rebuilt, block, rtol=0, atol=1e-13)
        np.testing.assert_allclose(vectors.transpose(0, 2, 1) @ vectors,
                                   np.broadcast_to(np.eye(length), block.shape),
                                   rtol=0, atol=1e-13)

    def test_short_rows_take_the_svd_bits(self):
        """Rows of one or two positions skip the SVD.  Its singular value
        of the 1 x 1 block [b] is b, bit for bit, and its singular vectors
        are +-1, so the closed forms are the SVD's eigenpairs up to a
        column sign, which cancels exactly in V (V^T x)."""
        links = np.random.default_rng(2).uniform(0.1, 5.0, size=(6, 1))
        u, s, vt = np.linalg.svd(links[:, :, None])
        assert np.array_equal(s, links)
        assert np.array_equal(np.abs(u), np.ones_like(u))
        assert np.array_equal(np.abs(vt), np.ones_like(vt))
        eigvals, vectors = quantum._bipartite_modes(links)
        assert np.array_equal(eigvals, np.concatenate([s, -s], axis=1))
        assert np.array_equal(np.abs(vectors), np.full((6, 2, 2), np.sqrt(0.5)))
        eigvals, vectors = quantum._bipartite_modes(np.zeros((3, 0)))
        assert np.array_equal(eigvals, np.zeros((3, 1)))
        assert np.array_equal(vectors, np.ones((3, 1, 1)))

    @pytest.mark.filterwarnings("ignore::opasim.errors.TruncationWarning")
    def test_chain_energies_reach_only_the_assembled_states(self):
        """The zero point shifts every chain energy by one constant.  The
        norm, occupations and leakage do not see it, bit for bit; <H>
        moves by the constant; the assembled states, which carry the
        energy phases, match the oracle with and without it."""
        dims = TruncationDims(6, 7, 5)
        rng = np.random.default_rng(8)
        generic = rng.normal(size=dims.total) + 1j * rng.normal(size=dims.total)
        generic /= np.linalg.norm(generic)
        for psi0, dense in ((generic, generic),
                            (ProductState((1.4 + 0j, 0, 0), dims),
                             product_coherent_state(1.4, 0, 0, dims))):
            runs = []
            for zero_point in (False, True):
                params = ModeParams(2.0, 1.3, 0.7, kappa_mag=0.3, phi=self.PHI,
                                    include_zero_point=zero_point)
                result = evolve_state(system_hamiltonian(params, dims), psi0, 3.0, 11,
                                      dims)
                oracle = evolve_state(build_hamiltonian_sparse(params, dims), dense,
                                      3.0, 11, dims)
                np.testing.assert_allclose(result.states, oracle.states, atol=1e-10)
                runs.append(result)
            off, on = runs
            for name in ("norm_deviations", "expectations", "leakage"):
                assert np.array_equal(getattr(on, name), getattr(off, name)), name
            np.testing.assert_allclose(on.energies, off.energies + 0.5 * (2.0 + 1.3 + 0.7),
                                       rtol=1e-14)

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

    def test_states_assembled_on_demand(self):
        """States read twice are equal.  With a phase on kappa' the gauge
        phases are not 1; the leakage, summed in the real gauge frame, is
        the assembled states' top-level population to rounding."""
        dims = TruncationDims(6, 7, 5)
        params = ModeParams(2.0, 1.3, 0.7, kappa_mag=0.3, phi=self.PHI)
        rng = np.random.default_rng(4)
        psi0 = rng.normal(size=dims.total) + 1j * rng.normal(size=dims.total)
        result = evolve_state(system_hamiltonian(params, dims),
                              psi0 / np.linalg.norm(psi0), 2.0, 9, dims=dims)
        first = result.states.copy()
        assert np.array_equal(result.states, first)
        assert_top_level_population(result.leakage, first, dims)

    def test_peak_memory_without_states(self):
        """Observables alone hold a few bytes per sample x state entry.

        The chains of one length are evolved at a time, so the peak grows
        with the largest chain group (7.5% of 20^3 states): about 2.3
        bytes per entry, measured, the leakage being summed per chain.  A
        dense (samples, dim) state array and its populations take at
        least 24.
        """
        dims = TruncationDims(20, 20, 20)
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.2, phi=0.3)
        rng = np.random.default_rng(5)
        psi0 = rng.normal(size=dims.total) + 1j * rng.normal(size=dims.total)
        psi0 /= np.linalg.norm(psi0)
        h = system_hamiltonian(params, dims)

        def peak(n_samples):
            tracemalloc.start()
            try:
                evolve_state(h, psi0, 2.0, n_samples, dims=dims)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        few, many = peak(10), peak(60)
        assert many - few < 8 * 50 * dims.total

    @pytest.mark.parametrize("budget", [1, 16 * 20 * 25, 16 * 60 * 40],
                             ids=["six-sample-chunks", "small-chunks", "large-chunks"])
    def test_chunked_samples_match_one_chunk(self, monkeypatch, budget):
        """Cutting the sample axis into chunks leaves the states bit for
        bit.  Norms, occupations, energies and leakage are sums taken by
        matmul, which OpenBLAS rounds differently at different column
        counts, so they are held to 1e-14."""
        dims = TruncationDims(9, 7, 8)
        params = ModeParams(2.0, 1.3, 0.7, kappa_mag=0.3, phi=self.PHI)
        rng = np.random.default_rng(6)
        psi0 = rng.normal(size=dims.total) + 1j * rng.normal(size=dims.total)
        psi0 /= np.linalg.norm(psi0)
        h = system_hamiltonian(params, dims)

        def pieces():
            return sum(1 for _ in quantum._evolved_chains(h, psi0, 0.04, 53))

        whole, lengths = evolve_state(h, psi0, 2.08, 53, dims), pieces()
        monkeypatch.setattr(quantum, "CHAIN_BLOCK_BYTES", budget)
        assert pieces() > lengths
        chunked = evolve_state(h, psi0, 2.08, 53, dims)
        assert np.array_equal(chunked.states, whole.states)
        for name in ("expectations", "energies", "norm_deviations", "leakage"):
            np.testing.assert_allclose(getattr(chunked, name), getattr(whole, name),
                                       rtol=1e-14, atol=1e-14)

    def test_chunked_peak_memory_at_small_truncation(self, monkeypatch):
        """At small truncations one chain length holds most of the states.
        Evolved whole, its block and the arrays made from it grow with
        every sample (measured: 16 bytes per entry at (4,3,5)); in chunks
        the growth is the per-sample observables alone, about 1.2."""
        dims = TruncationDims(4, 3, 5)
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.2, phi=0.3)
        rng = np.random.default_rng(5)
        psi0 = rng.normal(size=dims.total) + 1j * rng.normal(size=dims.total)
        psi0 /= np.linalg.norm(psi0)
        h = system_hamiltonian(params, dims)
        monkeypatch.setattr(quantum, "CHAIN_BLOCK_BYTES", 2**16)

        def peak(n_samples):
            tracemalloc.start()
            try:
                evolve_state(h, psi0, 2.0, n_samples, dims=dims)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        few, many = peak(2000), peak(12000)
        assert many - few < 10 * 10000 * dims.total

    @pytest.mark.filterwarnings("ignore::opasim.errors.TruncationWarning")
    def test_leakage_is_top_level_population(self):
        dims = TruncationDims(5, 5, 5)
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.3, pump_alpha0=2.0)
        result = fluorescence_from_vacuum(params, dims, 2.0, 5)
        assert result.leakage.shape == (5,)
        assert result.leakage[-1] > 1e-6
        assert_top_level_population(result.leakage, result.states, dims)


class TestChainState:
    """:class:`ProductState`, a coherent or number state per mode, held
    by its ladders and evolved on its charge chains."""

    PHI = 0.83

    @pytest.mark.parametrize("dims", [
        TruncationDims(9, 5, 4), TruncationDims(3, 8, 6), TruncationDims(30, 7, 12),
        TruncationDims(2, 2, 2),
    ])
    def test_entries_count_the_chains(self, dims):
        """The closed-form count is the entries of the occupied chains,
        counted here from the dense basis."""
        n0, n1, n2 = occupation_arrays(dims)
        for signal in range(dims.d1):
            for idler in range(dims.d2):
                charges = {(level + signal, level + idler) for level in range(dims.d0)}
                chained = sum((a, b) in charges for a, b in zip(n0 + n1, n0 + n2))
                state = ProductState((1.0 + 0j, signal, idler), dims)
                assert state.entries == chained

    @pytest.mark.parametrize("signal,idler", [(0.5j, 0), (0, -0.2 + 0j), (0.3, 0.1j)],
                             ids=["coherent-signal", "coherent-idler", "both"])
    def test_coherent_signal_or_idler_counts_every_entry(self, signal, idler):
        """Spread over its ladder, a coherent signal or idler may occupy
        every chain, so a sample counts d0*d1*d2 entries."""
        dims = TruncationDims(30, 7, 12)
        state = ProductState((1.0 + 0j, complex(signal), complex(idler)), dims)
        assert state.entries == dims.total

    def test_amplitude_zero_is_level_zero(self):
        """coherent_state(0, d) is an exact one-hot, so the coherent label
        0 takes the number state's chains and writes its bytes."""
        dims = TruncationDims(12, 5, 6)
        h = system_hamiltonian(ModeParams(2.0, 1.2, 0.8, kappa_mag=0.2, phi=0.4), dims)
        coherent = ProductState((1.3 - 0.2j, 0j, 0j), dims)
        number = ProductState((1.3 - 0.2j, 0, 0), dims)
        assert coherent.levels == number.levels == [None, 0, 0]
        assert coherent.entries == number.entries < dims.total
        first, second = (evolve_state(h, psi0, 2.0, 9, dims)
                         for psi0 in (coherent, number))
        for name in ("expectations", "energies", "norm_deviations", "leakage"):
            assert np.array_equal(getattr(first, name), getattr(second, name)), name

    def test_levels_outside_the_ladders_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            ProductState((1.0 + 0j, 3, 0), TruncationDims(4, 3, 3))

    @pytest.mark.parametrize("alpha0,n1,n2,message", [
        (1.0, 0.5, 0, "integers"), (1.0, 1.0, 0, "integers"),
        (1.0, 0, -0.0, "integers"), (1.0, 0, np.float64(1.0), "integers"),
        (np.nan, 0, 0, "finite"), (complex(1.0, np.inf), 0, 0, "finite"),
    ])
    def test_non_integer_levels_and_non_finite_pump_rejected(self, alpha0, n1,
                                                             n2, message):
        """Rejected when made, not later as an IndexError in the chain
        gather or a DivergenceError after the evolution.  A real float
        could be a level or an amplitude, so it is rejected too."""
        with pytest.raises(ValueError, match=message):
            ProductState((complex(alpha0), n1, n2), TruncationDims(4, 3, 3))

    @pytest.mark.parametrize("modes", [(True, 0, 0), (1j, False, 0), (1j, 0, np.True_)],
                             ids=["pump-true", "signal-false", "idler-numpy-true"])
    def test_bool_levels_rejected(self, modes):
        """bool is an int subclass, but True is no pump level 1."""
        with pytest.raises(ValueError, match="integers"):
            ProductState(modes, TruncationDims(4, 3, 3))

    def test_needs_the_sector_form_of_its_dims(self):
        dims = TruncationDims(4, 5, 3)
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.1)
        state = ProductState((1.0 + 0j, 0, 0), dims)
        with pytest.raises(ValueError, match="charge-sector form"):
            evolve_state(build_hamiltonian(params, dims), state, 1.0, 2, dims)
        other = TruncationDims(4, 3, 5)
        with pytest.raises(ValueError, match="charge-sector form"):
            evolve_state(system_hamiltonian(params, other), state, 1.0, 2, other)

    def test_cap_counts_entries_and_is_checked_before_allocating(self):
        """Past the dense cap, the run is capped on its own entries times
        samples, before the ladders or any chain are built."""
        dims = TruncationDims(10 ** 8, 25, 25)
        state = ProductState((20.0 + 0j, 0, 0), dims)
        h = system_hamiltonian(ModeParams(2.0, 1.2, 0.8, kappa_mag=0.015), dims)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="cap"):
                evolve_state(h, state, 1.0, 2, dims)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert "ladders" not in vars(state)

    def test_runs_past_the_dense_cap_without_assembling(self):
        """(621,25,25) is 1.5 times the dense cap; the chain form runs it,
        and only reading the states meets the cap."""
        dims = TruncationDims(621, 25, 25)
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.015, pump_alpha0=20.0)
        result = evolve_state(system_hamiltonian(params, dims),
                              ProductState((20.0 + 0j, 0, 0), dims), 2.0, 3, dims)
        assert result.max_norm_deviation < 1e-12
        assert result.expectations[0, 0] == pytest.approx(400.0, rel=1e-12)
        with pytest.raises(ResourceLimitError, match="cap"):
            result.states

    def test_peak_memory_does_not_grow_with_top_level_states(self):
        """At (621,25,25) a sample holds 15225 chain entries; the 31005
        states with a mode on its top level are not held per sample, the
        leakage being summed chain by chain.  Measured: about 28 bytes
        per sample, where a (samples, top-level states) array of
        populations grows 248 KB per sample."""
        dims = TruncationDims(621, 25, 25)
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.015, pump_alpha0=20.0)

        def peak(n_samples):
            tracemalloc.start()
            try:
                fluorescence_from_vacuum(params, dims, 0.1 * (n_samples - 1),
                                         n_samples)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(401) - peak(201) < 200 * 2**10

    def test_short_chains_joined_match_one_by_one(self, monkeypatch):
        """A vacuum seed's short chains (lengths 1 to 23 here), one per
        length, are joined end to end into rows of the longest length,
        held as a product state or as its dense vector alike.  The evolved
        states agree with the per-length route, the join taken out, to
        rounding, and so does the leakage with the assembled states'
        top-level population."""
        dims = TruncationDims(26, 24, 25)
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.1, phi=self.PHI)
        h = system_hamiltonian(params, dims)
        seed = ProductState((2.5 + 0j, 0, 0), dims)
        vector = product_coherent_state(2.5, 0, 0, dims)
        # lengths 1 + 23, ..., 11 + 13 join the length-24 rows; 12 stays alone
        for psi0 in (seed, vector):
            assert [start.shape for *_, start in quantum._chain_starts(h, psi0)] == [
                (14, 24), (1, 12)]
        joined = evolve_state(h, seed, 2.0, 11, dims)
        monkeypatch.setattr(quantum, "_joined", lambda groups: [])
        assert len(list(quantum._chain_starts(h, vector))) == 24
        one_by_one = evolve_state(h, vector, 2.0, 11, dims)
        np.testing.assert_allclose(joined.states, one_by_one.states, rtol=0, atol=1e-14)
        np.testing.assert_allclose(joined.energies, one_by_one.energies, rtol=1e-15)
        assert_top_level_population(joined.leakage, joined.states, dims)

    def test_joined_batches_hold_at_most_run_rows(self, monkeypatch):
        """With a small block budget the longest chains and the joined
        rows are cut into batches of at most ``run`` rows; each row is
        evolved on its own, so the states do not move."""
        dims = TruncationDims(26, 24, 25)
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.1, phi=self.PHI)
        h = system_hamiltonian(params, dims)
        seed = ProductState((2.5 + 0j, 0, 0), dims)
        whole = evolve_state(h, seed, 2.0, 11, dims)
        monkeypatch.setattr(quantum, "CHAIN_BLOCK_BYTES", 8 * 24 ** 2 * 5)
        assert h.run == 5
        assert [start.shape for *_, start in quantum._chain_starts(h, seed)] == [
            (5, 24), (5, 24), (4, 24), (1, 12)]
        cut = evolve_state(h, seed, 2.0, 11, dims)
        np.testing.assert_allclose(cut.states, whole.states, rtol=0, atol=1e-15)


class TestNegligibleChains:
    """Every state evolves only the chains that carry its weight:
    the lightest are dropped while their summed start norm^2 stays within
    ``quantum.NEGLIGIBLE_WEIGHT`` of the state's.  Set to 0, the bound drops
    only weightless chains, as the reference."""

    DIMS = TruncationDims(40, 41, 39)
    PARAMS = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.1, phi=0.3)
    LABELS = (3j, 0.3 + 0j, -0.3j)

    def evolved(self, monkeypatch, bound, psi0, dims, params=PARAMS):
        """The evolution at ``bound`` and the [rows, entries] it evolved."""
        count, starts = [0, 0], quantum._chain_starts

        def counted(h, state):
            for batch in starts(h, state):
                count[0] += batch[0].shape[0]
                count[1] += batch[0].size
                yield batch

        with monkeypatch.context() as patch:
            patch.setattr(quantum, "NEGLIGIBLE_WEIGHT", bound)
            patch.setattr(quantum, "_chain_starts", counted)
            return evolve_state(system_hamiltonian(params, dims), psi0, 2.0, 9,
                                dims), count

    @staticmethod
    def assert_within_bound(result, reference, dims, params):
        """A chain keeps its norm, so the norm and leakage move by at most
        the bound, <n_j> by (d_j - 1) times it and <H> by ||H|| times it,
        beside round-off."""
        d, bound = dims, quantum.NEGLIGIBLE_WEIGHT
        h_norm = (params.omega1 * (d.d0 + d.d1) + params.omega2 * (d.d0 + d.d2)
                  + 2 * params.kappa_mag * np.sqrt(d.total))
        for name, weight in (("norm_deviations", 1.0), ("leakage", 1.0),
                             ("expectations", np.array([d.d0, d.d1, d.d2]) - 1.0),
                             ("energies", h_norm)):
            want, got = getattr(reference, name), getattr(result, name)
            assert np.all(np.abs(got - want)
                          <= bound * weight + 1e-14 * max(1.0, np.max(np.abs(want))))

    def test_sums_move_within_the_bound(self, monkeypatch):
        """At (40,41,39) the reference evolves 4680 chains of 63960 entries;
        measured, 1210 chains of 23542 entries carry all but 1e-30 of the
        weight.  The reduced sums move within the bound, and the transition
        amplitude by at most its square root."""
        d, bound = self.DIMS, quantum.NEGLIGIBLE_WEIGHT
        state = ProductState(self.LABELS, d)
        reference, every = self.evolved(monkeypatch, 0.0, state, d)
        result, kept = self.evolved(monkeypatch, bound, state, d)
        assert every == [4680, 63960]
        assert kept[0] < every[0] / 2
        self.assert_within_bound(result, reference, d, self.PARAMS)
        amplitudes = []
        for value in (0.0, bound):
            monkeypatch.setattr(quantum, "NEGLIGIBLE_WEIGHT", value)
            amplitudes.append(propagator_exact(self.PARAMS, d, self.LABELS,
                                               (2.9j, 0.3 + 0j, -0.2j), 0.7))
        assert abs(amplitudes[1] - amplitudes[0]) <= np.sqrt(bound) + 1e-15

    def test_vacuum_seed_drops_its_light_pump_levels(self, monkeypatch):
        """A vacuum-seeded state takes the same rule.  At (621,25,25) with
        alpha0 = 20 its chains (n0, n0) make 609 rows, the short ones
        joined; the pump levels far from 400 carry under 1e-30 of the
        weight (measured: 427 rows are kept), and the sums move within
        the bound."""
        dims = TruncationDims(621, 25, 25)
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.015, pump_alpha0=20.0)
        state = ProductState((20.0 + 0j, 0, 0), dims)
        reference, every = self.evolved(monkeypatch, 0.0, state, dims, params)
        result, kept = self.evolved(monkeypatch, quantum.NEGLIGIBLE_WEIGHT, state,
                                    dims, params)
        assert every == [609, 609 * 25]
        assert kept[0] < every[0]
        self.assert_within_bound(result, reference, dims, params)

    def test_random_dense_state_loses_no_chain(self, monkeypatch):
        dims = TruncationDims(9, 7, 8)
        rng = np.random.default_rng(8)
        psi0 = rng.normal(size=dims.total) + 1j * rng.normal(size=dims.total)
        n0, n1, n2 = occupation_arrays(dims)
        _, count = self.evolved(monkeypatch, quantum.NEGLIGIBLE_WEIGHT,
                                psi0 / np.linalg.norm(psi0), dims)
        assert count == [len(set(zip(n0 + n1, n0 + n2))), dims.total]

    def test_state_without_weight_trips_the_unitarity_guard(self):
        """Every chain of a zero state is dropped; the empty band sums to
        norm 0 rather than failing inside the chain enumeration."""
        dims = TruncationDims(4, 3, 5)
        h = system_hamiltonian(self.PARAMS, dims)
        with pytest.raises(DivergenceError, match="unitarity"):
            evolve_state(h, np.zeros(dims.total), 1.0, 3, dims)

    def test_peak_memory_of_a_spread_state(self):
        """Fully coherent at (80,80,80), 9 samples: the long chains of the
        band carry no weight and are not evolved.  Measured peak 2.0 MB;
        evolving every chain took 10.8 MB."""
        dims = TruncationDims(80, 80, 80)
        h = system_hamiltonian(self.PARAMS, dims)
        state = ProductState((3 + 0j, 0.5 + 0j, 0.4j), dims)
        tracemalloc.start()
        try:
            evolve_state(h, state, 2.0, 9, dims)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    @pytest.mark.parametrize("dims,labels,n_samples", [
        (TruncationDims(8, 1000, 1000), (1.0 + 0j, 0, 0), 11),
        (TruncationDims(2, 2000, 2), (1.0 + 0j, 0.3 + 0j, 0), 2),
    ], ids=["vacuum-8-1000-1000", "coherent-signal-2-2000-2"])
    @pytest.mark.filterwarnings("ignore::opasim.errors.TruncationWarning")
    def test_peak_memory_follows_the_weighted_chains(self, dims, labels, n_samples):
        """A product state is weighed one band column at a time, and only
        the chains its ladders reach are held.  Measured peaks 0.06 and
        0.11 MB; a dense band of weights took 80.5 and 160.2 MB."""
        h = system_hamiltonian(self.PARAMS, dims)
        tracemalloc.start()
        try:
            evolve_state(h, ProductState(labels, dims), 1.0, n_samples, dims)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestMirrorTwins:
    """Equal coupling rows of a batch share one diagonalisation.  The
    coupling is symmetric under swapping signal and idler, so a chain and
    its mirror that start at one pump level have equal rows.  Equal inputs
    give equal bits, so sharing moves nothing."""

    PARAMS = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.1, phi=0.3)
    LABELS = (1.5 + 0j, 0.3 + 0j, -0.3j)

    def evolved(self, monkeypatch, psi0, dims, share=True, params=PARAMS):
        """The evolution, states read, and of its observables' pass the
        rows of more than two positions, which take the SVD, out of
        ``_chain_starts``, those of them with n1 = n2 at their start, and
        the rows of each ``np.linalg.svd`` call."""
        count, calls = [0, 0], []
        starts, svd = quantum._chain_starts, np.linalg.svd

        def counted_starts(h, state):
            for batch in starts(h, state):
                if batch[0].shape[1] > 2:
                    count[0] += batch[0].shape[0]
                    count[1] += np.count_nonzero(batch[1][1, :, 0] == batch[1][2, :, 0])
                yield batch

        def counted_svd(matrices):
            calls.append(matrices.shape[0])
            return svd(matrices)

        with monkeypatch.context() as patch:
            patch.setattr(quantum, "_chain_starts", counted_starts)
            patch.setattr(np.linalg, "svd", counted_svd)
            if not share:
                patch.setattr(quantum, "_distinct_rows",
                              lambda links: (slice(None), slice(None)))
            result = evolve_state(system_hamiltonian(params, dims), psi0, 2.0, 9, dims)
            rows = [*count, calls[:]]
            result.states
        return result, rows

    @staticmethod
    def assert_bit_equal(shared, apart):
        for name in ("times", "expectations", "energies", "norm_deviations", "leakage",
                     "warnings", "states"):
            assert np.array_equal(getattr(shared, name), getattr(apart, name)), name

    @pytest.mark.parametrize("dims,dense", [
        (TruncationDims(10, 9, 9), False), (TruncationDims(10, 8, 9), False),
        (TruncationDims(9, 8, 8), True),
    ], ids=["coherent-d1-eq-d2", "coherent-d1-ne-d2", "random-dense"])
    @pytest.mark.filterwarnings("ignore::opasim.errors.TruncationWarning")
    def test_sharing_moves_no_bit(self, monkeypatch, dims, dense):
        """Every result field and the assembled states are bit for bit
        those of diagonalising every row on its own."""
        psi0 = ProductState(self.LABELS, dims)
        if dense:
            rng = np.random.default_rng(9)
            psi0 = rng.normal(size=dims.total) + 1j * rng.normal(size=dims.total)
            psi0 /= np.linalg.norm(psi0)
        shared, (rows, _, into) = self.evolved(monkeypatch, psi0, dims)
        apart, (_, _, every) = self.evolved(monkeypatch, psi0, dims, share=False)
        assert sum(into) < sum(every) == rows
        self.assert_bit_equal(shared, apart)

    @pytest.mark.filterwarnings("ignore::opasim.errors.TruncationWarning")
    def test_equal_signal_and_idler_ladders_halve_the_rows(self, monkeypatch):
        """At d1 = d2 the truncation cuts a chain and its mirror at the same
        pump levels, so every row but those with n1 = n2 has its twin:
        measured, 265 rows of more than two positions, of which 17 are
        their own mirror, diagonalised as 141."""
        dims = TruncationDims(12, 12, 12)
        _, (rows, diagonal, into) = self.evolved(
            monkeypatch, ProductState(self.LABELS, dims), dims)
        assert (rows, diagonal, sum(into)) == (265, 17, 141)
        assert 2 * sum(into) == rows + diagonal

    def test_vacuum_seed_shares_nothing(self, monkeypatch):
        """Vacuum signal and idler occupy the chains (n0, n0) alone, each
        its own mirror."""
        dims = TruncationDims(30, 12, 12)
        _, (rows, diagonal, into) = self.evolved(
            monkeypatch, ProductState((2.0 + 0j, 0, 0), dims), dims)
        assert rows == diagonal == sum(into) > 0

    @pytest.mark.filterwarnings("ignore::opasim.errors.TruncationWarning")
    def test_uncoupled_rows_share_one_svd_per_batch(self, monkeypatch):
        """At kappa = 0 every link is 0, so all rows of a batch are equal,
        joined rows and rows that are no mirror of one another alike: each
        SVD diagonalises one of the 126 rows of more than two positions at
        (10,9,8), where a key of mirror pairs diagonalised 111 of them."""
        dims = TruncationDims(10, 9, 8)
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.0)
        psi0 = ProductState(self.LABELS, dims)
        shared, (rows, _, into) = self.evolved(monkeypatch, psi0, dims, params=params)
        apart, (_, _, every) = self.evolved(monkeypatch, psi0, dims, share=False,
                                            params=params)
        assert set(into) == {1} and len(into) == len(every)
        assert sum(every) == rows == 126
        self.assert_bit_equal(shared, apart)


class TestExpectationNumber:
    """<n_m> of a dense state as the occupations against |psi|^2."""

    def test_vacuum(self):
        dims = TruncationDims(3, 3, 3)
        assert number_expectations(number_state(0, 0, 0, dims), dims) == [0.0] * 3

    def test_coherent_label_squared(self):
        """Mode-1 coherent state with alpha = 1.5 at d1 = 40 gives 2.25."""
        dims = TruncationDims(2, 40, 2)
        psi = product_coherent_state(0.0, 1.5, 0.0, dims)
        assert number_expectations(psi, dims)[1] == pytest.approx(2.25, abs=1e-6)

    def test_basis_state_occupations(self):
        dims = TruncationDims(4, 5, 3)
        psi = number_state(2, 3, 1, dims)
        assert number_expectations(psi, dims) == [2.0, 3.0, 1.0]


class TestPropagatorExact:
    def test_identity_at_zero_time(self):
        dims = TruncationDims(6, 6, 6)
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.2)
        labels = (0.5, 0.3j, -0.2)
        value = propagator_exact(params, dims, labels, labels, 0.0)
        assert value == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("alpha_a,alpha_b", [
        ((np.nan, 0, 0), (0.5, 0, 0)), ((0.5, 0, 0), (0.5, complex(0, np.inf), 0)),
    ], ids=["nan-ket", "infinite-bra"])
    def test_non_finite_label_rejected(self, alpha_a, alpha_b):
        """A value error when the product state is made, not a NaN
        amplitude with RuntimeWarnings."""
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.2)
        with pytest.raises(ValueError, match="finite"):
            propagator_exact(params, TruncationDims(4, 4, 4), alpha_a, alpha_b, 1.0)

    def test_free_product_past_the_dense_cap(self):
        """kappa = 0 at (65,65,65), past the dense cap that a dense state
        would meet: the amplitude is the product of the three modes' free
        closed forms."""
        dims = TruncationDims(65, 65, 65)
        assert dims.total > DEFAULT_DIM_CAP
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.0)
        alpha_a, alpha_b, t = (1.5 + 0.5j, -0.8j, 1.1), (1.3, 0.2 - 0.6j, 0.9 + 0.3j), 0.7
        value = propagator_exact(params, dims, alpha_a, alpha_b, t)
        expected = np.prod([free_propagator_closed_form(complex(a), complex(b), omega, t)
                            for a, b, omega in zip(alpha_a, alpha_b, params.omegas)])
        assert abs(value - expected) < 1e-10

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, t):
        dims = TruncationDims(4, 4, 4)
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.2)
        with pytest.raises(ValueError, match="finite"):
            propagator_exact(params, dims, (0.5, 0, 0), (0.5, 0, 0), t)

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
