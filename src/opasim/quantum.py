"""Exact unitary dynamics on the truncated three-mode space.

The three-mode Hamiltonian commutes with the quantum Manley-Rowe charges
n0+n1 and n0+n2, so it is a direct sum of chains of fixed charges, each
ordered by n0.  The gauge conj(kappa'/|kappa'|)^k makes every chain a real
symmetric tridiagonal block.  :func:`system_hamiltonian` returns that
charge-sector form, and :func:`evolve_state` propagates it exactly by
diagonalising the chains of each length in one batched ``eigh``.  Any other
Hermitian H, dense or scipy sparse, is propagated through a full
eigendecomposition or, for larger or sparse inputs, Krylov evaluation of
the matrix exponential acting on the state.  Every route satisfies the
same contract: unit norm to 1e-9 and machine-accurate conservation of
energy and of the three-wave-mixing charges n0+n1, n0+n2, n1-n2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

from .errors import DivergenceError
from .fockspace import (
    ModeParams,
    TruncationDims,
    coherent_state,
    occupation_arrays,
    product_coherent_state,
)

#: Above this total dimension, a dense H is propagated by sparse Krylov
#: evaluation instead of a full eigendecomposition.
EIGH_DIM_LIMIT = 1200

#: Hermiticity tolerance on max|H - H^dagger|.
HERMITICITY_TOL = 1e-10

#: Unitarity bound every evolved state must satisfy.
NORM_TOL = 1e-9

#: Top-Fock-level population above which truncation leakage is flagged.
LEAKAGE_TOL = 1e-6


@dataclass
class EvolutionResult:
    """Uniformly sampled evolution of a state under a fixed Hamiltonian.

    ``states[k]`` is the state at ``times[k]``; ``expectations[k]`` holds
    (<n0>, <n1>, <n2>), ``energies[k]`` is <H> and ``norm_deviations[k]``
    is | ||psi|| - 1 |.  ``leakage[k]`` is the population on any mode's top
    Fock level (zeros when the evolution had no ``dims``).  ``warnings``
    collects truncation diagnostics.
    """

    times: np.ndarray
    states: np.ndarray
    expectations: np.ndarray
    energies: np.ndarray
    norm_deviations: np.ndarray
    leakage: np.ndarray
    warnings: list[str] = field(default_factory=list)

    @property
    def max_norm_deviation(self) -> float:
        return float(np.max(self.norm_deviations))


def _check_hermitian(h) -> None:
    if sparse.issparse(h):
        dev = abs(h - h.conjugate().transpose()).max()
    else:
        dev = np.max(np.abs(h - h.conj().T))
    if dev > HERMITICITY_TOL:
        raise ValueError(f"Hamiltonian is not Hermitian: max|H - H^+| = {dev:.3g}")


def _apply(h, states: np.ndarray) -> np.ndarray:
    """H applied to a stack of row states, returning the same layout."""
    if sparse.issparse(h):
        return (h @ states.T).T
    return states @ np.asarray(h).T


def _propagate(h, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """States exp(-i H t_k) psi0 for a uniform, ascending time grid."""
    dim = psi0.shape[0]
    if not sparse.issparse(h) and dim <= EIGH_DIM_LIMIT:
        energies, vectors = np.linalg.eigh(h)
        coeff = vectors.conj().T @ psi0
        phases = np.exp(-1j * np.outer(times, energies))
        return (phases * coeff) @ vectors.T
    h_csr = sparse.csr_matrix(h)
    if len(times) == 1:
        if times[0] == 0.0:
            return psi0[np.newaxis, :].copy()
        return np.asarray(expm_multiply(-1j * times[0] * h_csr, psi0))[np.newaxis, :]
    out = expm_multiply(
        -1j * h_csr, psi0,
        start=times[0], stop=times[-1], num=len(times), endpoint=True,
    )
    return np.asarray(out)


@dataclass(frozen=True)
class SectorHamiltonian:
    """The three-mode Hamiltonian of :func:`build_hamiltonian` by charge chains.

    A chain holds the basis states of fixed n0+n1 and n0+n2, ordered by n0.
    The interaction couples only neighbours in a chain, so H restricted to
    it is tridiagonal.  Only ``params`` and ``dims`` are stored; the chains
    are built when the Hamiltonian is propagated, from the occupations and
    apart from :func:`build_hamiltonian` and its sparse twin, so that those
    stay an independent oracle for this form.
    """

    params: ModeParams
    dims: TruncationDims

    @property
    def shape(self) -> tuple[int, int]:
        return (self.dims.total, self.dims.total)

    def chains(self):
        """Yield ``(index, diagonal, coupling)`` once per chain length L.

        ``index`` (m, L) holds the basis indices of the m chains of that
        length, ``diagonal`` (m, L) their diagonal entries of H, and
        ``coupling`` (m, L-1) the magnitudes sqrt(n0 (n1+1) (n2+1)) linking
        position j-1 to j, taken at position j.  H[j-1, j] is kappa' times
        that magnitude.
        """
        p, d = self.params, self.dims
        charge1 = np.arange(d.d0 + d.d1 - 1)[:, None]
        charge2 = np.arange(d.d0 + d.d2 - 1)[None, :]
        lowest = np.maximum(np.maximum(0, charge1 - (d.d1 - 1)),
                            charge2 - (d.d2 - 1))
        highest = np.minimum(np.minimum(d.d0 - 1, charge1), charge2)
        lengths = highest - lowest + 1
        charge1, charge2 = np.broadcast_arrays(charge1, charge2)
        for length in np.unique(lengths[lengths > 0]):
            chosen = lengths == length
            n0 = lowest[chosen][:, None] + np.arange(length)
            n1 = charge1[chosen][:, None] - n0
            n2 = charge2[chosen][:, None] - n0
            diagonal = p.omega0 * n0 + p.omega1 * n1 + p.omega2 * n2
            diagonal = diagonal.astype(float)
            if p.include_zero_point:
                diagonal = diagonal + 0.5 * (p.omega0 + p.omega1 + p.omega2)
            coupling = np.sqrt(n0[:, 1:] * (n1[:, 1:] + 1.0) * (n2[:, 1:] + 1.0))
            yield (n0 * d.d1 + n1) * d.d2 + n2, diagonal, coupling


def _propagate_sectors(h: SectorHamiltonian, psi0: np.ndarray, step: float,
                       n_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """States exp(-i H k step) psi0, k < n_samples, and their energies <H>.

    The chains of each length are diagonalised together.  Chains on which
    psi0 vanishes stay zero and are skipped.  The phases of sample k are
    the k-th powers of one step's phases.  The energies apply each
    tridiagonal chain, with its complex couplings, to the propagated
    states, so they check the states rather than repeat the eigenvalues.
    """
    kappa = h.params.kappa_prime
    angle = -np.angle(kappa)  # gauge conj(kappa'/|kappa'|)^j = exp(i angle j)
    states = np.zeros((n_samples, psi0.shape[0]), dtype=complex)
    energies = np.zeros(n_samples)
    for index, diagonal, coupling in h.chains():
        amplitudes = psi0[index]
        occupied = np.any(amplitudes != 0, axis=1)
        if not occupied.any():
            continue
        index, diagonal, coupling, amplitudes = (
            index[occupied], diagonal[occupied], coupling[occupied],
            amplitudes[occupied])
        m, length = index.shape
        gauge = np.exp(1j * angle * np.arange(length))
        offset = diagonal[:, :1]  # keeps the blocks small next to the chain energy
        block = np.zeros((m, length, length))
        j = np.arange(length)
        block[:, j, j] = diagonal - offset
        block[:, j[:-1], j[1:]] = block[:, j[1:], j[:-1]] = abs(kappa) * coupling
        eigvals, vectors = np.linalg.eigh(block)
        evolved = np.empty((m, length, n_samples), dtype=complex)
        evolved[:, :, 0] = np.einsum("mjl,mj->ml", vectors, gauge.conj() * amplitudes)
        evolved[:, :, 1:] = np.exp(-1j * step * (eigvals + offset))[:, :, None]
        np.cumprod(evolved, axis=2, out=evolved)
        # real eigenvectors times complex amplitudes as one real matmul
        chain = (vectors @ evolved.view(float)).view(complex) * gauge[:, None]
        states[:, index.ravel()] = chain.transpose(2, 0, 1).reshape(n_samples, -1)

        h_chain = diagonal[:, :, None] * chain
        h_chain[:, :-1] += kappa * coupling[:, :, None] * chain[:, 1:]
        h_chain[:, 1:] += np.conj(kappa) * coupling[:, :, None] * chain[:, :-1]
        energies += np.einsum("mjk,mjk->k", chain.conj(), h_chain).real
    return states, energies


def system_hamiltonian(params: ModeParams, dims: TruncationDims) -> SectorHamiltonian:
    """Three-mode Hamiltonian in its charge-sector form."""
    return SectorHamiltonian(params, dims)


def _boundary_mask(dims: TruncationDims) -> np.ndarray:
    """Basis states with any mode at its top Fock level."""
    n0, n1, n2 = occupation_arrays(dims)
    return (n0 == dims.d0 - 1) | (n1 == dims.d1 - 1) | (n2 == dims.d2 - 1)


def top_level_population(psi: np.ndarray, dims: TruncationDims) -> float:
    """Probability weight on states with any mode at its top Fock level."""
    return float(np.sum(np.abs(psi[_boundary_mask(dims)]) ** 2))


def evolve_state(h, psi0: np.ndarray, t_final: float, n_samples: int,
                 dims: TruncationDims | None = None) -> EvolutionResult:
    """Evolve ``psi0`` under ``h`` and sample uniformly on [0, t_final].

    ``h`` may be the charge-sector form from :func:`system_hamiltonian`,
    a dense array or a scipy sparse matrix; the latter two must be
    Hermitian to ``HERMITICITY_TOL``.  When ``dims`` is given, per-mode
    occupation expectations and the top-level population are recorded,
    and truncation-boundary leakage is monitored (population of any top
    Fock level above ``LEAKAGE_TOL`` attaches a warning to the result).
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if t_final < 0:
        raise ValueError(f"t_final must be >= 0, got {t_final}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if h.shape[0] != h.shape[1] or h.shape[0] != psi0.shape[0]:
        raise ValueError(
            f"dimension mismatch: H is {h.shape}, state has length {psi0.shape[0]}"
        )
    if dims is not None and dims.total != psi0.shape[0]:
        raise ValueError(
            f"dims.total = {dims.total} does not match state length {psi0.shape[0]}"
        )
    times = np.linspace(0.0, t_final, n_samples)
    if isinstance(h, SectorHamiltonian):
        step = times[1] if n_samples > 1 else 0.0
        states, energies = _propagate_sectors(h, psi0, step, n_samples)
    else:
        _check_hermitian(h)
        states = _propagate(h, psi0, times)
        energies = np.real(np.sum(states.conj() * _apply(h, states), axis=1))

    probs = np.abs(states) ** 2
    norm_dev = np.abs(np.sqrt(np.sum(probs, axis=1)) - 1.0)
    if np.max(norm_dev) > NORM_TOL:
        raise DivergenceError(
            f"evolution lost unitarity: max | ||psi|| - 1 | = {np.max(norm_dev):.3g}"
        )

    notes: list[str] = []
    if dims is not None:
        n0, n1, n2 = occupation_arrays(dims)
        expectations = np.stack([probs @ n0, probs @ n1, probs @ n2], axis=1)
        expectations = np.maximum(expectations, 0.0)
        leakage = np.sum(probs[:, _boundary_mask(dims)], axis=1)
        if np.max(leakage) > LEAKAGE_TOL:
            notes.append(
                f"truncation-boundary population reached {np.max(leakage):.3g}; "
                "conserved-charge diagnostics may be unreliable"
            )
    else:
        expectations = np.zeros((n_samples, 3))
        leakage = np.zeros(n_samples)

    return EvolutionResult(times=times, states=states,
                           expectations=expectations, energies=energies,
                           norm_deviations=norm_dev, leakage=leakage,
                           warnings=notes)


def expectation_number(psi: np.ndarray, mode: int, dims: TruncationDims) -> float:
    """<psi| n_mode |psi>, clamped at zero from below."""
    psi = np.asarray(psi)
    if psi.shape[0] != dims.total:
        raise ValueError(
            f"state length {psi.shape[0]} does not match dims.total {dims.total}"
        )
    occ = occupation_arrays(dims)[mode]
    value = float(np.sum(occ * np.abs(psi) ** 2))
    return max(value, 0.0)


def propagator_exact(params: ModeParams, dims: TruncationDims,
                     alpha_a: tuple[complex, complex, complex],
                     alpha_b: tuple[complex, complex, complex],
                     t: float) -> complex:
    """Exact truncated-space transition amplitude <alpha_b| e^{-iHt} |alpha_a>."""
    psi_a = product_coherent_state(*alpha_a, dims)
    psi_b = product_coherent_state(*alpha_b, dims)
    states, _ = _propagate_sectors(system_hamiltonian(params, dims), psi_a, t, 2)
    return complex(np.vdot(psi_b, states[1]))


def fluorescence_from_vacuum(params: ModeParams, dims: TruncationDims,
                             t_final: float, n_samples: int) -> EvolutionResult:
    """Evolution of |pump_alpha0, 0, 0>: spontaneous signal/idler growth.

    The mean-field equations keep vacuum signal and idler at exactly zero,
    so any nonzero <n1>(t), <n2>(t) here is purely quantum seeding.
    """
    psi0 = product_coherent_state(params.pump_alpha0, 0.0, 0.0, dims)
    h = system_hamiltonian(params, dims)
    return evolve_state(h, psi0, t_final, n_samples, dims=dims)


def single_mode_propagator(omega: float, alpha_a: complex, alpha_b: complex,
                           t: float, d: int) -> complex:
    """<alpha_b| e^{-i omega n t} |alpha_a> on a truncated single-mode ladder."""
    ca = coherent_state(alpha_a, d)
    cb = coherent_state(alpha_b, d)
    phases = np.exp(-1j * omega * np.arange(d) * t)
    return complex(np.vdot(cb, phases * ca))


def _coherent_grid(betas: np.ndarray, d: int) -> np.ndarray:
    """Raw truncated coherent amplitudes, one row per grid label."""
    c = np.zeros((betas.shape[0], d), dtype=complex)
    c[:, 0] = np.exp(-0.5 * np.abs(betas) ** 2)
    for n in range(1, d):
        c[:, n] = c[:, n - 1] * betas / np.sqrt(n)
    return c


def chain_rule_compose(omega: float, alpha_a: complex, alpha_b: complex,
                       t: float, d: int, grid_points: int = 41,
                       grid_radius: float = 4.0) -> complex:
    """Single-mode propagator rebuilt by resolving the identity at t/2.

    Approximates

        integral d^2 beta / pi  <alpha_b|U(t/2)|beta> <beta|U(t/2)|alpha_a>

    on a square Re/Im grid of coherent labels.  The grid states enter raw
    (unnormalized): the identity resolution holds for the truncated Gaussian
    amplitudes as they are, and renormalizing them would re-weight the
    poorly-truncated corners of the grid.
    """
    xs = np.linspace(-grid_radius, grid_radius, grid_points)
    step = xs[1] - xs[0]
    betas = (xs[:, None] + 1j * xs[None, :]).ravel()
    grid = _coherent_grid(betas, d)

    half_phases = np.exp(-1j * omega * np.arange(d) * t / 2.0)
    ca = coherent_state(alpha_a, d)
    cb = coherent_state(alpha_b, d)

    right = grid.conj() @ (half_phases * ca)          # <beta|U|alpha_a>
    left = (grid * half_phases[None, :]) @ cb.conj()  # <alpha_b|U|beta>
    total = np.sum(left * right) * step * step / np.pi
    return complex(total)
