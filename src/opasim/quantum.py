"""Exact unitary dynamics on the truncated three-mode space.

The three-mode Hamiltonian commutes with the quantum Manley-Rowe charges
n0+n1 and n0+n2, so it is a direct sum of chains of fixed charges, each
ordered by n0.  The gauge conj(kappa'/|kappa'|)^k makes every chain a real
symmetric tridiagonal block.  :func:`system_hamiltonian` returns that
charge-sector form, and :func:`evolve_state` propagates it exactly: a
chain is its energy, a pure phase, plus a zero-diagonal coupling that one
batched half-size SVD per chain length diagonalises (``eigh`` where a
float detuning remains).  A :class:`ChainState`, a coherent pump times
signal and idler number states, names its about d0 occupied chains and
their start amplitudes directly, so that no d0*d1*d2 vector is built.
The norm, occupations, energy and top-level leakage of every sample are
reduced inside that chain loop, so the (samples, dim) state array is
assembled only when a caller reads ``EvolutionResult.states``.  Any other
Hermitian H, dense or scipy sparse, is propagated through a full
eigendecomposition or, for larger or sparse inputs, Krylov evaluation of
the matrix exponential acting on the state.  Every route satisfies the
same contract: unit norm to 1e-9 and machine-accurate conservation of
energy and of the three-wave-mixing charges n0+n1, n0+n2, n1-n2.
"""

from __future__ import annotations

import cmath
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DivergenceError, ResourceLimitError
from .fockspace import (
    STATE_SAMPLE_CAP,
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

#: Bound on the bytes of one evolved block (chains x length x samples,
#: complex) of the charge-sector route; longer sample axes are evolved in
#: chunks.  The largest block of any op in ``perfbench`` is 1.23 MB, so
#: those run as one chunk.
CHAIN_BLOCK_BYTES = 4 * 2**20


@dataclass
class EvolutionResult:
    """Uniformly sampled evolution of a state under a fixed Hamiltonian.

    ``expectations[k]`` holds (<n0>, <n1>, <n2>) at ``times[k]``,
    ``energies[k]`` is <H> and ``norm_deviations[k]`` is | ||psi|| - 1 |.
    ``leakage[k]`` is the population on any mode's top Fock level.
    ``warnings`` collects truncation diagnostics.  ``states[k]``, the state
    at ``times[k]``, is built by ``assemble`` on first read and kept: the
    charge-sector route computes the observables without it and assembles
    it only when asked.
    """

    times: np.ndarray
    expectations: np.ndarray
    energies: np.ndarray
    norm_deviations: np.ndarray
    leakage: np.ndarray
    assemble: Callable[[], np.ndarray] = field(repr=False, compare=False)
    warnings: list[str] = field(default_factory=list)

    @cached_property
    def states(self) -> np.ndarray:
        return self.assemble()

    @property
    def max_norm_deviation(self) -> float:
        return float(np.max(self.norm_deviations))


# The eigh/Krylov helpers below are the charge-sector route's oracle and
# import scipy when called, so the CLI, which never calls them, runs on
# numpy alone.


def _check_hermitian(h) -> None:
    from scipy import sparse

    if sparse.issparse(h):
        dev = abs(h - h.conjugate().transpose()).max()
    else:
        dev = np.max(np.abs(h - h.conj().T))
    if not dev <= HERMITICITY_TOL:  # NaN entries fail the comparison
        raise ValueError(f"Hamiltonian is not Hermitian: max|H - H^+| = {dev:.3g}")


def _apply(h, states: np.ndarray) -> np.ndarray:
    """H applied to a stack of row states, returning the same layout."""
    from scipy import sparse

    if sparse.issparse(h):
        return (h @ states.T).T
    return states @ np.asarray(h).T


def _propagate(h, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """States exp(-i H t_k) psi0 for a uniform, ascending time grid."""
    from scipy import sparse
    from scipy.sparse.linalg import expm_multiply

    dim = psi0.shape[0]
    if not sparse.issparse(h) and dim <= EIGH_DIM_LIMIT:
        energies, vectors = np.linalg.eigh(h)
        coeff = vectors.conj().T @ psi0
        phases = np.exp(-1j * np.outer(times, energies))
        return (phases * coeff) @ vectors.T
    if len(times) == 1:  # the grid is [0.0]
        return psi0[np.newaxis, :].copy()
    out = expm_multiply(
        -1j * sparse.csr_matrix(h), psi0,
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

    def chains(self, charge1: np.ndarray, charge2: np.ndarray):
        """Yield ``(chosen, index, occupations, energy, coupling)`` per
        chain length L, over the chains of the given charges.

        ``charge1`` and ``charge2`` hold the charges n0+n1 and n0+n2 of the
        requested chains; those without a basis state are skipped.
        ``chosen`` holds the positions of the m requested chains of length
        L, in their requested order, ``index`` (m, L) their basis indices,
        ``occupations`` (3, m, L) their n0, n1, n2, ``energy`` (m, L) their
        energies omega1 (n0+n1) + omega2 (n0+n2) (+ the zero point), from
        the integer charges and so constant along a chain, and ``coupling``
        (m, L-1) the magnitudes sqrt(n0 (n1+1) (n2+1)) linking position j-1
        to j, taken at j.  H is the energy plus (omega0 - omega1 - omega2) n0
        on the diagonal and kappa' times the magnitude at [j-1, j].
        """
        p, d = self.params, self.dims
        lowest = np.maximum(np.maximum(0, charge1 - (d.d1 - 1)),
                            charge2 - (d.d2 - 1))
        highest = np.minimum(np.minimum(d.d0 - 1, charge1), charge2)
        lengths = highest - lowest + 1
        order = np.argsort(lengths, kind="stable")
        cuts = np.flatnonzero(np.diff(lengths[order])) + 1
        for chosen in np.split(order, cuts):
            length = lengths[chosen[0]]
            if length < 1:
                continue
            n0 = lowest[chosen][:, None] + np.arange(length)
            n1 = charge1[chosen][:, None] - n0
            n2 = charge2[chosen][:, None] - n0
            energy = p.omega1 * (n0 + n1) + p.omega2 * (n0 + n2)
            if p.include_zero_point:
                energy = energy + 0.5 * (p.omega0 + p.omega1 + p.omega2)
            coupling = np.sqrt(n0[:, 1:] * (n1[:, 1:] + 1.0) * (n2[:, 1:] + 1.0))
            index = (n0 * d.d1 + n1) * d.d2 + n2
            yield chosen, index, np.stack([n0, n1, n2]), energy, coupling


@dataclass(frozen=True)
class ChainState:
    """The state |alpha0> x |n1> x |n2>, held by its charge chains.

    A coherent pump times signal and idler number states occupies one
    chain per pump level n0, the chain of charges (n0+n1, n0+n2), at the
    single entry (n0, n1, n2), where its amplitude is the pump's coherent
    amplitude c(n0).  That is about d0 of the (d0+d1-1)(d0+d2-1) chains,
    so :func:`evolve_state` evolves it without a dense d0*d1*d2 vector:
    its cost, its memory and its cap (``STATE_SAMPLE_CAP``, on
    :attr:`entries` per sample, about d0*min(d1, d2)) follow the occupied
    chains, not d0*d1*d2.  ``shape`` is the dense state's, for the checks
    the two forms share.  A non-finite ``alpha0``, or levels that are not
    integers on the ladders, raise :class:`ValueError`.
    """

    alpha0: complex
    dims: TruncationDims
    n1: int = 0
    n2: int = 0

    def __post_init__(self):
        if not cmath.isfinite(self.alpha0):
            raise ValueError(f"alpha0 must be finite, got {self.alpha0!r}")
        if not all(isinstance(n, (int, np.integer)) for n in (self.n1, self.n2)):
            raise ValueError(
                f"signal/idler levels must be integers, got ({self.n1!r}, {self.n2!r})")
        if not (0 <= self.n1 < self.dims.d1 and 0 <= self.n2 < self.dims.d2):
            raise ValueError(
                f"signal/idler levels ({self.n1}, {self.n2}) outside {self.dims}")

    @property
    def shape(self) -> tuple[int]:
        return (self.dims.total,)

    @property
    def entries(self) -> int:
        """State entries one sample holds: those of its d0 chains."""
        d, s = self.dims, min(self.n1, self.n2)
        r = min(d.d1 - 1 - self.n1, d.d2 - 1 - self.n2)

        def excess(q):  # sum over n0 < d0 of max(0, n0 - q)
            if q >= 0:
                return max(0, d.d0 - 1 - q) * max(0, d.d0 - q) // 2
            return d.d0 * (d.d0 - 1) // 2 - q * d.d0

        # chain n0 runs over pump levels max(0, n0 - r) .. min(d0 - 1, n0 + s)
        return (d.d0 * (d.d0 + 1) // 2 + d.d0 * s
                - excess(d.d0 - 1 - s) - excess(r))

    @cached_property
    def pump_amplitudes(self) -> np.ndarray:
        """c(n0), n0 < d0: the normalised truncated coherent pump state."""
        return coherent_state(self.alpha0, self.dims.d0)


def _chain_starts(h: SectorHamiltonian, psi0):
    """Yield ``(index, occupations, energy, coupling, start)`` per batch
    of chains, for the chains on which ``psi0`` does not vanish.

    ``psi0`` is a dense state or a :class:`ChainState`; ``start`` (m, L)
    holds its amplitudes on the m chains of a batch, all of length L.  A
    dense state is gathered from every chain, one batch per chain length.
    A chain state names its own chains, one per nonzero pump amplitude,
    and sets their start entries directly.  Its pump levels are taken in
    runs whose (m, L, L) blocks stay within ``CHAIN_BLOCK_BYTES``, and
    within a run the short chains are joined end to end (see
    :func:`_joined`).
    """
    d = h.dims
    if isinstance(psi0, ChainState):
        levels = np.flatnonzero(psi0.pump_amplitudes)
        run = max(1, CHAIN_BLOCK_BYTES // (8 * min(d.d1, d.d2) ** 2))
        for first in range(0, levels.size, run):
            chosen_levels = levels[first:first + run]
            amplitudes = psi0.pump_amplitudes[chosen_levels]
            groups = [
                (index, occupations, energy, coupling,
                 np.where(occupations[1] == psi0.n1, amplitudes[chosen, None], 0))
                for chosen, index, occupations, energy, coupling in h.chains(
                    chosen_levels + psi0.n1, chosen_levels + psi0.n2)]
            yield from _joined(groups)
        return
    width = d.d0 + d.d2 - 1
    # every charge pair, n0+n1 major, so the chains keep their basis order
    charge1, charge2 = np.divmod(np.arange((d.d0 + d.d1 - 1) * width), width)
    for _, index, occupations, energy, coupling in h.chains(charge1, charge2):
        start = psi0[index]
        occupied = np.any(start != 0, axis=1)
        if not occupied.all():
            if not occupied.any():
                continue
            index, occupations, energy, coupling, start = (
                index[occupied], occupations[:, occupied], energy[occupied],
                coupling[occupied], start[occupied])
        yield index, occupations, energy, coupling, start


def _joined(groups: list):
    """The chain groups of one length each, with short chains joined.

    A chain of length k and one of length L - k, L the longest, make one
    row of length L with no coupling at the seam, so H leaves them two
    blocks.  The rows join the group of length L, so that a vacuum-seeded
    state's d0 chains are evolved in one or two batches, not one per
    length.  Chains left without a partner keep their group.  A joined
    row rounds differently from its chains apart, by about one unit in the
    last place.  The SVD may mix the double zero mode of two odd chains
    across the seam: harmless, as the chain energies apply per entry.
    """
    by_length = {group[0].shape[1]: group for group in groups}
    if not by_length:
        return
    longest = max(by_length)
    rows, rest = [by_length.pop(longest)], []
    for length in sorted(by_length):
        group = by_length.pop(length, None)
        other = by_length.pop(longest - length, None)
        if group is None or other is None:
            rest += [g for g in (group, other) if g is not None]
            continue
        p = min(len(group[0]), len(other[0]))
        head = [a[..., :p, :] for a in group]
        head[3] = np.concatenate([head[3], np.zeros((p, 1))], axis=1)  # the seam
        rows.append(tuple(np.concatenate([a, b[..., :p, :]], axis=-1)
                          for a, b in zip(head, other)))
        rest += [tuple(a[..., p:, :] for a in g) for g in (group, other)
                 if len(g[0]) > p]
    yield rows[0] if len(rows) == 1 else tuple(
        np.concatenate(parts, axis=-2) for parts in zip(*rows))
    yield from rest


def _bipartite_modes(links: np.ndarray):
    """Eigenpairs of zero-diagonal tridiagonal blocks by a half-size SVD.

    ``links`` (m, L-1) holds the off-diagonals, entry j linking positions j
    and j+1, so even positions link to odd ones only, through B
    (ceil(L/2), floor(L/2)), B[i, i] = links[2i], B[i, i-1] = links[2i-1].
    Each singular triple (s, u, v) of B gives the eigenpairs +-s,
    [u; +-v]/sqrt(2) on the (even; odd) positions, and for an odd L the
    last column of U a zero mode [u; 0] (Golub & Kahan, SIAM J. Numer.
    Anal. B 2, 205 (1965)).  Returns eigenvalues (m, L) and eigenvectors
    (m, L, L) by column.
    """
    m, length, half = links.shape[0], links.shape[1] + 1, (links.shape[1] + 1) // 2
    rows = np.arange(length - half)
    bidiagonal = np.zeros((m, rows.size, half))
    bidiagonal[:, rows[:half], rows[:half]] = links[:, 0::2]
    bidiagonal[:, rows[1:], rows[:-1]] = links[:, 1::2]
    u, s, vt = np.linalg.svd(bidiagonal)
    vectors = np.zeros((m, length, length))
    vectors[:, 0::2, :half] = vectors[:, 0::2, half:2 * half] = (
        np.sqrt(0.5) * u[:, :, :half])
    vectors[:, 1::2, :half] = np.sqrt(0.5) * vt.transpose(0, 2, 1)
    vectors[:, 1::2, half:2 * half] = -vectors[:, 1::2, :half]
    vectors[:, 0::2, 2 * half:] = u[:, :, half:]
    return np.concatenate([s, -s, np.zeros((m, length - 2 * half))], axis=1), vectors


def _evolved_chains(h: SectorHamiltonian, psi0, step: float, n_samples: int):
    """The chains of psi0, but for their energies, evolved to k step, k < n_samples.

    Yields ``(index, occupations, energy, coupling, samples, frame,
    gauge)`` for the chains of :func:`_chain_starts` (the others stay
    zero), once per batch of chains and chunk of samples.  Of H on a
    chain, the energy E of :meth:`SectorHamiltonian.chains` is a constant
    whose phase no reduced observable sees.  The rest is diagonalised per
    batch, at resonance by :func:`_bipartite_modes`, else by ``eigh``, and
    the phases of sample k are the k-th powers of one step's phases.  The
    sample axis is cut into even chunks whose evolved block stays within
    ``CHAIN_BLOCK_BYTES``, or holds at most six samples where that is
    more.  Each chunk continues the running product from the last sample
    of the chunk before, so the amplitudes do not depend on the cut.
    ``samples`` is the chunk's slice of the sample axis.  ``frame``
    (m, L, 2 n) holds the real and imaginary parts of its n evolved
    samples in the gauge conj(kappa'/|kappa'|)^j, where every chain is a
    real block; the basis amplitudes are
    ``frame.view(complex) * gauge[:, None] * exp(-i E t)``.
    """
    p, magnitude = h.params, abs(h.params.kappa_prime)
    detuning, angle = p.omega0 - (p.omega1 + p.omega2), -np.angle(p.kappa_prime)
    for index, occupations, energy, coupling, start in _chain_starts(h, psi0):
        m, length = index.shape
        gauge = np.exp(1j * angle * np.arange(length))
        if detuning == 0.0:
            eigvals, vectors = _bipartite_modes(magnitude * coupling)
        else:  # a float mismatch that ModeParams accepts
            block = np.zeros((m, length, length))
            j = np.arange(length)
            block[:, j, j] = detuning * occupations[0]
            block[:, j[:-1], j[1:]] = block[:, j[1:], j[:-1]] = magnitude * coupling
            eigvals, vectors = np.linalg.eigh(block)
        phases = np.exp(-1j * step * eigvals)[:, :, None]
        carry = np.einsum("mjl,mj->ml", vectors, gauge.conj() * start)
        # even chunks of at least three samples: numpy's cumprod multiplies
        # a two-entry axis in a fused loop that rounds differently
        n_chunks = -(-n_samples // max(6, CHAIN_BLOCK_BYTES // (16 * m * length)))
        bounds = [n_samples * k // n_chunks for k in range(n_chunks + 1)]
        for begin, stop in zip(bounds, bounds[1:]):
            # column 0 is sample 0 in the first chunk and the last sample of
            # the chunk before in later ones, which are yielded without it
            low = max(begin - 1, 0)
            evolved = np.empty((m, length, stop - low), dtype=complex)
            evolved[:, :, 0] = carry
            evolved[:, :, 1:] = phases
            np.cumprod(evolved, axis=2, out=evolved)
            carry = evolved[:, :, -1].copy()
            # real eigenvectors times complex amplitudes as one real matmul
            frame = vectors @ evolved[:, :, begin - low:].view(float)
            del evolved
            yield (index, occupations, energy, coupling, slice(begin, stop),
                   frame, gauge)
            del frame  # so that the caller's del frees it before the next chunk


def _assemble_states(h: SectorHamiltonian, psi0, step: float,
                     n_samples: int) -> np.ndarray:
    """The (n_samples, dim) states exp(-i H k step) psi0, chain by chain.

    The chain energies' phases join here.  Raises :class:`ResourceLimitError`
    before allocating if d0*d1*d2 exceeds ``DEFAULT_DIM_CAP`` or the
    states ``STATE_SAMPLE_CAP`` entries.
    """
    h.dims.check_dense()
    if n_samples * h.dims.total > STATE_SAMPLE_CAP:
        raise ResourceLimitError(
            f"{n_samples} assembled samples of {h.dims.total} states exceed "
            f"the cap of {STATE_SAMPLE_CAP} state entries"
        )
    times = step * np.arange(n_samples)
    states = np.zeros((n_samples, h.dims.total), dtype=complex)
    for (index, _, energy, _, samples, frame,
         gauge) in _evolved_chains(h, psi0, step, n_samples):
        amplitudes = (frame.view(complex) * gauge[:, None]
                      * np.exp(-1j * energy[:, :, None] * times[samples]))
        states[samples, index.ravel()] = amplitudes.transpose(2, 0, 1).reshape(
            amplitudes.shape[2], -1)
    return states


def _reduce_chains(h: SectorHamiltonian, psi0, step: float,
                   n_samples: int) -> np.ndarray:
    """Per-sample sums over the evolved chains, without the state array.

    Returns (6, n_samples): the squared norm, the sums of n0, n1, n2 and
    of H over the populations, and the leakage, the population of the
    basis states with a mode on its top Fock level.  <H> is taken in the
    real gauge frame: H's diagonal against the populations plus
    2|kappa'| coupling Re(conj(phi_{j-1}) phi_j) per link, phi the
    gauge-frame amplitudes, so it checks the states rather than repeating
    the eigenvalues.  The leakage is its own product, not a sixth row of
    the first five's: OpenBLAS rounds a product by its shape.
    """
    p, d = h.params, h.dims
    magnitude = abs(p.kappa_prime)
    sums = np.zeros((6, n_samples))
    for (_, occupations, energy, coupling, samples, frame,
         _) in _evolved_chains(h, psi0, step, n_samples):
        n = frame.shape[2] // 2
        weights = np.concatenate([np.ones_like(energy)[None], occupations,
                                  energy[None]]).reshape(5, -1)
        on_top = ((occupations[0] == d.d0 - 1) | (occupations[1] == d.d1 - 1)
                  | (occupations[2] == d.d2 - 1)).reshape(-1).astype(float)
        squares = (frame * frame).reshape(weights.shape[1], 2 * n)
        sums[:5, samples] += (weights @ squares).reshape(5, n, 2).sum(axis=2)
        sums[5, samples] += (on_top @ squares).reshape(n, 2).sum(axis=1)
        del squares
        links = (frame[:, :-1] * frame[:, 1:]).reshape(coupling.size, 2 * n)
        cross = (coupling.reshape(-1) @ links).reshape(n, 2).sum(axis=1)
        sums[4, samples] += 2.0 * magnitude * cross
        del frame, links  # before the next chunk is evolved
    sums[4] += (p.omega0 - (p.omega1 + p.omega2)) * sums[1]  # the detuning's share
    return sums


def system_hamiltonian(params: ModeParams, dims: TruncationDims) -> SectorHamiltonian:
    """Three-mode Hamiltonian in its charge-sector form."""
    return SectorHamiltonian(params, dims)


def evolve_state(h, psi0, t_final: float, n_samples: int,
                 dims: TruncationDims) -> EvolutionResult:
    """Evolve ``psi0`` under ``h`` and sample uniformly on [0, t_final].

    ``h`` may be the charge-sector form from :func:`system_hamiltonian`,
    a dense array or a scipy sparse matrix; the latter two must be
    Hermitian to ``HERMITICITY_TOL``.  ``psi0`` is a dense state vector,
    or, for the charge-sector form, a :class:`ChainState`, which is
    evolved on its occupied chains alone.  Per-mode occupation expectations
    and the top-level population on ``dims`` are recorded, and
    truncation-boundary leakage is monitored (population of any top
    Fock level above ``LEAKAGE_TOL`` attaches a warning to the result).
    For the charge-sector form ``dims`` must be the Hamiltonian's own, the
    observables, the leakage among them, are reduced chain by chain, and
    the result's ``states`` are assembled from the chains only if they
    are read.  The other forms compute the states first and take the
    observables from them.  Raises
    :class:`ValueError` for a negative or non-finite ``t_final`` and
    :class:`ResourceLimitError` before allocating if the samples would
    hold more than ``STATE_SAMPLE_CAP`` state entries: d0*d1*d2 per sample
    for a dense state, :attr:`ChainState.entries` for a chain state.
    """
    chain_state = isinstance(psi0, ChainState)
    if not chain_state:
        psi0 = np.asarray(psi0, dtype=complex)
    if not 0 <= t_final < np.inf:
        raise ValueError(f"t_final must be finite and >= 0, got {t_final}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if h.shape[0] != h.shape[1] or h.shape[0] != psi0.shape[0]:
        raise ValueError(
            f"dimension mismatch: H is {h.shape}, state has length {psi0.shape[0]}"
        )
    if dims.total != psi0.shape[0]:
        raise ValueError(
            f"dims.total = {dims.total} does not match state length {psi0.shape[0]}"
        )
    if chain_state and (not isinstance(h, SectorHamiltonian) or psi0.dims != dims):
        raise ValueError("a ChainState evolves under the charge-sector form "
                         "of its own dims")
    entries = psi0.entries if chain_state else psi0.shape[0]
    if n_samples * entries > STATE_SAMPLE_CAP:
        raise ResourceLimitError(
            f"{n_samples} samples of {entries} state entries exceed the cap of "
            f"{STATE_SAMPLE_CAP} state entries"
        )
    times = np.linspace(0.0, t_final, n_samples)
    if isinstance(h, SectorHamiltonian):
        if dims != h.dims:
            raise ValueError(f"dims {dims} do not match the Hamiltonian's {h.dims}")
        step = times[1] if n_samples > 1 else 0.0
        sums = _reduce_chains(h, psi0, step, n_samples)
        norm_sq, occupations, energies, leakage = (
            sums[0], sums[1:4].T, sums[4], sums[5])

        def assemble():
            return _assemble_states(h, psi0, step, n_samples)
    else:
        _check_hermitian(h)
        states = _propagate(h, psi0, times)
        energies = np.real(np.sum(states.conj() * _apply(h, states), axis=1))
        probs = np.abs(states) ** 2
        norm_sq = np.sum(probs, axis=1)
        n0, n1, n2 = occupation_arrays(dims)
        occupations = np.stack([probs @ n0, probs @ n1, probs @ n2], axis=1)
        on_top = (n0 == dims.d0 - 1) | (n1 == dims.d1 - 1) | (n2 == dims.d2 - 1)
        leakage = np.sum(probs[:, on_top], axis=1)

        def assemble():
            return states

    norm_dev = np.abs(np.sqrt(norm_sq) - 1.0)
    # NaN fails the comparison, so a NaN norm trips the guard
    if not np.max(norm_dev) <= NORM_TOL:
        raise DivergenceError(
            f"evolution lost unitarity: max | ||psi|| - 1 | = {np.max(norm_dev):.3g}"
        )

    notes: list[str] = []
    expectations = np.maximum(occupations, 0.0)
    if np.max(leakage) > LEAKAGE_TOL:
        notes.append(
            f"truncation-boundary population reached {np.max(leakage):.3g}; "
            "conserved-charge diagnostics may be unreliable"
        )

    return EvolutionResult(times=times, expectations=expectations,
                           energies=energies, norm_deviations=norm_dev,
                           leakage=leakage, assemble=assemble, warnings=notes)


def propagator_exact(params: ModeParams, dims: TruncationDims,
                     alpha_a: tuple[complex, complex, complex],
                     alpha_b: tuple[complex, complex, complex],
                     t: float) -> complex:
    """Exact truncated-space transition amplitude <alpha_b| e^{-iHt} |alpha_a>.

    Raises :class:`ValueError` for a non-finite ``t``.
    """
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    psi_a = product_coherent_state(*alpha_a, dims)
    psi_b = product_coherent_state(*alpha_b, dims)
    states = _assemble_states(system_hamiltonian(params, dims), psi_a, t, 2)
    return complex(np.vdot(psi_b, states[1]))


def fluorescence_from_vacuum(params: ModeParams, dims: TruncationDims,
                             t_final: float, n_samples: int) -> EvolutionResult:
    """Evolution of |pump_alpha0, 0, 0>: spontaneous signal/idler growth.

    The mean-field equations keep vacuum signal and idler at exactly zero,
    so any nonzero <n1>(t), <n2>(t) here is purely quantum seeding.  The
    state is a :class:`ChainState`, so only its about d0 occupied chains
    are evolved.
    """
    psi0 = ChainState(params.pump_alpha0, dims)
    h = system_hamiltonian(params, dims)
    return evolve_state(h, psi0, t_final, n_samples, dims)
