"""Exact unitary dynamics on the truncated three-mode space.

The three-mode Hamiltonian commutes with the quantum Manley-Rowe charges
n0+n1 and n0+n2, so it is a direct sum of chains of fixed charges, each
ordered by n0.  The gauge conj(kappa'/|kappa'|)^k makes every chain a real
symmetric tridiagonal block.  :func:`system_hamiltonian` returns that
charge-sector form, and :func:`evolve_state` propagates it exactly: a
chain is its energy, a pure phase, plus a zero-diagonal coupling that one
batched half-size SVD per batch of chains diagonalises, once per
distinct coupling row: the coupling is symmetric under swapping signal
and idler, so a chain and its mirror that start at the same pump level
share one.  A :class:`ProductState`, a coherent or number state in each
mode, gives its amplitude on a chain entry as a product of three ladder
amplitudes, so no d0*d1*d2 vector is built.  Of every state, product
or dense, the lightest chains are not evolved while their summed start
norm^2 stays within ``NEGLIGIBLE_WEIGHT`` = 1e-30 of the state's, so a
reduced sum moves by at most that times its largest weight, and an
amplitude by its square root.  The kept chains are batched by length, two lone chains of
complementary lengths joined into one row.  The norm, occupations,
energy and top-level leakage of every sample are reduced inside that
chain loop, so the (samples, dim) state array is assembled only when a
caller reads ``EvolutionResult.states``.  Any other Hermitian H, dense
or scipy sparse, is propagated through a full eigendecomposition or,
for larger or sparse inputs, Krylov evaluation of the matrix
exponential acting on the state.  Every route satisfies the
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

#: Fraction of a state's norm^2 that its unevolved chains may hold.
NEGLIGIBLE_WEIGHT = 1e-30


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

    @property
    def run(self) -> int:  # chains whose (m, L, L) block fits CHAIN_BLOCK_BYTES
        return max(1, CHAIN_BLOCK_BYTES // (8 * min(self.dims.d1, self.dims.d2) ** 2))

    def chains(self, charge1: np.ndarray, charge2: np.ndarray):
        """Yield ``(index, occupations, energy, coupling)`` per batch of
        at most :attr:`run` rows of one length L.

        ``charge1`` and ``charge2`` hold the charges n0+n1 and n0+n2 of the
        requested chains; those without a basis state are skipped.  A row
        is a chain, or two lone chains joined end to end (:func:`_joined`)
        after the longest chains.  Rows are batched by length, shortest
        first, a joined batch at the turn of its shortest chain, and keep
        their requested order.  ``index`` (m, L) holds the basis indices
        of a batch's m rows, ``occupations`` (3, m, L) their n0, n1, n2,
        ``energy`` (m, L) their energies omega1 (n0+n1) + omega2 (n0+n2)
        (+ the zero point), from the integer charges and so constant along
        a chain, and ``coupling`` (m, L-1) the magnitudes
        sqrt(n0 (n1+1) (n2+1)) linking position j-1 to j, taken at j, and
        0 at a seam.  H is the energy on the diagonal and kappa' times the
        magnitude at [j-1, j].
        """
        p, d = self.params, self.dims
        lowest = np.maximum(np.maximum(0, charge1 - (d.d1 - 1)),
                            charge2 - (d.d2 - 1))
        highest = np.minimum(np.minimum(d.d0 - 1, charge1), charge2)
        lengths = highest - lowest + 1
        order = np.argsort(lengths, kind="stable")
        cuts = np.flatnonzero(np.diff(lengths[order])) + 1
        groups = {int(lengths[group[0]]): group for group in np.split(order, cuts)
                  if group.size and lengths[group[0]] > 0}
        run, steps = self.run, np.arange(max(groups, default=0))
        # per turn, each batch's row chains and the entries' places in them
        rows = {length: [(group[first:first + run, None], steps[:length])
                         for first in range(0, group.size, run)]
                for length, group in groups.items()}
        if pairs := _joined(groups):
            head, tail = np.array(pairs).T[:, :, None]
            cut, longest = lengths[head], groups[steps.size]
            for length in [steps.size, *lengths[np.ravel(pairs)].tolist()]:
                del rows[length]
            chain = np.concatenate([np.repeat(longest[:, None], steps.size, 1),
                                    np.where(steps < cut, head, tail)])
            place = np.concatenate([np.broadcast_to(steps, (longest.size, steps.size)),
                                    np.where(steps < cut, steps, steps - cut)])
            rows[int(cut[0, 0])] = [(chain[first:first + run], place[first:first + run])
                                    for first in range(0, len(chain), run)]
        for chosen, at in (batch for length in sorted(rows) for batch in rows[length]):
            n0 = lowest[chosen] + at
            n1 = charge1[chosen] - n0
            n2 = charge2[chosen] - n0
            energy = p.omega1 * (n0 + n1) + p.omega2 * (n0 + n2)
            if p.include_zero_point:
                energy = energy + 0.5 * (p.omega0 + p.omega1 + p.omega2)
            coupling = np.sqrt(n0[:, 1:] * (n1[:, 1:] + 1.0) * (n2[:, 1:] + 1.0))
            if at.ndim > 1:  # joined rows, with no link at their seams
                coupling[at[:, 1:] == 0] = 0.0
            index = (n0 * d.d1 + n1) * d.d2 + n2
            yield index, np.stack([n0, n1, n2]), energy, coupling


@dataclass(frozen=True)
class ProductState:
    """The product state |m0> x |m1> x |m2>, held by its mode ladders.

    ``modes`` holds a number level (an int) or a coherent amplitude (a
    complex) per mode; a real float, a level off its ladder or a
    non-finite amplitude raises :class:`ValueError`.  The amplitude on
    (n0, n1, n2) is c0[n0] (c1[n1] c2[n2]), from :attr:`ladders`, built
    on first use, after a run's cap is checked.  :attr:`entries`, the
    entries a sample may hold, is about d0*min(d1, d2), one chain per pump
    level, with signal and idler on one level each (amplitude 0 is level
    0); otherwise it is d0*d1*d2.
    """

    modes: tuple
    dims: TruncationDims

    def __post_init__(self):
        d = self.dims
        for label, size in zip(self.modes, (d.d0, d.d1, d.d2), strict=True):
            if isinstance(label, complex) and not cmath.isfinite(label):
                raise ValueError(f"coherent amplitudes must be finite, got {label!r}")
            if isinstance(label, bool) or not isinstance(label, (complex, int, np.integer)):
                raise ValueError("number levels must be integers and coherent "
                                 f"amplitudes complex, got {label!r}")
            if not isinstance(label, complex) and not 0 <= label < size:
                raise ValueError(f"number level {label} outside a {size}-level ladder")

    @property
    def levels(self) -> list:  # per mode, the one level occupied, or None
        return [label if not isinstance(label, complex) else None if label else 0
                for label in self.modes]

    @property
    def entries(self) -> int:
        d, (_, n1, n2) = self.dims, self.levels
        if n1 is None or n2 is None:
            return d.total
        s, r = min(n1, n2), min(d.d1 - 1 - n1, d.d2 - 1 - n2)

        def excess(q):  # sum over n0 < d0 of max(0, n0 - q)
            low, high = max(1, -q), d.d0 - 1 - q
            return (low + high) * max(0, high - low + 1) // 2

        # chain n0 runs over pump levels max(0, n0 - r) .. min(d0 - 1, n0 + s)
        return (d.d0 * (d.d0 + 1) // 2 + d.d0 * s
                - excess(d.d0 - 1 - s) - excess(r))

    @cached_property
    def ladders(self) -> tuple[np.ndarray, ...]:
        """Per mode, a one-hot level or the normalised truncated coherent state."""
        d = self.dims
        return tuple(coherent_state(label, size) if isinstance(label, complex)
                     else np.eye(1, size, label)[0]
                     for label, size in zip(self.modes, (d.d0, d.d1, d.d2)))

    def amplitudes(self, occupations: np.ndarray) -> np.ndarray:
        """c0[n0] (c1[n1] c2[n2]) at the (3, ...) occupations."""
        c0, c1, c2 = self.ladders
        return c0[occupations[0]] * (c1[occupations[1]] * c2[occupations[2]])


def _chain_starts(h: SectorHamiltonian, psi0):
    """Yield ``(index, occupations, energy, coupling, start)`` per batch
    of :meth:`SectorHamiltonian.chains`, for the chains that carry
    ``psi0``'s weight.

    ``psi0`` is a dense state or a :class:`ProductState`; ``start`` (m, L)
    holds its amplitudes on the m rows of a batch.  Every state is weighed
    by its start norm^2 on every chain with a basis state
    (n1 - n2 in [1 - d2, d1 - 1]), a product state from its ladders one
    band column at a time, holding only the chains its ladders reach, so
    that its memory follows its weight, not d0*d1*d2 or the band; the
    lightest, weightless first, are dropped while their sum stays within
    ``NEGLIGIBLE_WEIGHT`` times the state's.  A chain keeps its norm, so a
    reduced sum moves by at most that times its largest weight.
    """
    d, product = h.dims, isinstance(psi0, ProductState)
    width = d.d1 + d.d2 - 1  # the band: n0+n1 major, n1 - n2 + d2 - 1 minor
    if product:  # per band column, p1[n1] p2[n2] convolved with p0
        p0, p1, p2 = (abs(c) ** 2 for c in psi0.ladders)
        (low1, high1), (low2, high2) = ((w[0], w[-1] + 1) for w in
                                        map(np.flatnonzero, (p1, p2)))
        shifts = np.arange(low1 - high2 + 1, high1 - low2)  # n1 - n2 per column
        firsts = np.maximum(low1, low2 + shifts)  # and its weighted n1 first:stop
        stops = np.minimum(high1, high2 + shifts)
        masses = []
        for shift, first, stop in zip(shifts.tolist(), firsts.tolist(), stops.tolist()):
            column = np.zeros(d.d1)
            column[first:stop] = p1[first:stop] * p2[first - shift:stop - shift]
            # n0+n1 in first .. stop + d0 - 2; the rest of the band is exactly 0
            masses.append(np.convolve(p0, column)[first:stop + d.d0 - 1].copy())
        reach = stops - firsts + d.d0 - 1
        charge1 = (np.arange(reach.sum())
                   - np.repeat(reach.cumsum() - reach - firsts, reach))
        keys = charge1 * width + np.repeat(shifts + d.d2 - 1, reach)
        mass = np.concatenate(masses)
    else:
        n0, n1, n2 = np.ogrid[:d.d0, :d.d1, :d.d2]
        mass = np.bincount(((n0 + n1) * width + n1 - n2 + d.d2 - 1).ravel(),
                           abs(psi0) ** 2, minlength=(d.d0 + d.d1 - 1) * width)
        keys = np.arange(mass.size)
    order = np.lexsort((keys, mass))  # lightest first, ties by place in the band
    light = np.count_nonzero(np.cumsum(mass[order]) <= NEGLIGIBLE_WEIGHT * mass.sum())
    charge1, offset = np.divmod(np.sort(keys[order[light:]]), width)
    for batch in h.chains(charge1, charge1 - offset + (d.d2 - 1)):
        yield *batch, psi0.amplitudes(batch[1]) if product else psi0[batch[0]]


def _joined(groups: dict) -> list:
    """The pairs of lone chains that :meth:`SectorHamiltonian.chains` joins.

    ``groups`` maps each chain length to its chains.  A group of one chain
    is not worth a batched SVD of its own, so a lone chain of length k and
    a lone chain of length L - k, L the longest, make one row of length L
    with no coupling at the seam, which H leaves two blocks.  A
    vacuum-seeded state's short chains, one per length, are so evolved
    with its longest ones, not one batch per length.  Returns the pairs
    (shorter, longer) by ascending k.  A joined row rounds differently
    from its chains apart, by about one unit in the last place.  The SVD
    may mix the double zero mode of two odd chains across the seam:
    harmless, as the chain energies apply per entry.
    """
    longest = max(groups, default=0)
    lone = {length: group[0] for length, group in groups.items() if group.size == 1}
    return [(lone[k], lone[longest - k]) for k in sorted(lone)
            if 2 * k < longest and longest - k in lone]


def _bipartite_modes(links: np.ndarray):
    """Eigenpairs of zero-diagonal tridiagonal blocks by a half-size SVD.

    ``links`` (m, L-1) holds the off-diagonals, entry j linking positions j
    and j+1, so even positions link to odd ones only, through B
    (ceil(L/2), floor(L/2)), B[i, i] = links[2i], B[i, i-1] = links[2i-1].
    Each singular triple (s, u, v) of B gives the eigenpairs +-s,
    [u; +-v]/sqrt(2) on the (even; odd) positions, and for an odd L the
    last column of U a zero mode [u; 0] (Golub & Kahan, SIAM J. Numer.
    Anal. B 2, 205 (1965)).  Returns the eigenvalues (m, L) and
    eigenvectors (m, L, L), by column.  Equal rows, a chain and its
    signal-idler mirror among them, share one SVD (:func:`_distinct_rows`),
    whose U, s and V, half the bytes of the eigenvectors, are gathered to
    every row: equal inputs give equal bits.  Rows of one or two positions
    take the closed forms 0, [1] and +-b, [1; +-1]/sqrt(2): a batched SVD
    costs tens of microseconds however small its matrices.  The SVD may
    give those vectors the other sign, which cancels exactly in V (V^T x).
    """
    m, length = links.shape[0], links.shape[1] + 1
    if length == 1:
        return np.zeros((m, 1)), np.ones((m, 1, 1))
    if length == 2:
        pair = np.sqrt(0.5) * np.array([[1.0, 1.0], [1.0, -1.0]])
        return np.concatenate([links, -links], axis=1), np.repeat(pair[None], m, axis=0)
    first, twin = _distinct_rows(links)
    links, half = links[first], length // 2
    rows = np.arange(length - half)
    bidiagonal = np.zeros((links.shape[0], rows.size, half))
    bidiagonal[:, rows[:half], rows[:half]] = links[:, 0::2]
    bidiagonal[:, rows[1:], rows[:-1]] = links[:, 1::2]
    u, s, vt = np.linalg.svd(bidiagonal)
    u, s, vt = u[twin], s[twin], vt[twin]
    vectors = np.zeros((m, length, length))
    vectors[:, 0::2, :half] = vectors[:, 0::2, half:2 * half] = (
        np.sqrt(0.5) * u[:, :, :half])
    vectors[:, 1::2, :half] = np.sqrt(0.5) * vt.transpose(0, 2, 1)
    vectors[:, 1::2, half:2 * half] = -vectors[:, 1::2, :half]
    vectors[:, 0::2, 2 * half:] = u[:, :, half:]
    return np.concatenate([s, -s, np.zeros((m, length - 2 * half))], axis=1), vectors


def _distinct_rows(links: np.ndarray):
    """``(first, twin)``: the ascending indices of the first row of each
    distinct byte pattern of ``links`` and, per row, the place of its
    pattern's first row among them; two full slices when all rows differ."""
    keys = np.ascontiguousarray(links).view(f"V{links.itemsize * links.shape[1]}")
    place = {}
    origin = [place.setdefault(key, row)
              for row, key in enumerate(keys.ravel().tolist())]
    if len(place) == len(origin):
        return slice(None), slice(None)
    first = np.array(list(place.values()))
    return first, np.searchsorted(first, origin)


def _evolved_chains(h: SectorHamiltonian, psi0, step: float, n_samples: int):
    """The chains of psi0, but for their energies, evolved to k step, k < n_samples.

    Yields ``(index, occupations, energy, coupling, samples, frame,
    gauge)`` for the chains of :func:`_chain_starts` (the others stay
    zero), once per batch of chains and chunk of samples.  Of H on a
    chain, the energy E of :meth:`SectorHamiltonian.chains` is a constant
    whose phase no reduced observable sees.  The rest, the coupling, is
    diagonalised per batch by :func:`_bipartite_modes`, once per distinct
    row.  The phases of sample k are the k-th powers of one step's
    phases.  The sample axis is cut into chunks of one size, whose
    evolved block stays within ``CHAIN_BLOCK_BYTES`` or holds six samples
    where that is more, so the peak does not grow with the sample count;
    the last chunk takes the rest.  Each chunk continues the running
    product from the last sample of the chunk before, so the amplitudes
    do not depend on the cut.  ``samples`` is the chunk's slice of the
    sample axis.  ``frame`` (m, L, 2 n) holds the real and imaginary parts
    of its n evolved samples in the gauge conj(kappa'/|kappa'|)^j, where
    every chain is a real block; the basis amplitudes are
    ``frame.view(complex) * gauge[:, None] * exp(-i E t)``.
    """
    magnitude, angle = abs(h.params.kappa_prime), -np.angle(h.params.kappa_prime)
    for index, occupations, energy, coupling, start in _chain_starts(h, psi0):
        m, length = index.shape
        gauge = np.exp(1j * angle * np.arange(length))
        eigvals, vectors = _bipartite_modes(magnitude * coupling)
        phases = np.exp(-1j * step * eigvals)[:, :, None]
        carry = np.einsum("mjl,mj->ml", vectors, gauge.conj() * start)
        # chunks of one size, whatever the sample count; a later chunk holds
        # at least two samples, as numpy's cumprod multiplies a two-entry
        # axis in a fused loop that rounds differently
        size = max(6, CHAIN_BLOCK_BYTES // (16 * m * length))
        bounds = [*range(0, max(n_samples - 1, 1), size), n_samples]
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


def _check_entries(n_samples: int, entries: int) -> None:
    if n_samples * entries > STATE_SAMPLE_CAP:
        raise ResourceLimitError(f"{n_samples} samples of {entries} state entries "
                                 f"exceed the cap of {STATE_SAMPLE_CAP} state entries")


def _assemble_states(h: SectorHamiltonian, psi0, step: float,
                     n_samples: int) -> np.ndarray:
    """The (n_samples, dim) states exp(-i H k step) psi0, chain by chain.

    The chain energies' phases join here.  Raises :class:`ResourceLimitError`
    before allocating if d0*d1*d2 exceeds ``DEFAULT_DIM_CAP`` or the
    states ``STATE_SAMPLE_CAP`` entries.
    """
    h.dims.check_dense()
    _check_entries(n_samples, h.dims.total)
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
    d, magnitude = h.dims, abs(h.params.kappa_prime)
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
    return sums


def system_hamiltonian(params: ModeParams, dims: TruncationDims) -> SectorHamiltonian:
    """Three-mode Hamiltonian in its charge-sector form."""
    return SectorHamiltonian(params, dims)


def evolve_state(h, psi0, t_final: float, n_samples: int,
                 dims: TruncationDims) -> EvolutionResult:
    """Evolve ``psi0`` under ``h`` and sample uniformly on [0, t_final].

    ``h`` is the charge-sector form from :func:`system_hamiltonian`, or a
    dense array or scipy sparse matrix, Hermitian to ``HERMITICITY_TOL``.
    ``psi0`` is a :class:`ProductState`, under the charge-sector form of
    its own ``dims``, or a dense vector, which the oracle tests use.
    Per-mode occupations, <H>, the norm and the top-level population on
    ``dims`` (the leakage; above ``LEAKAGE_TOL`` it attaches a warning)
    are recorded.  The charge-sector form reduces them chain by chain,
    for a product and a dense state alike dropping chains within
    ``NEGLIGIBLE_WEIGHT`` = 1e-30 of the norm^2 (:func:`_chain_starts`;
    each moves by at most 1e-30 times 1, d_j - 1 or ||H||), and assembles
    the result's ``states`` only if read; the other forms compute the
    states first.  Raises
    :class:`ValueError` for a negative or non-finite ``t_final`` and
    :class:`ResourceLimitError` before allocating if the samples would
    hold more than ``STATE_SAMPLE_CAP`` state entries: d0*d1*d2 per
    sample for a dense state, :attr:`ProductState.entries` for a product
    state.
    """
    product = isinstance(psi0, ProductState)
    if not product:
        psi0 = np.asarray(psi0, dtype=complex)
    size = psi0.dims.total if product else psi0.shape[0]
    if not 0 <= t_final < np.inf:
        raise ValueError(f"t_final must be finite and >= 0, got {t_final}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if not tuple(h.shape) == (size, size) == (dims.total, dims.total):
        raise ValueError(f"dimension mismatch: H is {h.shape}, state has length "
                         f"{size}, dims.total = {dims.total}")
    if product and (not isinstance(h, SectorHamiltonian) or psi0.dims != dims):
        raise ValueError("a ProductState evolves under the charge-sector form "
                         "of its own dims")
    _check_entries(n_samples, psi0.entries if product else size)
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

    |alpha_a> is evolved on its chains to the one sample t, and each
    batch's amplitudes, with their energy phases exp(-iEt), are summed
    against <alpha_b|'s.  Raises :class:`ValueError` for a non-finite
    ``t`` or label, and :class:`ResourceLimitError` if two samples of
    |alpha_a> exceed ``STATE_SAMPLE_CAP`` state entries.
    """
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    state_a, state_b = (ProductState(tuple(map(complex, labels)), dims)
                        for labels in (alpha_a, alpha_b))
    _check_entries(2, state_a.entries)
    h = system_hamiltonian(params, dims)
    return complex(sum(
        np.vdot(state_b.amplitudes(occupations),
                frame.view(complex)[:, :, 1] * gauge * np.exp(-1j * energy * t))
        for _, occupations, energy, _, _, frame, gauge
        in _evolved_chains(h, state_a, t, 2)))


def fluorescence_from_vacuum(params: ModeParams, dims: TruncationDims,
                             t_final: float, n_samples: int) -> EvolutionResult:
    """Evolution of |pump_alpha0, 0, 0>: spontaneous signal/idler growth.

    The mean-field equations keep vacuum signal and idler at exactly zero,
    so any nonzero <n1>(t), <n2>(t) here is purely quantum seeding.  The
    state is a :class:`ProductState` with signal and idler at level 0, so
    it occupies one chain per pump level, and only those that carry its
    weight are evolved.
    """
    return evolve_state(system_hamiltonian(params, dims),
                        ProductState((complex(params.pump_alpha0), 0, 0), dims),
                        t_final, n_samples, dims)
