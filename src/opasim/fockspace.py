"""Truncated three-mode Fock space: ladder operators, coherent states, Hamiltonian.

The joint number basis is ordered with mode 0 slowest,

    index(n0, n1, n2) = (n0 * d1 + n1) * d2 + n2,

and every module in the package relies on that ordering.  Units are chosen
so that hbar = 1 and all frequencies are angular.  The pump/signal/idler
coupling carries a single constant phase-mismatch angle ``phi`` folded into
the effective coupling ``kappa' = kappa * exp(-i*phi)``.

States are complex vectors of unit norm, one per mode; their dense
d0*d1*d2 product (:func:`product_coherent_state`) serves the oracles.  The
Hamiltonian is built from the embedded ladder operators as a scipy
sparse matrix, and as a dense array for small spaces; both serve as the
oracle for the charge-sector form of :mod:`opasim.quantum`.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DivergenceError, ResourceLimitError, TruncationWarning

if TYPE_CHECKING:
    from scipy import sparse

#: Bound on d0*d1*d2 wherever an array of one entry per basis state is
#: built: a dense state, the occupation arrays, a Hamiltonian, assembled
#: states.  Dims alone are not capped, so a ``quantum.ProductState`` runs
#: at any d0*d1*d2 that its own entries allow.
DEFAULT_DIM_CAP = 262144

#: Bound on the samples (steps + 1) of one mean-field trajectory, and of
#: a thermal ensemble's time axis.  ``meanfield`` and ``sweep`` runs stream
#: the trajectory in blocks and peak about 1 MB above the import at any
#: length; an ``action-check`` run peaks about 160 bytes per sample above
#: it, ``stationary_propagator`` about 26 per slice and an ensemble's
#: statistics about 70 per step.
TRAJECTORY_SAMPLE_CAP = 5_000_000

#: Bound on (steps + 1) * members of a thermal ensemble.  The statistics
#: are streamed, so this bounds run time and the output, not buffers.
ENSEMBLE_MEMBER_STEP_CAP = 50_000_000

#: Bound on the members of a thermal ensemble; a run holds about 420 bytes
#: per member at its peak, whatever its step count.
ENSEMBLE_MEMBER_CAP = 2_000_000

#: Bound on the points of a parameter sweep, each of which writes its own
#: CSV file.
SWEEP_POINT_CAP = 10_000

#: Bound on samples * state entries of one exact evolution.  A dense
#: state, or a ``quantum.ProductState`` with a coherent signal or idler,
#: counts d0*d1*d2 entries per sample; one with signal and idler on one
#: level each counts those of its about d0 chains.  A CLI run reduces its
#: observables chain by chain, in chunks of samples, and never builds the
#: state array (16 bytes per entry): measured at the cap, a coherent-seed
#: run peaks about 0.6 bytes per entry above the import at d = 64, 0.5 at
#: d = 10 and 3.3 at d = 3, most of it there the per-sample observables,
#: about 95 bytes a sample.
STATE_SAMPLE_CAP = 20_000_000

#: Largest total dimension for which dense operator matrices are built.
DENSE_OPERATOR_LIMIT = 4096

#: Rounding slack of decimal input on the resonance omega0 = omega1 + omega2.
FREQUENCY_MATCH_TOL = 1e-12

#: Pre-normalization norm deficit above which a truncation warning is issued.
NORM_DEFICIT_WARN = 1e-6


@dataclass(frozen=True)
class TruncationDims:
    """Per-mode Fock truncation; mode j keeps the number states 0..dj-1."""

    d0: int
    d1: int
    d2: int

    def __post_init__(self):
        for name in ("d0", "d1", "d2"):
            d = getattr(self, name)
            if not isinstance(d, (int, np.integer)) or d < 2:
                raise ValueError(f"{name} must be an integer >= 2, got {d!r}")

    @property
    def total(self) -> int:
        return self.d0 * self.d1 * self.d2

    def check_dense(self) -> None:
        """Raise :class:`ResourceLimitError` if an array of one entry per
        basis state would exceed ``DEFAULT_DIM_CAP``."""
        if self.total > DEFAULT_DIM_CAP:
            raise ResourceLimitError(
                f"total dimension {self.total} exceeds cap {DEFAULT_DIM_CAP}"
            )

    def dim(self, mode: int) -> int:
        """Truncation of a single mode (0 = pump, 1 = signal, 2 = idler)."""
        return (self.d0, self.d1, self.d2)[mode]


@dataclass(frozen=True)
class ModeParams:
    """Physical configuration of the three-wave-mixing system.

    ``omega0`` must equal ``omega1 + omega2`` (the resonance condition of
    parametric down-conversion) to ``FREQUENCY_MATCH_TOL``, the rounding
    slack of decimal input, and is stored as that sum.  ``kappa_mag`` is
    the non-negative coupling magnitude and ``phi`` the constant phase
    mismatch, so the effective coupling is ``kappa_prime = kappa_mag *
    exp(-i*phi)``.  ``pump_alpha0`` is the initial pump amplitude used by
    the fluorescence and undepleted pump operations.
    """

    omega0: float
    omega1: float
    omega2: float
    kappa_mag: float = 0.0
    phi: float = 0.0
    pump_alpha0: complex = 0j
    include_zero_point: bool = False

    def __post_init__(self):
        values = (self.omega0, self.omega1, self.omega2,
                  self.kappa_mag, self.phi)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("mode parameters must be finite")
        if not cmath.isfinite(self.pump_alpha0):
            raise ValueError("pump_alpha0 must be finite")
        resonant = self.omega1 + self.omega2
        if abs(self.omega0 - resonant) > FREQUENCY_MATCH_TOL:
            raise ValueError(
                "frequency matching violated: omega0 - (omega1 + omega2) = "
                f"{self.omega0 - resonant:g}")
        object.__setattr__(self, "omega0", resonant)
        if self.kappa_mag < 0:
            raise ValueError(f"kappa_mag must be >= 0, got {self.kappa_mag}")

    @property
    def kappa_prime(self) -> complex:
        """Effective complex coupling kappa * exp(-i*phi)."""
        return self.kappa_mag * cmath.exp(-1j * self.phi)

    @property
    def omegas(self) -> tuple[float, float, float]:
        return (self.omega0, self.omega1, self.omega2)


def build_annihilation(d: int) -> np.ndarray:
    """Single-mode annihilation operator on a d-level ladder.

    Nonzero entries sit on the superdiagonal: A[n-1, n] = sqrt(n).
    """
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise ValueError(f"ladder dimension must be an integer >= 2, got {d!r}")
    a = np.zeros((d, d), dtype=complex)
    ns = np.arange(1, d)
    a[ns - 1, ns] = np.sqrt(ns)
    return a


def _embedded(op, mode: int, dims: TruncationDims) -> sparse.csr_matrix:
    """A single-mode operator on the three-mode space, as CSR.

    The Kronecker product with identities on the other two modes, in the
    mode-0-slowest basis order.
    """
    from scipy import sparse  # only the oracle needs scipy; keep it off the CLI's import

    sizes = (dims.d0, dims.d1, dims.d2)
    left = sparse.identity(math.prod(sizes[:mode]), format="coo")
    right = sparse.identity(math.prod(sizes[mode + 1:]), format="coo")
    return sparse.kron(sparse.kron(left, op, format="coo"), right, format="csr")


def occupation_arrays(dims: TruncationDims) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Occupation numbers (n0, n1, n2) of every joint basis state, as arrays."""
    dims.check_dense()
    idx = np.arange(dims.total)
    n2 = idx % dims.d2
    n1 = (idx // dims.d2) % dims.d1
    n0 = idx // (dims.d1 * dims.d2)
    return n0, n1, n2


def build_hamiltonian(params: ModeParams, dims: TruncationDims) -> np.ndarray:
    """Dense form of :func:`build_hamiltonian_sparse`.

    Raises :class:`ResourceLimitError` above ``DENSE_OPERATOR_LIMIT``
    states.
    """
    if dims.total > DENSE_OPERATOR_LIMIT:
        raise ResourceLimitError(
            f"dense Hamiltonian of dimension {dims.total} exceeds the dense "
            f"limit {DENSE_OPERATOR_LIMIT}; use build_hamiltonian_sparse"
        )
    return build_hamiltonian_sparse(params, dims).toarray()


def build_hamiltonian_sparse(params: ModeParams, dims: TruncationDims) -> sparse.csr_matrix:
    """Three-mode Hamiltonian from the embedded ladder operators A_j, as CSR:

    H = omega0 A0+ A0 + omega1 A1+ A1 + omega2 A2+ A2 + V + V+,
    V = kappa' A0 A1+ A2+,

    optionally plus the constant (omega0 + omega1 + omega2)/2 when
    ``params.include_zero_point`` is set.  Hermitian by construction.
    This is the oracle for the charge-sector form
    (:func:`opasim.quantum.system_hamiltonian`), which builds its chains
    apart from it.  Raises :class:`ResourceLimitError` before building
    anything if d0*d1*d2 exceeds ``DEFAULT_DIM_CAP``.
    """
    dims.check_dense()
    from scipy import sparse  # only the oracle needs scipy; keep it off the CLI's import

    a = [_embedded(build_annihilation(dims.dim(mode)), mode, dims) for mode in range(3)]
    up = [op.conj().T for op in a]
    v = params.kappa_prime * (a[0] @ up[1] @ up[2])
    h = sum(w * (up[j] @ a[j]) for j, w in enumerate(params.omegas)) + v + v.conj().T
    if params.include_zero_point:
        h = h + 0.5 * sum(params.omegas) * sparse.identity(dims.total)
    return sparse.csr_matrix(h)


def coherent_amplitudes(alpha: complex, d: int) -> np.ndarray:
    """Raw truncated coherent amplitudes exp(-|a|^2/2) a^n / sqrt(n!).

    No renormalization and no truncation warning; the vector's norm falls
    short of one by exactly the truncated tail weight.  Where
    exp(-|a|^2/2) underflows to zero (|a| above about 38.6), the same
    recurrence runs on the log-magnitudes, so that the amplitudes near
    n = |a|^2 stay finite and only the far tails underflow.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d!r}")
    c = np.empty(d, dtype=complex)
    c[0] = math.exp(-0.5 * abs(alpha) ** 2)
    if c[0] != 0:
        for n in range(1, d):
            c[n] = c[n - 1] * alpha / math.sqrt(n)
        return c
    log_step, angle = math.log(abs(alpha)), cmath.phase(alpha)
    log_mag = -0.5 * abs(alpha) ** 2
    for n in range(1, d):
        log_mag += log_step - 0.5 * math.log(n)
        c[n] = cmath.rect(math.exp(log_mag), n * angle)
    return c


def coherent_state(alpha: complex, d: int) -> np.ndarray:
    """Truncated single-mode coherent state, renormalized to unit norm.

    Warns when the pre-normalization norm deficit exceeds
    ``NORM_DEFICIT_WARN``: past that threshold the truncated ladder no
    longer represents the intended state faithfully.  The deficit measures
    the Poisson tail beyond the top level, which a ladder of about
    |alpha|^2 + c |alpha| levels already keeps small.  Raises
    :class:`DivergenceError` when every amplitude underflows to zero, as
    it does far below the ladder's reach (|alpha| = 40 at d = 4), and
    :class:`ValueError` for a non-finite ``alpha``.
    """
    if d < 2:
        raise ValueError(f"ladder dimension must be >= 2, got {d!r}")
    if not cmath.isfinite(alpha):
        raise ValueError(f"coherent amplitude must be finite, got {alpha!r}")
    c = coherent_amplitudes(alpha, d)
    norm = np.linalg.norm(c)
    if norm == 0:
        raise DivergenceError(
            f"coherent state of |alpha| = {abs(alpha):.6g} has no weight on a "
            f"{d}-level ladder")
    deficit = 1.0 - norm
    if deficit > NORM_DEFICIT_WARN:
        warnings.warn(
            f"coherent state loses {deficit:.3g} of its norm to truncation "
            f"at d = {d}",
            TruncationWarning, stacklevel=2,
        )
    return c / norm


def product_coherent_state(a0: complex, a1: complex, a2: complex,
                           dims: TruncationDims) -> np.ndarray:
    """Three-mode coherent product state |a0> x |a1> x |a2>, unit norm.

    Raises :class:`ResourceLimitError` before building anything if
    d0*d1*d2 exceeds ``DEFAULT_DIM_CAP``.
    """
    dims.check_dense()
    c0 = coherent_state(a0, dims.d0)
    c1 = coherent_state(a1, dims.d1)
    c2 = coherent_state(a2, dims.d2)
    psi = np.kron(c0, np.kron(c1, c2))
    # each factor is normalized, so this is defensive only
    return psi / np.linalg.norm(psi)
