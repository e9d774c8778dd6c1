"""Truncated three-mode Fock space: ladder operators, coherent states, Hamiltonian.

The joint number basis is ordered with mode 0 slowest,

    index(n0, n1, n2) = (n0 * d1 + n1) * d2 + n2,

and every module in the package relies on that ordering.  Units are chosen
so that hbar = 1 and all frequencies are angular.  The pump/signal/idler
coupling carries a single constant phase-mismatch angle ``phi`` folded into
the effective coupling ``kappa' = kappa * exp(-i*phi)``.

Operators are plain dense complex ``numpy`` arrays; states are dense complex
vectors of unit norm.  A sparse Hamiltonian builder is provided for the
larger spaces where Krylov propagation beats a full eigendecomposition.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ResourceLimitError, TruncationWarning

if TYPE_CHECKING:
    from scipy import sparse

#: Bound on d0*d1*d2 wherever an array of one entry per basis state is
#: built: a dense state, the occupation arrays, a Hamiltonian, assembled
#: states.  Dims alone are not capped, so a chain-supported state
#: (``quantum.ChainState``) runs at any d0*d1*d2 that its own entries
#: allow.
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

#: Bound on the members of a thermal ensemble; a run holds about 470 bytes
#: per member at its peak, whatever its step count.
ENSEMBLE_MEMBER_CAP = 2_000_000

#: Bound on the points of a parameter sweep, each of which writes its own
#: CSV file.
SWEEP_POINT_CAP = 10_000

#: Bound on samples * state entries of one exact evolution.  A dense
#: initial state counts d0*d1*d2 entries per sample; a chain-supported one
#: counts the entries of its chains plus the top-level states, whose
#: per-sample populations (8 bytes each) the leakage sums.  A CLI run
#: reduces its observables chain by chain, in chunks of samples, and never
#: builds the state array (16 bytes per entry): measured at the cap, a
#: dense run peaks about 2 bytes per entry above the import at d = 64, 4
#: at d = 10 and 9.5 at d = 3, most of it the top-level populations, which
#: are nearly all states at d = 3.
STATE_SAMPLE_CAP = 20_000_000

#: Largest total dimension for which dense operator matrices are built.
DENSE_OPERATOR_LIMIT = 4096

#: Tolerance on the frequency-matching constraint omega0 = omega1 + omega2.
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

    def swapped(self) -> "TruncationDims":
        """Dims with the signal and idler truncations exchanged."""
        return TruncationDims(self.d0, self.d2, self.d1)


@dataclass(frozen=True)
class ModeParams:
    """Physical configuration of the three-wave-mixing system.

    ``omega0`` must equal ``omega1 + omega2`` (the resonance condition of
    parametric down-conversion); ``kappa_mag`` is the non-negative coupling
    magnitude and ``phi`` the constant phase mismatch, so the effective
    coupling is ``kappa_prime = kappa_mag * exp(-i*phi)``.  ``pump_alpha0``
    is the initial pump amplitude used by the fluorescence and undepleted
    pump operations.
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
        mismatch = abs(self.omega0 - (self.omega1 + self.omega2))
        if mismatch > FREQUENCY_MATCH_TOL:
            raise ValueError(
                "frequency matching violated: omega0 - (omega1 + omega2) = "
                f"{self.omega0 - (self.omega1 + self.omega2):g}"
            )
        if self.kappa_mag < 0:
            raise ValueError(f"kappa_mag must be >= 0, got {self.kappa_mag}")

    @property
    def kappa_prime(self) -> complex:
        """Effective complex coupling kappa * exp(-i*phi)."""
        return self.kappa_mag * cmath.exp(-1j * self.phi)

    @property
    def omegas(self) -> tuple[float, float, float]:
        return (self.omega0, self.omega1, self.omega2)

    def swapped(self) -> "ModeParams":
        """Parameters with the signal and idler roles exchanged."""
        return ModeParams(self.omega0, self.omega2, self.omega1,
                          self.kappa_mag, self.phi, self.pump_alpha0,
                          self.include_zero_point)


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


def embed_mode(op: np.ndarray, mode_index: int, dims: TruncationDims) -> np.ndarray:
    """Lift a single-mode operator to the full three-mode space.

    The embedding is a Kronecker product with identities on the other two
    factors, consistent with the mode-0-slowest basis ordering.
    """
    if mode_index not in (0, 1, 2):
        raise ValueError(f"mode_index must be 0, 1 or 2, got {mode_index!r}")
    op = np.asarray(op, dtype=complex)
    d = dims.dim(mode_index)
    if op.shape != (d, d):
        raise ValueError(
            f"operator shape {op.shape} does not match mode {mode_index} "
            f"dimension {d}"
        )
    dims.check_dense()
    eyes = [np.eye(dims.d0, dtype=complex),
            np.eye(dims.d1, dtype=complex),
            np.eye(dims.d2, dtype=complex)]
    factors = [op if m == mode_index else eyes[m] for m in range(3)]
    return np.kron(factors[0], np.kron(factors[1], factors[2]))


def occupation_arrays(dims: TruncationDims) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Occupation numbers (n0, n1, n2) of every joint basis state, as arrays."""
    dims.check_dense()
    idx = np.arange(dims.total)
    n2 = idx % dims.d2
    n1 = (idx // dims.d2) % dims.d1
    n0 = idx // (dims.d1 * dims.d2)
    return n0, n1, n2


def basis_index(n0: int, n1: int, n2: int, dims: TruncationDims) -> int:
    """Flat index of the joint number state |n0, n1, n2>."""
    if not (0 <= n0 < dims.d0 and 0 <= n1 < dims.d1 and 0 <= n2 < dims.d2):
        raise ValueError(f"occupation ({n0}, {n1}, {n2}) outside {dims}")
    return (n0 * dims.d1 + n1) * dims.d2 + n2


def basis_state(n0: int, n1: int, n2: int, dims: TruncationDims) -> np.ndarray:
    """Unit vector for the joint number state |n0, n1, n2>."""
    dims.check_dense()
    psi = np.zeros(dims.total, dtype=complex)
    psi[basis_index(n0, n1, n2, dims)] = 1.0
    return psi


def _hamiltonian_pieces(params: ModeParams, dims: TruncationDims):
    """Diagonal and interaction triples (rows, cols, vals) of the Hamiltonian.

    The interaction kappa' a0 a1+ a2+ maps |n0, n1, n2> to
    |n0-1, n1+1, n2+1> with amplitude kappa' * sqrt(n0 (n1+1) (n2+1)); the
    Hermitian conjugate supplies the reverse entries.
    """
    n0, n1, n2 = occupation_arrays(dims)
    diag = params.omega0 * n0 + params.omega1 * n1 + params.omega2 * n2
    diag = diag.astype(float)
    if params.include_zero_point:
        diag = diag + 0.5 * (params.omega0 + params.omega1 + params.omega2)

    src = np.flatnonzero((n0 >= 1) & (n1 <= dims.d1 - 2) & (n2 <= dims.d2 - 2))
    # index shift for (n0-1, n1+1, n2+1) in the mode-0-slowest ordering
    dst = src - dims.d1 * dims.d2 + dims.d2 + 1
    amp = params.kappa_prime * np.sqrt(
        n0[src] * (n1[src] + 1.0) * (n2[src] + 1.0)
    )
    rows = np.concatenate([dst, src])
    cols = np.concatenate([src, dst])
    vals = np.concatenate([amp, np.conj(amp)])
    return diag, rows, cols, vals


def build_hamiltonian(params: ModeParams, dims: TruncationDims) -> np.ndarray:
    """Dense three-mode Hamiltonian.

    H = omega0*n0 + omega1*n1 + omega2*n2
        + kappa' a0 a1+ a2+ + conj(kappa') a0+ a1 a2,

    optionally plus the constant (omega0 + omega1 + omega2)/2 on the
    diagonal when ``params.include_zero_point`` is set.  Hermitian by
    construction.  Raises :class:`ResourceLimitError` above
    ``DENSE_OPERATOR_LIMIT`` states.
    """
    if dims.total > DENSE_OPERATOR_LIMIT:
        raise ResourceLimitError(
            f"dense Hamiltonian of dimension {dims.total} exceeds the dense "
            f"limit {DENSE_OPERATOR_LIMIT}; use build_hamiltonian_sparse"
        )
    diag, rows, cols, vals = _hamiltonian_pieces(params, dims)
    h = np.zeros((dims.total, dims.total), dtype=complex)
    np.fill_diagonal(h, diag)
    h[rows, cols] += vals
    return h


def build_hamiltonian_sparse(params: ModeParams, dims: TruncationDims) -> sparse.csr_matrix:
    """CSR version of :func:`build_hamiltonian` for Krylov propagation."""
    from scipy import sparse  # only the oracle needs scipy; keep it off the CLI's import

    diag, rows, cols, vals = _hamiltonian_pieces(params, dims)
    n = dims.total
    all_rows = np.concatenate([np.arange(n), rows])
    all_cols = np.concatenate([np.arange(n), cols])
    all_vals = np.concatenate([diag.astype(complex), vals])
    return sparse.csr_matrix((all_vals, (all_rows, all_cols)), shape=(n, n))


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
    |alpha|^2 + c |alpha| levels already keeps small.
    """
    if d < 2:
        raise ValueError(f"ladder dimension must be >= 2, got {d!r}")
    c = coherent_amplitudes(alpha, d)
    norm = np.linalg.norm(c)
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
