"""Time-sliced coherent-state propagator for the three-wave-mixing system.

A path is a sequence of coherent labels (one complex triple per time
slice).  Each slice contributes the short-time kernel

    K_j = <next|prev> * (1 - i eta h(next*, prev)),

where <next|prev> is the three-mode coherent overlap and h substitutes
labels into the normal-ordered Hamiltonian with the mixed-argument rule:
conj(next) for every creation operator, prev for every annihilation
operator.  The kernel is exact to O(eta^2) per slice, so slice products
converge to truncated-space propagators at rate O(1/n), and the continuum
limit of the product phase is the classical action evaluated below.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CoarseStepWarning, DivergenceError
from .fockspace import ModeParams
from .meanfield import MeanFieldState, Trajectory, trajectory_blocks

#: Warn when eta * max(omega) exceeds this: the linearized kernel degrades.
KERNEL_STEP_LIMIT = 0.1

#: Guard on the log-magnitude of a slice product.
LOG_OVERFLOW_LIMIT = 700.0

Triple = tuple[complex, complex, complex]


@dataclass(frozen=True)
class SlicedPath:
    """Coherent labels along a discretized path of duration ``t``.

    ``labels`` has shape (n+1, 3) for n >= 1 slices; rows 0 and n are the
    fixed endpoints, interior rows are integration variables of the
    underlying functional integral.  The Hamiltonian does not depend on
    time, so only the duration enters.
    """

    t: float
    labels: np.ndarray

    def __post_init__(self):
        labels = np.ascontiguousarray(self.labels, dtype=complex)
        if labels.ndim != 2 or labels.shape[1] != 3 or labels.shape[0] < 2:
            raise ValueError(
                f"labels must have shape (n+1, 3) with n >= 1, got {labels.shape}"
            )
        if not np.all(np.isfinite(labels)):
            raise ValueError("path labels must be finite")
        if not self.t > 0:
            raise ValueError(f"duration t must be > 0, got {self.t}")
        object.__setattr__(self, "labels", labels)

    @property
    def n_slices(self) -> int:
        return self.labels.shape[0] - 1

    @property
    def eta(self) -> float:
        return self.t / self.n_slices


def path_from_trajectory(traj: Trajectory) -> SlicedPath:
    """Reinterpret a mean-field trajectory as a sliced path skeleton."""
    return SlicedPath(t=traj.dt * (len(traj.samples) - 1), labels=traj.samples)


def free_propagator_closed_form(alpha_a: complex, alpha_b: complex,
                                omega: float, t: float) -> complex:
    """Untruncated free-mode amplitude <alpha_b| e^{-i omega n t} |alpha_a>."""
    return cmath.exp(-0.5 * abs(alpha_b) ** 2 - 0.5 * abs(alpha_a) ** 2
                     + alpha_b.conjugate() * alpha_a * cmath.exp(-1j * omega * t))


def free_mode_path(alpha: complex, omega: float, t: float, n: int,
                   pinned_end: complex | None = None) -> SlicedPath:
    """Single-mode free classical path alpha * e^{-i omega t} in mode slot 0.

    With ``pinned_end`` the final (bra) label is overridden, which is how a
    fixed-endpoint propagator <pinned_end| U(t) |alpha> is skeletonized on
    the launched classical trajectory: the jump sits entirely in the last
    slice's overlap factor.
    """
    ts = np.linspace(0.0, t, n + 1)
    labels = np.zeros((n + 1, 3), dtype=complex)
    labels[:, 0] = alpha * np.exp(-1j * omega * ts)
    if pinned_end is not None:
        labels[-1, 0] = pinned_end
    return SlicedPath(t=t, labels=labels)


def _warn_if_coarse(eta: float, params: ModeParams) -> None:
    """Warn with :class:`CoarseStepWarning`, at the caller of the public
    entry point that calls this, when eta * max(omega) exceeds
    ``KERNEL_STEP_LIMIT``."""
    w_max = max(abs(w) for w in params.omegas)
    if eta * w_max > KERNEL_STEP_LIMIT:
        warnings.warn(
            f"slice step eta*omega = {eta * w_max:.3g} exceeds "
            f"{KERNEL_STEP_LIMIT}; the linearized kernel is inaccurate",
            CoarseStepWarning, stacklevel=3,
        )


def _slice_kernels(labels: np.ndarray, eta: float, params: ModeParams) -> np.ndarray:
    """Kernels <next| (1 - i eta H) |prev> between consecutive label rows.

    ``labels`` has shape (n+1, 3); kernel j links row j (ket) to row j+1
    (bra).
    """
    prv = labels[:-1]
    nxt = labels[1:]
    overlap_exp = np.sum(-0.5 * np.abs(nxt) ** 2 - 0.5 * np.abs(prv) ** 2
                         + np.conj(nxt) * prv, axis=1)
    kp = params.kappa_prime
    h = (params.omega0 * np.conj(nxt[:, 0]) * prv[:, 0]
         + params.omega1 * np.conj(nxt[:, 1]) * prv[:, 1]
         + params.omega2 * np.conj(nxt[:, 2]) * prv[:, 2]
         + kp * prv[:, 0] * np.conj(nxt[:, 1]) * np.conj(nxt[:, 2])
         + np.conj(kp) * np.conj(nxt[:, 0]) * prv[:, 1] * prv[:, 2])
    return np.exp(overlap_exp) * (1.0 - 1j * eta * h)


def _guarded_product(kernels: np.ndarray) -> complex:
    """Product of the kernels in slice order.

    Raises :class:`DivergenceError` when the running log-magnitude of the
    product leaves the floating-point-safe window, at the first slice
    where it does.
    """
    # one float array, logged and summed in place
    log_mag = np.abs(kernels)
    # a vanished kernel gives log 0 = -inf, reported below, not warned
    with np.errstate(divide="ignore"):
        np.log(log_mag, out=log_mag)
    np.cumsum(log_mag, out=log_mag)
    outside = np.flatnonzero((log_mag > LOG_OVERFLOW_LIMIT)
                             | (log_mag < -LOG_OVERFLOW_LIMIT))
    if outside.size:
        first = outside[0]
        if kernels[first] == 0:
            raise DivergenceError("slice product vanished (|log K| overflow)")
        raise DivergenceError(
            f"slice product log-magnitude {log_mag[first]:.3g} exceeds "
            f"{LOG_OVERFLOW_LIMIT}"
        )
    return complex(np.multiply.reduce(kernels))


def product_propagator(path: SlicedPath, params: ModeParams) -> complex:
    """Product of all slice kernels along the path, in slice order.

    Raises :class:`DivergenceError` when the running log-magnitude of the
    product leaves the floating-point-safe window, at the first slice
    where it does.
    """
    _warn_if_coarse(path.eta, params)
    return _guarded_product(_slice_kernels(path.labels, path.eta, params))


def _finite_differences(labels: np.ndarray, dt: float) -> np.ndarray:
    """Centered differences in the interior, one-sided at the endpoints."""
    dot = np.empty_like(labels)
    dot[1:-1] = (labels[2:] - labels[:-2]) / (2.0 * dt)
    dot[0] = (labels[1] - labels[0]) / dt
    dot[-1] = (labels[-1] - labels[-2]) / dt
    return dot


def _free_lagrangian(path: SlicedPath, params: ModeParams) -> np.ndarray:
    """Kinetic minus free-oscillator part of L at every path sample (real)."""
    labels = path.labels
    dot = _finite_differences(labels, path.eta)
    kinetic = -np.sum(np.imag(np.conj(labels) * dot), axis=1)
    omegas = np.array(params.omegas)
    free = np.sum(omegas[None, :] * np.abs(labels) ** 2, axis=1)
    return kinetic - free


def _interaction_term(path: SlicedPath) -> np.ndarray:
    """The label monomial alpha0 * conj(alpha1) * conj(alpha2) per sample."""
    labels = path.labels
    return labels[:, 0] * np.conj(labels[:, 1]) * np.conj(labels[:, 2])


def lagrangian_samples(path: SlicedPath, params: ModeParams) -> np.ndarray:
    """Classical Lagrangian at every path sample.

    L = sum_j [-Im(conj(a_j) da_j/dt) - omega_j |a_j|^2]
        - 2 Re(kappa' a0 conj(a1) conj(a2)),

    real-valued on conjugate-consistent label paths.
    """
    return (_free_lagrangian(path, params)
            - 2.0 * np.real(params.kappa_prime * _interaction_term(path)))


def classical_action(path: SlicedPath, params: ModeParams) -> float:
    """Trapezoid-rule time integral of the Lagrangian along the path."""
    if path.n_slices < 2:
        raise ValueError("classical_action needs at least 2 slices")
    return float(np.trapezoid(lagrangian_samples(path, params), dx=path.eta))


def lagrangian_difference(path: SlicedPath, params: ModeParams,
                          eta_param: complex) -> np.ndarray:
    """|L - L_alt(eta_param)| per sample, where L_alt swaps the coupling term.

    L_alt replaces the interaction -kappa' a0 a1* a2* - c.c. by the
    phenomenological form +eta a0 a1* a2* + c.c.; the two Lagrangians
    coincide identically under eta_param = -kappa'.
    """
    free = _free_lagrangian(path, params)
    interaction = _interaction_term(path)
    base = free - 2.0 * np.real(params.kappa_prime * interaction)
    alt = free + 2.0 * np.real(eta_param * interaction)
    return np.abs(base - alt)


@dataclass(frozen=True)
class StationaryPropagatorResult:
    """Slice product along a classically integrated path.

    ``endpoint`` is where the integrated path actually arrived; callers
    compare it with the endpoint they asked for, since the launched path
    is not steered toward ``alpha_b``.
    """

    value: complex
    endpoint: Triple
    requested_endpoint: Triple

    @property
    def endpoint_gap(self) -> float:
        return float(max(abs(a - b) for a, b in
                         zip(self.endpoint, self.requested_endpoint)))


def stationary_propagator(alpha_a: Triple, alpha_b: Triple, t: float,
                          params: ModeParams, n_slices: int) -> StationaryPropagatorResult:
    """Slice product evaluated on the RK4 classical path launched at ``alpha_a``.

    This exercises the stationary-path skeleton of the functional integral
    only: no fluctuation (Gaussian prefactor) integral is performed, so for
    weak coupling the value approximates the exact propagator between
    ``alpha_a`` and the achieved endpoint up to a prefactor near one.

    The value is bit for bit ``product_propagator`` on
    ``path_from_trajectory(integrate_rk4(...))``, but the path is streamed:
    the kernels are computed block by block of the trajectory, and only
    they are kept.
    """
    if n_slices < 1:
        raise ValueError(f"n_slices must be >= 1, got {n_slices}")
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    if t == 0.0:
        return StationaryPropagatorResult(
            value=1.0 + 0.0j, endpoint=tuple(alpha_a),
            requested_endpoint=tuple(alpha_b),
        )
    dt = t / n_slices
    steps, blocks = trajectory_blocks(MeanFieldState(*alpha_a), params,
                                      t_final=t, dt=dt)
    eta = (dt * steps) / steps  # as path_from_trajectory's SlicedPath has it
    kernels = np.empty(steps, dtype=complex)
    start = 0
    last = None
    for block in blocks:
        # the seam kernel links the previous block's last row to this one's first
        labels = block if last is None else np.concatenate((last, block))
        kernels[start:start + len(labels) - 1] = _slice_kernels(labels, eta, params)
        start += len(labels) - 1
        last = block[-1:]
    _warn_if_coarse(eta, params)
    value = _guarded_product(kernels)
    return StationaryPropagatorResult(value=value, endpoint=tuple(last[0].tolist()),
                                      requested_endpoint=tuple(alpha_b))
