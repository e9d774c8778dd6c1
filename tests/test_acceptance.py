"""End-to-end acceptance gates for the three simulation routes.

Every test here pins one contracted tolerance and prints a PASS/FAIL line
(run ``pytest -s tests/test_acceptance.py`` to see them inline).  The gates
cross-validate the truncated-Fock evolution, the mean-field integrator and
the sliced coherent-state propagator against each other and against closed
forms, at desk scale.

Criterion 6 tests the sinh^2(gt) gain law where the quantum route promises
it.  sinh^2 is the undepleted-pump (parametric) approximation; for a
quantised pump the exact <n1> falls below it by a depletion correction of
about 0.36/|alpha0|^2 at gt = 0.8 (Walls & Barakat, Phys. Rev. A 1, 446
(1970)).  At alpha0 = 3 that is -3.9%, more than the 2% gate at any
truncation, and the (16,16,16) ladder adds -2.0% (gt = 0.1) to -2.6%
(gt = 0.8) by cutting the pump at N <= 15.  The gate therefore runs at
alpha0 = 6, kappa = 0.05 (the same g = 0.3) and dims (72,16,16), where
depletion costs -1.0% at gt = 0.8.  The (16,16,16) run at alpha0 = 3 is
kept as an exact engine check: it matches an independent Fock-pump chain
reference over the same renormalised pump to 1e-15.
"""

import cmath
import functools
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from opasim.cli import main, parse_config
from opasim.errors import ConfigError, TruncationWarning
from opasim.fockspace import (
    ModeParams,
    TruncationDims,
    build_annihilation,
    build_hamiltonian,
    build_hamiltonian_sparse,
    coherent_state,
    occupation_arrays,
    product_coherent_state,
)
from opasim.meanfield import (
    MeanFieldState,
    integrate_rk4,
    manley_rowe,
    undepleted_pump_solution,
)
from opasim.pathintegral import (
    SlicedPath,
    classical_action,
    free_mode_path,
    free_propagator_closed_form,
    lagrangian_difference,
    path_from_trajectory,
    product_propagator,
    stationary_propagator,
)
from opasim.quantum import (
    ProductState,
    evolve_state,
    fluorescence_from_vacuum,
    propagator_exact,
    system_hamiltonian,
)
from opasim.thermal import (
    ThermalParams,
    fluorescence_ensemble,
    mean_occupancy,
    sample_thermal_amplitude,
)


def report(number, name, ok, detail=""):
    suffix = f" [{detail}]" if detail else ""
    print(f"acceptance {number:2d} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    return ok


def random_resonant_params(rng, kappa_max=0.5):
    w1 = rng.uniform(0.5, 2.0)
    w2 = rng.uniform(0.5, 2.0)
    return ModeParams(w1 + w2, w1, w2,
                      kappa_mag=rng.uniform(0.0, kappa_max),
                      phi=rng.uniform(0.0, 2.0 * math.pi))


def test_criterion_01_operator_algebra():
    """[a, a+] - I vanishes except the corner entry -(d-1), d = 2..16."""
    worst = 0.0
    for d in range(2, 17):
        a = build_annihilation(d)
        comm = a @ a.conj().T - a.conj().T @ a
        expected = np.eye(d, dtype=complex)
        expected[d - 1, d - 1] = -(d - 1)
        dev = np.max(np.abs(comm - expected))
        worst = max(worst, dev / (4 * d * np.finfo(float).eps))
    ok = worst <= 1.0
    assert report(1, "operator algebra", ok,
                  f"worst deviation {worst:.2f}x machine-epsilon budget")


def test_criterion_02_hamiltonian_integrity():
    """100 random draws: Hermitian to 1e-12; kappa=0 spectra exact to 1e-12."""
    rng = np.random.default_rng(12)
    dims = TruncationDims(3, 4, 3)
    worst_herm = 0.0
    worst_eig = 0.0
    for k in range(100):
        params = random_resonant_params(rng)
        h = build_hamiltonian(params, dims)
        worst_herm = max(worst_herm, np.max(np.abs(h - h.conj().T)))
        free = ModeParams(params.omega0, params.omega1, params.omega2,
                          kappa_mag=0.0)
        h0 = build_hamiltonian(free, dims)
        n0, n1, n2 = occupation_arrays(dims)
        expected = np.sort(params.omega0 * n0 + params.omega1 * n1
                           + params.omega2 * n2)
        worst_eig = max(worst_eig,
                        np.max(np.abs(np.linalg.eigvalsh(h0) - expected)))
    ok = worst_herm < 1e-12 and worst_eig < 1e-12
    assert report(2, "hamiltonian integrity", ok,
                  f"hermiticity {worst_herm:.1e}, spectrum {worst_eig:.1e}")


def test_criterion_03_unitarity_and_charges():
    """20 random boundary-safe states: norm to 1e-9, charges to 1e-7."""
    rng = np.random.default_rng(31)
    dims = TruncationDims(5, 5, 5)
    params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.3, phi=0.8)
    h = build_hamiltonian(params, dims)
    n0, n1, n2 = occupation_arrays(dims)
    interior = (n0 <= dims.d0 - 3) & (n1 <= dims.d1 - 3) & (n2 <= dims.d2 - 3)
    charges = [n0 + n1, n0 + n2, n1 - n2]
    worst_norm = 0.0
    worst_charge = 0.0
    for _ in range(20):
        psi = rng.normal(size=dims.total) + 1j * rng.normal(size=dims.total)
        psi[~interior] = 0.0
        psi /= np.linalg.norm(psi)
        result = evolve_state(h, psi, 5.0, 11, dims=dims)
        worst_norm = max(worst_norm, result.max_norm_deviation)
        probs = np.abs(result.states) ** 2
        for q in charges:
            series = probs @ q
            scale = max(abs(series[0]), 1.0)
            worst_charge = max(worst_charge,
                               np.max(np.abs(series - series[0])) / scale)
    ok = worst_norm < 1e-9 and worst_charge < 1e-7
    assert report(3, "unitarity and conserved charges", ok,
                  f"norm {worst_norm:.1e}, charge drift {worst_charge:.1e}")


def test_criterion_04_meanfield_invariants():
    """Manley-Rowe drift < 1e-8 over t=10 for 20 random starts; RK4 order."""
    rng = np.random.default_rng(44)
    worst_drift = 0.0
    for _ in range(20):
        params = random_resonant_params(rng, kappa_max=0.3)
        s0 = MeanFieldState(complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
                            complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
                            complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
        traj = integrate_rk4(s0, params, 10.0, 1e-3)
        mr0 = np.array(manley_rowe(s0))
        scale = max(abs(mr0[0]), abs(mr0[1]), 1e-12)
        drift = max(
            np.max(np.abs(np.array(manley_rowe(MeanFieldState(*row))) - mr0))
            for row in traj.samples[::200]
        )
        worst_drift = max(worst_drift, drift / scale)

    params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.2, phi=0.4)
    s0 = MeanFieldState(2.0, 0.5, 0.3j)

    def endpoint(dt):
        return integrate_rk4(s0, params, 2.0, dt).samples[-1]

    ref = endpoint(0.02 / 8)
    ratio = (np.linalg.norm(endpoint(0.02) - ref)
             / np.linalg.norm(endpoint(0.01) - ref))
    ok = worst_drift < 1e-8 and 12.0 <= ratio <= 20.0
    assert report(4, "mean-field invariants and RK4 order", ok,
                  f"drift {worst_drift:.1e}, order ratio {ratio:.1f}")


def test_criterion_05_undepleted_pump_consistency():
    """cosh/sinh law vs full RK4 at |alpha0| = 100: rel dev < 1e-3, gt <= 1.

    The analytic form is only trusted through this gate: the RK4 oracle is
    integrated first and the closed form must reproduce it point by point
    while depletion stays below 1%.
    """
    g = 0.5
    params = ModeParams(2.0, 1.2, 0.8, kappa_mag=g / 100.0,
                        pump_alpha0=100.0 * cmath.exp(0.4j), phi=0.9)
    b1_0, b2_0 = 0.7 - 0.1j, 0.2 + 0.3j
    traj = integrate_rk4(MeanFieldState(params.pump_alpha0, b1_0, b2_0),
                         params, 2.0, 1e-3)
    worst = 0.0
    max_depletion = 0.0
    for idx in range(200, 2001, 200):
        t = idx * 1e-3
        rk4_0, rk4_1, rk4_2 = traj.samples[idx]
        depletion = abs(1.0 - abs(rk4_0) ** 2 / 100.0 ** 2)
        max_depletion = max(max_depletion, depletion)
        a1, a2 = undepleted_pump_solution(b1_0, b2_0, params, t)
        worst = max(worst,
                    abs(a1 - rk4_1) / abs(rk4_1),
                    abs(a2 - rk4_2) / abs(rk4_2))
    ok = worst < 1e-3 and max_depletion < 0.01
    assert report(5, "undepleted-pump consistency", ok,
                  f"rel dev {worst:.1e} at depletion <= {max_depletion:.2e}")


def fock_pump_chain_n1(alpha0, kappa, n_max, k_max, times):
    """<n1>(t) from |alpha0, 0, 0> summed over Fock-pump chains |N-k, k, k>.

    H conserves n0+n1 and n0+n2, so a pump Fock state |N, 0, 0> only
    reaches |N-k, k, k>.  At resonance the diagonal there is the constant
    omega0*N, and after a constant gauge of the coupling phase the chain
    is real tridiagonal with off-diagonal kappa*sqrt(N-k)*(k+1).  <n1> is
    diagonal in the Fock basis, so the coherent pump contributes the
    Poisson-weighted sum over N <= n_max, with the weights renormalised
    over that range as the truncated coherent state is.  The chains stop
    at k <= k_max.  Built with scipy alone, not with the package's
    Fock-space code.
    """
    mean = alpha0 ** 2
    log_weights = np.array([N * math.log(mean) - math.lgamma(N + 1)
                            for N in range(n_max + 1)])
    weights = np.exp(log_weights - log_weights.max())
    weights /= weights.sum()
    n1 = np.zeros(len(times))
    for N in range(1, n_max + 1):
        k = np.arange(min(N, k_max))
        energies, vectors = eigh_tridiagonal(
            np.zeros(k.size + 1), kappa * np.sqrt(N - k) * (k + 1.0))
        amps = (np.exp(-1j * np.outer(times, energies)) * vectors[0]) @ vectors.T
        n1 += weights[N] * (np.abs(amps) ** 2 @ np.arange(k.size + 1))
    return n1


def test_criterion_06_quantum_fluorescence():
    """<n1> vs sinh^2(gt) to 2% at g = 0.3, gt <= 0.8, 9 samples.

    sinh^2(gt) is the undepleted-pump law.  For a quantised pump the exact
    <n1> falls below it by a depletion correction of about
    0.36/|alpha0|^2 at gt = 0.8, so the gate runs at alpha0 = 6,
    kappa = 0.05, dims (72,16,16): depletion costs -1.0% there, and the
    pump ladder loses 4.2e-8 of its norm, so no TruncationWarning fires.
    Twin balance |<n1> - <n2>| < 1e-8 holds exactly (conserved n1 - n2).

    The run at alpha0 = 3, kappa = 0.1, dims (16,16,16) sits 6.4% below
    sinh^2 at gt = 0.8: -3.9% from depletion and -2.6% from cutting the
    pump ladder at N <= 15.  It serves as an exact engine check against
    the Fock-pump chain reference over the same renormalised pump, at
    relative tolerance 1e-10.
    """
    alpha0, kappa = 6.0, 0.05
    g = kappa * alpha0
    params = ModeParams(2.0, 1.2, 0.8, kappa_mag=kappa, pump_alpha0=alpha0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)  # the ladder converged
        result = fluorescence_from_vacuum(params, TruncationDims(72, 16, 16),
                                          0.8 / g, 9)
    twin_gap = float(np.max(np.abs(result.expectations[:, 1]
                                   - result.expectations[:, 2])))
    worst_rel = 0.0
    for k in range(1, len(result.times)):
        gt = g * result.times[k]
        predicted = math.sinh(gt) ** 2
        worst_rel = max(worst_rel,
                        abs(result.expectations[k, 1] - predicted) / predicted)

    pinned = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.1, pump_alpha0=3.0)
    with pytest.warns(TruncationWarning):  # the pump ladder keeps 97.8%
        engine = fluorescence_from_vacuum(pinned, TruncationDims(16, 16, 16),
                                          0.8 / g, 9)
    reference = fock_pump_chain_n1(3.0, 0.1, 15, 15, engine.times)
    engine_rel = float(np.max(np.abs(engine.expectations[1:, 1]
                                     - reference[1:]) / reference[1:]))

    ok = worst_rel < 0.02 and twin_gap < 1e-8 and engine_rel < 1e-10
    report(6, "quantum fluorescence vs sinh^2 gain", ok,
           f"alpha0=6 (72,16,16): max rel dev {worst_rel:.4f} (gate 0.02), "
           f"twin gap {twin_gap:.1e}; alpha0=3 (16,16,16) vs Fock-pump "
           f"chains {engine_rel:.1e}")
    assert twin_gap < 1e-8
    assert worst_rel < 0.02, (
        f"max relative deviation {worst_rel:.4f} from sinh^2(gt) exceeds the "
        "2% gate at alpha0=6, kappa=0.05, dims (72,16,16), where depletion "
        "accounts for -1.0% at gt=0.8"
    )
    assert engine_rel < 1e-10, (
        f"(16,16,16) run at alpha0=3 differs from the Fock-pump chain "
        f"reference by {engine_rel:.1e} (relative)"
    )


#: c(alpha0) = (<n1>/sinh^2(gt) - 1) |alpha0|^2 at gt = 0.8, kappa =
#: 0.3/alpha0, a 25-level signal ladder and n_max = |alpha0|^2 +
#: 10|alpha0| + 20, from the Fock-pump chain reference (5 decimals).
QUANTISED_PUMP_LADDER = {6.0: -0.35956, 10.0: -0.36132, 20.0: -0.36206,
                         40.0: -0.36225}


@functools.lru_cache(maxsize=None)
def quantised_pump_n1(alpha0):
    """<n1> at gt = 0.8 from |alpha0, 0, 0>: the engine's and the Fock-pump
    chain reference's, at n_max = |alpha0|^2 + 10|alpha0| + 20 and signal
    and idler ladders of 25 levels.  At alpha0 = 40 that is (2021,25,25),
    eight times the dense cap, which the chain-supported state runs."""
    kappa, n_max = 0.3 / alpha0, round(alpha0 ** 2 + 10 * alpha0 + 20)
    params = ModeParams(2.0, 1.2, 0.8, kappa_mag=kappa, pump_alpha0=alpha0)
    result = fluorescence_from_vacuum(params, TruncationDims(n_max + 1, 25, 25),
                                      0.8 / 0.3, 2)
    reference = fock_pump_chain_n1(alpha0, kappa, n_max, 24, result.times)
    return float(result.expectations[-1, 1]), float(reference[-1])


def test_quantised_pump_engine_matches_fock_pump_chains():
    """The chain-supported engine matches the independent Fock-pump chain
    reference to 1e-10 (relative) up to 1600 pump photons."""
    worst = max(abs(engine - reference) / reference
                for engine, reference in map(quantised_pump_n1,
                                             QUANTISED_PUMP_LADDER))
    ok = worst < 1e-10
    assert report(6, "quantised pump vs Fock-pump chains, alpha0 6-40", ok,
                  f"max rel gap {worst:.1e}")


def test_quantised_pump_depletion_ladder():
    """Walls & Barakat's depletion correction: c(alpha0) falls monotonically
    towards its limit, its steps shrink like 1/|alpha0|^2, and mean-field
    from vacuum signal and idler stays exactly dark.

    c = c_inf + b/|alpha0|^2 gives b from each step; measured, the three
    estimates are 0.0987, 0.0996 and 0.1016.
    """
    alphas = sorted(QUANTISED_PUMP_LADDER)
    ladder = [(quantised_pump_n1(a)[0] / math.sinh(0.8) ** 2 - 1.0) * a ** 2
              for a in alphas]
    tabulated = max(abs(c - QUANTISED_PUMP_LADDER[a]) for a, c in zip(alphas, ladder))
    monotone = all(b < a for a, b in zip(ladder, ladder[1:]))
    slopes = [(c1 - c0) / (a1 ** -2 - a0 ** -2)
              for a0, a1, c0, c1 in zip(alphas, alphas[1:], ladder, ladder[1:])]
    spread = (max(slopes) - min(slopes)) / np.mean(slopes)

    params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.3 / 40.0)
    traj = integrate_rk4(MeanFieldState(40.0, 0j, 0j), params, 0.8 / 0.3, 1e-3)
    dark = bool(np.all(traj.samples[:, 1:] == 0))

    ok = tabulated < 1e-5 and monotone and spread < 0.05 and dark
    assert report(6, "quantised-pump depletion ladder", ok,
                  f"c = {', '.join(f'{c:.5f}' for c in ladder)}; "
                  f"b = {', '.join(f'{b:.4f}' for b in slopes)}; "
                  f"mean-field dark {dark}")


@pytest.mark.parametrize("signal,idler", [(1, 0), (2, 1)])
def test_number_state_seeds_on_chains(signal, idler):
    """|alpha0, n1, n2> evolved on its chains matches the same state as a
    dense vector to 1e-12, and the eigh/Krylov oracle to 1e-10."""
    dims = TruncationDims(14, 6, 5)
    params = ModeParams(2.0, 1.3, 0.7, kappa_mag=0.2, phi=0.9)
    seed = ProductState((1.5 - 0.5j, signal, idler), dims)
    signal_state, idler_state = np.eye(dims.d1)[signal], np.eye(dims.d2)[idler]
    dense = np.kron(coherent_state(1.5 - 0.5j, dims.d0),
                    np.kron(signal_state, idler_state))
    chains = evolve_state(system_hamiltonian(params, dims), seed, 3.0, 7, dims)
    gaps = []
    for h, psi0 in ((system_hamiltonian(params, dims), dense),
                    (build_hamiltonian_sparse(params, dims), dense)):
        other = evolve_state(h, psi0, 3.0, 7, dims)
        gaps.append(max(float(np.max(np.abs(getattr(chains, name) - getattr(other, name))))
                        for name in ("states", "expectations", "energies", "leakage")))
    ok = gaps[0] <= 1e-12 and gaps[1] < 1e-10
    assert report(6, f"seed |alpha0, {signal}, {idler}> on its chains", ok,
                  f"vs dense {gaps[0]:.1e}, vs oracle {gaps[1]:.1e}")


def test_criterion_07_path_integral_convergence():
    """Free slice product converges at O(1/n); three-mode product matches
    the exact weak-coupling propagator within 0.05 at n = 4096."""
    alpha, omega, t = 1.3, 2.0, 1.0
    free = ModeParams(omega, 1.2, 0.8, kappa_mag=0.0)
    exact = free_propagator_closed_form(alpha, alpha, omega, t)
    errors = []
    for n in (64, 128, 256, 512, 1024, 2048, 4096):
        path = free_mode_path(alpha, omega, t, n, pinned_end=alpha)
        errors.append(abs(product_propagator(path, free) - exact))
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    ratios_ok = all(1.6 <= r <= 2.4 for r in ratios)

    params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.1)
    alpha_a = (0.8 + 0j, 0.5 + 0j, -0.3j)
    result = stationary_propagator(alpha_a, alpha_a, 1.0, params, 4096)
    exact3 = propagator_exact(params, TruncationDims(10, 10, 10),
                              alpha_a, result.endpoint, 1.0)
    weak_gap = abs(result.value - exact3)
    ok = ratios_ok and weak_gap < 0.05
    assert report(7, "path-integral convergence", ok,
                  f"ratios {min(ratios):.2f}..{max(ratios):.2f}, "
                  f"three-mode gap {weak_gap:.3f}")


def test_criterion_08_action_stationarity():
    """FD gradient norm < 1e-5 x path norm on an RK4 path; O(eps^2) bumps."""
    params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.2, phi=0.4)
    traj = integrate_rk4(MeanFieldState(1.2, 0.4 - 0.2j, 0.3j),
                         params, 1.0, 1e-3)
    path = path_from_trajectory(traj)
    labels = path.labels
    eps = 1e-6
    grad_sq = 0.0
    for j in range(1, labels.shape[0] - 1):
        for mode in range(3):
            for direction in (1.0, 1j):
                bumped = labels.copy()
                bumped[j, mode] += eps * direction
                plus = classical_action(SlicedPath(1.0, bumped), params)
                bumped[j, mode] -= 2 * eps * direction
                minus = classical_action(SlicedPath(1.0, bumped), params)
                grad_sq += ((plus - minus) / (2 * eps)) ** 2
    grad_norm = math.sqrt(grad_sq)
    path_norm = math.sqrt(float(np.sum(np.abs(labels) ** 2)) * 2)
    gradient_ok = grad_norm < 1e-5 * path_norm

    rng = np.random.default_rng(7)
    envelope = np.sin(np.pi * np.linspace(0.0, 1.0, labels.shape[0]))[:, None]
    bump = envelope * (rng.normal(size=labels.shape)
                       + 1j * rng.normal(size=labels.shape))
    bump[0] = bump[-1] = 0.0
    first_order = []
    for e in (1e-3, 1e-4):
        plus = classical_action(SlicedPath(1.0, labels + e * bump), params)
        minus = classical_action(SlicedPath(1.0, labels - e * bump), params)
        first_order.append(abs(plus - minus) / (2 * e))
    bump_ok = all(f < 1e-6 * np.linalg.norm(bump) for f in first_order)
    ok = gradient_ok and bump_ok
    assert report(8, "action stationarity", ok,
                  f"grad/path {grad_norm / path_norm:.1e}, "
                  f"linear response {max(first_order):.1e}")


def test_criterion_09_interaction_form_equivalence():
    """Both interaction conventions coincide under eta = -kappa' on 100
    random paths, to 1e-12."""
    rng = np.random.default_rng(90)
    worst = 0.0
    for _ in range(100):
        params = random_resonant_params(rng)
        n = int(rng.integers(2, 24))
        labels = rng.normal(size=(n + 1, 3)) + 1j * rng.normal(size=(n + 1, 3))
        path = SlicedPath(1.0, labels)
        worst = max(worst,
                    lagrangian_difference(path, params, -params.kappa_prime).max())
    ok = worst < 1e-12
    assert report(9, "interaction-form equivalence", ok, f"max gap {worst:.1e}")


def test_criterion_10_thermal_statistics():
    """Occupancy spot values, 3-sigma estimator band, bit reproducibility."""
    spot_ok = (mean_occupancy(1.3, 0.0) == 0.0
               and abs(mean_occupancy(math.log(2.0), 1.0) - 1.0) < 1e-12)

    rng = np.random.default_rng(1010)
    n = 100_000
    total = 0.0
    for _ in range(n):
        total += abs(sample_thermal_amplitude(math.log(2.0), 1.0, rng)) ** 2
    estimator_ok = abs(total / n - 1.0) < 3.0 / math.sqrt(n)

    params = ModeParams(2.0, 1.2, 0.8, kappa_mag=0.01, pump_alpha0=20.0)
    thermal = ThermalParams(temperature=1.0, seed=123)
    first = fluorescence_ensemble(params, thermal, 0.5, 0.01, 128)
    second = fluorescence_ensemble(params, thermal, 0.5, 0.01, 128)
    reproducible = (np.array_equal(first.mean_n1, second.mean_n1)
                    and np.array_equal(first.var_n1, second.var_n1)
                    and np.array_equal(first.mean_n2, second.mean_n2)
                    and np.array_equal(first.var_n2, second.var_n2))
    ok = spot_ok and estimator_ok and reproducible
    assert report(10, "thermal statistics", ok,
                  f"estimator gap {abs(total / n - 1.0):.1e}, "
                  f"reproducible {reproducible}")


def test_criterion_11_meanfield_quantum_correspondence():
    """<n1> quantum vs |alpha1|^2 mean-field within 5% for gt <= 0.5."""
    alpha0, alpha1 = 3.0, 2.0
    kappa = 1.0 / 6.0
    g = kappa * alpha0
    params = ModeParams(2.0, 1.2, 0.8, kappa_mag=kappa, pump_alpha0=alpha0)
    dims = TruncationDims(24, 24, 16)
    with pytest.warns(Warning):
        psi0 = product_coherent_state(alpha0, alpha1, 0.0, dims)
    h = system_hamiltonian(params, dims)
    result = evolve_state(h, psi0, 0.5 / g, 6, dims=dims)
    traj = integrate_rk4(MeanFieldState(alpha0, alpha1, 0.0), params,
                         0.5 / g, 1e-3)
    worst = 0.0
    for k in range(1, len(result.times)):
        idx = round(result.times[k] / 1e-3)
        mf = abs(traj.samples[idx, 1]) ** 2
        q = result.expectations[k, 1]
        worst = max(worst, abs(q - mf) / mf)
    ok = worst < 0.05
    assert report(11, "mean-field/quantum correspondence", ok,
                  f"max rel gap {worst:.3f} over gt <= 0.5")


def test_classical_limit_ladder():
    """Mean-field is the classical limit of the exact dynamics (Yaffe,
    Rev. Mod. Phys. 54, 407 (1982)).

    Under alpha -> lam alpha, kappa -> kappa/lam the RK4 trajectory scales
    as lam alpha(t), so the exact <n_j>/lam^2 must approach RK4's
    |alpha_j|^2.  At alpha = (1, 0.5, 0), kappa = 1, T = 3 the pump fully
    depletes near t = 2.  Mode j keeps ceil(lam^2 n + 6 lam sqrt(n) + 8)
    levels, n RK4's largest |alpha_j|^2: (63,73,63) at lam = 5 and
    (80,94,80) at lam = 6, past the dense cap, so the state is a
    :class:`ProductState` on its chains.  For lam = 2 to 6 the gap falls
    at every sample t > 0 in every mode; measured, by 0.35-0.73 per step.
    From lam = 1 to 2 it does not, at t = 1.5 and 3.  Early on the gap is
    a clean 1/lam^2 term: lam^2 times it at t = 0.5 converges, with
    shrinking steps, for lam = 1 to 6.
    """
    alpha, t_final, dt = np.array([1.0, 0.5, 0.0]), 3.0, 1e-3
    traj = integrate_rk4(MeanFieldState(*alpha),
                         ModeParams(2.0, 1.2, 0.8, kappa_mag=1.0), t_final, dt)
    classical = np.abs(traj.samples) ** 2
    peak = classical.max(axis=0)
    gaps = []
    lams = (1, 2, 3, 4, 5, 6)
    for lam in lams:
        dims = TruncationDims(*(math.ceil(lam ** 2 * n + 6 * lam * math.sqrt(n) + 8)
                                for n in peak))
        params = ModeParams(2.0, 1.2, 0.8, kappa_mag=1.0 / lam)
        result = evolve_state(system_hamiltonian(params, dims),
                              ProductState(tuple(lam * alpha.astype(complex)), dims),
                              t_final, 7, dims)
        mean_field = classical[np.round(result.times / dt).astype(int)]
        gaps.append(result.expectations / lam ** 2 - mean_field)
    gaps = np.abs(gaps)
    falling = bool(np.all(gaps[2:, 1:] < gaps[1:-1, 1:]))
    early = [lam ** 2 * gap[1] for lam, gap in zip(lams, gaps)]
    steps = np.abs(np.diff(early, axis=0))
    converging = bool(np.all(steps[1:] < steps[:-1]))
    ok = falling and converging
    assert report(11, "classical limit, lam = 1-6", ok,
                  f"lam^2 gap <n1> at t = 0.5: "
                  f"{', '.join(f'{e[1]:.4f}' for e in early)}")


GOLDEN_CONFIG = """\
scenario = meanfield
omega0 = 2.0
omega1 = 1.2
omega2 = 0.8
kappa = 0.25
phi = 0.3
alpha0_re = 1.5
alpha1_re = 0.4
alpha1_im = -0.1
t_final = 2.0
dt = 0.01
seed = 9
"""


def test_criterion_12_cli_golden_and_validation(tmp_path, capsys):
    """Byte-identical CSV across reruns; frequency mismatch rejected."""
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(GOLDEN_CONFIG, encoding="utf-8")
    for sub in ("one", "two"):
        (tmp_path / sub).mkdir()
        assert main([str(cfg), "--output-dir", str(tmp_path / sub),
                     "--quiet"]) == 0
    identical = ((tmp_path / "one" / "meanfield.csv").read_bytes()
                 == (tmp_path / "two" / "meanfield.csv").read_bytes())

    with pytest.raises(ConfigError, match="frequency matching"):
        parse_config(GOLDEN_CONFIG.replace("omega1 = 1.2", "omega1 = 1.5"))
    rejected = True
    capsys.readouterr()
    ok = identical and rejected
    assert report(12, "CLI reproducibility and validation", ok,
                  f"byte-identical {identical}")
