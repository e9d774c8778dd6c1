"""Seeded operations of the three benchmark workloads and their checks.

An operation is either one ``opa-sim`` scenario run (a generated config
file, executed in-process through ``opasim.cli.main``) or one library call
(``pathintegral.stationary_propagator``).  Operations come in blocks, and
every block holds the same sizes, spread over the workload's ranges, so a
run's metrics do not depend on the seed or on how many blocks it ran.

A block takes 4 to 8 s on a 2-CPU host, so a 30 s run times each op
slot 4 to 9 times.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Throughput metric -> the operation kinds whose work it counts.
THROUGHPUT_KINDS = {
    "fock_amplitudes_per_s": ("quantum", "fluorescence"),
    "traj_steps_per_s": ("meanfield", "action-check", "sweep", "thermal-ensemble"),
    "slices_per_s": ("propagator-convergence", "stationary_propagator"),
}

#: Thresholds of the per-operation checks.
NORM_DEV_MAX = 1e-9
CHARGE_DRIFT_MAX = 1e-8
MR_DRIFT_MAX = 1e-6
ACTION_DIFF_MAX = 1e-12
STATIONARY_GAP_MAX = 0.05  # acceptance criterion 07's tolerance

#: The stationary-path check compares against ``propagator_exact`` at 10^3.
REFERENCE_DIMS = (10, 10, 10)

#: propagator-convergence tabulates n = 64 * 2^k for k < 12, so at most 2^17.
CONVERGENCE_SLICES = tuple(64 * 2 ** k for k in range(12))

OMEGAS = (2.0, 1.2, 0.8)

#: Coupling of the stationary-path launch points: weak, like criterion 07's.
STATIONARY_KAPPA = 0.1


@dataclass
class Op:
    """One benchmark operation.

    ``params`` holds config keys for CLI kinds and keyword arguments for
    the library kind.  ``rows`` is the row count every CSV of the op must
    have (per point for sweeps); ``work`` is the op's share of its
    throughput metric (amplitudes, trajectory steps or slices).  ``slot``
    is the op's place in its block before shuffling; a slot holds the same
    sizes in every block.
    """

    kind: str
    params: dict
    rows: int
    work: float
    slot: int = 0

    @property
    def is_cli(self) -> bool:
        return self.kind != "stationary_propagator"

    def config_text(self, output: str) -> str:
        lines = [f"scenario = {self.kind}"]
        lines += [f"{key} = {_render(value)}" for key, value in self.params.items()]
        lines.append(f"output = {output}")
        return "\n".join(lines) + "\n"


def _render(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


# --------------------------------------------------------------- sampling

def grid(n: int, smoke: bool) -> list[float]:
    """n evenly spaced positions in [0, 1], both ends included (0.5 if n = 1).

    In smoke mode every position is 0, so every size sits at its range's
    lower end.
    """
    if smoke:
        return [0.0] * n
    return [0.5] if n == 1 else [i / (n - 1) for i in range(n)]


def lerp(lo: float, hi: float, u: float) -> float:
    return lo + (hi - lo) * u


def log_lerp(lo: float, hi: float, u: float) -> float:
    return math.exp(lerp(math.log(lo), math.log(hi), u))


def _phase(rng: random.Random) -> complex:
    return complex(math.cos(a := rng.uniform(0.0, 2 * math.pi)), math.sin(a))


def _amplitude_keys(prefix: str, value: complex) -> dict:
    return {f"{prefix}_re": value.real, f"{prefix}_im": value.imag}


def _mode_keys(rng: random.Random, alpha0: complex) -> dict:
    keys = {"omega0": OMEGAS[0], "omega1": OMEGAS[1], "omega2": OMEGAS[2],
            "kappa": rng.uniform(0.05, 0.15), "phi": rng.uniform(0.0, 2 * math.pi)}
    keys.update(_amplitude_keys("alpha0", alpha0))
    return keys


def _pump(rng: random.Random) -> complex:
    return rng.uniform(1.0, 3.0) * _phase(rng)


def _slotted(ops: list[Op]) -> list[Op]:
    """Number a block's ops by their place in the fixed size order."""
    for slot, op in enumerate(ops):
        op.slot = slot
    return ops


def _time_grid(t_final: float, steps: int) -> dict:
    """t_final and a dt dividing it into exactly ``steps`` steps."""
    return {"t_final": t_final, "dt": t_final / steps}


# ------------------------------------------------------------ generators
#
# Sizes sit on a fixed grid over each range, the same in every block and
# for every seed; the seed draws everything else (phases, amplitudes,
# couplings, temperatures, ensemble seeds, the op order).  Two seeds thus
# put the same load on the program, and a run's numbers measure the
# program rather than the draw.

def _exact_op(rng: random.Random, kind: str, side: int, u: float) -> Op:
    samples = round(lerp(20, 200, 1.0 - u))
    dims = [side - 1, side, side + 1]
    rng.shuffle(dims)
    keys = _mode_keys(rng, lerp(1.0, 3.0, u) * _phase(rng))
    keys["kappa"] = 0.1
    keys.update(d0=dims[0], d1=dims[1], d2=dims[2])
    keys.update(_time_grid(lerp(1.0, 2.0, 1.0 - u), samples - 1))
    if kind == "quantum":
        keys.update(_amplitude_keys("alpha1", 0.3 * _phase(rng)))
        keys.update(_amplitude_keys("alpha2", 0.3 * _phase(rng)))
    return Op(kind, keys, rows=samples, work=float((side ** 3 - side) * samples))


def exact_route_blocks(rng: random.Random, smoke: bool):
    """Two dense-eigh and three Krylov cases, quantum and fluorescence alike.

    Per-mode dims are side-1, side, side+1, with side 8 or 10 (dense,
    below 1200) or 16, 25, 40 (Krylov).  As the size grows, |alpha0| grows
    from 1 to 3 (so the pump fits the truncation), while the sample count
    (200 down to 20) and t_final (2 down to 1) fall, which keeps the
    largest op under 2 s and its sampled states near 20 MB.  Krylov cost
    also depends on ||H|| and on the state, so the coupling, the amplitude
    magnitudes and each case's kind are fixed; the seed draws the phases.
    The cap size 64^3 (about 17 s per op) is left out: one of it would
    outlast a block.
    """
    while True:
        kinds = itertools.cycle(("quantum", "fluorescence"))
        ops = _slotted([_exact_op(rng, next(kinds), round(log_lerp(lo, hi, u)), u)
                        for lo, hi, n in ((8, 10, 2), (16, 40, 3))
                        for u in grid(n, smoke)])
        rng.shuffle(ops)
        yield ops


def _thermal_op(rng: random.Random, members: int, steps: int) -> Op:
    keys = _mode_keys(rng, _pump(rng))
    keys.update(_time_grid(steps * 0.01, steps))
    keys.update(temperature=rng.uniform(0.5, 2.0), n_samples=members,
                seed=rng.randrange(2 ** 31))
    return Op("thermal-ensemble", keys, rows=steps + 1,
              work=float(members * steps))


_SWEEP_RANGES = {"kappa": (0.05, 0.2), "phi": (0.0, math.pi),
                 "alpha0_re": (1.0, 3.0)}


def _sweep_op(rng: random.Random, points: int, steps: int) -> Op:
    key = rng.choice(sorted(_SWEEP_RANGES))
    start, stop = _SWEEP_RANGES[key]
    keys = _mode_keys(rng, _pump(rng))
    keys.update(_amplitude_keys("alpha1", rng.uniform(0.1, 0.5) * _phase(rng)))
    keys.update(_time_grid(steps * 1e-3, steps))
    keys.update(sweep_key=key, sweep_start=start, sweep_stop=stop,
                sweep_count=points)
    return Op("sweep", keys, rows=steps + 1, work=float(points * steps))


def meanfield_ensemble_blocks(rng: random.Random, smoke: bool):
    """Four thermal ensembles, two sweeps and a rerun of one ensemble.

    Ensembles grow from 10^3 members x 100 steps to 10^4 x 1000, so their
    buffers (8 bytes per member-step) run from about 1 MB to 80 MB.  The
    rerun repeats the third ensemble's config verbatim; its CSV must match
    byte for byte.  Sweeps take 16 points of 10^3 steps or 4 of 4*10^3,
    the same 1.6*10^4 point-steps.  The two sweeps, the third ensemble and
    its rerun then cost about the same, so the slowest ops of a run are
    the largest ensemble and, ten ops further in, always one of these
    four: ``op_tail_s`` does not jump with the number of blocks a run
    completes.  Sweeps of 10^4 steps are left out, because a 4-point one
    (1.6 s) sat alone between the two groups and did make it jump.
    """
    while True:
        ops = [_thermal_op(rng, round(log_lerp(1000, 10000, u)),
                           round(log_lerp(100, 1000, u)))
               for u in grid(4, smoke)]
        rerun = Op(ops[2].kind, dict(ops[2].params), ops[2].rows, ops[2].work)
        ops += [_sweep_op(rng, round(lerp(16, 4, u)), round(lerp(1000, 4000, u)))
                for u in grid(2, smoke)]
        _slotted(ops + [rerun])
        rng.shuffle(ops)
        yield ops + [rerun]


def _trajectory_op(rng: random.Random, kind: str, steps: int) -> Op:
    keys = _mode_keys(rng, _pump(rng))
    keys.update(_amplitude_keys("alpha1", rng.uniform(0.1, 0.5) * _phase(rng)))
    keys.update(_amplitude_keys("alpha2", rng.uniform(0.0, 0.5) * _phase(rng)))
    keys.update(_time_grid(steps * 1e-3, steps))
    return Op(kind, keys, rows=steps + 1, work=float(steps))


def _convergence_op(rng: random.Random, n_slices: int) -> Op:
    table = [n for n in CONVERGENCE_SLICES if n <= n_slices]
    keys = {"omega0": OMEGAS[0], "omega1": OMEGAS[1], "omega2": OMEGAS[2]}
    keys.update(_amplitude_keys("alpha0", rng.uniform(0.5, 1.5) * _phase(rng)))
    keys.update(t_final=rng.uniform(0.5, 1.5), n_slices=n_slices)
    return Op("propagator-convergence", keys, rows=len(table),
              work=float(sum(table)))


def _launch_point(rng: random.Random) -> dict:
    """A weak-coupling launch point like acceptance criterion 07's."""
    labels = tuple(rng.uniform(0.2, 0.8) * _phase(rng) for _ in range(3))
    return {"labels": labels, "phi": rng.uniform(0.0, 2 * math.pi)}


def single_path_blocks(rng: random.Random, smoke: bool):
    """Stationary-path products at 2^12 and 2^16 slices, mean-field runs of
    10^4 to 5*10^4 steps, action checks of 5*10^3 and 2*10^4 steps and one
    convergence table (n_slices 2^14.5, tabulated up to 2^14).

    The stationary products of a run share two launch points, because each
    point needs an untimed ``propagator_exact`` reference (a dense 10^3
    eigendecomposition, about 1 s).
    """
    points = [_launch_point(rng) for _ in range(2)]
    while True:
        ops = [Op("stationary_propagator", dict(point, n_slices=n), rows=0, work=float(n))
               for point, n in zip(points, (round(log_lerp(2 ** 12, 2 ** 16, u))
                                            for u in grid(2, smoke)))]
        ops += [_trajectory_op(rng, "meanfield", round(log_lerp(10000, 50000, u)))
                for u in grid(3, smoke)]
        ops += [_trajectory_op(rng, "action-check", round(log_lerp(5000, 20000, u)))
                for u in grid(2, smoke)]
        ops += [_convergence_op(rng, round(log_lerp(2 ** 12, 2 ** 17, u)))
                for u in grid(1, smoke)]
        _slotted(ops)
        rng.shuffle(ops)
        yield ops


#: Workload -> generator of operation blocks, given an RNG and smoke flag.
BLOCKS = {
    "exact-route": exact_route_blocks,
    "meanfield-ensemble": meanfield_ensemble_blocks,
    "single-path": single_path_blocks,
}


# ----------------------------------------------------------------- checks

class CheckFailed(Exception):
    """An operation's output broke one of the benchmark's checks."""


def _load(path: Path, columns) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=columns,
                      ndmin=2)
    if not np.all(np.isfinite(data)):
        raise CheckFailed(f"{path.name}: non-finite value")
    return data


def _expect_rows(path: Path, data: np.ndarray, rows: int) -> None:
    if data.shape[0] != rows:
        raise CheckFailed(f"{path.name}: {data.shape[0]} rows, expected {rows}")


def _check_quantum(op: Op, path: Path) -> None:
    data = _load(path, (1, 2, 3, 4))
    _expect_rows(path, data, op.rows)
    if data[:, 3].max() > NORM_DEV_MAX:
        raise CheckFailed(f"norm deviation {data[:, 3].max():.3g}")
    for charge in (data[:, 0] + data[:, 1], data[:, 0] + data[:, 2]):
        drift = charge.max() - charge.min()
        if drift > CHARGE_DRIFT_MAX:
            raise CheckFailed(f"conserved charge drifted by {drift:.3g}")


def _check_meanfield_csv(path: Path, rows: int) -> None:
    data = _load(path, (10, 11, 12))
    _expect_rows(path, data, rows)
    scale = max(abs(data[0, 0]), abs(data[0, 1]), 1e-300)
    drift = np.abs(data - data[0]).max() / scale
    if drift > MR_DRIFT_MAX:
        raise CheckFailed(f"{path.name}: Manley-Rowe drift {drift:.3g}")


def _check_meanfield(op: Op, path: Path) -> None:
    _check_meanfield_csv(path, op.rows)


def _check_sweep(op: Op, path: Path) -> None:
    points = op.params["sweep_count"]
    _expect_rows(path, _load(path, (0, 1, 2)), points)
    for i in range(points):
        _check_meanfield_csv(path.with_name(f"{path.stem}_{i:03d}.csv"), op.rows)


def _check_action(op: Op, path: Path) -> None:
    data = _load(path, (1,))
    _expect_rows(path, data, op.rows)
    if data.max() > ACTION_DIFF_MAX:
        raise CheckFailed(f"action gap {data.max():.3g}")


def _check_convergence(op: Op, path: Path) -> None:
    data = _load(path, (1,))
    _expect_rows(path, data, op.rows)
    errors = data[:, 0]
    if not np.all(errors[1:] < errors[:-1]):
        raise CheckFailed("convergence table does not decrease monotonically")


def _check_thermal(op: Op, path: Path) -> None:
    _expect_rows(path, _load(path, (1, 2, 3, 4)), op.rows)


CSV_CHECKS = {
    "quantum": _check_quantum,
    "fluorescence": _check_quantum,
    "meanfield": _check_meanfield,
    "action-check": _check_action,
    "propagator-convergence": _check_convergence,
    "thermal-ensemble": _check_thermal,
    "sweep": _check_sweep,
}


def check_cli_op(op: Op, exit_code: int, csv_path: Path,
                 digests: dict[str, str]) -> None:
    """Raise :class:`CheckFailed` unless the run's outputs are correct.

    ``digests`` maps ensemble config text to the SHA-256 of the CSV it
    produced earlier in the run; a repeated config must reproduce it
    exactly.
    """
    if exit_code != 0:
        raise CheckFailed(f"exit code {exit_code}")
    CSV_CHECKS[op.kind](op, csv_path)
    if op.kind != "thermal-ensemble":
        return
    key = op.config_text("-")
    digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    if digests.setdefault(key, digest) != digest:
        raise CheckFailed("rerun of an identical config changed the CSV")


def check_stationary(value: complex, reference: complex) -> None:
    gap = abs(value - reference)
    if not gap < STATIONARY_GAP_MAX:
        raise CheckFailed(f"stationary propagator off the exact one by {gap:.3g}")
