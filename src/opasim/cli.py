"""Configuration-driven scenario runner emitting CSV time series.

Configurations are flat, line-oriented ``key = value`` text with ``#``
comments.  Every scenario writes its CSV artifacts atomically (temp file
plus rename) and prints a summary block with invariant diagnostics; runs
are byte-reproducible for identical configuration and seed.

Exit codes: 0 success, 2 configuration error, 3 numeric divergence or an
invariant diagnostic above threshold, 4 resource cap exceeded, 5 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
import tempfile
import warnings
from dataclasses import dataclass, replace
from pathlib import Path, PurePath

import numpy as np

from .errors import ConfigError, DivergenceError, ResourceLimitError
from .fockspace import (
    SWEEP_POINT_CAP,
    ModeParams,
    TruncationDims,
    product_coherent_state,
)
from .meanfield import MeanFieldState, Trajectory, integrate_rk4, num_steps
from .pathintegral import (
    free_mode_path,
    free_propagator_closed_form,
    lagrangian_difference,
    path_from_trajectory,
    product_propagator,
)
from .quantum import evolve_state, system_hamiltonian
from .thermal import ThermalParams, fluorescence_ensemble

SCENARIOS = (
    "meanfield",
    "quantum",
    "fluorescence",
    "propagator-convergence",
    "action-check",
    "thermal-ensemble",
    "sweep",
)

#: Keys a sweep may vary without breaking the frequency-matching constraint.
SWEEPABLE_KEYS = (
    "kappa", "phi",
    "alpha0_re", "alpha0_im", "alpha1_re", "alpha1_im",
    "alpha2_re", "alpha2_im",
)

#: Diagnostic thresholds gating exit code 0.
MR_DRIFT_THRESHOLD = 1e-6
NORM_DEV_THRESHOLD = 1e-9
ACTION_CHECK_THRESHOLD = 1e-12

_REQUIRED = object()

_BOOL_VALUES = {"true": True, "false": False}


def _parse_bool(raw: str) -> bool:
    try:
        return _BOOL_VALUES[raw]
    except KeyError:
        raise ValueError(f"expected 'true' or 'false', got {raw!r}") from None


def _parse_finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("expected a finite number")
    return value


def _parse_scenario(raw: str) -> str:
    if raw not in SCENARIOS:
        raise ValueError(f"expected one of {', '.join(SCENARIOS)}")
    return raw


#: key -> (caster, default); _REQUIRED defaults are scenario-dependent.
_KEY_SPECS: dict = {
    "scenario": (_parse_scenario, _REQUIRED),
    "omega0": (_parse_finite, 2.0),
    "omega1": (_parse_finite, 1.0),
    "omega2": (_parse_finite, 1.0),
    "kappa": (_parse_finite, 0.1),
    "phi": (_parse_finite, 0.0),
    "alpha0_re": (_parse_finite, 0.0),
    "alpha0_im": (_parse_finite, 0.0),
    "alpha1_re": (_parse_finite, 0.0),
    "alpha1_im": (_parse_finite, 0.0),
    "alpha2_re": (_parse_finite, 0.0),
    "alpha2_im": (_parse_finite, 0.0),
    "d0": (int, 8),
    "d1": (int, 8),
    "d2": (int, 8),
    "t_final": (_parse_finite, None),
    "dt": (_parse_finite, None),
    "n_slices": (int, 4096),
    "n_samples": (int, 100),
    "temperature": (_parse_finite, 0.0),
    "seed": (int, 0),
    "include_zero_point": (_parse_bool, False),
    "sweep_key": (str, None),
    "sweep_start": (_parse_finite, None),
    "sweep_stop": (_parse_finite, None),
    "sweep_count": (int, None),
    "output": (str, None),
}

#: keys that must be present per scenario, beyond 'scenario' itself.
_SCENARIO_REQUIRES = {
    "meanfield": ("t_final", "dt"),
    "quantum": ("t_final", "dt"),
    "fluorescence": ("t_final", "dt"),
    "propagator-convergence": ("t_final",),
    "action-check": ("t_final", "dt"),
    "thermal-ensemble": ("t_final", "dt"),
    "sweep": ("t_final", "dt", "sweep_key", "sweep_start",
              "sweep_stop", "sweep_count"),
}


@dataclass(frozen=True)
class RunConfig:
    """Fully validated scenario configuration."""

    scenario: str
    params: ModeParams
    dims: TruncationDims
    alpha1: complex
    alpha2: complex
    t_final: float | None
    dt: float | None
    n_slices: int
    n_samples: int
    thermal: ThermalParams
    output: str
    sweep_key: str | None = None
    sweep_start: float | None = None
    sweep_stop: float | None = None
    sweep_count: int | None = None


def parse_config(text: str) -> RunConfig:
    """Parse and validate ``key = value`` configuration text.

    Unknown keys, duplicate keys, unparsable values and violated invariants
    are all :class:`ConfigError`s carrying the offending line numbers.
    """
    assignments: dict[str, tuple[str, int]] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _KEY_SPECS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in assignments:
            first_line = assignments[key][1]
            raise ConfigError(
                f"duplicate key {key!r} on line {lineno} (first set on line "
                f"{first_line})"
            )
        if not raw_value:
            raise ConfigError(f"line {lineno}: empty value for key {key!r}")
        assignments[key] = (raw_value, lineno)

    values: dict = {}
    lines: dict[str, int] = {}
    for key, (caster, default) in _KEY_SPECS.items():
        if key in assignments:
            raw_value, lineno = assignments[key]
            lines[key] = lineno
            try:
                values[key] = caster(raw_value)
            except ValueError as exc:
                raise ConfigError(
                    f"line {lineno}: cannot parse {key} = {raw_value!r} ({exc})"
                ) from None
        else:
            values[key] = None if default is _REQUIRED else default

    if values["scenario"] is None:
        raise ConfigError("missing required key 'scenario'")
    scenario = values["scenario"]
    for key in _SCENARIO_REQUIRES[scenario]:
        if values[key] is None:
            raise ConfigError(
                f"missing required key {key!r} for scenario {scenario!r}"
            )

    def _lines_of(*keys: str) -> str:
        present = [f"{k} (line {lines[k]})" for k in keys if k in lines]
        return ", ".join(present) if present else "defaults"

    for key in ("omega0", "omega1", "omega2"):
        if not values[key] > 0:
            raise ConfigError(f"{key} must be > 0; set by {_lines_of(key)}")
    try:
        params = ModeParams(
            omega0=values["omega0"], omega1=values["omega1"],
            omega2=values["omega2"], kappa_mag=values["kappa"],
            phi=values["phi"],
            pump_alpha0=complex(values["alpha0_re"], values["alpha0_im"]),
            include_zero_point=values["include_zero_point"],
        )
    except ValueError as exc:
        raise ConfigError(
            f"{exc}; set by {_lines_of('omega0', 'omega1', 'omega2', 'kappa')}"
        ) from None

    try:
        dims = TruncationDims(values["d0"], values["d1"], values["d2"])
    except ValueError as exc:
        raise ConfigError(f"{exc}; set by {_lines_of('d0', 'd1', 'd2')}") from None

    try:
        thermal = ThermalParams(temperature=values["temperature"],
                                seed=values["seed"])
    except ValueError as exc:
        raise ConfigError(f"{exc}; set by {_lines_of('temperature', 'seed')}") from None

    if values["dt"] is not None and values["dt"] <= 0:
        raise ConfigError(f"dt must be > 0; set by {_lines_of('dt')}")
    if values["t_final"] is not None and values["t_final"] < 0:
        raise ConfigError(f"t_final must be >= 0; set by {_lines_of('t_final')}")
    if scenario == "propagator-convergence" and values["t_final"] == 0:
        raise ConfigError(
            f"t_final must be > 0 to slice a path; set by {_lines_of('t_final')}"
        )
    if "dt" in _SCENARIO_REQUIRES[scenario] and values["t_final"] < values["dt"]:
        raise ConfigError(
            f"t_final must be at least dt; set by {_lines_of('t_final', 'dt')}"
        )
    if values["n_samples"] < 1:
        raise ConfigError(f"n_samples must be >= 1; set by {_lines_of('n_samples')}")
    if values["n_slices"] < 1:
        raise ConfigError(f"n_slices must be >= 1; set by {_lines_of('n_slices')}")
    if scenario == "sweep":
        if values["sweep_key"] not in SWEEPABLE_KEYS:
            raise ConfigError(
                f"sweep_key must be one of {', '.join(SWEEPABLE_KEYS)}; "
                f"set by {_lines_of('sweep_key')}"
            )
        if values["sweep_count"] < 1:
            raise ConfigError(
                f"sweep_count must be >= 1; set by {_lines_of('sweep_count')}"
            )

    output = values["output"] if values["output"] is not None else f"{scenario}.csv"
    output_path = PurePath(output)
    if output_path.is_absolute() or ".." in output_path.parts:
        raise ConfigError(
            f"output must be a relative path without '..'; set by "
            f"{_lines_of('output')}"
        )

    config = RunConfig(
        scenario=scenario, params=params, dims=dims,
        alpha1=complex(values["alpha1_re"], values["alpha1_im"]),
        alpha2=complex(values["alpha2_re"], values["alpha2_im"]),
        t_final=values["t_final"], dt=values["dt"],
        n_slices=values["n_slices"], n_samples=values["n_samples"],
        thermal=thermal, output=output,
        sweep_key=values["sweep_key"], sweep_start=values["sweep_start"],
        sweep_stop=values["sweep_stop"], sweep_count=values["sweep_count"],
    )
    if scenario == "sweep":
        # the sweep is linear, so its endpoints bound every point's value
        for key in ("sweep_start", "sweep_stop"):
            try:
                _config_with_sweep_value(config, values[key])
            except ValueError as exc:
                raise ConfigError(
                    f"{exc}; set by {_lines_of('sweep_key', key)}"
                ) from None
    return config


@functools.lru_cache(maxsize=64)
def _row_format(types: tuple[type, ...]) -> str:
    """%-format of a CSV row with these value types: integers exactly,
    everything else as a float with 17 significant digits."""
    return ",".join("%d" if issubclass(t, (int, np.integer)) else "%.17g"
                    for t in types) + "\n"


def write_csv_atomic(path: Path, header: list[str], rows) -> int:
    """Write a CSV (LF newlines, UTF-8, no BOM) via temp file + rename.

    Rows are written as they are drawn from ``rows``.  The temp file lives
    in the target directory (rename stays atomic) with a unique name, and
    is removed if the write fails partway.  Returns the number of rows.
    """
    fd, tmp_name = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp",
                                    dir=path.parent or None)
    count = 0
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for count, row in enumerate(rows, start=1):
                row = tuple(row)
                fh.write(_row_format(tuple(map(type, row))) % row)
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise
    return count


@dataclass
class ScenarioReport:
    """Outcome of one scenario: written files, diagnostics, pass/fail."""

    outputs: list[tuple[Path, int]]
    diagnostics: list[tuple[str, str]]
    notes: list[str]
    ok: bool


def _initial_state(config: RunConfig) -> MeanFieldState:
    return MeanFieldState(config.params.pump_alpha0, config.alpha1, config.alpha2)


def _write_meanfield_csv(traj: Trajectory, out_path: Path) -> tuple[int, float]:
    """Write the mean-field time series; returns (rows, max relative MR drift).

    The Manley-Rowe columns are (n0 + n1, n0 + n2, n1 - n2).
    """
    drift = 0.0

    def rows():
        nonlocal drift
        mr0 = None
        # one list of Python complex numbers per mode, not one list per row
        for t, a0, a1, a2 in zip(traj.times(), *traj.samples.T.tolist()):
            n0, n1, n2 = abs(a0) ** 2, abs(a1) ** 2, abs(a2) ** 2
            mr1, mr2, mr3 = n0 + n1, n0 + n2, n1 - n2
            if mr0 is None:
                mr0 = (mr1, mr2, mr3)
                scale = max(abs(mr1), abs(mr2), 1e-300)
            drift = max(drift, max(abs(mr1 - mr0[0]), abs(mr2 - mr0[1]),
                                   abs(mr3 - mr0[2])) / scale)
            yield (t, a0.real, a0.imag, a1.real, a1.imag, a2.real, a2.imag,
                   n0, n1, n2, mr1, mr2, mr3)

    header = ["t", "re_a0", "im_a0", "re_a1", "im_a1", "re_a2", "im_a2",
              "n0", "n1", "n2", "mr1", "mr2", "mr3"]
    n_rows = write_csv_atomic(out_path, header, rows())
    return n_rows, drift


def _run_meanfield(config: RunConfig, out_path: Path) -> ScenarioReport:
    traj = integrate_rk4(_initial_state(config), config.params,
                         config.t_final, config.dt)
    n_rows, drift = _write_meanfield_csv(traj, out_path)
    ok = drift <= MR_DRIFT_THRESHOLD
    diags = [("max Manley-Rowe relative drift",
              f"{drift:.3e} (threshold {MR_DRIFT_THRESHOLD:g})")]
    return ScenarioReport([(out_path, n_rows)], diags, [], ok)


def _run_quantum(config: RunConfig, out_path: Path) -> ScenarioReport:
    steps = num_steps(config.t_final, config.dt)
    h = system_hamiltonian(config.params, config.dims)
    psi0 = product_coherent_state(config.params.pump_alpha0, config.alpha1,
                                  config.alpha2, config.dims)
    result = evolve_state(h, psi0, steps * config.dt, steps + 1,
                          dims=config.dims)
    rows = zip(result.times, *result.expectations.T, result.norm_deviations,
               result.energies)
    header = ["t", "n0", "n1", "n2", "norm_dev", "energy"]
    n_rows = write_csv_atomic(out_path, header, rows)
    ok = result.max_norm_deviation <= NORM_DEV_THRESHOLD
    diags = [("max norm deviation",
              f"{result.max_norm_deviation:.3e} (threshold {NORM_DEV_THRESHOLD:g})")]
    return ScenarioReport([(out_path, n_rows)], diags, list(result.warnings), ok)


def _run_propagator_convergence(config: RunConfig, out_path: Path) -> ScenarioReport:
    alpha = config.params.pump_alpha0
    omega = config.params.omega0
    t = config.t_final
    free_params = ModeParams(config.params.omega0, config.params.omega1,
                             config.params.omega2, kappa_mag=0.0)
    exact = free_propagator_closed_form(alpha, alpha, omega, t)
    ns = [n for n in (64 * 2 ** k for k in range(12)) if n <= config.n_slices]
    if not ns:
        ns = [config.n_slices]
    rows = []
    for n in ns:
        path = free_mode_path(alpha, omega, t, n, pinned_end=alpha)
        err = abs(product_propagator(path, free_params) - exact)
        rows.append((n, err))
    n_rows = write_csv_atomic(out_path, ["n", "abs_error"], rows)
    errors = [r[1] for r in rows]
    monotone = all(b < a for a, b in zip(errors, errors[1:]))
    diags = [("error range", f"{errors[0]:.3e} -> {errors[-1]:.3e}"),
             ("monotone decrease", "yes" if monotone else "NO")]
    return ScenarioReport([(out_path, n_rows)], diags, [], monotone)


def _run_action_check(config: RunConfig, out_path: Path) -> ScenarioReport:
    traj = integrate_rk4(_initial_state(config), config.params,
                         config.t_final, config.dt)
    path = path_from_trajectory(traj)
    diffs = lagrangian_difference(path, config.params,
                                  -config.params.kappa_prime)
    n_rows = write_csv_atomic(out_path, ["t", "abs_diff"],
                              zip(traj.times(), diffs.tolist()))
    worst = float(np.max(diffs))
    ok = worst <= ACTION_CHECK_THRESHOLD
    diags = [("max |L - L_alt| at eta = -kappa'",
              f"{worst:.3e} (threshold {ACTION_CHECK_THRESHOLD:g})")]
    return ScenarioReport([(out_path, n_rows)], diags, [], ok)


def _run_thermal_ensemble(config: RunConfig, out_path: Path) -> ScenarioReport:
    stats = fluorescence_ensemble(config.params, config.thermal,
                                  config.t_final, config.dt, config.n_samples)
    rows = zip(stats.times, stats.mean_n1, stats.var_n1,
               stats.mean_n2, stats.var_n2)
    header = ["t", "mean_n1", "var_n1", "mean_n2", "var_n2"]
    n_rows = write_csv_atomic(out_path, header, rows)
    diags = [("samples", f"{stats.n_samples} ({stats.n_failures} diverged)")]
    return ScenarioReport([(out_path, n_rows)], diags, [], True)


def _config_with_sweep_value(config: RunConfig, value: float) -> RunConfig:
    """The mean-field run of one sweep point: ``config`` with its sweep key
    set to ``value``."""
    p, a1, a2 = config.params, config.alpha1, config.alpha2
    current = (p.kappa_mag, p.phi, p.pump_alpha0.real, p.pump_alpha0.imag,
               a1.real, a1.imag, a2.real, a2.imag)
    v = dict(zip(SWEEPABLE_KEYS, current)) | {config.sweep_key: value}
    params = replace(p, kappa_mag=v["kappa"], phi=v["phi"],
                     pump_alpha0=complex(v["alpha0_re"], v["alpha0_im"]))
    return replace(config, scenario="meanfield", params=params,
                   alpha1=complex(v["alpha1_re"], v["alpha1_im"]),
                   alpha2=complex(v["alpha2_re"], v["alpha2_im"]))


def _run_sweep(config: RunConfig, out_path: Path) -> ScenarioReport:
    """Run every point, then write the aggregate; a point or write that
    raises removes the point files already written before re-raising."""
    if config.sweep_count > SWEEP_POINT_CAP:
        raise ResourceLimitError(
            f"sweep of {config.sweep_count} points exceeds the cap of "
            f"{SWEEP_POINT_CAP} points"
        )
    values = np.linspace(config.sweep_start, config.sweep_stop,
                         config.sweep_count)
    outputs = []
    aggregate_rows = []
    all_ok = True
    try:
        for i, value in enumerate(values):
            point = _config_with_sweep_value(config, float(value))
            point_path = out_path.with_name(
                f"{out_path.stem}_{i:03d}{out_path.suffix or '.csv'}")
            traj = integrate_rk4(_initial_state(point), point.params,
                                 point.t_final, point.dt)
            n_rows, drift = _write_meanfield_csv(traj, point_path)
            outputs.append((point_path, n_rows))
            all_ok = all_ok and drift <= MR_DRIFT_THRESHOLD
            (_, a1_0, _), (_, a1_t, a2_t) = traj.samples[[0, -1]].tolist()
            n1_0, n1_t = abs(a1_0) ** 2, abs(a1_t) ** 2
            gain = n1_t / n1_0 if n1_0 > 0 else float("nan")
            aggregate_rows.append((float(value), n1_t, abs(a2_t) ** 2, gain))
        header = [config.sweep_key, "n1_final", "n2_final", "gain_n1"]
        n_rows = write_csv_atomic(out_path, header, aggregate_rows)
    except BaseException:
        for path, _ in outputs:
            with contextlib.suppress(OSError):
                path.unlink()
        raise
    outputs.append((out_path, n_rows))
    return ScenarioReport(outputs, [("sweep points", str(len(values)))], [], all_ok)


_SCENARIO_RUNNERS = {
    "meanfield": _run_meanfield,
    "quantum": _run_quantum,
    # fluorescence is the quantum run from vacuum signal and idler
    "fluorescence": lambda config, out_path: _run_quantum(
        replace(config, alpha1=0j, alpha2=0j), out_path),
    "propagator-convergence": _run_propagator_convergence,
    "action-check": _run_action_check,
    "thermal-ensemble": _run_thermal_ensemble,
    "sweep": _run_sweep,
}


def run(config: RunConfig, output_dir: str | None = None,
        quiet: bool = False) -> int:
    """Execute a validated configuration; returns the process exit code."""
    out_path = Path(config.output)
    if output_dir is not None:
        out_path = Path(output_dir) / out_path

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = _SCENARIO_RUNNERS[config.scenario](config, out_path)
    report.notes.extend(str(w.message) for w in caught)

    if not quiet:
        print(f"scenario: {config.scenario}")
        for path, n_rows in report.outputs:
            print(f"output: {path} ({n_rows} rows)")
        for label, value in report.diagnostics:
            print(f"{label}: {value}")
        if report.notes:
            for note in report.notes:
                print(f"warning: {note}")
        else:
            print("warnings: none")
        print(f"status: {'ok' if report.ok else 'INVARIANT VIOLATION'}")
    return 0 if report.ok else 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="opa-sim",
        description="Three-mode optical parametric amplifier scenario runner",
    )
    parser.add_argument("config", help="path to a 'key = value' configuration file")
    parser.add_argument("--output-dir", default=None,
                        help="directory prepended to configured output paths")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the summary block")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 5

    try:
        config = parse_config(text)
        return run(config, output_dir=args.output_dir, quiet=args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DivergenceError, OverflowError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
