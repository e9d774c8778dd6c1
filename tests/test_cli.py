"""Configuration parsing, scenario dispatch, CSV contracts and exit codes."""

import contextlib
import hashlib
import io
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from decimal import ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opasim
from opasim import cli, fockspace, meanfield, quantum
from opasim.cli import (
    SCENARIOS,
    SWEEPABLE_KEYS,
    main,
    parse_config,
    run,
    write_csv_atomic,
)
from opasim.errors import ConfigError, ResourceLimitError
from opasim.fockspace import TruncationDims
from opasim.meanfield import MeanFieldState, integrate_rk4, trajectory_blocks

MINIMAL_MEANFIELD = """\
scenario = meanfield
omega0 = 2.0
omega1 = 1.2
omega2 = 0.8
kappa = 0.2
alpha0_re = 2.0
alpha1_re = 0.3
t_final = 1.0
dt = 0.01
"""


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, np.array(rows, dtype=float)


class TestParseConfig:
    def test_minimal_config_fills_defaults(self):
        config = parse_config(MINIMAL_MEANFIELD)
        assert config.scenario == "meanfield"
        assert config.params.pump_alpha0 == 2.0
        assert config.alpha1 == 0.3
        assert config.dims.total == 8 ** 3
        assert config.n_slices == 4096
        assert config.thermal.seed == 0
        assert config.output == "meanfield.csv"

    def test_comments_and_blank_lines_ignored(self):
        config = parse_config(
            "# leading comment\n\nscenario = meanfield  # trailing\n"
            "t_final = 1.0\ndt = 0.1\n")
        assert config.t_final == 1.0

    def test_frequency_mismatch_rejected(self):
        text = MINIMAL_MEANFIELD.replace("omega1 = 1.2", "omega1 = 1.5")
        with pytest.raises(ConfigError, match="frequency matching"):
            parse_config(text)

    def test_duplicate_key_names_both_lines(self):
        text = MINIMAL_MEANFIELD + "kappa = 0.3\n"
        with pytest.raises(ConfigError, match=r"line 10.*line 5|line 5.*line 10"):
            parse_config(text)

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 1.*unknown"):
            parse_config("omega_x = 1.0\n" + MINIMAL_MEANFIELD)

    def test_unparsable_value_reports_line(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config(MINIMAL_MEANFIELD.replace("dt = 0.01", "dt = fast"))

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="t_final"):
            parse_config("scenario = meanfield\ndt = 0.1\n")

    def test_missing_scenario(self):
        with pytest.raises(ConfigError, match="scenario"):
            parse_config("t_final = 1.0\ndt = 0.1\n")

    def test_bad_scenario_value(self):
        with pytest.raises(ConfigError, match="one of"):
            parse_config("scenario = warp\nt_final = 1\ndt = 0.1\n")

    def test_sweep_requires_sweep_keys(self):
        text = MINIMAL_MEANFIELD.replace("scenario = meanfield",
                                         "scenario = sweep")
        with pytest.raises(ConfigError, match="sweep_key"):
            parse_config(text)

    def test_sweep_key_must_be_sweepable(self):
        text = MINIMAL_MEANFIELD.replace("scenario = meanfield",
                                         "scenario = sweep")
        text += "sweep_key = omega0\nsweep_start = 0\nsweep_stop = 1\nsweep_count = 3\n"
        with pytest.raises(ConfigError, match="sweep_key must be one of"):
            parse_config(text)

    def test_dimension_cap_raises_resource_error(self, tmp_path):
        """Dims parse at any size; a coherent-seed quantum run at 100^3
        holds 10^6 state entries per sample, so its 101 samples are
        refused on the state-entry cap, before any ladder or chain is
        built."""
        text = (MINIMAL_MEANFIELD.replace("scenario = meanfield", "scenario = quantum")
                + "d0 = 100\nd1 = 100\nd2 = 100\n")
        config = parse_config(text)
        assert config.dims.total == 10 ** 6
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError,
                               match="101 samples of 1000000 state entries exceed"):
                run(config, output_dir=str(tmp_path), quiet=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # the dense state alone would take 16 MB
        assert not list(tmp_path.iterdir())

    def test_boolean_parsing(self):
        config = parse_config(MINIMAL_MEANFIELD + "include_zero_point = true\n")
        assert config.params.include_zero_point is True
        with pytest.raises(ConfigError):
            parse_config(MINIMAL_MEANFIELD + "include_zero_point = yes\n")


class TestScenarios:
    def test_meanfield_free_run_has_constant_moduli(self, tmp_path):
        text = MINIMAL_MEANFIELD.replace("kappa = 0.2", "kappa = 0.0")
        text = text.replace("dt = 0.01", "dt = 0.005")
        config = parse_config(text)
        assert run(config, output_dir=str(tmp_path), quiet=True) == 0
        header, data = read_csv(tmp_path / "meanfield.csv")
        for re_col, im_col in (("re_a0", "im_a0"), ("re_a1", "im_a1"),
                               ("re_a2", "im_a2")):
            moduli = np.hypot(data[:, header.index(re_col)],
                              data[:, header.index(im_col)])
            assert np.max(np.abs(moduli - moduli[0])) < 1e-10

    def test_meanfield_row_count_matches_grid(self, tmp_path):
        config = parse_config(MINIMAL_MEANFIELD)
        run(config, output_dir=str(tmp_path), quiet=True)
        header, data = read_csv(tmp_path / "meanfield.csv")
        assert data.shape[0] == 101  # floor(t_final/dt) + 1
        assert header[0] == "t"

    def test_quantum_scenario_columns(self, tmp_path):
        text = (
            "scenario = quantum\nomega0 = 2.0\nomega1 = 1.2\nomega2 = 0.8\n"
            "kappa = 0.1\nalpha0_re = 1.0\nd0 = 6\nd1 = 6\nd2 = 6\n"
            "t_final = 0.5\ndt = 0.05\n"
        )
        config = parse_config(text)
        assert run(config, output_dir=str(tmp_path), quiet=True) == 0
        header, data = read_csv(tmp_path / "quantum.csv")
        assert header == ["t", "n0", "n1", "n2", "norm_dev", "energy"]
        assert data.shape[0] == 11
        assert np.max(data[:, header.index("norm_dev")]) < 1e-9

    @pytest.mark.parametrize("scenario,extra", [
        ("meanfield", "seed = 5\n"),
        ("quantum", "phi = 0.7\nalpha1_im = 0.4\nd0 = 9\nd1 = 7\nd2 = 6\n"),
        ("fluorescence", "phi = -1.1\nd0 = 12\nd1 = 6\nd2 = 6\n"),
    ], ids=["meanfield", "quantum", "fluorescence"])
    def test_golden_rerun_is_byte_identical(self, tmp_path, scenario, extra):
        """Same config, same seed: byte-identical CSV artifacts."""
        text = MINIMAL_MEANFIELD.replace("scenario = meanfield",
                                         f"scenario = {scenario}") + extra
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            assert main([str(_write(tmp_path, f"cfg_{sub}.cfg", text)),
                         "--output-dir", str(tmp_path / sub), "--quiet"]) == 0
        first = (tmp_path / "a" / f"{scenario}.csv").read_bytes()
        second = (tmp_path / "b" / f"{scenario}.csv").read_bytes()
        assert first.count(b"\n") == 102  # header + floor(t_final/dt) + 1 rows
        assert first == second

    def test_fluorescence_is_quantum_from_vacuum(self, tmp_path):
        """fluorescence ignores alpha1/alpha2; quantum with both zero writes
        the same bytes."""
        extra = "phi = -1.1\nd0 = 12\nd1 = 6\nd2 = 6\nalpha2_im = 0.2\n"
        fluorescence = MINIMAL_MEANFIELD.replace(
            "scenario = meanfield", "scenario = fluorescence") + extra
        quantum = MINIMAL_MEANFIELD.replace(
            "scenario = meanfield", "scenario = quantum").replace(
            "alpha1_re = 0.3", "alpha1_re = 0") + extra.replace("0.2", "0")
        for name, text in (("fluorescence", fluorescence), ("quantum", quantum)):
            cfg = _write(tmp_path, f"{name}.cfg", text + f"output = {name}.csv\n")
            assert main([str(cfg), "--output-dir", str(tmp_path), "--quiet"]) == 0
        assert ((tmp_path / "fluorescence.csv").read_bytes()
                == (tmp_path / "quantum.csv").read_bytes())

    @pytest.mark.parametrize("scenario,extra", [
        ("quantum", "d0 = 12\nd1 = 6\nd2 = 6\n"),
        ("meanfield", ""),
    ], ids=["quantum", "meanfield"])
    def test_near_resonant_omega0_is_stored_resonant(self, tmp_path, scenario, extra):
        """omega0 = 1.3 is 0.7 + 0.6 only to rounding; the run writes the
        bytes of omega0 = 1.2999999999999998, their sum in floats."""
        text = MINIMAL_MEANFIELD.replace(
            "scenario = meanfield", f"scenario = {scenario}").replace(
            "omega1 = 1.2\nomega2 = 0.8", "omega1 = 0.7\nomega2 = 0.6") + extra
        for name, omega0 in (("decimal", "1.3"), ("sum", "1.2999999999999998")):
            cfg = _write(tmp_path, f"{name}.cfg", text.replace(
                "omega0 = 2.0", f"omega0 = {omega0}") + f"output = {name}.csv\n")
            assert main([str(cfg), "--output-dir", str(tmp_path), "--quiet"]) == 0
        assert ((tmp_path / "decimal.csv").read_bytes()
                == (tmp_path / "sum.csv").read_bytes())

    @pytest.mark.parametrize("scenario", ["quantum", "fluorescence"])
    def test_exact_runs_never_assemble_states(self, tmp_path, monkeypatch,
                                               scenario):
        """The CSV and the summary come from the per-chain reduction: the
        (samples, dim) state array is never built, and neither is a dense
        initial state, also for the coherent signal of the quantum run."""
        def forbidden(*args):
            raise AssertionError("a d0*d1*d2 array was built")

        monkeypatch.setattr(quantum, "_assemble_states", forbidden)
        monkeypatch.setattr(fockspace, "product_coherent_state", forbidden)
        monkeypatch.setattr(TruncationDims, "check_dense", forbidden)
        text = MINIMAL_MEANFIELD.replace("scenario = meanfield",
                                         f"scenario = {scenario}")
        cfg = _write(tmp_path, "run.cfg", text + "d0 = 12\nd1 = 6\nd2 = 7\n")
        assert main([str(cfg), "--output-dir", str(tmp_path), "--quiet"]) == 0
        _, data = read_csv(tmp_path / f"{scenario}.csv")
        assert data.shape[0] == 101

    @pytest.mark.parametrize("key", SWEEPABLE_KEYS)
    def test_sweep_point_is_the_meanfield_run_with_its_key_set(self, tmp_path, key):
        """A one-point sweep writes the bytes of the meanfield run whose
        sweep key holds the point's value, every other key unchanged."""
        values = dict(zip(SWEEPABLE_KEYS, (0.2, 0.3, 2.0, -0.5, 0.3, 0.1, -0.2, 0.4)))
        common = "omega0 = 2.0\nomega1 = 1.2\nomega2 = 0.8\nt_final = 1.0\ndt = 0.01\n"
        single = common + "scenario = meanfield\n" + "".join(
            f"{k} = {0.25 if k == key else v}\n" for k, v in values.items())
        sweep = common + "scenario = sweep\noutput = sweep.csv\n" + "".join(
            f"{k} = {v}\n" for k, v in values.items()) + (
            f"sweep_key = {key}\nsweep_start = 0.25\nsweep_stop = 0.25\n"
            "sweep_count = 1\n")
        for name, text in (("single", single), ("sweep", sweep)):
            cfg = _write(tmp_path, f"{name}.cfg", text)
            assert main([str(cfg), "--output-dir", str(tmp_path), "--quiet"]) == 0
        assert ((tmp_path / "sweep_000.csv").read_bytes()
                == (tmp_path / "meanfield.csv").read_bytes())

    def test_propagator_convergence_table_decreases(self, tmp_path):
        text = (
            "scenario = propagator-convergence\n"
            "omega0 = 2.0\nomega1 = 1.2\nomega2 = 0.8\n"
            "alpha0_re = 1.3\nt_final = 1.0\nn_slices = 1024\n"
        )
        config = parse_config(text)
        assert run(config, output_dir=str(tmp_path), quiet=True) == 0
        header, data = read_csv(tmp_path / "propagator-convergence.csv")
        assert header == ["n", "abs_error"]
        errors = data[:, 1]
        assert np.all(np.diff(errors) < 0)

    def test_coarse_convergence_table_warns_once(self, tmp_path, capsys):
        text = ("scenario = propagator-convergence\n"
                "alpha0_re = 1.3\nt_final = 1.0\nn_slices = 16\n")
        cfg = _write(tmp_path, "coarse.cfg", text)
        assert main([str(cfg), "--output-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.count("warning: slice step") == 1

    def test_action_check_scenario(self, tmp_path):
        text = MINIMAL_MEANFIELD.replace("scenario = meanfield",
                                         "scenario = action-check")
        config = parse_config(text)
        assert run(config, output_dir=str(tmp_path), quiet=True) == 0
        header, data = read_csv(tmp_path / "action-check.csv")
        assert header == ["t", "abs_diff"]
        assert np.max(data[:, 1]) <= 1e-12

    def test_thermal_ensemble_scenario(self, tmp_path):
        text = (
            "scenario = thermal-ensemble\nomega0 = 2.0\nomega1 = 1.2\n"
            "omega2 = 0.8\nkappa = 0.01\nalpha0_re = 50.0\n"
            "temperature = 1.0\nseed = 11\nn_samples = 64\n"
            "t_final = 0.5\ndt = 0.01\n"
        )
        config = parse_config(text)
        assert run(config, output_dir=str(tmp_path), quiet=True) == 0
        header, data = read_csv(tmp_path / "thermal-ensemble.csv")
        assert header == ["t", "mean_n1", "var_n1", "mean_n2", "var_n2"]
        assert data.shape[0] == 51

    def test_thermal_ensemble_bytes_are_pinned(self, tmp_path):
        """1100 members span two blocks of seeds, and the 2**40 + 7 seed
        has two 32-bit words; the digest is that of the CSV written when
        each member's seed was a ``SeedSequence`` of its own, stepped one
        array per mode."""
        text = (
            "scenario = thermal-ensemble\nomega0 = 2.0\nomega1 = 1.2\n"
            "omega2 = 0.8\nkappa = 0.01\nalpha0_re = 50.0\n"
            "temperature = 1.0\nseed = 1099511627783\nn_samples = 1100\n"
            "t_final = 0.1\ndt = 0.01\n"
        )
        assert run(parse_config(text), output_dir=str(tmp_path), quiet=True) == 0
        digest = hashlib.sha256(
            (tmp_path / "thermal-ensemble.csv").read_bytes()).hexdigest()
        assert digest == ("a3d5ce89562d91ebe0924b441dbac6dc"
                          "3913bb648dffa2e8aff6a63f2af48b70")

    def test_sweep_emits_point_files_and_aggregate(self, tmp_path):
        text = MINIMAL_MEANFIELD.replace("scenario = meanfield",
                                         "scenario = sweep")
        text += ("sweep_key = kappa\nsweep_start = 0.0\nsweep_stop = 0.4\n"
                 "sweep_count = 5\noutput = gain.csv\n")
        config = parse_config(text)
        assert run(config, output_dir=str(tmp_path), quiet=True) == 0
        points = sorted(tmp_path.glob("gain_*.csv"))
        assert len(points) == 5
        header, data = read_csv(tmp_path / "gain.csv")
        assert header == ["kappa", "n1_final", "n2_final", "gain_n1"]
        assert data.shape[0] == 5
        assert np.all(np.diff(data[:, 3]) > 0)  # gain grows with kappa


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


#: Keys added to MINIMAL_MEANFIELD for one small run of each scenario.
_SMALL_RUNS = {
    "meanfield": "",
    "quantum": "d0 = 5\nd1 = 5\nd2 = 5\n",
    "fluorescence": "d0 = 5\nd1 = 5\nd2 = 5\n",
    "propagator-convergence": "n_slices = 64\n",
    "action-check": "",
    "thermal-ensemble": "temperature = 1.0\nn_samples = 8\n",
    "sweep": "sweep_key = kappa\nsweep_start = 0.1\nsweep_stop = 0.2\nsweep_count = 2\n",
}

#: Runs every config named on the command line through ``main`` in one
#: fresh interpreter, then prints the scipy modules it has loaded.
_RUN_AND_LIST_SCIPY = """
import sys
from opasim.cli import main
for config in sys.argv[2:]:
    assert main([config, "--output-dir", sys.argv[1], "--quiet"]) == 0, config
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_meanfield_peak_memory_does_not_grow_with_steps(tmp_path, monkeypatch):
    """The trajectory streams into the CSV in blocks of rows.  Holding it
    whole took about 200 bytes per sample: 600 kB more at 4000 steps than
    at 1000.  Blocks of 64 rows keep the traced run short."""
    monkeypatch.setattr(meanfield, "TRAJECTORY_BLOCK_ROWS", 64)

    def peak(steps):
        text = MINIMAL_MEANFIELD.replace("t_final = 1.0", f"t_final = {steps * 1e-3}")
        cfg = _write(tmp_path, "run.cfg", text.replace("dt = 0.01", "dt = 0.001"))
        tracemalloc.start()
        try:
            assert main([str(cfg), "--output-dir", str(tmp_path), "--quiet"]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(100)  # first-run allocations (caches, lazy imports) are not growth
    short, long = peak(1000), peak(4000)
    assert long - short < 16 * 1024


def test_cli_runs_every_scenario_without_scipy(tmp_path):
    """Every route the CLI takes is numpy alone: scipy serves only the
    eigh/Krylov oracle, which imports it when called."""
    assert tuple(_SMALL_RUNS) == SCENARIOS
    configs = [str(_write(tmp_path, f"{name}.cfg", MINIMAL_MEANFIELD.replace(
        "scenario = meanfield", f"scenario = {name}") + extra))
        for name, extra in _SMALL_RUNS.items()]
    package_root = Path(opasim.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(package_root), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", _RUN_AND_LIST_SCIPY, str(tmp_path), *configs],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cli_import_leaves_numpy_random_unloaded():
    """Thermal seeding loads numpy.random when an ensemble is seeded, so
    the CLI's start-up does not pay for it."""
    package_root = Path(opasim.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(package_root), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, opasim.cli; print('numpy.random' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_cli_import_builds_no_render_table():
    """The renderer builds its tables on first use: importing the CLI
    loads neither fractions nor decimal and builds no table."""
    package_root = Path(opasim.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(package_root), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, opasim.cli; print([m for m in ('fractions', 'decimal') "
         "if m in sys.modules], opasim.cli._render_tables.cache_info().currsize)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[] 0"


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        cfg = _write(tmp_path, "run.cfg", MINIMAL_MEANFIELD)
        assert main([str(cfg), "--output-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "scenario: meanfield" in out
        assert "status: ok" in out

    def test_quiet_suppresses_summary(self, tmp_path, capsys):
        cfg = _write(tmp_path, "run.cfg", MINIMAL_MEANFIELD)
        assert main([str(cfg), "--output-dir", str(tmp_path), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_config_error_exits_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "bad.cfg",
                     MINIMAL_MEANFIELD.replace("omega1 = 1.2", "omega1 = 1.5"))
        assert main([str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invariant_violation_exits_3(self, tmp_path, capsys):
        """A stable but inaccurate run (visible Manley-Rowe drift) must not
        exit 0, even though it writes its CSV."""
        text = MINIMAL_MEANFIELD.replace("kappa = 0.2", "kappa = 0.5")
        text = text.replace("dt = 0.01", "dt = 0.05")
        text = text.replace("t_final = 1.0", "t_final = 10.0")
        text = text.replace("alpha1_re = 0.3", "alpha1_re = 1.0")
        text += "alpha2_re = 0.5\n"
        cfg = _write(tmp_path, "drift.cfg", text)
        assert main([str(cfg), "--output-dir", str(tmp_path)]) == 3
        out = capsys.readouterr().out
        assert "INVARIANT VIOLATION" in out
        assert (tmp_path / "meanfield.csv").exists()

    def test_divergence_exits_3(self, tmp_path, capsys):
        text = MINIMAL_MEANFIELD.replace("kappa = 0.2", "kappa = 5.0")
        text = text.replace("dt = 0.01", "dt = 10.0")
        text = text.replace("t_final = 1.0", "t_final = 100.0")
        text = text.replace("alpha0_re = 2.0", "alpha0_re = 4.0")
        text = text.replace("alpha1_re = 0.3", "alpha1_re = 2.0")
        text += "alpha2_re = 2.0\n"
        cfg = _write(tmp_path, "div.cfg", text)
        assert main([str(cfg), "--output-dir", str(tmp_path)]) == 3
        assert "numeric error" in capsys.readouterr().err

    def test_divergence_after_first_block_leaves_nothing(self, tmp_path, capsys):
        """Free RK4 at omega0 * dt = 2.829, just past its stability limit
        2.828: the pump grows by 0.14% a step and diverges after several
        blocks of rows have been written to the temp file."""
        text = MINIMAL_MEANFIELD.replace("kappa = 0.2", "kappa = 0.0")
        text = text.replace("dt = 0.01", "dt = 1.4145")
        text = text.replace("t_final = 1.0", "t_final = 30000.0")
        cfg = _write(tmp_path, "div.cfg", text)
        assert main([str(cfg), "--output-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "numeric error" in err
        time = float(err.rsplit("t = ", 1)[1])
        assert time > 2 * meanfield.TRAJECTORY_BLOCK_ROWS * 1.4145
        assert not list(tmp_path.glob("*.csv"))
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("scenario,old,new", [
        ("quantum", "alpha1_re = 0.3", "alpha1_re = 1e200"),
        ("propagator-convergence", "alpha0_re = 2.0", "alpha0_re = 1e300"),
    ], ids=["quantum-coherent-weight", "closed-form-weight"])
    def test_arithmetic_overflow_exits_3(self, tmp_path, capsys, scenario, old, new):
        """|alpha|^2 overflows a float: a numeric error, not a traceback."""
        text = MINIMAL_MEANFIELD.replace("scenario = meanfield",
                                         f"scenario = {scenario}")
        cfg = _write(tmp_path, "big.cfg", text.replace(old, new))
        assert main([str(cfg), "--output-dir", str(tmp_path)]) == 3
        assert "numeric error" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("scenario,amplitude", [
        ("quantum", "alpha0_re = 40\nalpha1_re = 0.0\nd0 = 4\nd1 = 3\nd2 = 3\n"),
        ("fluorescence", "alpha0_re = 1e10\nd0 = 4\nd1 = 3\nd2 = 3\n"),
    ], ids=["quantum-chain-pump", "fluorescence-pump"])
    def test_coherent_state_without_weight_exits_3(self, tmp_path, capsys,
                                                   scenario, amplitude):
        """A pump so far past its ladder that every amplitude underflows is
        a numeric error naming the ladder, not a NaN norm."""
        text = MINIMAL_MEANFIELD.replace("scenario = meanfield",
                                         f"scenario = {scenario}")
        text = text.replace("alpha0_re = 2.0\nalpha1_re = 0.3\n", amplitude)
        cfg = _write(tmp_path, "run.cfg", text)
        assert main([str(cfg), "--output-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "numeric error: coherent state of |alpha| = " in err
        assert "has no weight on a 4-level ladder" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_resource_cap_exits_4(self, tmp_path, capsys):
        text = MINIMAL_MEANFIELD.replace("scenario = meanfield", "scenario = quantum")
        cfg = _write(tmp_path, "big.cfg", text + "d0 = 100\nd1 = 100\nd2 = 100\n")
        assert main([str(cfg), "--output-dir", str(tmp_path)]) == 4
        assert "resource error" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.cfg"]

    def test_fluorescence_runs_past_the_dense_cap(self, tmp_path):
        """alpha0 = 20 on (621,25,25), 1.5 times the dense cap: vacuum signal
        and idler are evolved on their chains alone."""
        text = ("scenario = fluorescence\nomega0 = 2.0\nomega1 = 1.2\n"
                "omega2 = 0.8\nkappa = 0.015\nalpha0_re = 20\nd0 = 621\n"
                "d1 = 25\nd2 = 25\nt_final = 0.4\ndt = 0.1\n")
        cfg = _write(tmp_path, "run.cfg", text)
        assert main([str(cfg), "--output-dir", str(tmp_path), "--quiet"]) == 0
        header, data = read_csv(tmp_path / "fluorescence.csv")
        assert data.shape[0] == 5
        assert np.max(data[:, header.index("norm_dev")]) < 1e-9
        assert data[-1, header.index("n1")] > 0

    def test_coherent_quantum_runs_past_the_dense_cap(self, tmp_path):
        """A coherent signal at (80,80,80), twice the dense cap: the product
        state is read on its chains from its three ladders.  Measured: a
        5.2 MB peak, where the dense initial state alone would take
        16 d0 d1 d2 bytes, 8.2 MB."""
        text = ("scenario = quantum\nomega0 = 2.0\nomega1 = 1.2\nomega2 = 0.8\n"
                "kappa = 0.1\nalpha0_re = 3\nalpha1_im = 2\n"
                "d0 = 80\nd1 = 80\nd2 = 80\nt_final = 0.4\ndt = 0.1\n")
        cfg = _write(tmp_path, "run.cfg", text)
        tracemalloc.start()
        try:
            assert main([str(cfg), "--output-dir", str(tmp_path), "--quiet"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20 < 16 * 80 ** 3
        header, data = read_csv(tmp_path / "quantum.csv")
        assert data.shape[0] == 5
        assert np.max(data[:, header.index("norm_dev")]) < 1e-9
        np.testing.assert_allclose(data[0, 1:4], [9.0, 4.0, 0.0], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("extra", [
        "d0 = 621\nd1 = 25\nd2 = 25\ndt = 0.0001\n",
        "d0 = 100000000\nd1 = 25\nd2 = 25\n",
    ], ids=["samples", "pump-ladder"])
    def test_chain_supported_cap_exits_4_before_allocating(self, tmp_path, capsys,
                                                           extra):
        """A fluorescence run is capped on its chains' entries times samples
        (15225 entries at (621,25,25), so 10^4 samples are too many),
        before the pump amplitudes or any chain are built."""
        text = MINIMAL_MEANFIELD.replace("scenario = meanfield",
                                         "scenario = fluorescence")
        text = text.replace("dt = 0.01\n", "") if "dt" in extra else text
        cfg = _write(tmp_path, "big.cfg", text + extra)
        tracemalloc.start()
        try:
            assert main([str(cfg), "--output-dir", str(tmp_path)]) == 4
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert "resource error" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.cfg"]

    def test_missing_config_file_exits_5(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.cfg")]) == 5
        assert "i/o error" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario,edits,extra", [
        pytest.param("sweep", {}, "sweep_key = kappa\nsweep_start = -1\n"
                     "sweep_stop = 0.4\nsweep_count = 3\n", id="kappa-sweep-start"),
        pytest.param("sweep", {}, "sweep_key = kappa\nsweep_start = 0.1\n"
                     "sweep_stop = -0.5\nsweep_count = 3\n", id="kappa-sweep-stop"),
        # the mean-field points never read the temperature, so it is not
        # sweepable, whatever the endpoints
        pytest.param("sweep", {}, "sweep_key = temperature\nsweep_start = -1\n"
                     "sweep_stop = 1\nsweep_count = 3\n",
                     id="temperature-sweep-key"),
        pytest.param("sweep", {}, "sweep_key = temperature\nsweep_start = 0\n"
                     "sweep_stop = 2\nsweep_count = 3\n",
                     id="temperature-sweep-valid-endpoints"),
        pytest.param("propagator-convergence", {"t_final = 1.0": "t_final = 0"},
                     "", id="zero-time-path"),
        pytest.param("thermal-ensemble",
                     {"omega0 = 2.0": "omega0 = 0.8", "omega1 = 1.2": "omega1 = 0"},
                     "", id="zero-frequency"),
        pytest.param("meanfield",
                     {"omega0 = 2.0": "omega0 = -0.4", "omega1 = 1.2": "omega1 = -1.2"},
                     "", id="negative-frequency"),
        *(pytest.param(scenario, {"dt = 0.01": "dt = nan"}, "",
                       id=f"{scenario}-nan-step")
          for scenario in ("meanfield", "quantum", "thermal-ensemble")),
        pytest.param("meanfield", {"t_final = 1.0": "t_final = inf"}, "",
                     id="infinite-time"),
        pytest.param("meanfield", {"alpha1_re = 0.3": "alpha1_re = nan"}, "",
                     id="meanfield-nan-amplitude"),
        pytest.param("quantum", {"alpha1_re = 0.3": "alpha1_re = nan"}, "",
                     id="quantum-nan-amplitude"),
        pytest.param("propagator-convergence", {"t_final = 1.0": "t_final = nan"},
                     "", id="nan-path-time"),
        pytest.param("sweep", {}, "sweep_key = kappa\nsweep_start = 0.1\n"
                     "sweep_stop = -inf\nsweep_count = 3\n", id="infinite-sweep-stop"),
        pytest.param("quantum", {"t_final = 1.0": "t_final = 0.01",
                                 "dt = 0.01": "dt = 0.05"},
                     "", id="quantum-time-below-step"),
        pytest.param("thermal-ensemble", {}, "seed = -1\n", id="negative-seed"),
    ])
    def test_invalid_run_values_exit_2(self, tmp_path, capsys, scenario, edits,
                                       extra):
        """Values that would fail deep inside a run are config errors."""
        text = MINIMAL_MEANFIELD.replace("scenario = meanfield",
                                         f"scenario = {scenario}")
        for old, new in edits.items():
            text = text.replace(old, new)
        cfg = _write(tmp_path, "bad.cfg", text + extra)
        assert main([str(cfg), "--output-dir", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("scenario,edits,extra", [
        ("thermal-ensemble", {}, "n_samples = 1000000000\n"),
        ("meanfield", {"dt = 0.01": "dt = 1e-12"}, ""),
        ("action-check", {"dt = 0.01": "dt = 1e-12"}, ""),
        ("sweep", {"dt = 0.01": "dt = 1e-12"}, "sweep_key = kappa\n"
         "sweep_start = 0.1\nsweep_stop = 0.2\nsweep_count = 2\n"),
        ("quantum", {"dt = 0.01": "dt = 1e-12"}, ""),
        ("fluorescence", {"dt = 0.01": "dt = 1e-12"}, ""),
        ("quantum", {"dt = 0.01": "dt = 5e-324"}, ""),
        ("thermal-ensemble", {"dt = 0.01": "dt = 5e-324"}, ""),
        # one step keeps 2*10^6 + 1 members under the member-step cap
        ("thermal-ensemble", {"t_final = 1.0": "t_final = 0.01"},
         "n_samples = 2000001\n"),
        # one member keeps 10^7 + 1 samples under the member-step cap
        ("thermal-ensemble", {"dt = 0.01": "dt = 1e-7"}, "n_samples = 1\n"),
        ("sweep", {}, "sweep_key = kappa\nsweep_start = 0.1\nsweep_stop = 0.2\n"
         "sweep_count = 1000000000\n"),
        ("sweep", {}, "sweep_key = kappa\nsweep_start = 0.1\nsweep_stop = 0.2\n"
         "sweep_count = " + "1" + "0" * 30 + "\n"),
    ], ids=["ensemble-members", "meanfield-steps", "action-check-steps",
            "sweep-steps", "quantum-steps", "fluorescence-steps",
            "quantum-step-count-overflow", "ensemble-step-count-overflow",
            "ensemble-member-count", "ensemble-steps", "sweep-points",
            "sweep-points-beyond-int64"])
    def test_run_size_cap_exits_4_before_allocating(self, tmp_path, capsys,
                                                    scenario, edits, extra):
        text = MINIMAL_MEANFIELD.replace("scenario = meanfield",
                                         f"scenario = {scenario}")
        for old, new in edits.items():
            text = text.replace(old, new)
        cfg = _write(tmp_path, "big.cfg", text + extra)
        assert main([str(cfg), "--output-dir", str(tmp_path)]) == 4
        assert "resource error" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.cfg"]

    def test_failed_sweep_point_leaves_no_artifacts(self, tmp_path, capsys):
        """The first point succeeds and is written; the last diverges, so
        the run exits 3 and removes the first point's file."""
        text = MINIMAL_MEANFIELD.replace("scenario = meanfield",
                                         "scenario = sweep")
        text += ("sweep_key = kappa\nsweep_start = 0.2\nsweep_stop = 1000\n"
                 "sweep_count = 2\n")
        cfg = _write(tmp_path, "sweep.cfg", text)
        assert main([str(cfg), "--output-dir", str(tmp_path)]) == 3
        assert "numeric error" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("output", ["{root}/escaped.csv", "../escaped.csv",
                                        "sub/../../escaped.csv"],
                             ids=["absolute", "parent", "nested-parent"])
    def test_output_outside_output_dir_exits_2(self, tmp_path, capsys, output):
        """An output path may not leave --output-dir; nothing is written."""
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        cfg = _write(tmp_path, "run.cfg", MINIMAL_MEANFIELD
                     + f"output = {output.format(root=tmp_path)}\n")
        assert main([str(cfg), "--output-dir", str(out_dir)]) == 2
        assert "config error" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "run.cfg"]
        assert not list(out_dir.iterdir())

    def test_unwritable_output_exits_5(self, tmp_path, capsys):
        cfg = _write(tmp_path, "run.cfg", MINIMAL_MEANFIELD)
        missing_dir = tmp_path / "not" / "there"
        assert main([str(cfg), "--output-dir", str(missing_dir)]) == 5
        assert "i/o error" in capsys.readouterr().err


def _fmt(value) -> str:
    """One CSV field as the writer has always rendered a float."""
    return f"{float(value):.17g}"


class TestWriteCsvAtomic:
    ROWS = [
        (0.0, -0.0, 1.5, -2.25),
        (float("inf"), float("-inf"), float("nan"), 5e-324),
        (1e308, -1e308, 2.2250738585072014e-308, 0.1),
        (np.float64(1 / 3), np.float32(0.1), np.float16(65504), np.float64(-0.0)),
        (1.0, 64.0, 1e17, 2.5),
    ]

    def test_bytes_match_field_formatter(self, tmp_path, monkeypatch):
        """Blocks of any length, float64 or float32, split over several
        %-format calls, render every field as '%.17g' of its float."""
        monkeypatch.setattr(cli, "CSV_FORMAT_ROWS", 2)
        path = tmp_path / "rows.csv"
        blocks = [np.array(self.ROWS[:3]), np.empty((0, 4)),
                  np.array(self.ROWS[3:]), np.array([self.ROWS[3]], dtype=np.float32)]
        n_rows = write_csv_atomic(path, ["a", "b", "c", "d"], iter(blocks))
        rows = self.ROWS + [tuple(np.float32(v) for v in self.ROWS[3])]
        want = "a,b,c,d\n" + "".join(
            ",".join(_fmt(v) for v in row) + "\n" for row in rows)
        assert n_rows == len(rows)
        assert path.read_bytes() == want.encode("utf-8")

    def test_list_rows_and_empty_input(self, tmp_path):
        path = tmp_path / "rows.csv"
        assert write_csv_atomic(path, ["n", "x"], [np.array([[1, 0.25], [2, -0.0]])]) == 2
        assert path.read_bytes() == b"n,x\n1,0.25\n2,-0\n"
        assert write_csv_atomic(path, ["n"], []) == 0
        assert path.read_bytes() == b"n\n"

    def test_rows_per_call_change_no_byte(self, tmp_path, monkeypatch):
        """Every scenario writes the same files and bytes at 3 rows per
        %-format call as at the default: row blocks split and stack
        without loss."""
        written = []
        for rows_per_call in (cli.CSV_FORMAT_ROWS, 3):
            monkeypatch.setattr(cli, "CSV_FORMAT_ROWS", rows_per_call)
            out = tmp_path / str(rows_per_call)
            out.mkdir()
            for name, extra in _SMALL_RUNS.items():
                cfg = _write(tmp_path, f"{name}.cfg", MINIMAL_MEANFIELD.replace(
                    "scenario = meanfield", f"scenario = {name}") + extra)
                assert main([str(cfg), "--output-dir", str(out), "--quiet"]) == 0
            written.append({p.name: p.read_bytes() for p in out.glob("*.csv")})
        assert len(written[0]) == len(_SMALL_RUNS) + 2  # a sweep writes 3 files
        assert written[0] == written[1]

    def test_failed_write_leaves_nothing(self, tmp_path):
        def blocks():
            yield np.array([[1.0]])
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError):
            write_csv_atomic(tmp_path / "x.csv", ["x"], blocks())
        assert not list(tmp_path.iterdir())


def _percent_text(part) -> bytes:
    """A part's rows as one %-format call renders them."""
    row_format = ",".join(["%.17g"] * part.shape[1]) + "\n"
    return ((row_format * len(part)) % tuple(part.ravel().tolist())).encode("ascii")


def _declined(value: float) -> bool:
    """Whether the renderer must leave a field to the %-format call: it is
    not finite, lies outside [1e-280, 1e280) and is not zero, or its exact
    decimal value lies within 2^-30 of a tie at 17 significant digits."""
    if value == 0:
        return False
    if not cli._RENDER_MIN_ABS <= abs(value) < cli._RENDER_MAX_ABS:
        return True
    exact = Decimal(abs(value))
    with localcontext(prec=1000):  # a double has at most 767 digits
        scaled = exact.scaleb(16 - exact.adjusted())
        half = abs(scaled - scaled.to_integral_value(rounding=ROUND_FLOOR) - Decimal("0.5"))
        return half < Decimal(2) ** -30


#: Fields the renderer leaves to the %-format call, and a few it takes.
_SPECIAL_FIELDS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
                   float("inf"), float("-inf"), float("nan"), 1e280, 1e-280,
                   123456789012345.125, 1e16, 1e17, 1e-5, 1e-4]


@st.composite
def _float_blocks(draw):
    """Float64 blocks up to 600 x 13, so a block can cross a part seam:
    normal deviates scaled by 10^j for j drawn up to +-spread, with a few
    fields overwritten by any float or a special one."""
    rows, cols = draw(st.integers(1, 600)), draw(st.integers(1, 13))
    spread = draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    block = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(
        -spread, spread + 1, (rows, cols))
    for _ in range(draw(st.integers(0, 6))):
        block[draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))] = draw(
            st.one_of(st.floats(width=64), st.sampled_from(_SPECIAL_FIELDS)))
    return block


class TestRenderPart:
    """The numpy renderer against CPython's %.17g, byte for byte."""

    @settings(max_examples=30, deadline=None)
    @given(block=_float_blocks())
    def test_writer_and_renderer_match_percent_format(self, block):
        """The written CSV equals the %-format text.  The renderer renders
        each part exactly so, or declines it only for a declined field;
        with those fields set to 0.5, it renders the part."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "block.csv"
            header = [f"c{j}" for j in range(block.shape[1])]
            assert write_csv_atomic(path, header, [block]) == len(block)
            assert path.read_bytes() == (",".join(header) + "\n").encode() + _percent_text(block)
        for lo in range(0, len(block), cli.CSV_FORMAT_ROWS):
            part = block[lo:lo + cli.CSV_FORMAT_ROWS]
            declined = np.reshape([_declined(v) for v in part.ravel().tolist()], part.shape)
            text = cli._render_part(part)
            if text is None:
                assert declined.any()
            else:
                assert text == _percent_text(part)
            kept = np.where(declined, 0.5, part)
            assert cli._render_part(kept) == _percent_text(kept)

    def test_edge_fields(self):
        """Powers of ten and their neighbours over every double exponent,
        the %f/%e switch points, 17-digit roundings that carry into the
        exponent, a true tie and the integers of the convergence table."""
        powers = [float(f"1e{p}") for p in range(-330, 310)]
        edges = powers + [np.nextafter(x, d) for x in powers for d in (0.0, np.inf)]
        # these doubles lie below their power of ten but print as it
        for carry in (1e-14, 1e98):
            assert Fraction(carry) < Fraction(10) ** round(math.log10(carry))
            assert "%.17g" % carry in ("1e-14", "1e+98")
        edges += [-x for x in edges]
        rendered = 0
        for x in edges:
            part = np.array([[x, 0.5], [-x, x]])
            text = cli._render_part(part)
            if text is None:
                assert _declined(x)
            else:
                assert text == _percent_text(part)
                rendered += 1
        assert rendered > len(edges) * 3 // 4
        # 123456789012345.125 is a tie, broken half-even: the part falls back
        tie = np.array([[123456789012345.125, 1.0]])
        assert cli._render_part(tie) is None and _percent_text(tie) == b"123456789012345.12,1\n"
        n = np.arange(64, 2 ** 17 + 1, dtype=float).reshape(-1, 1)
        for lo in range(0, len(n), cli.CSV_FORMAT_ROWS):
            part = n[lo:lo + cli.CSV_FORMAT_ROWS]
            assert cli._render_part(part) == _percent_text(part)

    def test_long_meanfield_run_matches_percent_format(self, tmp_path):
        """A CLI meanfield run of 5001 rows crosses several trajectory
        blocks and parts; its bytes are the %-format text of its columns."""
        text = MINIMAL_MEANFIELD.replace("t_final = 1.0", "t_final = 5.0").replace(
            "dt = 0.01", "dt = 0.001")
        assert main([str(_write(tmp_path, "run.cfg", text)), "--output-dir",
                     str(tmp_path), "--quiet"]) == 0
        config = parse_config(text)
        samples = integrate_rk4(cli._initial_state(config), config.params, 5.0, 0.001).samples
        cols = cli._meanfield_columns(samples, 0, 0.001)
        assert len(cols) == 5001
        assert cli._render_part(cols[:cli.CSV_FORMAT_ROWS]) is not None
        header = b"t,re_a0,im_a0,re_a1,im_a1,re_a2,im_a2,n0,n1,n2,mr1,mr2,mr3\n"
        assert (tmp_path / "meanfield.csv").read_bytes() == header + _percent_text(cols)


def _per_row_meanfield_csv(samples, dt):
    """The mean-field CSV of a trajectory as the per-row writer rendered
    it: Python's abs(a) ** 2, k * dt and one '%.17g' per field; returns
    the bytes and the max relative Manley-Rowe drift."""
    lines = ["t,re_a0,im_a0,re_a1,im_a1,re_a2,im_a2,n0,n1,n2,mr1,mr2,mr3\n"]
    drift = 0.0
    for k, (a0, a1, a2) in enumerate(samples.tolist()):
        n0, n1, n2 = abs(a0) ** 2, abs(a1) ** 2, abs(a2) ** 2
        mr = (n0 + n1, n0 + n2, n1 - n2)
        if k == 0:
            mr0, scale = mr, max(abs(mr[0]), abs(mr[1]), 1e-300)
        drift = max(drift, max(abs(x - x0) for x, x0 in zip(mr, mr0)) / scale)
        fields = (k * dt, a0.real, a0.imag, a1.real, a1.imag, a2.real, a2.imag,
                  n0, n1, n2, *mr)
        lines.append(",".join("%.17g" % v for v in fields) + "\n")
    return "".join(lines).encode("utf-8"), drift


class TestMeanfieldCsvBytes:
    """The column-block mean-field writer against the per-row one."""

    @pytest.mark.parametrize("edits,signed_zero", [
        ({}, False),
        # the daughters stay at signed zeros, which print as -0
        ({"alpha1_re = 0.3": "alpha1_re = 0", "alpha2_im = 0.4": "alpha2_im = -0.0"},
         True),
        ({"kappa = 0.2": "kappa = 0"}, False),
    ], ids=["coherent", "zero-daughters", "kappa-0"])
    def test_meanfield_and_sweep_csvs_match_per_row_writer(
            self, tmp_path, monkeypatch, edits, signed_zero):
        """Small blocks and %-format calls, so a run crosses several of
        both; every CSV and the drift match the per-row writer's."""
        monkeypatch.setattr(meanfield, "TRAJECTORY_BLOCK_ROWS", 7)
        monkeypatch.setattr(cli, "CSV_FORMAT_ROWS", 3)
        text = MINIMAL_MEANFIELD + "phi = 0.4\nalpha0_im = -0.7\nalpha2_im = 0.4\n"
        for old, new in edits.items():
            text = text.replace(old, new)
        sweep = text.replace("scenario = meanfield", "scenario = sweep") + (
            "sweep_key = phi\nsweep_start = -0.5\nsweep_stop = 0.5\n"
            "sweep_count = 2\noutput = sweep.csv\n")
        for name, cfg in (("meanfield", text), ("sweep", sweep)):
            assert main([str(_write(tmp_path, f"{name}.cfg", cfg)),
                         "--output-dir", str(tmp_path), "--quiet"]) == 0
        config = parse_config(text)
        runs = [(config, tmp_path / "meanfield.csv")] + [
            (cli._config_with_sweep_value(parse_config(sweep), phi),
             tmp_path / f"sweep_{i:03d}.csv") for i, phi in enumerate((-0.5, 0.5))]
        for run_config, path in runs:
            s0 = MeanFieldState(run_config.params.pump_alpha0, run_config.alpha1,
                                run_config.alpha2)
            samples = integrate_rk4(s0, run_config.params, 1.0, 0.01).samples
            want, want_drift = _per_row_meanfield_csv(samples, 0.01)
            assert path.read_bytes() == want
            _, blocks = trajectory_blocks(s0, run_config.params, 1.0, 0.01)
            n_rows, drift, last = cli._write_meanfield_csv(
                blocks, 0.01, tmp_path / "direct.csv")
            assert (n_rows, drift, last) == (101, want_drift, tuple(samples[-1]))
        assert (b",-0," in (tmp_path / "meanfield.csv").read_bytes()) == signed_zero

    def test_occupations_match_python_abs_squared(self):
        """n_j is Python's abs(a) ** 2 bit for bit, over magnitudes 1e-8
        to 1e4, signed zeros and subnormal parts."""
        rng = np.random.default_rng(7)
        magnitudes = 10 ** rng.uniform(-8, 4, 30000)
        amplitudes = magnitudes * np.exp(2j * np.pi * rng.random(30000))
        special = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                   complex(5e-324, 0.0), complex(-5e-324, 1e-310),
                   complex(2.2250738585072014e-308, -4e-320), complex(1e-8, -5e-324),
                   complex(-1e4, 5e-324), complex(3.0, 4.0), complex(-1e4, -1e4)]
        amplitudes = np.concatenate([special, amplitudes])
        amplitudes = amplitudes[:len(amplitudes) // 3 * 3].reshape(-1, 3)
        n = cli._meanfield_columns(amplitudes, 0, 0.01)[:, 7:10]
        want = np.array([abs(a) ** 2 for a in amplitudes.ravel().tolist()])
        assert n.ravel().tobytes() == want.tobytes()


#: Counts beyond every cap, which must stop a run (exit 4) before it
#: allocates.  2*10^7 ensemble members over one step stay under the
#: member-step cap, so only the member cap stops them.
_HUGE_COUNTS = ["20000000", "1" + "0" * 30]

#: Values that keep a valid run small: dims <= 6, <= 10^3 steps, <= 16
#: ensemble members, <= 3 sweep points, or a huge count that a cap stops
#: at once.  Outputs stay relative, inside the run's temporary output
#: directory.
_SMALL_VALUES = {
    "omega0": ["2"], "omega1": ["1"], "omega2": ["1"],
    "kappa": ["0", "0.1", "0.5"], "phi": ["0", "0.7", "-2"],
    **{f"alpha{j}_{part}": ["0", "0.3", "-1.5"]
       for j in range(3) for part in ("re", "im")},
    "d0": ["2", "4", "6"], "d1": ["2", "5"], "d2": ["3", "6"],
    "t_final": ["0.05", "0.5", "1"], "dt": ["0.001", "0.01", "0.05"],
    "n_slices": ["1", "64", "300"], "n_samples": ["1", "4", "16", *_HUGE_COUNTS],
    "temperature": ["0", "1"], "seed": ["0", "7"],
    "include_zero_point": ["true", "false"],
    "sweep_key": [*SWEEPABLE_KEYS, "temperature"],
    "sweep_start": ["0", "0.2"], "sweep_stop": ["0.4", "1"],
    "sweep_count": ["1", "3", *_HUGE_COUNTS], "output": ["run.csv", "missing/run.csv"],
}

#: Huge values for every key.
_HUGE = ["1e300", *_HUGE_COUNTS]

#: Bad values for every key.
_BAD_VALUES = ["nan", "inf", "-inf", "-3", "0", "x", "1.5.2", ""]

#: Stray lines: unknown key, missing '=', empty key, empty value,
#: duplicate key, comment, blank.
_STRAY_LINES = ["omega_x = 1", "kappa 0.1", "= 3", "t_final =",
                "kappa = 0.1", "# note", ""]


@st.composite
def config_texts(draw):
    """Config texts over the key grammar: a small run of any scenario with
    at most one kind of fault (bad values, a missing key, stray lines)."""
    scenario = draw(st.sampled_from(SCENARIOS))
    keys = ["t_final", "dt", "d0", "d1", "d2"]
    if scenario == "sweep":
        keys += ["sweep_key", "sweep_start", "sweep_stop", "sweep_count"]
    keys += draw(st.lists(st.sampled_from(sorted(set(_SMALL_VALUES) - set(keys))),
                          unique=True, max_size=6))
    entries = {"scenario": scenario}
    entries |= {key: draw(st.sampled_from(_SMALL_VALUES[key])) for key in keys}
    fault = draw(st.sampled_from(["none", "value", "values", "missing", "stray"]))
    if fault in ("value", "values"):
        count = 1 if fault == "value" else 2
        for key in draw(st.lists(st.sampled_from([*keys, "scenario"]), unique=True,
                                 min_size=count, max_size=count)):
            entries[key] = draw(st.sampled_from(_HUGE + _BAD_VALUES))
    elif fault == "missing":
        del entries[draw(st.sampled_from([*keys, "scenario"]))]
    lines = [f"{key} = {value}" for key, value in entries.items()]
    if fault == "stray":
        lines += draw(st.lists(st.sampled_from(_STRAY_LINES), min_size=1, max_size=2))
    return "\n".join(draw(st.permutations(lines))) + "\n"


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(text=config_texts())
def test_every_config_ends_in_a_documented_exit_code(text):
    with tempfile.TemporaryDirectory() as out_dir:
        cfg = _write(Path(out_dir), "run.cfg", text)
        with contextlib.redirect_stderr(io.StringIO()):
            code = main([str(cfg), "--output-dir", out_dir, "--quiet"])
    assert code in (0, 2, 3, 4, 5), text
