"""Configuration parsing, scenario dispatch, CSV contracts and exit codes."""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opasim.cli import (
    SCENARIOS,
    SWEEPABLE_KEYS,
    main,
    parse_config,
    run,
    write_csv_atomic,
)
from opasim.errors import ConfigError, ResourceLimitError

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

    def test_dimension_cap_raises_resource_error(self):
        text = MINIMAL_MEANFIELD + "d0 = 100\nd1 = 100\nd2 = 100\n"
        with pytest.raises(ResourceLimitError):
            parse_config(text)

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

    def test_resource_cap_exits_4(self, tmp_path, capsys):
        cfg = _write(tmp_path, "big.cfg",
                     MINIMAL_MEANFIELD + "d0 = 100\nd1 = 100\nd2 = 100\n")
        assert main([str(cfg)]) == 4
        assert "resource error" in capsys.readouterr().err

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
        ("sweep", {}, "sweep_key = kappa\nsweep_start = 0.1\nsweep_stop = 0.2\n"
         "sweep_count = 1000000000\n"),
        ("sweep", {}, "sweep_key = kappa\nsweep_start = 0.1\nsweep_stop = 0.2\n"
         "sweep_count = " + "1" + "0" * 30 + "\n"),
    ], ids=["ensemble-members", "meanfield-steps", "action-check-steps",
            "sweep-steps", "quantum-steps", "fluorescence-steps",
            "quantum-step-count-overflow", "ensemble-step-count-overflow",
            "ensemble-member-count", "sweep-points", "sweep-points-beyond-int64"])
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
    """One CSV field as the writer has always rendered it."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


class TestWriteCsvAtomic:
    ROWS = [
        (0.0, -0.0, 1.5, -2.25),
        (float("inf"), float("-inf"), float("nan"), 5e-324),
        (1e308, -1e308, 2.2250738585072014e-308, 0.1),
        (0, -7, 2 ** 70, True),
        (np.int64(-3), np.uint64(2 ** 64 - 1), np.int32(12), np.int8(-128)),
        (np.float64(1 / 3), np.float32(0.1), np.float16(65504), np.float64(-0.0)),
        (3, 0.5, np.int64(4), np.float64(2.5)),
        (np.float64("nan"), 10 ** 17, 1e17, 123456789012345678),
    ]

    def test_bytes_match_field_formatter(self, tmp_path):
        path = tmp_path / "rows.csv"
        n_rows = write_csv_atomic(path, ["a", "b", "c", "d"], iter(self.ROWS))
        want = "a,b,c,d\n" + "".join(
            ",".join(_fmt(v) for v in row) + "\n" for row in self.ROWS)
        assert n_rows == len(self.ROWS)
        assert path.read_bytes() == want.encode("utf-8")

    def test_list_rows_and_empty_input(self, tmp_path):
        path = tmp_path / "rows.csv"
        assert write_csv_atomic(path, ["n", "x"], [[1, 0.25], [2, -0.0]]) == 2
        assert path.read_bytes() == b"n,x\n1,0.25\n2,-0\n"
        assert write_csv_atomic(path, ["n"], []) == 0
        assert path.read_bytes() == b"n\n"

    def test_failed_write_leaves_nothing(self, tmp_path):
        def rows():
            yield (1.0,)
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError):
            write_csv_atomic(tmp_path / "x.csv", ["x"], rows())
        assert not list(tmp_path.iterdir())


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
