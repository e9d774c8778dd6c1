"""Configuration parsing, scenario dispatch, CSV contracts and exit codes."""

import numpy as np
import pytest

from opasim.cli import main, parse_config, run
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
        pytest.param("sweep", {}, "sweep_key = temperature\nsweep_start = -1\n"
                     "sweep_stop = 1\nsweep_count = 3\n",
                     id="temperature-sweep-start"),
        pytest.param("propagator-convergence", {"t_final = 1.0": "t_final = 0"},
                     "", id="zero-time-path"),
        pytest.param("thermal-ensemble",
                     {"omega0 = 2.0": "omega0 = 0.8", "omega1 = 1.2": "omega1 = 0"},
                     "", id="zero-frequency"),
        pytest.param("meanfield",
                     {"omega0 = 2.0": "omega0 = -0.4", "omega1 = 1.2": "omega1 = -1.2"},
                     "", id="negative-frequency"),
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

    def test_unwritable_output_exits_5(self, tmp_path, capsys):
        cfg = _write(tmp_path, "run.cfg", MINIMAL_MEANFIELD)
        missing_dir = tmp_path / "not" / "there"
        assert main([str(cfg), "--output-dir", str(missing_dir)]) == 5
        assert "i/o error" in capsys.readouterr().err
