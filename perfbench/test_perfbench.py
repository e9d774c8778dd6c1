"""Tests of the benchmark itself: its checks fail bad outputs, every metric
is reported, and tracing leaves opasim as it found it.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import closedloop  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def meanfield_op(steps: int = 200) -> ops.Op:
    return ops._trajectory_op(random.Random(0), "meanfield", steps)


def thermal_op() -> ops.Op:
    return ops._thermal_op(random.Random(0), 200, 50)


@pytest.fixture
def client(tmp_path):
    return closedloop.Client(tmp_path)


def wrap_main(client, after):
    """Make the client's program run, then let ``after`` spoil its output."""
    real_main = client.cli.main

    def main(argv):
        code = real_main(argv)
        return after(Path(argv[2]), code)

    client.cli = type("FakeCli", (), {"main": staticmethod(main)})


def only_csv(directory: Path) -> Path:
    (path,) = directory.glob("op*.csv")
    return path


def test_correct_op_passes(client):
    assert client.execute(meanfield_op()).error is None


def test_truncated_csv_fails(client):
    def truncate(directory, code):
        path = only_csv(directory)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        return code

    wrap_main(client, truncate)
    assert client.execute(meanfield_op()).error is not None


def test_wrong_row_count_fails(client):
    op = meanfield_op()
    op.rows += 1
    assert "rows" in client.execute(op).error


def test_nonzero_exit_fails(client):
    wrap_main(client, lambda directory, code: 3)
    assert "exit code 3" in client.execute(meanfield_op()).error


def test_invalid_config_fails(client):
    op = meanfield_op()
    del op.params["dt"]
    assert "exit code 2" in client.execute(op).error


def test_changed_ensemble_rerun_fails(client):
    op = thermal_op()
    assert client.execute(op).error is None

    def change_last_digit(directory, code):
        path = only_csv(directory)
        data = bytearray(path.read_bytes())
        data[-2] = ord("1") if data[-2] != ord("1") else ord("2")
        path.write_bytes(bytes(data))
        return code

    wrap_main(client, change_last_digit)
    assert "rerun" in client.execute(op).error


def test_convergence_table_must_decrease(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("n,abs_error\n64,0.1\n128,0.05\n256,0.06\n")
    op = ops.Op("propagator-convergence", {}, rows=3, work=0.0)
    with pytest.raises(ops.CheckFailed, match="monoton"):
        ops.CSV_CHECKS[op.kind](op, path)


def test_quantum_charge_drift_fails(tmp_path):
    path = tmp_path / "q.csv"
    path.write_text("t,n0,n1,n2,norm_dev,energy\n"
                    "0,4,0,0,0,8\n1,3.9,0.1,0.1,0,8\n2,3.8,0.2,0.2000001,0,8\n")
    op = ops.Op("quantum", {}, rows=3, work=0.0)
    with pytest.raises(ops.CheckFailed, match="charge"):
        ops.CSV_CHECKS[op.kind](op, path)


def test_stationary_gap_fails():
    with pytest.raises(ops.CheckFailed):
        ops.check_stationary(0.5 + 0j, 0.4 + 0j)
    ops.check_stationary(0.5 + 0j, 0.49 + 0j)


def test_same_seed_same_ops():
    for workload, make in ops.BLOCKS.items():
        first = make(random.Random(f"{workload}/7"), False)
        second = make(random.Random(f"{workload}/7"), False)
        for _ in range(2):
            a, b = next(first), next(second)
            assert [op.params for op in a] == [op.params for op in b]


def test_tail_leaves_ten_ops_beyond():
    value, percentile, beyond = closedloop.tail([float(i) for i in range(40)])
    assert (value, percentile, beyond) == (29.0, 75.0, 10)


def test_p50_and_rate_take_each_slots_median_op():
    def block(*seconds):
        return [closedloop.Record("meanfield", slot, s, 1.0, None)
                for slot, s in enumerate(seconds)]

    records = block(1.0, 2.0, 9.0) + block(3.0, 1.5, 4.0) + block(2.0, 1.0, 5.0)
    values = closedloop.end_to_end(records, [0.5])
    assert values["op_p50_s"] == 2.0
    assert values["ops_per_s"] == 3 / (2.0 + 1.5 + 5.0)


def test_blocks_number_their_slots():
    for workload, make in ops.BLOCKS.items():
        blocks = make(random.Random(f"{workload}/7"), False)
        for _ in range(2):
            slots = sorted(op.slot for op in next(blocks))
            assert slots == list(range(len(slots))), workload


def test_tracer_restores_opasim():
    import opasim
    from opasim import cli, quantum

    originals = (cli.evolve_state, quantum.evolve_state, opasim.evolve_state)
    with closedloop.Tracer():
        assert cli.evolve_state is quantum.evolve_state
        assert cli.evolve_state is not originals[0]
    assert (cli.evolve_state, quantum.evolve_state, opasim.evolve_state) == originals


def test_benchmark_json_matches_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(ops.BLOCKS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: closedloop.END_TO_END_UNITS[name] for name in closedloop.RESULT_METRICS}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()


def run_bench(*args, cwd=ROOT):
    done = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)
    return done.returncode, done.stdout


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_reports_every_end_to_end_metric(workload):
    code, out = run_bench("--workload", workload, "--seed", "3",
                          "--seconds", "0.1", "--smoke")
    assert code == 0
    result = json.loads(out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: closedloop.END_TO_END_UNITS[name] for name in closedloop.RESULT_METRICS}
    for name, unit in closedloop.END_TO_END_UNITS.items():
        line = next(line for line in out.splitlines() if line.split()[:1] == [name])
        assert unit in line or "n/a" in line


#: Layers each workload must not reach, by design.
ABSENT = {
    "exact-route": ("meanfield.", "thermal.", "pathintegral."),
    "meanfield-ensemble": ("quantum.", "fockspace.", "pathintegral."),
    "single-path": ("quantum.", "fockspace.", "thermal."),
}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_trace_reports_every_layer(workload):
    code, out = run_bench("--workload", workload, "--seed", "3",
                          "--seconds", "0.1", "--smoke", "--trace", "1")
    assert code == 0
    result = json.loads(out.splitlines()[-1])
    assert result["correct"]
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == tracing.metric_units()
    assert metrics["cli.main.calls"]["value"] > 0
    for name, m in metrics.items():
        if name.endswith(".calls") and name.startswith(ABSENT[workload]):
            assert m["value"] == 0, name


def test_fails_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, out = run_bench("--workload", "single-path", "--seconds", "1", cwd=tmp_path)
    assert code != 0
    assert '"correct"' not in out
