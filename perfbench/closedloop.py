"""Closed-loop benchmark loop: one client, in this one worker process.

Each operation starts when the previous one has finished and been
checked.  Set-up is timed in fresh interpreters; the timed phase runs
whole blocks of operations until ``--seconds`` have passed.
"""

from __future__ import annotations

import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ops import (
    BLOCKS,
    OMEGAS,
    REFERENCE_DIMS,
    STATIONARY_KAPPA,
    THROUGHPUT_KINDS,
    CheckFailed,
    Op,
    check_cli_op,
    check_stationary,
)
from tracing import Tracer, metric_units

#: Every end-to-end metric: name -> unit.
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "fock_amplitudes_per_s": "1/s",
    "traj_steps_per_s": "1/s",
    "slices_per_s": "1/s",
    "peak_rss_mb": "MB",
    "failed_ops_ratio": "ratio",
}

#: The end-to-end metrics in the result line: those every workload
#: measures as a nonzero number.  The three throughputs count only their
#: own op kinds and ``failed_ops_ratio`` is 0 on a correct run, so those
#: four are printed in the report only.
RESULT_METRICS = ("setup_s", "op_p50_s", "op_tail_s", "ops_per_s", "peak_rss_mb")

SETUP_REPEATS = 5
#: Prints the monotonic clock once the config is parsed, so interpreter
#: exit is not timed.
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import opasim.cli as cli; "
    "cli.parse_config(open(sys.argv[2], encoding='utf-8').read()); "
    "print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))"
)
SETUP_TIMEOUT_S = 60

#: The tail percentile leaves this many ops above it.
TAIL_OPS_BEYOND = 10

#: Computes the exact reference of a stationary-path op in a child
#: process, so its dense eigendecomposition does not set the worker's
#: peak RSS.
REFERENCE_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from opasim import fockspace, quantum
a = json.loads(sys.argv[2])
params = fockspace.ModeParams(*a["omegas"], kappa_mag=a["kappa"], phi=a["phi"])
labels, endpoint = (tuple(complex(*z) for z in a[k]) for k in ("labels", "endpoint"))
value = quantum.propagator_exact(params, fockspace.TruncationDims(*a["dims"]),
                                 labels, endpoint, a["t"])
print(json.dumps([value.real, value.imag]))
"""
REFERENCE_TIMEOUT_S = 120


@dataclass
class Record:
    kind: str
    slot: int
    seconds: float
    work: float
    error: str | None


class Client:
    """Executes and checks operations inside ``workdir``."""

    def __init__(self, workdir: Path):
        import opasim.cli
        import opasim.fockspace
        import opasim.pathintegral

        self.cli = opasim.cli
        self.fockspace = opasim.fockspace
        self.pathintegral = opasim.pathintegral
        self.src = Path(opasim.cli.__file__).resolve().parent.parent
        self.workdir = workdir
        self.digests: dict[str, str] = {}
        self.references: dict[tuple, complex] = {}
        self.count = 0

    def execute(self, op: Op) -> Record:
        self.count += 1
        if op.is_cli:
            return self._run_cli(op, f"op{self.count}")
        return self._run_stationary(op)

    def _run_cli(self, op: Op, stem: str) -> Record:
        config = self.workdir / "op.cfg"
        config.write_text(op.config_text(f"{stem}.csv"), encoding="utf-8")
        argv = [str(config), "--output-dir", str(self.workdir), "--quiet"]
        error = None
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception as exc:  # an op that raises counts as failed
            code, error = None, f"raised {exc!r}"
        seconds = time.perf_counter() - start
        try:
            if error is None:
                check_cli_op(op, code, self.workdir / f"{stem}.csv", self.digests)
        except (CheckFailed, OSError, ValueError) as exc:
            error = str(exc)
        finally:
            for path in self.workdir.glob(f"{stem}[._]*"):
                path.unlink()
        return Record(op.kind, op.slot, seconds, op.work, error)

    def _run_stationary(self, op: Op) -> Record:
        labels, n_slices, phi = (op.params[k] for k in ("labels", "n_slices", "phi"))
        params = self.fockspace.ModeParams(*OMEGAS, kappa_mag=STATIONARY_KAPPA, phi=phi)
        error = None
        start = time.perf_counter()
        try:
            result = self.pathintegral.stationary_propagator(
                labels, labels, 1.0, params, n_slices)
        except Exception as exc:  # an op that raises counts as failed
            result, error = None, f"raised {exc!r}"
        seconds = time.perf_counter() - start
        if result is not None:
            try:
                check_stationary(result.value,
                                 self._reference(labels, phi, result.endpoint))
            except CheckFailed as exc:
                error = str(exc)
        return Record(op.kind, op.slot, seconds, op.work, error)

    def _reference(self, labels, phi: float, endpoint) -> complex:
        """Untimed ``propagator_exact`` at 10^3, cached per launch point.

        A launch point always comes with the same slice count, so its
        achieved endpoint is the same every time.  Every launch point is
        first run untraced, so a traced replay never recomputes a reference.
        """
        key = (labels, phi)
        if key not in self.references:
            spec = {"omegas": OMEGAS, "kappa": STATIONARY_KAPPA, "phi": phi,
                    "dims": REFERENCE_DIMS, "t": 1.0,
                    "labels": [[z.real, z.imag] for z in labels],
                    "endpoint": [[z.real, z.imag] for z in endpoint]}
            done = subprocess.run(
                [sys.executable, "-c", REFERENCE_CODE, str(self.src), json.dumps(spec)],
                capture_output=True, text=True, check=True, timeout=REFERENCE_TIMEOUT_S)
            self.references[key] = complex(*json.loads(done.stdout))
        return self.references[key]


def time_setup(root: Path, config: Path, repeats: int) -> list[float]:
    """Wall time of fresh interpreters importing opasim.cli and parsing ``config``."""
    times = []
    for _ in range(repeats):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(root / "src"), str(config)],
                              capture_output=True, text=True, check=True,
                              timeout=SETUP_TIMEOUT_S, cwd=root)
        times.append(float(done.stdout.split()[-1]) - start)
    return times


def tail(seconds: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond) of the highest nearest-rank percentile
    that leaves ``TAIL_OPS_BEYOND`` ops above it (fewer on short runs)."""
    ordered = sorted(seconds)
    rank = max(len(ordered) - TAIL_OPS_BEYOND, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def end_to_end(records: list[Record], setup: list[float]) -> dict:
    """The end-to-end metrics of a timed phase of whole blocks.

    Every block holds the same sizes, one op per slot.  ``op_p50_s`` and
    ``ops_per_s`` are taken over each slot's median time in the run, so a
    slow spell of the host during a few blocks does not move them.
    """
    times: dict[int, list[float]] = {}
    for r in records:
        times.setdefault(r.slot, []).append(r.seconds)
    typical = [statistics.median(seconds) for seconds in times.values()]
    values = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(typical),
        "op_tail_s": tail([r.seconds for r in records])[0],
        "ops_per_s": len(typical) / sum(typical),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_ops_ratio": sum(r.error is not None for r in records) / len(records),
    }
    for metric, kinds in THROUGHPUT_KINDS.items():
        mine = [r for r in records if r.kind in kinds]
        if mine:
            values[metric] = sum(r.work for r in mine) / sum(r.seconds for r in mine)
    return values


def provenance(root: Path, args, nproc: int) -> dict:
    import scipy

    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def timed_phase(client: Client, blocks, seconds: float) -> tuple[list[Op], list[list[Record]]]:
    """Whole blocks, closed loop, until ``seconds`` have passed (at least one).

    Returns the ops run and their records, block by block.
    """
    ops, records = [], []
    start = time.perf_counter()
    for block in blocks:
        ops += block
        records.append([client.execute(op) for op in block])
        if time.perf_counter() - start >= seconds:
            return ops, records
    raise AssertionError("block generators are endless")


def report_failures(label: str, records: list[Record]) -> None:
    for record in records:
        if record.error is not None:
            print(f"FAILED {label} {record.kind}: {record.error}")


def run(args, root: Path, nproc: int) -> int:
    sys.path.insert(0, str(root / "src"))
    import opasim

    source = root / "src" / "opasim"
    if Path(opasim.__file__).resolve().parent != source.resolve():
        print(f"perfbench: imported opasim from {opasim.__file__}, not {source}",
              file=sys.stderr)
        return 2

    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        return _run(args, root, nproc, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


def _run(args, root: Path, nproc: int, workdir: Path) -> int:
    make_blocks = BLOCKS[args.workload]
    blocks = make_blocks(random.Random(f"{args.workload}/{args.seed}"), args.smoke)
    first = next(blocks)
    first_config = workdir / "setup.cfg"
    first_config.write_text(next(op for op in first if op.is_cli).config_text("x.csv"),
                            encoding="utf-8")
    setup = time_setup(root, first_config, 1 if args.smoke else SETUP_REPEATS)

    client = Client(workdir)
    warmup = next(make_blocks(random.Random(f"{args.workload}/{args.seed}/warm-up"),
                              True))
    warm_records = [client.execute(op) for op in warmup]

    def all_blocks():
        yield first
        yield from blocks

    ops, blocks_run = timed_phase(client, all_blocks(),
                                  args.seconds / 2 if args.trace else args.seconds)
    records = [r for block in blocks_run for r in block]
    if args.trace:
        with Tracer() as tracer:
            traced = [client.execute(op) for op in ops]
        overhead = sum(r.seconds for r in traced) - sum(r.seconds for r in records)
        records += traced
        metrics = {name: {"value": value, "unit": metric_units()[name]}
                   for name, value in tracer.metrics(overhead).items()}
    else:
        values = end_to_end(records, setup)
        metrics = {name: {"value": values[name], "unit": END_TO_END_UNITS[name]}
                   for name in RESULT_METRICS}

    print(f"perfbench {args.workload} seed {args.seed}: {len(records)} ops timed, "
          f"{len(warm_records)} warm-up ops")
    print("provenance " + json.dumps(provenance(root, args, nproc), sort_keys=True))
    report_failures("warm-up", warm_records)
    report_failures("op", records)
    if args.trace:
        print_layers(metrics)
    else:
        print_end_to_end(values, records)

    failed = sum(r.error is not None for r in records)
    warm_failed = sum(r.error is not None for r in warm_records)
    print(json.dumps({"correct": failed == 0 and warm_failed == 0,
                      "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


def print_end_to_end(values: dict, records: list[Record]) -> None:
    _, percentile, beyond = tail([r.seconds for r in records])
    for name, unit in END_TO_END_UNITS.items():
        if name not in values:
            print(f"  {name:24s} n/a   (no such ops in this workload)")
            continue
        note = ""
        if name == "op_tail_s":
            note = f"  (p{percentile:.1f} of {len(records)} ops, {beyond} beyond)"
        print(f"  {name:24s} {values[name]:.6g} {unit}{note}")
    for kind in sorted({r.kind for r in records}):
        mine = [r.seconds for r in records if r.kind == kind]
        print(f"  kind {kind:24s} {len(mine):4d} ops, p50 {statistics.median(mine):.4g} s")


def print_layers(metrics: dict) -> None:
    spans = sorted((m["value"], name[:-len(".self_s")])
                   for name, m in metrics.items() if name.endswith(".self_s"))
    for self_s, span in reversed(spans):
        if self_s > 0:
            calls = metrics[f"{span}.calls"]["value"]
            print(f"  {span:40s} self {self_s:9.4f} s  calls {calls}")
    overhead = metrics["trace.overhead_s"]["value"]
    print(f"  tracing overhead {overhead:.4f} s")
