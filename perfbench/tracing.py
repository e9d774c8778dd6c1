"""Per-layer spans recorded from outside opasim.

:class:`Tracer` replaces each listed public function, in every opasim
module attribute that holds it, with a timing wrapper, and puts the
originals back on exit.  Spans nest (one thread, one op at a time), so a
span's self time is its duration minus the durations of its direct child
spans.  Spans are aggregated in memory per name and reported when the run
ends.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

#: module -> timed public functions.  These are the layers.
SPANS = {
    "cli": ("main", "parse_config", "write_csv_atomic"),
    "fockspace": ("build_hamiltonian", "build_hamiltonian_sparse",
                  "product_coherent_state"),
    "quantum": ("system_hamiltonian", "fluorescence_from_vacuum", "evolve_state"),
    "meanfield": ("integrate_rk4",),
    "pathintegral": ("free_mode_path", "path_from_trajectory",
                     "lagrangian_difference", "stationary_propagator",
                     "product_propagator"),
    "thermal": ("fluorescence_ensemble", "sample_thermal_amplitude"),
}

#: Called once per CSV row, so only counted: a timer would cost more than it.
COUNTED = {"meanfield": ("manley_rowe",)}


def _csv_counters(bound, result):
    yield "rows", result
    yield "bytes", os.path.getsize(bound.arguments["path"])


def _sparse_counters(bound, result):
    yield "nnz", result.nnz


def _evolve_counters(bound, result):
    from opasim import quantum
    from scipy import sparse

    h, states = bound.arguments["h"], result.states
    dense = not sparse.issparse(h) and h.shape[0] <= quantum.EIGH_DIM_LIMIT
    yield ("dense_calls" if dense else "sparse_calls"), 1
    yield "state_samples", states.shape[0]
    yield "states_mb_computed", states.nbytes / 1e6


def _rk4_counters(bound, result):
    yield "steps", len(result.samples) - 1


def _product_counters(bound, result):
    yield "slices", bound.arguments["path"].n_slices


def _ensemble_counters(bound, result):
    yield "member_steps", result.n_samples * (len(result.times) - 1)
    yield "members", result.n_samples
    yield "diverged", result.n_failures


#: span -> extra counters drawn from its arguments and result.
COUNTERS = {
    "cli.write_csv_atomic": _csv_counters,
    "fockspace.build_hamiltonian_sparse": _sparse_counters,
    "quantum.evolve_state": _evolve_counters,
    "meanfield.integrate_rk4": _rk4_counters,
    "pathintegral.product_propagator": _product_counters,
    "thermal.fluorescence_ensemble": _ensemble_counters,
}

#: Counter names and units as reported (the ensemble's member and
#: divergence counts are reported as their ratio).
COUNTER_UNITS = {
    "cli.write_csv_atomic.rows": "count",
    "cli.write_csv_atomic.bytes": "B",
    "fockspace.build_hamiltonian_sparse.nnz": "count",
    "quantum.evolve_state.dense_calls": "count",
    "quantum.evolve_state.sparse_calls": "count",
    "quantum.evolve_state.state_samples": "count",
    "quantum.evolve_state.states_mb_computed": "MB",
    "meanfield.integrate_rk4.steps": "count",
    "pathintegral.product_propagator.slices": "count",
    "thermal.fluorescence_ensemble.member_steps": "count",
    "thermal.fluorescence_ensemble.diverged_ratio": "ratio",
}

OVERHEAD_METRIC = "trace.overhead_s"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for module, names in SPANS.items():
        for name in names:
            units[f"{module}.{name}.calls"] = "count"
            units[f"{module}.{name}.total_s"] = "s"
            units[f"{module}.{name}.self_s"] = "s"
    for module, names in COUNTED.items():
        for name in names:
            units[f"{module}.{name}.calls"] = "count"
    units.update(COUNTER_UNITS)
    units[OVERHEAD_METRIC] = "s"
    return units


class Tracer:
    """Context manager that times the listed opasim functions while active."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._children: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self):
        for module, names in SPANS.items():
            for name in names:
                self._patch(module, name, self._timed)
        for module, names in COUNTED.items():
            for name in names:
                self._patch(module, name, self._counted)
        return self

    def __exit__(self, *exc):
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()
        return False

    def _patch(self, module: str, name: str, make_wrapper) -> None:
        original = getattr(sys.modules[f"opasim.{module}"], name)
        wrapper = make_wrapper(f"{module}.{name}", original)
        holders = [m for key, m in list(sys.modules.items())
                   if key == "opasim" or key.startswith("opasim.")]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    self._patched.append((holder, attr, original))
                    setattr(holder, attr, wrapper)

    def _counted(self, span: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[span] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed(self, span: str, fn):
        counters = COUNTERS.get(span)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._children.pop()
                if self._children:
                    self._children[-1] += elapsed
                self.calls[span] += 1
                self.total_s[span] += elapsed
                self.self_s[span] += elapsed - children
            if counters is not None:
                bound = signature.bind(*args, **kwargs)
                for counter, amount in counters(bound, result):
                    self.counters[f"{span}.{counter}"] += amount
            return result
        return wrapper

    def metrics(self, overhead_s: float) -> dict[str, float]:
        """Per-layer values for every name in :func:`metric_units`."""
        values = {}
        for name in metric_units():
            span, _, stat = name.rpartition(".")
            if stat == "calls":
                values[name] = self.calls.get(span, 0)
            elif stat == "total_s":
                values[name] = self.total_s.get(span, 0.0)
            elif stat == "self_s":
                values[name] = self.self_s.get(span, 0.0)
            else:
                values[name] = self.counters.get(name, 0.0)
        members = self.counters.get("thermal.fluorescence_ensemble.members", 0)
        diverged = self.counters.get("thermal.fluorescence_ensemble.diverged", 0)
        values["thermal.fluorescence_ensemble.diverged_ratio"] = (
            diverged / members if members else 0.0)
        values[OVERHEAD_METRIC] = overhead_s
        return values
