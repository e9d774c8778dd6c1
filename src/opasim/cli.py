"""Configuration-driven scenario runner emitting CSV time series.

Configurations are flat, line-oriented ``key = value`` text with ``#``
comments.  Every scenario writes its CSV artifacts atomically (temp file
plus rename) and prints a summary block with invariant diagnostics; runs
are byte-reproducible for identical configuration and seed.  The
``quantum`` and ``fluorescence`` CSVs are so only at a fixed BLAS thread
count: their per-sample sums (``quantum._reduce_chains``) are matrix
products, whose rounding depends on how BLAS splits them over threads.

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
from .fockspace import SWEEP_POINT_CAP, ModeParams, TruncationDims
from .meanfield import MeanFieldState, integrate_rk4, num_steps, trajectory_blocks
from .pathintegral import (
    free_mode_path,
    free_propagator_closed_form,
    lagrangian_difference,
    path_from_trajectory,
    product_propagator,
)
from .quantum import NORM_TOL, ProductState, evolve_state, system_hamiltonian
from .thermal import ThermalParams, fluorescence_ensemble

#: Keys a sweep may vary without breaking the frequency-matching constraint.
SWEEPABLE_KEYS = (
    "kappa", "phi",
    "alpha0_re", "alpha0_im", "alpha1_re", "alpha1_im",
    "alpha2_re", "alpha2_im",
)

#: Diagnostic thresholds gating exit code 0.
MR_DRIFT_THRESHOLD = 1e-6
ACTION_CHECK_THRESHOLD = 1e-12

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


#: key -> (caster, default).
_KEY_SPECS: dict = {
    "scenario": (_parse_scenario, None),
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
            values[key] = default

    if values["scenario"] is None:
        raise ConfigError("missing required key 'scenario'")
    scenario = values["scenario"]
    requires = _SCENARIOS[scenario][1]
    for key in requires:
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
    if "dt" in requires and values["t_final"] < values["dt"]:
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


#: Rows rendered as one part.  On a 2-CPU x86 host, a 2·10^5-step
#: `meanfield` run was no faster at 4096 rows and peaked 4.5 MB higher;
#: at 64 rows it was about 15% slower.
CSV_FORMAT_ROWS = 512

#: Parts of fewer fields go straight to the ``%`` line.  On a 2-CPU x86
#: host the renderer's fixed cost, about 40 µs, exceeded what it saved
#: below about 250 fields.
_RENDER_MIN_FIELDS = 256

#: Magnitudes the renderer takes.  Their decimal exponents stay inside its
#: table of powers of ten, and its exact products neither overflow nor
#: lose bits to underflow.
_RENDER_MIN_ABS, _RENDER_MAX_ABS = 1e-280, 1e280
#: The exponents k = floor(log10|x|) those magnitudes can take, one step
#: of correction included.
_K_MIN, _K_MAX = -282, 281
#: Veltkamp's splitting constant 2^27 + 1 for Dekker's exact product.
_SPLIT = 134217729.0
#: How near a rounding tie the scaled value may come.  Its error is far
#: below 2^-40 of a unit in the 17th digit.
_TIE_MARGIN = 2.0 ** -30
#: A field's bytes are picked from a 28-byte source row: digits 1-16 as
#: four groups of four (bytes 0-15), digit 0, '-', '.', '0', 'e', '+', a
#: filler byte 0, one unused byte, three exponent digits and the field's
#: separator.  A template row lists the source bytes of one layout,
#: padded with the filler to the longest field, '-d.dddddddddddddddde-ddd,'.
_DIGIT_AT = (16, *range(16))
_MINUS, _POINT, _ZERO, _E, _PLUS, _FILLER = range(17, 23)
_EXPONENT_AT, _SEPARATOR = (24, 25, 26), 27
_SOURCE_BYTES, _FIELD_BYTES = 28, 25
#: Layouts: %f with decimal exponent X = -4..16 (form X + 4); %e with
#: X >= 0 or X < 0 and two or three exponent digits (forms 21-24); zero.
_FORMS = 26
#: Fields picked per gather; their index array takes 200 bytes a field.
_GATHER_FIELDS = 1024


@functools.cache
def _render_tables() -> tuple:
    """The renderer's tables, built on its first use so that importing the
    CLI does not pay for them.

    - 10^(16 - k) for k in [_K_MIN, _K_MAX] as hi + lo: hi correctly
      rounded, split into Veltkamp halves hi_top + hi_low, and lo the
      correctly rounded rest, both from exact integer ratios;
    - the four ASCII digits of every group 0..9999 as a little-endian
      word, and each group's trailing zeros (4 for 0);
    - three exponent digits and a ',' or '\\n' separator as one word;
    - the byte templates, one per (sign, form, significant digits).
    """
    powers = []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        hi = num / den
        m, d = hi.as_integer_ratio()
        t = hi * _SPLIT
        hi_top = t - (t - hi)
        powers.append((hi, hi_top, hi - hi_top, (num * d - m * den) / (den * d)))
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T  # 0000-9999
    ascii_groups = np.ascontiguousarray(digits + 48).view("<u4").ravel()
    trailing_zeros = np.cumprod(digits[:, ::-1] == 0, axis=1, dtype=np.int8).sum(
        axis=1, dtype=np.int8)
    exponent_words = np.empty((300, 2, 4), np.uint8)  # 000-299
    exponent_words[:, :, :3] = (np.indices((3, 10, 10), dtype=np.uint8).reshape(3, -1).T
                                + 48)[:, None]
    exponent_words[:, :, 3] = np.frombuffer(b",\n", np.uint8)
    templates = np.full((2, _FORMS, 17, _FIELD_BYTES), _FILLER, np.uint8)
    for form in range(_FORMS):
        for shown in range(1, 18):  # significant digits after stripping
            if 4 <= form <= 20:  # %f, X >= 0
                body = list(_DIGIT_AT[:form - 3])
                if shown > form - 3:
                    body += [_POINT, *_DIGIT_AT[form - 3:shown]]
            elif form < 4:  # %f, X = -4..-1: '0.' and -X-1 zeros
                body = [_ZERO, _POINT] + [_ZERO] * (3 - form) + list(_DIGIT_AT[:shown])
            elif form < 25:  # %e
                body = [_DIGIT_AT[0]]
                if shown > 1:
                    body += [_POINT, *_DIGIT_AT[1:shown]]
                negative, three = divmod(form - 21, 2)
                body += [_E, _MINUS if negative else _PLUS, *_EXPONENT_AT[1 - three:]]
            else:
                body = [_ZERO]
            for sign in (0, 1):
                row = [_MINUS] * sign + body + [_SEPARATOR]
                templates[sign, form, shown - 1, :len(row)] = row
    return (np.array(powers).T.copy(), ascii_groups, trailing_zeros,
            exponent_words.view("<u4").ravel(), templates.reshape(-1, _FIELD_BYTES))


def _scaled(a: np.ndarray, k: np.ndarray, powers: np.ndarray):
    """D = round(V) for V = a * 10^(16 - k), as upper * 10^8 + lower with
    both exact float64 integers, and each V - D.

    V is Dekker's exact TwoProduct of a and hi, plus a * lo; its error is
    below 2^-100 V.  Where 10^16 <= D <= 10^17 the product's high part is
    an integer (its ulp is at least 2), so D is it plus the rounded rest.
    """
    hi, hi_top, hi_low, lo = powers.take((k - _K_MIN).astype(np.intp), axis=1)
    high = a * hi
    a_top = a * _SPLIT
    a_top -= a_top - a
    a_low = a - a_top
    rest = a_top * hi_top
    rest -= high
    rest += a_top * hi_low
    rest += a_low * hi_top
    rest += a_low * hi_low
    rest += a * lo
    rounded = np.rint(rest)
    rest -= rounded
    # exact: 10^8 * upper has at most 50 bits, and the difference is an
    # integer below 2^53; both floors divide integers below 2^53
    upper = np.floor(high * 1e-8)
    lower = high - upper * 1e8
    lower += rounded
    carry = np.floor(lower / 1e8)
    upper += carry
    lower -= carry * 1e8
    return upper, lower, rest


def _outside_17_digits(upper: np.ndarray, lower: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """Where V = D + rest, D = upper * 10^8 + lower, lies below 10^16 or D
    above 10^17.  V just below 10^16 rounds to D = 10^16 but has its 17
    digits one exponent lower; D = 10^17 is V's own rounding carry."""
    return ((upper < 1e8) | ((upper == 1e8) & (lower == 0) & (rest < 0))
            | (upper > 1e9) | ((upper == 1e9) & (lower > 0)))


def _significant_digits(x: np.ndarray, powers: np.ndarray):
    """The 17 significant digits of each float64 field of ``x``, as its
    first digit (float64) and four groups of four digits (intp), and its
    decimal exponent X (float64); or None where a field is non-finite,
    outside [1e-280, 1e280) and not zero, or within _TIE_MARGIN of a
    rounding tie (CPython breaks ties half-even).  Zeros read as 1.

    The digits D and X follow from k = floor(log10|x|), set right by one
    step where D falls outside [10^16, 10^17]; D = 10^17 carries into X.
    """
    a = np.abs(x)
    a[a == 0] = 1.0  # zeros come from their template alone
    # NaN fails both comparisons, infinity the second
    if not np.all((a >= _RENDER_MIN_ABS) & (a < _RENDER_MAX_ABS)):
        return None
    k = np.floor(np.log10(a))
    upper, lower, rest = _scaled(a, k, powers)
    wrong = _outside_17_digits(upper, lower, rest)
    if wrong.any():
        redo = np.flatnonzero(wrong)
        k[redo] += np.where(upper[redo] <= 1e8, -1.0, 1.0)
        upper[redo], lower[redo], rest[redo] = _scaled(a[redo], k[redo], powers)
        if _outside_17_digits(upper[redo], lower[redo], rest[redo]).any():
            return None
    if np.abs(rest).max(initial=0.0) > 0.5 - _TIE_MARGIN:
        return None
    ten_to_17 = upper == 1e9
    upper[ten_to_17] = 1e8
    k += ten_to_17
    first = np.floor(upper / 1e8)
    upper -= first * 1e8
    groups = np.empty((len(x), 4), np.intp)  # digits 1-4, 5-8, 9-12, 13-16
    for column, half in ((0, upper), (2, lower)):
        high_four = np.floor(half / 1e4)
        groups[:, column] = high_four
        groups[:, column + 1] = half - high_four * 1e4
    return first, groups, k


def _field_sources(x: np.ndarray, columns: int,
                   tables: tuple) -> tuple[np.ndarray, np.ndarray] | None:
    """Each field's source row and its row index in the template table,
    for the float64 fields ``x`` of a part with ``columns`` columns; or
    None where ``_significant_digits`` declines a field."""
    powers, ascii_groups, trailing_zeros, exponent_words, _ = tables
    digits = _significant_digits(x, powers)
    if digits is None:
        return None
    first, groups, k = digits
    zeros = trailing_zeros.take(groups)
    whole = zeros == 4
    trailing = zeros[:, 3] + whole[:, 3] * (
        zeros[:, 2] + whole[:, 2] * (zeros[:, 1] + whole[:, 1] * zeros[:, 0]))
    source = np.empty((len(x), _SOURCE_BYTES), np.uint8)
    words = source.view("<u4")
    words[:, :4] = ascii_groups.take(groups)
    words[:, 4] = first.astype(np.uint32) + int.from_bytes(b"0-.0", "little")
    words[:, 5] = int.from_bytes(b"e+\0\0", "little")
    exponent = np.abs(k).astype(np.intp)
    separator = exponent * 2
    separator.reshape(-1, columns)[:, -1] += 1
    words[:, 6] = exponent_words.take(separator)
    form = np.where((k >= -4) & (k < 17), k + 4,
                    21 + (exponent >= 100) + 2 * (k < 0)).astype(np.intp)
    form[x == 0] = _FORMS - 1
    return source, (np.signbit(x) * _FORMS + form) * 17 + (16 - trailing)


def _render_part(part: np.ndarray) -> bytes | None:
    """The bytes of ``(row_format * rows) % tuple(part.ravel().tolist())``
    for a 2-D part, with row_format ``%.17g`` fields joined by ',' and
    ended by '\\n', rendered in numpy; or None where
    ``_significant_digits`` declines a field or the dtype is not a float,
    int or uint of at most 8 bytes.

    The layout is CPython's %g: %e iff X < -4 or X >= 17, with a sign and
    at least two exponent digits; trailing zeros and a bare '.' stripped;
    -0 kept.  Fields are picked from their source rows
    ``_GATHER_FIELDS`` at a time, which bounds the index array.
    """
    if part.dtype.kind not in "fiu" or part.dtype.itemsize > 8:
        return None
    tables = _render_tables()
    fields = _field_sources(np.asarray(part, dtype=np.float64).ravel(),
                            part.shape[1], tables)
    if fields is None:
        return None
    source, layout = fields
    bases = np.arange(0, _GATHER_FIELDS * _SOURCE_BYTES, _SOURCE_BYTES)[:, None]
    text = []
    for lo in range(0, len(layout), _GATHER_FIELDS):
        keys = layout[lo:lo + _GATHER_FIELDS]
        picks = np.add(bases[:len(keys)], tables[-1].take(keys, axis=0))
        chunk = source[lo:lo + _GATHER_FIELDS].ravel().take(picks)
        text.append(chunk.tobytes().translate(None, b"\0"))
    return b"".join(text)


def write_csv_atomic(path: Path, header: list[str], blocks) -> int:
    """Write a CSV (LF newlines, UTF-8, no BOM) via temp file + rename.

    ``blocks`` yields 2-D arrays of rows, one column per header field, and
    blocks are written as they are drawn.  Every field is written as
    CPython's ``%.17g`` of its float: each block is cut into parts of at
    most ``CSV_FORMAT_ROWS`` rows, and ``_render_part`` renders a part of
    at least ``_RENDER_MIN_FIELDS`` fields in numpy; a part it declines,
    or a smaller one, goes through one ``%``-format call.  The temp file
    lives in the target directory (rename stays atomic) with a unique
    name, and is removed if the write fails partway.  Returns the number
    of rows.
    """
    row_format = ",".join(["%.17g"] * len(header)) + "\n"
    fd, tmp_name = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp",
                                    dir=path.parent or None)
    count = 0
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write((",".join(header) + "\n").encode("utf-8"))
            for block in blocks:
                for lo in range(0, len(block), CSV_FORMAT_ROWS):
                    part = block[lo:lo + CSV_FORMAT_ROWS]
                    text = _render_part(part) if part.size >= _RENDER_MIN_FIELDS else None
                    if text is None:
                        text = ((row_format * len(part))
                                % tuple(part.ravel().tolist())).encode("ascii")
                    fh.write(text)
                count += len(block)
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise
    return count


def _row_blocks(*columns: np.ndarray):
    """The rows of equally long columns (1-D, or 2-D for several at once),
    stacked a block of ``CSV_FORMAT_ROWS`` rows at a time rather than
    copied whole."""
    for lo in range(0, len(columns[0]), CSV_FORMAT_ROWS):
        yield np.column_stack([c[lo:lo + CSV_FORMAT_ROWS] for c in columns])


@dataclass
class ScenarioReport:
    """Outcome of one scenario: written files, diagnostics, pass/fail."""

    outputs: list[tuple[Path, int]]
    diagnostics: list[tuple[str, str]]
    notes: list[str]
    ok: bool


def _initial_state(config: RunConfig) -> MeanFieldState:
    return MeanFieldState(config.params.pump_alpha0, config.alpha1, config.alpha2)


def _meanfield_columns(block: np.ndarray, start: int, dt: float) -> np.ndarray:
    """The (rows, 13) CSV columns of a ``(rows, 3)`` trajectory block whose
    first row is sample ``start``: t = k * dt, the amplitudes' real and
    imaginary parts, n_j = |a_j|^2 and the Manley-Rowe columns (n0 + n1,
    n0 + n2, n1 - n2).

    n_j is ``np.float_power(np.hypot(re, im), 2.0)``: libm's hypot and
    pow, the calls behind Python's ``abs(a) ** 2``, so every bit matches
    it.  (``np.abs(a) ** 2``, ``np.square`` and ``np.power`` do not.)
    """
    cols = np.empty((len(block), 13))
    np.multiply(np.arange(start, start + len(block)), dt, out=cols[:, 0])
    cols[:, 1:7] = block.view(float)
    n = cols[:, 7:10]
    np.float_power(np.hypot(cols[:, 1:7:2], cols[:, 2:7:2]), 2.0, out=n)
    np.add(n[:, 0], n[:, 1], out=cols[:, 10])
    np.add(n[:, 0], n[:, 2], out=cols[:, 11])
    np.subtract(n[:, 1], n[:, 2], out=cols[:, 12])
    return cols


def _write_meanfield_csv(blocks, dt: float, out_path: Path) -> tuple[int, float, tuple]:
    """Write the mean-field time series from the trajectory's blocks as
    they come; returns (rows, max relative MR drift, last sample).

    The drift is max |mr - mr(0)| / max(|mr1(0)|, |mr2(0)|, 1e-300) over
    rows, taken per block: division is monotone, so the block's largest
    difference gives its largest ratio.
    """
    drift = 0.0
    last = None

    def rows():
        nonlocal drift, last
        start = 0
        for block in blocks:
            cols = _meanfield_columns(block, start, dt)
            if start == 0:
                mr0 = cols[0, 10:13].copy()
                scale = max(abs(mr0[0]), abs(mr0[1]), 1e-300)
            drift = max(drift, float(np.max(np.abs(cols[:, 10:13] - mr0)) / scale))
            start += len(block)
            last = tuple(block[-1].tolist())
            yield cols

    header = ["t", "re_a0", "im_a0", "re_a1", "im_a1", "re_a2", "im_a2",
              "n0", "n1", "n2", "mr1", "mr2", "mr3"]
    n_rows = write_csv_atomic(out_path, header, rows())
    return n_rows, drift, last


def _run_meanfield(config: RunConfig, out_path: Path) -> ScenarioReport:
    _, blocks = trajectory_blocks(_initial_state(config), config.params,
                                  config.t_final, config.dt)
    n_rows, drift, _ = _write_meanfield_csv(blocks, config.dt, out_path)
    ok = drift <= MR_DRIFT_THRESHOLD
    diags = [("max Manley-Rowe relative drift",
              f"{drift:.3e} (threshold {MR_DRIFT_THRESHOLD:g})")]
    return ScenarioReport([(out_path, n_rows)], diags, [], ok)


def _run_quantum(config: RunConfig, out_path: Path) -> ScenarioReport:
    steps = num_steps(config.t_final, config.dt)
    h = system_hamiltonian(config.params, config.dims)
    psi0 = ProductState((config.params.pump_alpha0, config.alpha1, config.alpha2),
                        config.dims)
    result = evolve_state(h, psi0, steps * config.dt, steps + 1, config.dims)
    rows = _row_blocks(result.times, result.expectations,
                       result.norm_deviations, result.energies)
    header = ["t", "n0", "n1", "n2", "norm_dev", "energy"]
    n_rows = write_csv_atomic(out_path, header, rows)
    # evolve_state raises DivergenceError past NORM_TOL, so the run is ok
    diags = [("max norm deviation",
              f"{result.max_norm_deviation:.3e} (threshold {NORM_TOL:g})")]
    return ScenarioReport([(out_path, n_rows)], diags, list(result.warnings), True)


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
    errors = []
    for n in ns:
        path = free_mode_path(alpha, omega, t, n, pinned_end=alpha)
        errors.append(abs(product_propagator(path, free_params) - exact))
    # n <= 2^17 prints the same under %.17g as an integer
    n_rows = write_csv_atomic(out_path, ["n", "abs_error"],
                              _row_blocks(np.array(ns), np.array(errors)))
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
    times = np.arange(len(diffs)) * config.dt
    n_rows = write_csv_atomic(out_path, ["t", "abs_diff"],
                              _row_blocks(times, diffs))
    worst = float(np.max(diffs))
    ok = worst <= ACTION_CHECK_THRESHOLD
    diags = [("max |L - L_alt| at eta = -kappa'",
              f"{worst:.3e} (threshold {ACTION_CHECK_THRESHOLD:g})")]
    return ScenarioReport([(out_path, n_rows)], diags, [], ok)


def _run_thermal_ensemble(config: RunConfig, out_path: Path) -> ScenarioReport:
    stats = fluorescence_ensemble(config.params, config.thermal,
                                  config.t_final, config.dt, config.n_samples)
    rows = _row_blocks(stats.times, stats.mean_n1, stats.var_n1,
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
            _, blocks = trajectory_blocks(_initial_state(point), point.params,
                                          point.t_final, point.dt)
            n_rows, drift, (_, a1_t, a2_t) = _write_meanfield_csv(
                blocks, point.dt, point_path)
            outputs.append((point_path, n_rows))
            all_ok = all_ok and drift <= MR_DRIFT_THRESHOLD
            # the first sample is the initial state itself
            n1_0, n1_t = abs(point.alpha1) ** 2, abs(a1_t) ** 2
            gain = n1_t / n1_0 if n1_0 > 0 else float("nan")
            aggregate_rows.append((float(value), n1_t, abs(a2_t) ** 2, gain))
        header = [config.sweep_key, "n1_final", "n2_final", "gain_n1"]
        n_rows = write_csv_atomic(out_path, header, [np.array(aggregate_rows)])
    except BaseException:
        for path, _ in outputs:
            with contextlib.suppress(OSError):
                path.unlink()
        raise
    outputs.append((out_path, n_rows))
    return ScenarioReport(outputs, [("sweep points", str(len(values)))], [], all_ok)


#: scenario -> (runner, keys that must be present beyond 'scenario' itself).
_SCENARIOS = {
    "meanfield": (_run_meanfield, ("t_final", "dt")),
    "quantum": (_run_quantum, ("t_final", "dt")),
    # fluorescence is the quantum run from vacuum signal and idler
    "fluorescence": (lambda config, out_path: _run_quantum(
        replace(config, alpha1=0j, alpha2=0j), out_path), ("t_final", "dt")),
    "propagator-convergence": (_run_propagator_convergence, ("t_final",)),
    "action-check": (_run_action_check, ("t_final", "dt")),
    "thermal-ensemble": (_run_thermal_ensemble, ("t_final", "dt")),
    "sweep": (_run_sweep, ("t_final", "dt", "sweep_key", "sweep_start",
                           "sweep_stop", "sweep_count")),
}

SCENARIOS = tuple(_SCENARIOS)


def run(config: RunConfig, output_dir: str | None = None,
        quiet: bool = False) -> int:
    """Execute a validated configuration; returns the process exit code."""
    out_path = Path(config.output)
    if output_dir is not None:
        out_path = Path(output_dir) / out_path

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = _SCENARIOS[config.scenario][0](config, out_path)
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
