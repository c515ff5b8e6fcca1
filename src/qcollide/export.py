"""Bit-stable file output: CSV tables and JSON summaries.

Every CSV field is written as ``%.17g`` (full round-trip precision), in a
fixed column order, so identical runs produce byte-identical files; an
integer within +-2^53 is an exact double, which ``%.17g`` writes as ``%d``.
The CSV writers share one vectorised formatter, ``_table``, that writes
exactly the bytes of Python's ``%`` formatting with numpy arithmetic:
each float's 17 significant digits come from a double-double product with a
table of powers of ten, good to about 2^-100 relative.  A value whose digits
that margin cannot settle (within 2^-20 of a rounding tie), a value outside
1e-270 <= |x| <= 1e280, and nan and inf take their digits from CPython's
``'%.16e'`` instead.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Callable, Iterable, Sequence, Tuple, Union

import numpy as np

from .coupling import WeightMatrix
from .divisibility import DivisibilityReport
from .engine import Trajectory

__all__ = [
    "weights_csv",
    "trajectory_csv",
    "trajectory_summary",
    "convergence_csv",
    "report_json",
    "summary_json",
    "write_text",
]


_CHUNK_ROWS = 448  # rows formatted at a time; bounds the scratch memory beside the text
_WRITE_SLICE = 2**16  # characters encoded and written at a time
_EXACT_INT = 2**53  # integers up to this magnitude are exact doubles

# ---- %.17g with numpy digit arithmetic, byte-identical to Python's
#
# A finite x with 1e-270 <= |x| <= 1e280 gets its decimal exponent
# X = floor(log10 |x|) and its 17 significant digits D = round(|x| 10^(16 - X))
# from a double-double product: Dekker's exact product of |x| with the high
# half of 10^(16 - X), plus |x| times the low half.  The product is good to
# about 2^-100 of itself, so D is the correctly rounded significand unless the
# fraction of |x| 10^(16 - X) lies within 2^-20 of one half, where a tie (which
# CPython breaks to even) is possible.  Those values, the rest of the range,
# nans and infs take D and X from CPython's '%.16e' instead; zero is D = X = 0.
#
# A field is then ten little words of text, each drawn from a table: the sign
# and "0.000" prefix, six groups of three digits (the point rides in the group
# it follows), and "e+XX" with the separator.  Unused bytes are zero, and one
# bytes.translate drops them.

_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split of a double into two 26-bit halves
_FAST_MIN, _FAST_MAX = 1e-270, 1e280  # |x| whose scaled products stay normal
_POW_MIN, _POW_MAX = -266, 290  # exponents 16 - X that the fast range needs
_TIE_MARGIN = 2.0 ** -20  # nearer than this to a rounding tie: CPython decides


def _powers_of_ten():
    """10^k for _POW_MIN <= k <= _POW_MAX as hi + lo, and hi split in two halves."""
    hi, lo = [], []
    for k in range(_POW_MIN, _POW_MAX + 1):
        if k >= 0:
            exact = 10 ** k
            hi.append(float(exact))  # int -> float rounds correctly
            lo.append(float(exact - int(hi[-1])))
        else:
            m = 10 ** -k
            hi.append(1 / m)  # int / int rounds correctly
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * m) / (den * m))  # 10^k - hi, correctly rounded
    hi = np.array(hi)
    c = hi * _SPLIT
    hh = c - (c - hi)
    return hi, hh, hi - hh, np.array(lo)


_X0 = 400  # row of X = 0 in the tables keyed by X, which cover -400 <= X < 600
_D3 = (np.arange(1000)[:, None] // [100, 10, 1] % 10 + 48).astype(np.uint8)  # "%03d" % v


def _words(text: np.ndarray) -> np.ndarray:
    """ASCII rows (..., 4 w) of uint8, zero-padded, as (..., w) uint32 words."""
    return np.ascontiguousarray(text).view(np.uint32)


def _digit_groups() -> np.ndarray:
    """Renderings of the 1000 three-digit groups, 1000 words per group shape.

    Shape 16 * first + 4 * (last + 1) + point keeps the group's digits
    first..last and writes a point after digit ``point`` (none if 3).
    """
    text = np.zeros((2, 4, 4, 1000, 4), dtype=np.uint8)
    for first in (0, 1):
        for last in range(-1, 3):
            for point in range(4):
                slot = 0
                for p in range(first, last + 1):
                    text[first, last + 1, point, :, slot] = _D3[:, p]
                    slot += 1
                    if p == point:
                        text[first, last + 1, point, :, slot] = 46  # "."
                        slot += 1
    return _words(text).ravel()


def _group_shapes() -> np.ndarray:
    """Per 18 * (digits before the point) + (last position kept), the shape of each group.

    Positions count in the 18-digit string "0" + D, whose position 0 is never
    written; group k holds positions 3k..3k+2.  Entries are 1000 * shape.
    """
    whole, end, start = np.ogrid[:18, :18, :18:3]  # start: 3k
    point = np.where((1 <= whole) & (whole < end), whole, -100) - start
    point = np.where((0 <= point) & (point <= 2), point, 3)
    first = start == 0
    last = np.minimum(2, end - start)
    last = np.where(last >= first, last, -1)
    table = 1000 * (16 * first + 4 * (last + 1) + point)
    return table.reshape(18 * 18, 6)


def _exponent_tables() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per X + _X0: digits before the point, and the prefix and the exponent as one uint64 each.

    The prefix is the sign (rows + 1000 for a negative x) and the "0.000" of
    1e-4 <= |x| < 1; the exponent is "e+XX" outside %g's fixed notation,
    -4 <= X < 17, and then the separator (rows + 1000 end the line).
    """
    x = np.arange(1000) - _X0
    fixed = (-4 <= x) & (x < 17)
    whole = np.where(fixed, np.maximum(x + 1, 0), 1)
    prefix = np.zeros((2, 1000, 8), dtype=np.uint8)
    prefix[1, :, 0] = 45  # "-"
    for e in range(-4, 0):
        zeros = list(b"0." + b"0" * (-e - 1))
        prefix[0, _X0 + e, :len(zeros)] = zeros
        prefix[1, _X0 + e, 1:1 + len(zeros)] = zeros
    exponent = np.zeros((2, 1000, 8), dtype=np.uint8)
    exponent[:, :, 0] = 101  # "e"
    exponent[:, :, 1] = np.where(x < 0, 45, 43)  # "-", "+"
    digits = _D3[np.abs(x)]
    sep = np.array([[44], [10]])  # ",", newline
    narrow = np.abs(x) < 100
    exponent[:, narrow, 2:4] = digits[narrow, 1:]
    exponent[:, narrow, 4] = sep
    exponent[:, ~narrow, 2:5] = digits[~narrow]
    exponent[:, ~narrow, 5] = sep
    exponent[:, fixed] = 0
    exponent[:, fixed, 0] = sep
    return whole, prefix.view(np.uint64).ravel(), exponent.view(np.uint64).ravel()


_P10 = _powers_of_ten()
_GROUPS = _digit_groups()
_SHAPES = np.ascontiguousarray(_group_shapes().T)  # group-major: row k is group k's shapes
_GROUP_START = np.arange(0, 18, 3, dtype=np.int8)[:, None]
# position of the last nonzero digit of "%03d" % v, and far below 0 for v = 0
_LAST_NONZERO = np.where(_D3[:, 2] > 48, 2, np.where(_D3[:, 1] > 48, 1,
                         np.where(_D3[:, 0] > 48, 0, -64))).astype(np.int8)
_WHOLE, _PREFIX, _EXPONENT = _exponent_tables()
_NAN_INF = _words(np.frombuffer(b"nan\0inf\0", dtype=np.uint8))


def _scaled(a: np.ndarray, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """a 10^(16 - x) as p + e: p the rounded product, e what it leaves (to ~2^-100 of p)."""
    hi, hh, hl, lo = _P10
    k = (16 - _POW_MIN) - x
    p = a * hi.take(k)
    ah = a * _SPLIT
    ah -= ah - a
    al = a - ah
    hh = hh.take(k)
    e = ah * hh
    e -= p  # e = ((ah hh - p) + ah hl + al hh) + al hl + a lo, in this order
    hl = hl.take(k)
    ah *= hl
    e += ah
    hh *= al
    e += hh
    hl *= al
    e += hl
    lo = lo.take(k)
    lo *= a
    e += lo
    return p, e


def _significands(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D, X and whether both are exact, for the flat float64 values v."""
    a = np.abs(v)
    fast = a >= _FAST_MIN  # false for 0 (set apart below) and nan
    fast &= a <= _FAST_MAX  # and for inf
    np.copyto(a, 1.0, where=~fast)
    x = np.log10(a)
    x = np.floor(x, out=x).astype(np.intp)
    p, e = _scaled(a, x)
    # log10 can be one off next to a power of ten: the scaled value must lie in
    # [1e16, 1e17); p - 1e16 and p - 1e17 are exact wherever the sign is in doubt
    high = (p - 1e17) + e >= 0
    off = np.flatnonzero(high | ((p - 1e16) + e < 0))
    if off.size:
        x[off] += np.where(high[off], 1, -1)
        p[off], e[off] = p_off, e_off = _scaled(a[off], x[off])
        fast[off[((p_off - 1e16) + e_off < 0) | ((p_off - 1e17) + e_off >= 0)]] = False
    r = np.rint(e)
    e -= r
    fast &= np.abs(e, out=e) < 0.5 - _TIE_MARGIN
    d = p.astype(np.int64)  # p >= 1e16 > 2^53 is a whole number
    d += r.astype(np.int64)
    carry = d == 10 ** 17  # 99999999999999999.5 and up round to 1e17
    d[carry] = 10 ** 16
    x[carry] += 1
    zero = v == 0  # computed as |x| = 1, so X = 0 already
    d[zero] = 0
    fast |= zero
    return d, x, fast


def _float_words(v: np.ndarray, ends_line: np.ndarray) -> np.ndarray:
    """%.17g of the flat values v as (len(v), 10) words; ``ends_line`` is 1000 for a last field."""
    d, x, fast = _significands(v)
    negative = np.signbit(v)
    slow = np.flatnonzero(~fast)
    special = []
    for i, value in zip(slow.tolist(), v[slow].tolist()):
        if math.isfinite(value):
            text = "%.16e" % abs(value)
            d[i], x[i] = int(text[0] + text[2:18]), int(text[19:])
        else:  # digits come from _NAN_INF; Python writes nan without a sign
            special.append((i, value != value))
            d[i] = x[i] = 0
            negative[i] &= value == value

    groups = np.empty((6, len(d)), dtype=np.int32)  # "0" + D in groups of three
    high = d // 10 ** 9  # D < 10^17: both halves fit int32
    d -= high * 10 ** 9
    for half, rows in ((high.astype(np.int32), groups[:3]), (d.astype(np.int32), groups[3:])):
        np.floor_divide(half, 10 ** 6, out=rows[0])
        half -= rows[0] * 10 ** 6
        np.floor_divide(half, 1000, out=rows[1])
        np.subtract(half, rows[1] * 1000, out=rows[2])
    del d, high
    end = (_LAST_NONZERO.take(groups) + _GROUP_START).max(axis=0)  # last nonzero position

    x += _X0
    whole = _WHOLE.take(x)  # digits before the point
    end = np.maximum(end, whole)  # the integer digits are kept
    np.maximum(end, 1, out=end)  # and the "0" of zero
    end += 18 * whole
    words = np.empty((len(v), 10), dtype=np.uint32)
    wide = words.view(np.uint64)  # words 0-1 and 8-9 are one table entry each
    wide[:, 0] = _PREFIX.take(1000 * negative + x)
    for k, group in enumerate(groups):  # one group at a time keeps the lookups 1-D
        code = _SHAPES[k].take(end)
        code += group
        words[:, 2 + k] = _GROUPS.take(code)
    x += ends_line
    wide[:, 4] = _EXPONENT.take(x)
    for i, is_nan in special:
        words[i, 2:8] = 0
        words[i, 2] = _NAN_INF[0 if is_nan else 1]
    return words


def _rows(columns: Sequence[np.ndarray]) -> str:
    """The rows of one chunk's columns, every field as %.17g.

    Its scratch, a few hundred kB for a chunk of seven columns, is freed before
    ``_table`` appends the rows to the text.
    """
    values = np.empty((len(columns[0]), len(columns)))
    for i, column in enumerate(columns):
        if column.dtype.kind in "iu" and (
                column.min() < -_EXACT_INT or column.max() > _EXACT_INT):
            raise ValueError(f"integer column beyond +-2^53 ({column.min()}..{column.max()}): "
                             f"its values have no exact double")
        values[:, i] = column
    ends_line = np.zeros(len(columns), dtype=np.intp)
    ends_line[-1] = 1000
    words = _float_words(values.ravel(), np.tile(ends_line, len(values)))
    return words.tobytes().translate(None, b"\0").decode("ascii")


def _table(header: str, n_rows: int, chunk: Callable[[int, int], Sequence[np.ndarray]]) -> str:
    """CSV text: ``header``, then rows 0..n_rows-1, whose columns ``chunk(lo, hi)`` gives.

    The rows are asked for and formatted _CHUNK_ROWS at a time, and each
    chunk's rows are appended to one string, which CPython grows in place
    while nothing else refers to it: the text is held once, never beside a
    list of its chunks.  Every field is ``%.17g``: the same bytes as Python's
    ``%`` formatting, field by field.  An integer column must stay within
    +-2^53, where each value converts to a double exactly and ``%.17g``
    writes it as ``%d``; min and max are checked, as np.abs(-2^63) wraps.
    """
    text = header + "\n"
    for lo in range(0, n_rows, _CHUNK_ROWS):
        text += _rows(chunk(lo, min(lo + _CHUNK_ROWS, n_rows)))
    return text


def _sliced(*columns: np.ndarray) -> Callable[[int, int], Sequence[np.ndarray]]:
    """``_table``'s chunk of whole columns: rows lo..hi-1 of each."""
    return lambda lo, hi: [column[lo:hi] for column in columns]


# numpy keeps a dispatch cache per ufunc and dtype signature: one small table
# now puts those few kB in place at import, not during the first export
_table("", 2, _sliced(np.arange(2), np.array([1.5, math.nan]), np.array([0.0, 1e300])))


def write_text(path: Union[str, Path], text: str) -> Path:
    """Write ``text`` to ``path`` as UTF-8, overwriting any old content in place.

    The text is encoded and written _WRITE_SLICE characters at a time, so no
    encoded copy of the whole text is made beside it.  The file is not
    truncated to zero before the write, only cut to the new length after it.
    On ext4 (``auto_da_alloc``, the default) a file truncated to zero and
    rewritten starts a writeback when it is closed; for a file rewritten at
    every run that cost about 1 ms a close, with a long tail.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as handle:
        for lo in range(0, len(text), _WRITE_SLICE):
            handle.write(text[lo:lo + _WRITE_SLICE].encode())
        handle.truncate()
    return path


def weights_csv(weights: WeightMatrix) -> str:
    lags = weights.lags_present
    w = np.array([weights.w(lag) for lag in lags], dtype=complex)
    return _table("lag,re_w,im_w", len(lags), _sliced(np.array(lags, dtype=int), w.real, w.imag))


_TRAJECTORY_HEADER = "n,t,re_eps,im_eps,abs_eps,pop_e,norm"


def _trajectory_rows(traj: Trajectory, lo: int, hi: int) -> Tuple[np.ndarray, ...]:
    """Rows lo..hi-1 of the trajectory table, made from that slice of eps and norms.

    n, t and pop_e take the values of ``Trajectory.steps``, ``times`` and
    ``excited_population`` without forming those arrays whole.  abs_eps is
    np.hypot, what abs(complex) computes; np.abs(eps) differs from it in the
    last bit.
    """
    eps, n = traj.eps[lo:hi], np.arange(lo, hi)
    with np.errstate(over="ignore"):  # a population past the largest double is inf
        pop = np.abs(eps) ** 2
    return n, n * traj.dt, eps.real, eps.imag, np.hypot(eps.real, eps.imag), pop, traj.norms[lo:hi]


def trajectory_csv(traj: Trajectory) -> str:
    return _table(_TRAJECTORY_HEADER, len(traj.eps), lambda lo, hi: _trajectory_rows(traj, lo, hi))


def trajectory_summary(traj: Trajectory) -> dict:
    """JSON-ready run summary; carries the config snapshot for provenance.

    ``final`` is the last row of ``trajectory_csv``.
    """
    n = traj.n_steps
    last = [column.item() for column in _trajectory_rows(traj, n, n + 1)]
    return {
        "config": traj.config,
        "n_steps": n,
        "final": dict(zip(_TRAJECTORY_HEADER.split(","), last)),
        "max_norm_drift": traj.max_norm_drift,
        "wall_time_s": traj.wall_time_s,
        "notes": list(traj.notes),
    }


def convergence_csv(rows: Iterable[Tuple[float, float, float]]) -> str:
    """Table of (dt, max_abs_error, observed_order); order is nan on the first row
    and next to an error of 0."""
    table = np.array(list(rows), dtype=float).reshape(-1, 3)
    return _table("dt,max_abs_error,observed_order", len(table), _sliced(*table.T))


def report_json(report: DivisibilityReport, config: dict) -> str:
    """``json.dumps(payload, indent=2)`` of the config and the report, and a newline.

    With an indent, ``json`` runs its pure-Python encoder, which would walk the
    one CP flag a step one at a time; that list is written directly and put in
    its place, between ``config`` and ``revival_intervals``.
    """
    payload = {"config": config, **report.to_dict()}
    flags = payload.pop("cp_flags")
    text = json.dumps(payload, indent=2)
    # only a top-level key starts a line with exactly two spaces and a quote
    cut = text.index('\n  "revival_intervals": ')
    words = map({True: "true", False: "false"}.__getitem__, flags)
    flags_text = "[\n    " + ",\n    ".join(words) + "\n  ]" if flags else "[]"
    return "".join((text[:cut], '\n  "cp_flags": ', flags_text, ",", text[cut:], "\n"))


def summary_json(summary: dict) -> str:
    return json.dumps(summary, indent=2) + "\n"
