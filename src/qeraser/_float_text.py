"""Exact `"%.17g" % v`, `repr(v)` and `"%.6g" % v` of float64 columns, laid out as bytes.

text_block(values, fmt) returns one NUL-padded row of bytes per value,
holding exactly the text of Python's correctly rounded conversion
(Steele & White, PLDI 1990; Gay 1990; Adams, Ryu, PLDI 2018), with no
Python call per value. The float columns of pattern CSV (`%.17g`) and
JSON (`%r`) and the points of an SVG polyline (`%.6g`) use it.

`%.17g` and repr:
- scale: |v| * 10^k in double-double arithmetic, a Dekker/Veltkamp
  two-product against a hi + lo table of powers of ten, with k chosen so
  that the scaled value y lies in [1e16, 1e17). numpy ufuncs never fuse a
  multiply and an add, so every step is IEEE arithmetic, the same on
  every CPU; y is off by less than 1e-14, and exact where 10^k is a
  double.
- round: `%.17g` rounds y to the nearest integer. repr keeps the nearest
  multiple of the coarsest 10^j that still lies inside v's rounding
  interval, y +- half an ulp of v (times 10^k), and drops its trailing
  zeros. The nearest multiple of a finer grid is never farther from y,
  so the valid j run from 0 to the first invalid one. Ties go to even.
- fall back: a cell within _TOL of a tie that the arithmetic cannot
  settle, or of the interval's edge, a nonzero |v| outside
  [_LOWEST, _HIGHEST] and, for repr, a power of two (its interval is
  lopsided) is printed by Python's own `%`.
- lay out: the cells are sorted by notation class (fixed notation for
  each exponent, or scientific); within a class every field has one
  column, so the digits, point, leading "0.000" and exponent are copied
  as column slices. NULs pad what a class does not use.

`%.6g` covers [10, 1000), where it is fixed notation with 2 or 3 integer
digits: the range of SVG pixel coordinates. v * 10^4 (below 100) or
v * 10^3 is rounded to an integer n < 10^6, whose text is two table
entries OR-ed together: the integer part and the fraction with its
trailing zeros (and a bare point) dropped. A cell within _TOL of a tie,
one that rounds up to 10^6 (a decade: 999.9995 prints "1000") and any v
outside [10, 1000) fall back to `%`.
"""

from __future__ import annotations

import functools
from typing import Iterator, NamedTuple

import numpy as np

from . import analysis

#: Bytes per row of each format: the longest texts are
#: "-1.2345678901234567e-308" and "-1.23457e-308".
WIDTH = {"%.17g": 24, "%r": 24, "%.6g": 13}
#: Nonzero |v| printed without `%`: every 10^k the scaling uses, its two
#: halves and its low part stay normal and finite.
_LOWEST, _HIGHEST = 1e-290, 1e290
#: The scaling's k = 16 - exponent, one step either side of the exponents
#: of [_LOWEST, _HIGHEST].
_KMIN, _KMAX = 16 - 291, 16 + 291
#: Distance, in units of y (or of n for `%.6g`), from a tie or an interval
#: edge inside which the computed result is not trusted.
_TOL = 1e-9
#: Veltkamp's splitter for 53-bit doubles, 2^27 + 1.
_SPLIT = 134217729.0
#: Notation classes: fixed notation with exponent e is class e + 4, e in [-4, 16].
_SCIENTIFIC = 21
#: The "e+XX" suffix of exponent e is _Tables.suffixes[e + _EXPONENT_OFFSET].
_EXPONENT_OFFSET = 300
#: Values worked on at a time: with pieces of 2^13 or one pass over a
#: 2^14-row chunk, artifact_wide's peak RSS at seed 2112 reads 130 against
#: 106 MiB (BENCH_25.json, "piece_size").
_PIECE = 1 << 12
_ZERO, _POINT = ord("0"), ord(".")


class _Tables(NamedTuple):
    hi: np.ndarray  # 10^k rounded to a double, k = _KMIN.._KMAX
    high: np.ndarray  # hi's upper 26 bits
    low: np.ndarray  # hi - high
    lo: np.ndarray  # 10^k - hi rounded to a double
    groups: np.ndarray  # uint32: 0000..9999 in ASCII, then the same with trailing zeros NUL
    suffixes: np.ndarray  # V5: "e+XX" of exponent - _EXPONENT_OFFSET, NUL-padded


@functools.cache
def _tables() -> _Tables:
    """Built on first use. Python's int / int is correctly rounded, so hi
    is the double nearest 10^k and lo the double nearest 10^k - hi."""
    his, los = [], []
    for k in range(_KMIN, _KMAX + 1):
        if k >= 0:
            hi = float(10**k)
            lo = float(10**k - int(hi))
        else:
            scale = 10**-k
            hi = 1 / scale
            num, den = hi.as_integer_ratio()
            lo = (den - num * scale) / (den * scale)
        his.append(hi)
        los.append(lo)
    hi = np.array(his)
    # Veltkamp's split, made on the 53-bit integer mantissa so that the
    # product with _SPLIT cannot overflow.
    mantissa, exponent = np.frexp(hi)
    whole = np.ldexp(mantissa, 53)
    spread = whole * _SPLIT
    high = spread - (spread - whole)
    values = np.arange(10**4)
    digits = (values[:, None] // np.array([1000, 100, 10, 1]) % 10 + _ZERO).astype(np.uint8)
    trailing = sum((values % 10**i == 0).astype(np.uint8) for i in range(1, 5))
    stripped = digits * (np.arange(4) < 4 - trailing[:, None])
    exponents = range(-_EXPONENT_OFFSET, _EXPONENT_OFFSET + 1)
    suffixes = np.array(["e%+03d" % e for e in exponents], "S5").view("V5")
    return _Tables(
        hi,
        np.ldexp(high, exponent - 53),
        np.ldexp(whole - high, exponent - 53),
        np.array(los),
        np.concatenate([digits, stripped]).view(np.uint32).ravel(),
        suffixes,
    )


def _scaled(x: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(y) as int64 and y - floor(y), y = x * 10^k in double-double
    arithmetic: hi + lo with |lo| <= ulp(hi) / 2. Exact floors need
    y >= 2^53, where hi is an integer; below, the floor may be one off."""
    hi, high, low, lo = (np.take(table, k - _KMIN) for table in _tables()[:4])
    spread = x * _SPLIT
    x_high = spread - (spread - x)
    x_low = x - x_high
    product = x * hi
    error = ((x_high * high - product) + x_high * low + x_low * high) + x_low * low
    error += x * lo
    total = product + error
    rest = error - (total - product)
    floor = np.floor(rest)
    return total.astype(np.int64) + floor.astype(np.int64), rest - floor


def _rounded(whole, frac, exact, unit: int):
    """The multiple of `unit` nearest to y = whole + frac, ties to even; its
    distance from y; and where a tie cannot be told from the arithmetic.
    """
    quotient = whole // unit
    rest = whole - quotient * unit
    # Twice the distance below y less twice the distance above, its sign
    # exact: one rounding of an exact integer plus an exact double.
    excess = (2 * rest - unit) + 2 * frac
    up = (excess > 0) | (excess == 0) & (quotient % 2 == 1)
    # Only distances below 12 matter (half an ulp is below 11.2).
    gap = np.minimum(np.where(up, unit - rest, rest), 64) + np.where(up, -frac, frac)
    return (quotient + up) * unit, gap, ~exact & (np.abs(excess) < 2 * _TOL)


def _digits(x: np.ndarray, shortest: bool):
    """(digits, exponent, fall-back mask) of each x in [_LOWEST, _HIGHEST]:
    x's text is the integer `digits` in [10^16, 10^17) times 10^(exponent - 16)."""
    exponent = np.floor(np.log10(x)).astype(np.intp)  # may be one off next to 10^e
    whole, frac = _scaled(x, 16 - exponent)
    for step in (1, -1):
        off = whole >= 10**17 if step == 1 else whole < 10**16
        if off.any():
            exponent[off] += step
            whole[off], frac[off] = _scaled(x[off], 16 - exponent[off])
    fall_back = (whole < 10**16) | (whole >= 10**17)
    tables = _tables()
    # Where 10^k is a double (k = 0..22), hi + lo is y exactly and a tie is a tie.
    exact = np.take(tables.lo, 16 - exponent - _KMIN) == 0
    digits, _, unsure = _rounded(whole, frac, exact, 1)
    fall_back |= unsure
    if not shortest:
        return _carried(digits, exponent) + (fall_back,)

    mantissa, power = np.frexp(x)
    fall_back |= mantissa == 0.5  # a power of two: the interval below it is half as wide
    half_ulp = np.ldexp(np.take(tables.hi, 16 - exponent - _KMIN), power - 54)
    # Roundings to 10 and to 100 inside the interval replace the 17 digits,
    # the one to 100 where both are. That suffices: a rounding to 100
    # inside the interval is less than 11.2 from y, so it is the only
    # multiple of 1000, 10^4, ... that can be, and the layout drops its
    # trailing zeros.
    shorter = np.ones(x.shape, bool)
    for unit in (10, 100):
        candidate, gap, unsure = _rounded(whole, frac, exact, unit)
        fall_back |= shorter & ((np.abs(gap - half_ulp) < _TOL) | (gap < half_ulp) & unsure)
        shorter &= gap < half_ulp
        digits = np.where(shorter, candidate, digits)
    return _carried(digits, exponent) + (fall_back,)


def _carried(digits, exponent):
    """A rounding up to 10^17 is 10^16 at the next exponent."""
    carry = digits == 10**17
    return np.where(carry, 10**16, digits), exponent + carry


def _layout(number: np.ndarray, exponent: np.ndarray, shortest: bool) -> np.ndarray:
    """The text of number * 10^(exponent - 16), sign left out, one NUL-padded row each."""
    size = number.size
    fixed = (exponent >= -4) & (exponent < (16 if shortest else 17))
    kind = np.where(fixed, exponent + 4, _SCIENTIFIC).astype(np.uint8)
    counts = np.bincount(kind, minlength=_SCIENTIFIC + 1)
    mixed = counts.max() < size  # else the rows are in class order already
    if mixed:
        order = np.argsort(kind, kind="stable")
        number, exponent = np.take(number, order), np.take(exponent, order)
    # The first digit, then four groups of four digits, each group NUL
    # where its digits are trailing zeros of the whole number.
    first = number // 10**16
    tail = number - first * 10**16
    halves = np.empty((size, 2), np.int64)
    halves[:, 0] = tail // 10**8
    halves[:, 1] = tail - halves[:, 0] * 10**8
    high = halves // 10**4
    groups = np.stack([high, halves - high * 10**4], 2).reshape(size, 4)
    stripped = np.zeros((size, 4), bool)  # every group after this one is 0
    stripped[:, 3] = True
    for col in (2, 1, 0):
        stripped[:, col] = stripped[:, col + 1] & (groups[:, col + 1] == 0)
    tables = _tables()
    digits = np.empty((size, 17), np.uint8)
    digits[:, 0] = first + _ZERO
    digits[:, 1:] = np.take(tables.groups, groups + 10**4 * stripped).view(np.uint8).reshape(size, 16)

    block = np.zeros((size, WIDTH["%.17g"]), np.uint8)
    stop = 0
    for cls, count in enumerate(counts.tolist()):
        rows = slice(stop, stop + count)
        stop += count
        if not count:
            continue
        if cls == _SCIENTIFIC:
            block[rows, 1] = digits[rows, 0]
            block[rows, 2] = (tail[rows] != 0) * _POINT
            block[rows, 3:19] = digits[rows, 1:]
            suffix = np.take(tables.suffixes, exponent[rows] + _EXPONENT_OFFSET)
            block[rows, 19:24] = suffix.view(np.uint8).reshape(count, 5)
        elif cls < 4:  # 0.000ddd: the point is part of the lead
            lead = np.frombuffer(b"0." + b"0" * (3 - cls), np.uint8)
            block[rows, 1 : 1 + lead.size] = lead
            block[rows, 1 + lead.size : 18 + lead.size] = digits[rows]
        else:  # the integer part keeps its zeros; a point only before a fraction (repr: ".0")
            point = cls - 3
            fraction = number[rows] % 10 ** (17 - point) != 0
            block[rows, 1 : 1 + point] = np.maximum(digits[rows, :point], _ZERO)
            block[rows, 1 + point] = _POINT if shortest else fraction * _POINT
            block[rows, 2 + point : 19] = digits[rows, point:]
            if shortest:
                block[rows, 19] = ~fraction * _ZERO
    if not mixed:
        return block
    inverse = np.empty_like(order)
    inverse[order] = np.arange(size)
    return np.take(block, inverse, 0)


def text_rows(parts: tuple, fmt: str) -> Iterator[str]:
    """The rows "".join(parts), where a str part is written as it is and an
    array part by `fmt % value` of its i-th value (see text_block), in
    chunks of analysis._EVENT_CHUNK rows.

    Each chunk is laid out as bytes, the str parts broadcast next to the
    text blocks, and the NULs dropped: no str part may hold a NUL.
    """
    size = next(len(part) for part in parts if isinstance(part, np.ndarray))
    constant = {
        index: np.frombuffer(part.encode(), np.uint8)
        for index, part in enumerate(parts)
        if isinstance(part, str)
    }
    chunk = analysis._EVENT_CHUNK
    for start in range(0, size, chunk):
        stop = min(start + chunk, size)
        fields = [
            np.broadcast_to(constant[index], (stop - start, constant[index].size))
            if index in constant
            else text_block(part[start:stop], fmt)
            for index, part in enumerate(parts)
        ]
        block = np.hstack(fields)
        yield str(memoryview(block[block != 0]), "utf-8")


def text_block(values: np.ndarray, fmt: str) -> np.ndarray:
    """(len(values), WIDTH[fmt]) uint8: row i holds `fmt % values[i]`, padded
    with NULs; fmt is "%.17g", "%r" or "%.6g". For "%.17g" and "%r" the
    values must be finite."""
    values = np.asarray(values, np.float64)
    width = WIDTH[fmt]
    block = np.empty((values.size, width), np.uint8)
    for start in range(0, values.size, _PIECE):
        piece, rows = values[start : start + _PIECE], block[start : start + _PIECE]
        if fmt == "%.6g":
            fall_back = _fixed6(piece, rows)
        else:
            shortest = fmt == "%r"
            number, exponent, fall_back = _decimal(piece, shortest)
            rows[:] = _layout(number, exponent, shortest)
            rows[:, 0] = np.signbit(piece) * ord("-")
        if fall_back.any():
            texts = [fmt % value for value in piece[fall_back].tolist()]
            rows[fall_back] = np.array(texts, f"S{width}").view(np.uint8).reshape(-1, width)
    return block


def _decimal(values: np.ndarray, shortest: bool):
    """_digits of |values| for any finite values: 0 has the digits 0 and the
    exponent 0, and a nonzero |v| outside [_LOWEST, _HIGHEST] falls back."""
    x = np.abs(values)
    zero = x == 0.0
    inside = (x >= _LOWEST) & (x <= _HIGHEST)
    # Cells outside are worked on as 1.5, whose text needs no fall-back.
    number, exponent, fall_back = _digits(np.where(inside, x, 1.5), shortest)
    number[zero] = 0
    exponent[zero] = 0
    return number, exponent, fall_back & inside | ~(inside | zero)


@functools.cache
def _fixed6_tables() -> tuple[np.ndarray, np.ndarray]:
    """uint64 texts, built on first use: of the integers 0..999, and of the
    fractions .000-.999 placed after 3 integer digits, then .0000-.9999
    placed after 2, each with trailing zeros and a bare point dropped.
    The first SVG of a process pays the build: numpy makes the fractions
    in about 1 ms, against 5-7 ms formatting each text in Python."""
    # The digits of 0..9999, NUL where they are trailing zeros (all of 0's).
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T
    stripped = (digits + _ZERO) * (np.maximum.accumulate(digits[:, ::-1], 1)[:, ::-1] != 0)
    fractions = np.zeros((1000 + 10**4, 8), np.uint8)
    fractions[1:1000, 3] = fractions[1001:, 2] = _POINT
    fractions[:1000, 4:7] = stripped[::10, :3]  # .ddd is .ddd0
    fractions[1000:, 3:7] = stripped
    integers = np.array([b"%d" % i for i in range(1000)], "S8").view(np.uint64)
    return integers, fractions.view(np.uint64).ravel()


def _fixed6(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Lays `"%.6g" % v` out into rows for v in [10, 1000) and returns the
    mask of the cells that fall back."""
    inside = (values >= 10) & (values < 1000)
    if not inside.all():
        values = np.where(inside, values, 10.0)
    small = values < 100
    scale = np.where(small, 1e4, 1e3)
    # v * scale < 10^6 is off by at most half an ulp, below 1.2e-10, from
    # the exact product: where that is more than _TOL from a half, its
    # rounding n is the exact product's.
    scaled = values * scale
    whole = np.rint(scaled)
    fall_back = ~inside | (np.abs(scaled - whole) > 0.5 - _TOL) | (whole == 10**6)
    # A quotient of integers below 10^6 that is no integer lies at least
    # 10^-4 below the next one, far beyond its rounding: the floor is exact.
    integer = np.floor(whole / scale)
    fraction = whole - integer * scale + small * 1000
    integers, fractions = _fixed6_tables()
    # An n of 10^6 indexes past the table: clipped, its row falls back.
    cells = np.take(integers, integer.astype(np.intp), mode="clip")
    cells |= np.take(fractions, fraction.astype(np.intp))
    rows[:, :8] = cells.view(np.uint8).reshape(-1, 8)
    rows[:, 8:] = 0
    return fall_back
