"""The text of every streamed artifact, laid out as UTF-8 bytes.

rows(parts, fmt) joins constant text and columns into the rows of pattern
CSV and JSON and of SVG chart marks, in one template per artifact (or by
`%` for short columns); event_rows lays out event logs. Both yield
bytearray or bytes chunks. text_block(values, fmt) returns one NUL-padded
row of bytes per value, holding exactly the text of Python's correctly
rounded conversion (Steele & White, PLDI 1990; Gay 1990; Adams, Ryu, PLDI
2018), with no Python call per value: `%.17g` (CSV), repr (`%r`: JSON,
float bar labels), `%.6g` (SVG coordinates) and `%d` (integer columns).

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
  as column slices. NULs pad what a class does not use. A piece of one
  class is written straight into its rows of the caller's block; a
  mixed piece goes through a class-sorted scratch block and back by one
  take.

`%.6g` covers [10, 1000), where it is fixed notation with 2 or 3 integer
digits: the range of SVG pixel coordinates. v * 10^4 (below 100) or
v * 10^3 is rounded to an integer n < 10^6, whose text is two table
entries OR-ed together: the integer part and the fraction with its
trailing zeros (and a bare point) dropped. A cell within _TOL of a tie,
one that rounds up to 10^6 (a decade: 999.9995 prints "1000") and any v
outside [10, 1000), such as a bar of height 0, fall back to `%`.

`%d` covers runs, as every integer column of an artifact is: detectors
1..n, event indices, a range of event-log labels. A piece that counts up
by one from some v >= 0 to below 10^16 is laid out by runs, one run of
equal high digits per 10^4 values, whose last four digits are rows of the
digit-group table _groups (Knuth, TAOCP Vol. 2, 4.4); any other piece falls
back whole to `%`. _groups also gives every float digit and `%.6g` fraction.
"""

from __future__ import annotations

import functools
from typing import Iterator, NamedTuple

import numpy as np

#: Rows formatted, and events drawn (analysis._draws), at a time: no minor
#: page faults on any benchmark workload (BENCH_21.json).
CHUNK = 1 << 14
#: Columns at least this long are laid out in a template; below it one `%`
#: per chunk is faster (BENCH_31.json, "break_even").
TEMPLATE_MIN = 768
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
    # (4, _KMAX - _KMIN + 1), column k - _KMIN: 10^k rounded to a double
    # (hi), hi's upper 26 bits, hi less those, and 10^k - hi rounded to a
    # double (lo); one take gathers all four.
    scales: np.ndarray
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
    exponents = range(-_EXPONENT_OFFSET, _EXPONENT_OFFSET + 1)
    suffixes = np.array(["e%+03d" % e for e in exponents], "S5").view("V5")
    return _Tables(
        np.stack([hi, np.ldexp(high, exponent - 53), np.ldexp(whole - high, exponent - 53), los]),
        suffixes,
    )


@functools.cache
def _groups() -> np.ndarray:
    """The digit groups, uint32, built on first use: 0000..9999 in ASCII,
    then the same with trailing zeros NUL (all of 0000's)."""
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T
    stripped = (digits + _ZERO) * (np.maximum.accumulate(digits[:, ::-1], 1)[:, ::-1] != 0)
    return np.ascontiguousarray(np.concatenate([digits + _ZERO, stripped])).view(np.uint32).ravel()


def _scaled(x: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(y) as int64 and y - floor(y), y = x * 10^k in double-double
    arithmetic, index = k - _KMIN: hi + lo with |lo| <= ulp(hi) / 2. Exact
    floors need y >= 2^53, where hi is an integer; below, the floor may be
    one off."""
    hi, high, low, lo = np.take(_tables().scales, index, axis=1)
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
    distance from y (None for unit 1, whose callers never read it); and
    where a tie cannot be told from the arithmetic.
    """
    if unit == 1:
        excess = 2 * frac - 1
        up = (excess > 0) | (excess == 0) & (whole & 1 == 1)
        return whole + up, None, ~exact & (np.abs(excess) < 2 * _TOL)
    quotient = whole // unit
    rest = whole - quotient * unit
    # Twice the distance below y less twice the distance above, its sign
    # exact: one rounding of an exact integer plus an exact double.
    excess = (2 * rest - unit) + 2 * frac
    up = (excess > 0) | (excess == 0) & (quotient & 1 == 1)
    # Only distances below 12 matter (half an ulp is below 11.2).
    gap = np.minimum(np.where(up, unit - rest, rest), 64) + np.where(up, -frac, frac)
    return (quotient + up) * unit, gap, ~exact & (np.abs(excess) < 2 * _TOL)


def _digits(x: np.ndarray, shortest: bool):
    """(digits, exponent, fall-back mask) of each x in [_LOWEST, _HIGHEST]:
    x's text is the integer `digits` in [10^16, 10^17) times 10^(exponent - 16)."""
    exponent = np.floor(np.log10(x)).astype(np.intp)  # may be one off next to 10^e
    whole, frac = _scaled(x, 16 - _KMIN - exponent)
    for step in (1, -1):
        off = whole >= 10**17 if step == 1 else whole < 10**16
        if off.any():
            exponent[off] += step
            whole[off], frac[off] = _scaled(x[off], 16 - _KMIN - exponent[off])
    fall_back = (whole < 10**16) | (whole >= 10**17)
    scales = _tables().scales
    index = 16 - _KMIN - exponent
    # Where 10^k is a double (k = 0..22), hi + lo is y exactly and a tie is a tie.
    exact = np.take(scales[3], index) == 0
    digits, _, unsure = _rounded(whole, frac, exact, 1)
    fall_back |= unsure
    if not shortest:
        return _carried(digits, exponent) + (fall_back,)

    mantissa, power = np.frexp(x)
    fall_back |= mantissa == 0.5  # a power of two: the interval below it is half as wide
    half_ulp = np.ldexp(np.take(scales[0], index), power - 54)
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
    if not carry.any():
        return digits, exponent
    return np.where(carry, 10**16, digits), exponent + carry


def _layout(number: np.ndarray, exponent: np.ndarray, shortest: bool, out: np.ndarray) -> None:
    """Writes the text of number * 10^(exponent - 16) into columns 1.. of
    out, one NUL-padded row each; column 0 is left for the sign."""
    size = number.size
    fixed = (exponent >= -4) & (exponent < (16 if shortest else 17))
    kind = np.where(fixed, exponent + 4, _SCIENTIFIC).astype(np.uint8)
    counts = np.bincount(kind, minlength=_SCIENTIFIC + 1)
    mixed = counts.max() < size  # else the rows are in class order already
    if mixed:
        # The classes go to a scratch block in class order, and back by one take.
        order = np.argsort(kind, kind="stable")
        number, exponent = np.take(number, order), np.take(exponent, order)
        block = np.empty((size, WIDTH["%.17g"]), np.uint8)
    else:
        block = out
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
    digits = np.empty((size, 17), np.uint8)
    digits[:, 0] = first + _ZERO
    digits[:, 1:] = np.take(_groups(), groups + 10**4 * stripped).view(np.uint8).reshape(size, 16)

    # Every column 1.. of a class's rows is written, NULs included: out may
    # hold the text of an earlier chunk.
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
            suffix = np.take(_tables().suffixes, exponent[rows] + _EXPONENT_OFFSET)
            block[rows, 19:24] = suffix.view(np.uint8).reshape(count, 5)
        elif cls < 4:  # 0.000ddd: the point is part of the lead
            lead = np.frombuffer(b"0." + b"0" * (3 - cls), np.uint8)
            block[rows, 1 : 1 + lead.size] = lead
            block[rows, 1 + lead.size : 18 + lead.size] = digits[rows]
            block[rows, 18 + lead.size :] = 0
        else:  # the integer part keeps its zeros; a point only before a fraction (repr: ".0")
            point = cls - 3
            fraction = number[rows] % 10 ** (17 - point) != 0
            block[rows, 1 : 1 + point] = np.maximum(digits[rows, :point], _ZERO)
            block[rows, 1 + point] = _POINT if shortest else fraction * _POINT
            block[rows, 2 + point : 19] = digits[rows, point:]
            block[rows, 19] = ~fraction * _ZERO if shortest else 0
            block[rows, 20:] = 0
    if mixed:
        inverse = np.empty_like(order)
        inverse[order] = np.arange(size)
        out[:] = np.take(block, inverse, 0, mode="clip")


def rows(parts: tuple, fmt: str) -> Iterator[bytes | bytearray]:
    """The UTF-8 bytes of the rows "".join(parts), in chunks of CHUNK rows.

    A str part is written as it is. An array part, a 1-D column of
    integers or floats or a pair (column, part_fmt), is written by `%d` of
    its i-th value if it holds integers, else by part_fmt or fmt. All
    columns are as long as the first. Columns shorter than TEMPLATE_MIN,
    and any str part that holds a NUL, go through one `%` per chunk, then
    encode; everything else through the template. Both give the same bytes.
    """
    fields, row = [], ""  # row: the `%` format of one row
    for part in parts:
        if isinstance(part, str):
            row += part.replace("%", "%%")
        else:
            column, part_fmt = part if isinstance(part, tuple) else (part, fmt)
            part = column, "%d" if column.dtype.kind in "iu" else part_fmt
            row += part[1]
        fields.append(part)
    columns = [field[0] for field in fields if isinstance(field, tuple)]
    size, width = len(columns[0]), len(columns)
    if size >= TEMPLATE_MIN and "\0" not in row:
        yield from _template_rows(fields, size)
        return
    for start in range(0, size, CHUNK):
        values = [column[start : start + CHUNK].tolist() for column in columns]
        flat = [None] * (width * len(values[0]))
        for offset, part in enumerate(values):
            flat[offset::width] = part
        yield ((row * len(values[0])) % tuple(flat)).encode()


def _template_rows(fields: list, size: int) -> Iterator[bytearray]:
    """The rows laid out in one template of min(size, CHUNK) rows, one
    column per field, as wide as its longest text. The str fields are
    written once, encoded; each chunk writes its columns' text in place
    (text_block) and drops the NULs that pad them. UTF-8 puts a 0x00 byte
    in no other character's encoding, so that keeps any other text whole.
    The NULs are dense, so translate drops them faster than a mask or
    replace (BENCH_29.json, "compaction"), straight from the template's
    bytearray (a short last chunk: from a copy of its rows)."""
    places, stop = [], 0
    for field in fields:
        width = len(field.encode()) if isinstance(field, str) else _width(*field)
        places.append(slice(stop, stop + width))
        stop += width
    buffer = bytearray(min(size, CHUNK) * stop)
    template = np.frombuffer(buffer, np.uint8).reshape(-1, stop)
    for field, place in zip(fields, places):
        if isinstance(field, str):
            template[:, place] = np.frombuffer(field.encode(), np.uint8)
    columns = [(*field, place) for field, place in zip(fields, places) if isinstance(field, tuple)]
    for start in range(0, size, CHUNK):
        block = template[: min(CHUNK, size - start)]
        for column, fmt, place in columns:
            text_block(column[start : start + CHUNK], fmt, block[:, place])
        yield (buffer if block.size == len(buffer) else buffer[: block.size]).translate(None, b"\0")


def event_rows(
    draws, labels, columns: int, prefix: str, suffix: str, count: int
) -> Iterator[bytearray]:
    """The UTF-8 bytes of the rows prefix + index + "," + label + "," +
    marker + suffix of `count` drawn cells, one chunk per chunk of `draws`:
    cell c of a table with `columns` (at most 10) columns is the row
    labelled labels[c // columns], labels an integer array, and marker
    c % columns; the index counts from 0. prefix and suffix hold no NUL.

    The rows are laid out in one template of min(count, CHUNK) rows: the
    prefix and suffix, written once, the index (by runs) and the cell's
    `,label,marker`, from a table of every cell whose labels are one `%d`
    column of text_block, copied as one void element a row. Each chunk
    overwrites those two columns and drops the NULs, which are sparse
    (under one a row): replace drops them faster than a mask (BENCH_27.json)
    or translate (BENCH_29.json), from the template as in _template_rows.
    """
    texts = text_block(labels, "%d")
    cells = np.empty((labels.size, columns, texts.shape[1] + 3), np.uint8)
    cells[..., 0] = cells[..., -2] = ord(",")
    cells[..., 1:-2] = texts[:, None]
    cells[..., -1] = np.arange(columns) + _ZERO
    cells = cells.reshape(labels.size * columns, -1).view(f"V{cells.shape[2]}")[:, 0]
    prefix, suffix = (np.frombuffer(text.encode(), np.uint8) for text in (prefix, suffix))
    # The columns end at c1 (prefix), c2 (index) and c3 (cell).
    c1, c2 = prefix.size, prefix.size + len(str(count - 1))
    c3 = c2 + cells.itemsize
    buffer = bytearray(min(count, CHUNK) * (c3 + suffix.size))
    template = np.frombuffer(buffer, np.uint8).reshape(-1, c3 + suffix.size)
    template[:, :c1] = prefix
    template[:, c3:] = suffix
    drawn = template[:, c2:c3].view(cells.dtype)[:, 0]

    # Built when called, so the template reads CHUNK when _draws does.
    def chunks():
        start = 0
        for chunk in draws:
            stop = start + chunk.size
            runs(start, stop, template[: chunk.size, c1:c2])
            drawn[: chunk.size] = np.take(cells, chunk)
            size = chunk.size * template.shape[1]
            yield (buffer if size == len(buffer) else buffer[:size]).replace(b"\0", b"")
            start = stop

    return chunks()


def runs(start: int, stop: int, out: np.ndarray) -> None:
    """Writes `"%d" % v` of v = start..stop-1, 0 <= start < stop <= 10^16,
    into the rows of out, right-aligned with the leading zeros NUL; out is
    as wide as the longest text or wider. One run of values with the same
    high digits v // 10^4 at a time: their text is written once for the
    run, and the last four digits are rows of the digit-group table, copied
    as one void element a row."""
    width = out.shape[1]
    cut = max(width - 4, 0)  # the columns of the high digits
    low = f"V{width - cut}"
    table = _groups()[: 10**4].view(np.uint8).reshape(-1, 4)[:, 4 - width + cut :].view(low)[:, 0]
    lows = out[:, cut:].view(low)[:, 0]
    for high in range(start // 10**4, (stop - 1) // 10**4 + 1):
        base = high * 10**4
        first, last = max(start, base), min(stop, base + 10**4)
        rows = slice(first - start, last - start)
        out[rows, :cut] = np.frombuffer(str(high or "").rjust(cut, "\0").encode(), np.uint8)
        lows[rows] = table[first - base : last - base]
    # The leading zeros: column width - j of the values below 10^(j - 1), j = 4, 3, 2.
    for column in range(cut, width - 1):
        out[: max(10 ** (width - 1 - column) - start, 0), column] = 0


def _width(values: np.ndarray, fmt: str) -> int:
    """Bytes per row of `fmt % v` for v in values: WIDTH[fmt], or for "%d"
    the longest text, that of the least or the greatest value."""
    if fmt != "%d":
        return WIDTH[fmt]
    return max(len("%d" % values.min()), len("%d" % values.max())) if values.size else 1


def text_block(values: np.ndarray, fmt: str, out: np.ndarray | None = None) -> np.ndarray:
    """(len(values), width) uint8: row i holds `fmt % values[i]`, padded
    with NULs; fmt is "%.17g", "%r" or "%.6g", whose width is WIDTH[fmt],
    or "%d" for an integer array, as wide as its longest text. For "%.17g"
    and "%r" the values must be finite. The rows go to `out` when given,
    which may be a column slice of a wider block; it is returned."""
    values = np.asarray(values) if fmt == "%d" else np.asarray(values, np.float64)
    if out is None:
        out = np.empty((values.size, _width(values, fmt)), np.uint8)
    width = out.shape[1]
    for start in range(0, values.size, _PIECE):
        piece, rows = values[start : start + _PIECE], out[start : start + _PIECE]
        if fmt == "%.6g":
            fall_back = _fixed6(piece, rows)
        elif fmt == "%d":
            fall_back = _integers(piece, rows)
        else:
            shortest = fmt == "%r"
            number, exponent, fall_back = _decimal(piece, shortest)
            _layout(number, exponent, shortest, rows)
            rows[:, 0] = np.signbit(piece) * ord("-")
        if fall_back.any():
            texts = [fmt % value for value in piece[fall_back].tolist()]
            rows[fall_back] = np.array(texts, f"S{width}").view(np.uint8).reshape(-1, width)
    return out


def _decimal(values: np.ndarray, shortest: bool):
    """_digits of |values| for any finite values: 0 has the digits 0 and the
    exponent 0, and a nonzero |v| outside [_LOWEST, _HIGHEST] falls back."""
    x = np.abs(values)
    inside = (x >= _LOWEST) & (x <= _HIGHEST)
    if inside.all():  # no zero either
        return _digits(x, shortest)
    zero = x == 0.0
    # Cells outside are worked on as 1.5, whose text needs no fall-back.
    number, exponent, fall_back = _digits(np.where(inside, x, 1.5), shortest)
    number[zero] = 0
    exponent[zero] = 0
    return number, exponent, fall_back & inside | ~(inside | zero)


def _integers(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Lays `"%d" % v` out into rows by runs if the values count up by one from
    some v >= 0 to below 10^16; returns the fall-back mask: none, else all."""
    start, stop = int(values[0]), int(values[0]) + values.size
    run = 0 <= start and stop <= 10**16 and np.array_equal(values, np.arange(start, stop))
    if run:
        runs(start, stop, rows)
    return np.full(values.size, not run)


@functools.cache
def _fixed6_tables() -> tuple[np.ndarray, np.ndarray]:
    """uint64 texts, built on first use: of the integers 0..999, and of the
    fractions .000-.999 placed after 3 integer digits, then .0000-.9999
    placed after 2, each with trailing zeros and a bare point dropped.
    The first SVG of a process pays the build: numpy makes the fractions
    in about 1 ms, against 5-7 ms formatting each text in Python."""
    stripped = _groups()[10**4 :].view(np.uint8).reshape(-1, 4)
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
