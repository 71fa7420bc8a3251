"""The byte-laid float text of pattern CSV, JSON and SVG against Python's own `%`.

_text.text_block must print exactly `"%.17g" % v`, `repr(v)` and
`"%.6g" % v`: these differential tests cover random doubles, every power
of two and its neighbours (exact 17-digit ties such as 2**-25 among
them), zeros, subnormals, the edges between fixed and scientific notation
and the doubles next to every power of ten, where the first guess of the
decimal exponent can be one off; for `%.6g` also pixel coordinates: the
decade edges, near-ties at 6 digits and dyadic pixels. `%d` columns that
are runs must be laid out by _text.runs, with no fall-back, and equal `%`;
any other integer column must fall back whole.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from lowered_simd import lowered_targets, run_with_simd_lowered, src_env
from qeraser import _svg, _text, cli, twoslit

FINITE = st.floats(allow_nan=False, allow_infinity=False)


def expected(values, fmt):
    return [fmt % v for v in np.asarray(values).tolist()]


def texts(values, fmt):
    block = _text.text_block(np.asarray(values, np.float64), fmt)
    assert block.shape == (len(values), _text.WIDTH[fmt])
    return [bytes(row[row != 0]).decode() for row in block]


def int_texts(values, laid_out):
    """`"%d" % v` of each value, read back from text_block's rows, under a
    spy on _text._integers: each piece of the column must be laid out by
    _text.runs with no fall-back (laid_out, one bool or one per piece), or
    fall back whole to `%`."""
    values = np.asarray(values)
    masks, integers = [], _text._integers

    def spy(piece, rows):
        masks.append(integers(piece, rows))
        return masks[-1]

    with mock.patch.object(_text, "_integers", spy):
        block = _text.text_block(values, "%d")
    assert block.shape == (values.size, max(len("%d" % v) for v in values.tolist()))
    edges = [*range(0, values.size, _text._PIECE), values.size]
    assert [mask.size for mask in masks] == np.diff(edges).tolist()
    runs = laid_out if isinstance(laid_out, list) else [laid_out] * len(masks)
    assert [set(mask.tolist()) for mask in masks] == [{not run} for run in runs]
    return [bytes(row[row != 0]).decode() for row in block]


def assert_same_int_text(values, laid_out):
    assert int_texts(values, laid_out) == expected(values, "%d")


def assert_same_text(values, formats=tuple(_text.WIDTH)):
    for fmt in formats:
        assert texts(values, fmt) == expected(values, fmt)


def with_neighbours(values, steps=1):
    """Each value and the `steps` finite doubles on either side of it."""
    values = np.asarray(values, np.float64)
    out, up, down, top = [values], values, values, np.finfo(np.float64).max
    for _ in range(steps):
        up, down = np.nextafter(up, top), np.nextafter(down, -top)
        out += [up, down]
    return np.concatenate(out)


class TestDifferential:
    @given(st.lists(FINITE, min_size=1, max_size=60))
    @example([2.0**-25, 0.1, -0.0, 5e-324, 1e308, 1e16, 1e17, 1e-4, 1e-5])
    def test_random_doubles(self, values):
        assert_same_text(values)

    def test_every_power_of_two_and_its_neighbours(self):
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        assert_same_text(with_neighbours(powers))
        # 2^-25 = 2.98023223876953125e-08: an exact tie at 17 digits, rounded to even.
        assert texts([2.0**-25], "%.17g") == ["2.9802322387695312e-08"]

    def test_zeros_and_subnormals(self):
        tiny = np.ldexp(np.arange(1, 2**12, 7, dtype=np.float64), -1074)
        values = np.concatenate([[0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308], tiny, -tiny])
        assert_same_text(values)

    def test_notation_edges(self):
        edges = [1e16, 1e17, 1e-4, 1e-5, 9999999999999998.0, 99999999999999984.0, 1e15, 1e-3]
        values = with_neighbours(edges, steps=3)
        assert_same_text(np.concatenate([values, -values]))

    def test_three_doubles_either_side_of_each_power_of_ten(self):
        powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
        assert_same_text(with_neighbours(powers, steps=3))

    def test_largest_and_out_of_range_magnitudes(self):
        values = [1.7976931348623157e308, 1e308, 1e291, 1e290, 1e-290, 1e-291, 1e-307, 2.5e-320]
        assert_same_text(with_neighbours(values))

    def test_dyadic_lattices(self):
        """Exact short binary fractions, whose text can be a tie at 17 digits
        or fewer (to even), and the doubles next to them, a hair off a tie."""
        rng = np.random.default_rng(7)
        for shift in range(0, 75, 3):
            steps = rng.integers(-(2**53), 2**53, 200) >> rng.integers(0, 53, 200)
            assert_same_text(with_neighbours(np.ldexp(steps.astype(np.float64), -shift)))
        positions = twoslit.build_grid(
            twoslit.ScreenGeometry(1.0, 0.5, 100.0, -100.0, 100.0, 2**14), "flat", None
        ).positions
        assert_same_text(positions)

    def test_ties_closer_than_the_arithmetic_can_tell(self):
        """x * 10^k within 3 * 2^-s of a half-integer, where 10^k is no double:
        ties and near-ties at 17 digits that only `%` can settle."""
        values = []
        for k in range(23, 120):
            five = 5**k
            for s in range(int(k * math.log2(5)) - 4, int(k * math.log2(5)) + 1):
                inverse = pow(five, -1, 1 << s)
                for delta in range(-3, 4):
                    # m * 5^k = 2^(s - 1) + delta (mod 2^s): x * 10^k = m * 5^k / 2^s
                    m = ((1 << (s - 1)) + delta) * inverse % (1 << s)
                    if m < 2**53 and 10**16 << s <= m * five < 10**17 << s:
                        values.append(math.ldexp(m, -s - k))
        assert len(values) >= 20
        assert_same_text(values)

    def test_chunk_pieces_keep_row_order(self):
        values = np.random.default_rng(5).standard_normal(3 * _text._PIECE + 17) ** 7
        assert_same_text(values)
        assert_same_text(np.random.default_rng(5).uniform(0.0, 2000.0, 3 * _text._PIECE + 17))

    def test_fixed6_decade_edges(self):
        """10, 100 and 1000 with their neighbours, and values that round up a
        decade at 6 digits (99.999951 prints "100", 999.9995 "1000")."""
        edges = [10.0, 100.0, 1000.0, 99.99995, 99.999951, 999.9995, 999.99949999, 9.999995]
        values = with_neighbours(edges, steps=3)
        assert_same_text(values, ["%.6g"])
        assert texts([999.9995, 99.999951, 100.0625], "%.6g") == ["1000", "100", "100.062"]

    def test_fixed6_near_ties(self):
        """Values whose scaled fraction lies within 1e-9 of a half, or a little
        farther, on both sides, with their neighbours."""
        rng = np.random.default_rng(11)
        whole = rng.integers(10**5, 10**6, 2000).astype(np.float64)
        scale = np.where(np.arange(whole.size) % 2, 1e3, 1e4)
        for offset in (0.0, 1e-10, 1e-9, 2e-9, 1e-8, 1e-7, 1e-6):
            for sign in (1, -1):
                values = (whole + 0.5 + sign * offset) / scale
                assert_same_text(with_neighbours(values[(values >= 10) & (values < 1000)]), ["%.6g"])

    def test_fixed6_dyadic_pixels(self):
        """k / 2^m in [48, 696], the pixel range of both axes: exact binary
        fractions, ties at 6 digits among them (100.0625), and their neighbours."""
        rng = np.random.default_rng(13)
        for m in range(0, 30):
            steps = rng.integers(48 << m, (696 << m) + 1, 400).astype(np.float64)
            assert_same_text(with_neighbours(np.ldexp(steps, -m)), ["%.6g"])
        assert_same_text(with_neighbours(np.arange(48 * 16, 696 * 16 + 1) / 16), ["%.6g"])

    @given(st.lists(st.floats(10.0, 1000.0, exclude_max=True), min_size=1, max_size=60))
    def test_fixed6_random_pixels(self, values):
        assert_same_text(values, ["%.6g"])

    def test_fixed6_uniform_pixels(self):
        assert_same_text(np.random.default_rng(17).uniform(10.0, 1000.0, 10**5), ["%.6g"])

    def test_fixed6_out_of_range_cells_fall_back(self):
        values = [0.0, -0.0, -1.0, -500.0, 1e-5, 9.99, 1e300, -1e-308, 5e-324,
                  1.7976931348623157e308, math.inf, -math.inf, math.nan]
        assert_same_text(values, ["%.6g"])
        block = np.empty((len(values), _text.WIDTH["%.6g"]), np.uint8)
        assert _text._fixed6(np.array(values), block).all()
        assert texts([-1.234567e-308], "%.6g") == ["-1.23457e-308"]  # the widest text

    def test_runs_from_zero_and_across_every_power_of_ten(self):
        """Runs from 0, of widths 1 to 5 (below the four digits of a group
        too), and from 10^k - 2 for k = 1..15, where the text widens."""
        for stop in (1, 2, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 10**4, 10**4 + 1, 10**5):
            assert_same_int_text(np.arange(stop), True)
        for k in range(1, 16):
            for size in (1, 3, 2 * 10**4 + 5):
                assert_same_int_text(np.arange(10**k - 2, 10**k - 2 + size), True)

    def test_runs_across_group_and_piece_edges(self):
        """Runs longer than a piece, whose pieces start off the 10^4 runs of
        high digits, and a piece that holds one value of a run."""
        piece = _text._PIECE
        for start in (1, 10**4 - 3, 2 * 10**4 - piece, 10**12 - 5000, 10**16 - 3 * piece - 18):
            assert_same_int_text(np.arange(start, start + 3 * piece + 17), True)
            assert_same_int_text(np.arange(start, start + piece + 1), True)

    def test_runs_of_narrow_and_unsigned_dtypes(self):
        for dtype in (np.int8, np.uint8, np.int16, np.int32, np.uint32):
            top = int(np.iinfo(dtype).max)
            assert_same_int_text(np.arange(max(top - 3 * _text._PIECE, 0), top + 1, dtype=dtype), True)
            assert_same_int_text(np.arange(0, min(top + 1, 2 * 10**4), dtype=dtype), True)
        assert_same_int_text(np.arange(10**16 - 2 * _text._PIECE - 3, 10**16, dtype=np.uint64), True)

    def test_columns_that_are_no_run_fall_back_whole(self):
        """A run reaching 10^16, a negative start, a run that steps by 2 or
        down, and a column whose second piece breaks the run."""
        assert_same_int_text(np.arange(10**16 - 3, 10**16 + 2), False)
        assert_same_int_text(np.arange(10**16 - 3, 10**16 + 2, dtype=np.uint64), False)
        assert_same_int_text(np.arange(-3, 20), False)
        assert_same_int_text(np.arange(0, 40, 2), False)
        assert_same_int_text(np.arange(20, 0, -1), False)
        column = np.arange(5, 5 + 2 * _text._PIECE + 1)
        column[-2] = 0
        assert_same_int_text(column, [True, False, True])

    def test_integers_at_every_power_of_ten_and_the_int64_edges(self):
        powers = [10**k + step for k in range(1, 17) for step in (-1, 0, 1)]
        values = [0, 1, *powers, 10**16, 2**63 - 1, -(2**63), -1, -9, -10, -10**5, -(10**16)]
        assert_same_int_text(values, False)
        assert_same_int_text(values[::-1], False)
        # A column as wide as its widest value: k digits, then k + 1.
        for k in range(1, 18):
            column = [0, 1, 10 ** (k - 1), 10**k - 1, 7 * 10 ** (k - 1)]
            assert_same_int_text(column, False)
            assert_same_int_text(column + [10**k], False)

    def test_integers_above_int64_fall_back(self):
        values = np.array([0, 5, 10**16 - 1, 10**16, 2**63, 2**64 - 1], np.uint64)
        assert_same_int_text(values, False)
        assert_same_int_text(np.array([2**63 + j for j in range(10)], object), False)

    def test_integers_of_narrow_dtypes(self):
        for dtype in (np.int8, np.uint8, np.int16, np.int32, np.uint32):
            info = np.iinfo(dtype)
            values = np.array([info.min, info.min + 1, 0, 1, 9, 10, info.max - 1, info.max], dtype)
            assert_same_int_text(values, False)

    def test_random_integers_of_every_width(self):
        rng = np.random.default_rng(23)
        values = rng.integers(0, 10 ** rng.integers(1, 19, 3 * _text._PIECE + 17))
        values[::97] *= -1
        assert_same_int_text(values, False)


def screen_columns(bins=2**18):
    """Positions and probabilities of a gaussian two-slit screen."""
    geometry = twoslit.ScreenGeometry(1.0, 0.5, 100.0, -100.0, 100.0, bins)
    grid = twoslit.build_grid(geometry, "gaussian", 40.0)
    pattern, _ = twoslit.pattern_conditioned(grid, 0.3, "minus")
    return grid.positions, pattern.probabilities


@pytest.mark.parametrize("fmt", ["%.17g", "%r"], ids=["%.17g", "repr"])
def test_fallback_share_on_a_wide_screen(fmt):
    """At most 1% of a real pattern's cells are printed by `%`."""
    for column in screen_columns():
        assert _text._decimal(column, fmt == "%r")[2].mean() <= 0.01


def test_fallback_share_on_a_wide_polyline(monkeypatch):
    """None of the points of a 2^16-bin screen's polyline is printed by `%`."""
    masks, fixed6 = [], _text._fixed6

    def counted(values, rows):
        masks.append(fixed6(values, rows))
        return masks[-1]

    monkeypatch.setattr(_text, "_fixed6", counted)
    xs, ps = screen_columns(2**16)
    b"".join(_svg.line_chart(xs, ps, "t", "x", "probability", "{}"))
    assert sum(mask.size for mask in masks) == 2 * (2**16 - 1)
    assert sum(mask.sum() for mask in masks) == 0


@pytest.mark.parametrize("argv", [
    ["nchannel", "--n", "10000", "--format", "csv"],
    ["nchannel", "--n", "10000", "--format", "json"],
    ["nchannel", "--n", "10000", "--format", "svg"],
    ["sample", "--n", "10000", "--count", "20000"],
], ids=["csv", "json", "svg", "sample"])
def test_fallback_share_on_a_wide_index_column(argv, monkeypatch, tmp_path):
    """None of the 10^4 detector numbers of `nchannel --n 10^4` (index
    column or bar labels) or of the labels of a `sample --n 10^4` log is
    printed by `%`: they are runs."""
    masks, integers = [], _text._integers

    def counted(values, rows):
        masks.append(integers(values, rows))
        return masks[-1]

    monkeypatch.setattr(_text, "_integers", counted)
    path = tmp_path / "artifact"
    assert cli.main([*argv, "--output", str(path)]) == 0
    assert sum(mask.size for mask in masks) == 10**4
    assert sum(mask.sum() for mask in masks) == 0
    text = path.read_text()
    if argv[-1] == "csv":
        index = [int(line.split(",")[0]) for line in text.splitlines()[2:]]
    elif argv[-1] == "json":
        index = json.loads(text)["index_or_x"]
    elif argv[-1] == "svg":
        index = [int(label) for label in re.findall(r'font-size="10"[^>]*>(\d+)<', text)]
    else:
        rows = [line.split(",") for line in text.splitlines()[2:]]
        assert [int(row[1]) for row in rows] == list(range(20000))
        assert {int(row[2]) for row in rows} <= set(range(1, 10**4 + 1))
        return
    assert index == list(range(1, 10**4 + 1))  # detectors 1..n


def test_table_is_built_on_first_use_not_at_import():
    """Importing the CLI builds none of the text tables, and _text, the one
    text module, imports neither analysis nor cli. The package's __init__
    imports analysis, so _text is imported under a bare package object."""
    code = (
        "import sys, types\n"
        "package = types.ModuleType('qeraser')\n"
        f"package.__path__ = [{str(Path(_text.__file__).parent)!r}]\n"
        "sys.modules['qeraser'] = package\n"
        "import qeraser._text\n"
        "loaded = {'qeraser.analysis', 'qeraser.cli'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
        "del sys.modules['qeraser'], sys.modules['qeraser._text']\n"
        "import qeraser.cli\n"
        "from qeraser import _text\n"
        "for table in (_text._groups, _text._tables, _text._fixed6_tables):\n"
        "    assert table.cache_info().currsize == 0, table\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_fixed6_tables_hold_each_text():
    integers, fractions = _text._fixed6_tables()
    texts = [b"\0\0\0" + (b".%03d" % f).rstrip(b"0").rstrip(b".") for f in range(1000)]
    texts += [b"\0\0" + (b".%04d" % f).rstrip(b"0").rstrip(b".") for f in range(10**4)]
    assert fractions.tolist() == np.array(texts, "S8").view(np.uint64).tolist()
    assert integers.tolist() == np.array([b"%d" % i for i in range(1000)], "S8").view(np.uint64).tolist()


class TestEmitters:
    """Pattern CSV, JSON and SVG through the laid-out rows equal the reference text."""

    @given(
        columns=st.integers(1, 40).flatmap(
            lambda n: st.tuples(
                st.lists(FINITE, min_size=n, max_size=n), st.lists(FINITE, min_size=n, max_size=n)
            )
        ),
        condition=st.one_of(st.sampled_from(["none", "d1", "50% {x} ü"]), st.text()),
        chunk=st.sampled_from([1, 7, _text.CHUNK]),
    )
    def test_laid_out_rows_equal_the_reference_text(self, columns, condition, chunk):
        xs, ps = columns
        payload = {"x": xs, "p": ps, "condition": condition}
        echo = json.dumps({"kind": "twoslit", "parameters": {}})
        with mock.patch.object(_text, "CHUNK", chunk), mock.patch.object(
            _text, "TEMPLATE_MIN", 1
        ):
            csv = b"".join(cli.emit_pattern_csv(payload, echo))
            doc = b"".join(cli.emit_pattern_json(payload, echo))
        assert csv == oracles.pattern_csv(payload, echo).encode()
        assert doc == oracles.pattern_json(payload, echo).encode()

    @given(
        points=st.integers(1, 40).flatmap(
            lambda n: st.tuples(
                st.one_of(
                    st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n),
                    st.lists(st.integers(-1000, 1000), min_size=n, max_size=n),
                ),
                st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
            )
        ),
        chart=st.sampled_from(["line", "bar"]),
        chunk=st.sampled_from([1, 7, _text.CHUNK]),
        template_min=st.sampled_from([1, _text.TEMPLATE_MIN]),
    )
    @example(points=([3.5, 3.5, 3.5], [0.2, 0.5, 0.3]), chart="line", chunk=1, template_min=1)  # hi == lo
    @example(points=([7.0], [0.0]), chart="line", chunk=7, template_min=1)  # no point after the first
    @example(points=([0.5, -2.0, 1e300], [0.0, 1.0, 1e-5]), chart="bar", chunk=1, template_min=1)
    @example(points=([1, 2, 10, 300], [0.0, 0.25, 0.0, 1.0]), chart="bar", chunk=7, template_min=1)
    def test_laid_out_svg_marks_equal_the_reference_text(self, points, chart, chunk, template_min):
        """At TEMPLATE_MIN = 1 every chart's marks are laid out, bar charts
        with int and float labels and zero heights among them."""
        xs, ps = points
        payload = {"x": xs, "p": ps, "title": "t", "x_label": "x", "chart": chart}
        with mock.patch.object(_text, "CHUNK", chunk), mock.patch.object(
            _text, "TEMPLATE_MIN", template_min
        ):
            svg = b"".join(cli.emit_pattern_svg(payload, "{}")).decode()
        if chart == "line":
            assert f'<polyline points="{oracles.line_chart_points(xs, ps)}" ' in svg
        else:
            assert svg.endswith("\n" + oracles.bar_chart_marks(xs, ps) + "</svg>\n")

    def test_wide_screen_rows_equal_the_reference_text(self):
        xs, ps = screen_columns()
        payload = {"x": xs[:40000], "p": ps[:40000], "condition": "dminus[theta=0.3]",
                   "title": "t", "x_label": "x", "chart": "line"}
        assert payload["x"].size >= _text.TEMPLATE_MIN
        csv, doc, svg = (b"".join(emit(payload, "{}")).decode() for emit in (
            cli.emit_pattern_csv, cli.emit_pattern_json, cli.emit_pattern_svg))
        assert csv == oracles.pattern_csv(payload, "{}")
        assert doc == oracles.pattern_json(payload, "{}")
        points = oracles.line_chart_points(payload["x"], payload["p"])
        assert f'<polyline points="{points}" ' in svg

    @pytest.mark.parametrize("chunk", [1, 7, _text.CHUNK])
    def test_template_rows_equal_the_percent_rows(self, chunk):
        """The emitters' laid-out rows equal the same emitters' rows by `%`
        per chunk (_text.rows below TEMPLATE_MIN), for float and integer
        index columns, with and without a condition tail, and the polyline
        points and bar marks (int and float labels, zero heights and heights
        below 1e-4 pixels, whose `%.6g` is scientific) equal `%` rows. A
        condition that is not printable but holds no NUL is laid out; one
        with a NUL, which the template would delete, goes through `%`. Each
        chunk size c runs at 1024, c, c + 1 and 2c + 3 rows: for c = 2^14
        the sizes 2^14, 2^14 + 1 and 2 * 2^14 + 3, whose last chunk is
        shorter than the template. Row widths vary inside every chunk, so a
        short row follows a long one in the template's reused rows and any
        byte a row leaves stale shows."""
        rng = np.random.default_rng(chunk)
        for size in sorted({1024, chunk, chunk + 1, 2 * chunk + 3}):
            long = rng.standard_normal(size) * 10.0 ** rng.integers(-9, 21, size)
            short = rng.integers(-9, 10, size) / 4
            floats = np.where(rng.random(size) < 0.5, long, short)
            floats[::101] = 1e-300  # falls back to `%`
            probs = rng.random(size) * 10.0 ** rng.integers(-14, 1, size)
            probs[rng.random(size) < 0.3] = 0.5
            ints = rng.integers(0, 10 ** rng.integers(1, 17, size))
            ints[::89] = -ints[::89] - 1  # negative: falls back to `%`
            with mock.patch.object(_text, "CHUNK", chunk):
                for xs in (floats, ints, np.arange(size)):
                    for emit, condition in (
                        (cli.emit_pattern_csv, "none"),
                        (cli.emit_pattern_csv, "dminus[theta=0.3]"),
                        (cli.emit_pattern_csv, "\x01 50%\t\u2028"),
                        (cli.emit_pattern_csv, "a\0b"),
                        (cli.emit_pattern_json, "none"),
                    ):
                        payload = {"x": xs, "p": probs, "condition": condition}
                        with mock.patch.object(_text, "TEMPLATE_MIN", 1), mock.patch.object(
                            _text, "_template_rows", wraps=_text._template_rows
                        ) as template:
                            laid_out = b"".join(emit(payload, "{}"))
                        assert template.called == ("\0" not in condition)
                        with mock.patch.object(_text, "TEMPLATE_MIN", size + 1):
                            assert laid_out == b"".join(emit(payload, "{}"))
                px = rng.uniform(80.0, 696.0, size)
                py = np.where(rng.random(size) < 0.5, rng.uniform(48.0, 404.0, size), 404.0)
                with mock.patch.object(_text, "TEMPLATE_MIN", 1), mock.patch.object(
                    _text, "_template_rows", wraps=_text._template_rows
                ) as template:
                    points = b"".join(_text.rows((" ", px, ",", py), "%.6g"))
                assert template.called
                with mock.patch.object(_text, "TEMPLATE_MIN", size + 1):
                    assert points == b"".join(_text.rows((" ", px, ",", py), "%.6g"))
                values = rng.random(size)
                values[0] = 1.0
                values[rng.random(size) < 0.3] = 0.0
                values[rng.random(size) < 0.1] *= 1e-7
                for labels in (np.arange(1, size + 1), rng.uniform(-1e3, 1e3, size)):
                    charts = []
                    for template_min in (1, size + 1):
                        with mock.patch.object(_text, "TEMPLATE_MIN", template_min):
                            charts.append(b"".join(_svg.bar_chart(labels, values, "t", "x", "p", "{}")))
                    assert charts[0] == charts[1]


class TestLoweredSimd:
    """The kernel prints the same text with numpy's SIMD dispatch lowered
    (tests/lowered_simd.py). A host with nothing to lower skips."""

    @pytest.mark.skipif(not lowered_targets(), reason="numpy runs at its baseline on this host")
    def test_differential_tests_pass_with_simd_lowered(self):
        run_with_simd_lowered(__file__, "TestDifferential or fallback_share or TestEmitters")
