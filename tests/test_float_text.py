"""The byte-laid float text of pattern CSV and JSON against Python's own `%`.

_float_text.text_block must print exactly `"%.17g" % v` and `repr(v)`:
these differential tests cover random doubles, every power of two and its
neighbours (exact 17-digit ties such as 2**-25 among them), zeros,
subnormals, the edges between fixed and scientific notation and the
doubles next to every power of ten, where the first guess of the decimal
exponent can be one off.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from qeraser import _float_text, analysis, cli, twoslit

FINITE = st.floats(allow_nan=False, allow_infinity=False)


def expected(values, shortest):
    return ["%r" % v if shortest else "%.17g" % v for v in np.asarray(values).tolist()]


def texts(values, shortest):
    block = _float_text.text_block(np.asarray(values, np.float64), shortest)
    assert block.shape == (len(values), _float_text.WIDTH)
    return [bytes(row[row != 0]).decode() for row in block]


def assert_same_text(values):
    for shortest in (False, True):
        assert texts(values, shortest) == expected(values, shortest)


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
        assert texts([2.0**-25], False) == ["2.9802322387695312e-08"]

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
        values = np.random.default_rng(5).standard_normal(3 * _float_text._PIECE + 17) ** 7
        assert_same_text(values)


def screen_columns():
    """Positions and probabilities of a 2^18-bin gaussian two-slit screen."""
    geometry = twoslit.ScreenGeometry(1.0, 0.5, 100.0, -100.0, 100.0, 2**18)
    grid = twoslit.build_grid(geometry, "gaussian", 40.0)
    pattern, _ = twoslit.pattern_conditioned(grid, 0.3, "minus")
    return grid.positions, pattern.probabilities


@pytest.mark.parametrize("shortest", [False, True], ids=["%.17g", "repr"])
def test_fallback_share_on_a_wide_screen(shortest):
    """At most 1% of a real pattern's cells are printed by `%`."""
    for column in screen_columns():
        assert _float_text._decimal(column, shortest)[2].mean() <= 0.01


def test_table_is_built_on_first_use_not_at_import():
    code = (
        "import qeraser.cli\n"
        "from qeraser import _float_text\n"
        "assert _float_text._tables.cache_info().currsize == 0\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class TestEmitters:
    """Pattern CSV and JSON through the laid-out rows equal the reference text."""

    @given(
        columns=st.integers(1, 40).flatmap(
            lambda n: st.tuples(
                st.lists(FINITE, min_size=n, max_size=n), st.lists(FINITE, min_size=n, max_size=n)
            )
        ),
        condition=st.one_of(st.sampled_from(["none", "d1", "50% {x} ü"]), st.text()),
        chunk=st.sampled_from([1, 7, analysis._EVENT_CHUNK]),
    )
    def test_laid_out_rows_equal_the_reference_text(self, columns, condition, chunk):
        xs, ps = columns
        payload = {"x": xs, "p": ps, "condition": condition}
        echo = json.dumps({"kind": "twoslit", "parameters": {}})
        with mock.patch.object(analysis, "_EVENT_CHUNK", chunk), mock.patch.object(
            cli, "FLOAT_TEXT_MIN", 1
        ):
            csv = "".join(cli.emit_pattern_csv(payload, echo))
            doc = "".join(cli.emit_pattern_json(payload, echo))
        assert csv == oracles.pattern_csv(payload, echo)
        assert doc == oracles.pattern_json(payload, echo)

    def test_wide_screen_rows_equal_the_reference_text(self):
        xs, ps = screen_columns()
        payload = {"x": xs[:40000], "p": ps[:40000], "condition": "dminus[theta=0.3]"}
        assert payload["x"].size >= cli.FLOAT_TEXT_MIN
        assert "".join(cli.emit_pattern_csv(payload, "{}")) == oracles.pattern_csv(payload, "{}")
        assert "".join(cli.emit_pattern_json(payload, "{}")) == oracles.pattern_json(payload, "{}")


def src_env(**extra) -> dict:
    """The environment for a subprocess that imports this qeraser."""
    src = str(Path(_float_text.__file__).resolve().parents[1])
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def lowered_targets() -> dict:
    """Each dispatch level below the host's -> the host's numpy SIMD targets above it."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x, which has no numpy._core: skip
        return {}
    dispatch = list(__cpu_dispatch__)  # lowest first
    if "X86_V3" not in dispatch:  # not an x86-64 build
        return {}
    levels = {"X86_V3": dispatch[dispatch.index("X86_V3") + 1 :], "X86_V2": dispatch}
    lowered = {}
    for level, above in levels.items():
        targets = [target for target in above if __cpu_features__.get(target)]
        if targets:
            lowered[level] = targets
    return lowered


class TestLoweredSimd:
    """The kernel prints the same text with numpy's SIMD dispatch lowered.

    numpy picks its loops by CPU (AVX-512, AVX2, ...); NPY_DISABLE_CPU_FEATURES
    lowers the dispatch of one process, down to X86_V3 and to the X86_V2
    baseline where the host has more. A host with nothing to lower skips.
    """

    @pytest.mark.skipif(not lowered_targets(), reason="numpy runs at its baseline on this host")
    def test_differential_tests_pass_with_simd_lowered(self):
        for level, targets in lowered_targets().items():
            env = src_env(NPY_DISABLE_CPU_FEATURES=" ".join(targets))
            check = (
                "from numpy._core._multiarray_umath import __cpu_features__ as f\n"
                f"assert not any(f.get(t) for t in {targets!r}), f\n"
            )
            proc = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True)
            assert proc.returncode == 0, (level, proc.stderr)
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
                 "-k", "TestDifferential or fallback_share or TestEmitters"],
                env=env, capture_output=True, text=True, timeout=600,
                cwd=Path(__file__).resolve().parents[1],
            )
            assert proc.returncode == 0, (level, proc.stdout[-3000:], proc.stderr[-3000:])
