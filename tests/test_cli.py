import errno
import hashlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import types
from pathlib import Path
from unittest import mock
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from qeraser import _svg, _text, analysis, checks, cli, core, marker, twoslit
from qeraser.errors import ValidationError


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    """Parse an emitted pattern CSV back into (config, header, rows)."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    config = json.loads(lines[0][len("# config: "):])
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return config, header, rows


class TestNChannel:
    def test_eraser_recovery_csv(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code, _, _ = run_cli(
            ["nchannel", "--n", "10", "--preset", "default", "--condition", "dplus",
             "--format", "csv", "--output", str(out)],
            capsys,
        )
        assert code == 0
        config, header, rows = read_csv(out)
        assert header == ["index_or_x", "probability", "condition"]
        assert config["parameters"]["condition"] == "dplus"
        assert len(rows) == 10
        for row in rows:
            j, p = int(row[0]), float(row[1])
            expected = 0.2 if j % 2 == 1 else 0.0
            assert p == pytest.approx(expected, abs=1e-12)
            assert row[2] == "dplus[theta=0]"

    def test_unconditioned_marked_is_uniform(self, tmp_path, capsys):
        out = tmp_path / "flat.csv"
        code, _, _ = run_cli(
            ["nchannel", "--n", "10", "--output", str(out)], capsys
        )
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == ["index_or_x", "probability"]
        assert all(float(row[1]) == pytest.approx(0.1, abs=1e-12) for row in rows)

    def test_bare_state_bright_dark(self, tmp_path, capsys):
        out = tmp_path / "bare.csv"
        code, _, _ = run_cli(
            ["nchannel", "--n", "10", "--bare", "--output", str(out)], capsys
        )
        assert code == 0
        _, _, rows = read_csv(out)
        values = [float(row[1]) for row in rows]
        assert values[0] == pytest.approx(0.2, abs=1e-12)
        assert values[1] == pytest.approx(0.0, abs=1e-12)

    def test_bare_with_condition_is_invalid(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["nchannel", "--bare", "--condition", "dplus", "-o", str(tmp_path / "x.csv")],
            capsys,
        )
        assert code == 3
        assert json.loads(err)["exit_code"] == 3

    def test_csv_round_trip_is_exact(self, tmp_path, capsys):
        out = tmp_path / "rt.csv"
        run_cli(
            ["nchannel", "--n", "6", "--condition", "dplus", "--theta", "0.37",
             "--output", str(out)],
            capsys,
        )
        from qeraser.marker import erasure_basis
        from qeraser.nchannel import conditioned_distribution, default_config, final_state_marked

        state = final_state_marked(default_config(6))
        exact = conditioned_distribution(state, erasure_basis(0.37).plus).probabilities
        _, _, rows = read_csv(out)
        parsed = np.array([float(row[1]) for row in rows])
        assert np.array_equal(parsed, exact)

    def test_custom_phases(self, tmp_path, capsys):
        out = tmp_path / "custom.csv"
        n = 6
        phis = ",".join(str(2 * math.pi * j / n) for j in range(1, n + 1))
        thetas = ",".join("0" for _ in range(n))
        code, _, _ = run_cli(
            ["nchannel", "--preset", "custom", "--thetas", thetas, "--phis", phis,
             "--bare", "--output", str(out)],
            capsys,
        )
        assert code == 0
        _, _, rows = read_csv(out)
        assert len(rows) == n


def one_blas_thread_env() -> dict:
    """The environment for a subprocess that imports this qeraser on one BLAS thread."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_one_blas_thread(tmp_path, n):
    """`nchannel --n n` in a subprocess pinned to one BLAS thread."""
    out = tmp_path / "wide.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "qeraser.cli", "nchannel", "--n", str(n), "--output", str(out)],
        env=one_blas_thread_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(out.read_text().splitlines()) == n + 2


class TestOneBlasThread:
    """One-BLAS-thread runs at 10^5, 3x10^5 and 3x10^6 channels succeed."""

    def test_hundred_thousand_channels(self, tmp_path):
        run_one_blas_thread(tmp_path, 100_000)

    def test_three_hundred_thousand_channels(self, tmp_path):
        """The artifact is written, with one row per detector."""
        run_one_blas_thread(tmp_path, 300_000)

    def test_conditioning_three_million_channels(self):
        """Conditioning on an erasure state raises no normalization error."""
        script = (
            "from qeraser import nchannel\n"
            "from qeraser.marker import erasure_basis\n"
            "state = nchannel.final_state_marked(nchannel.default_config(3_000_000))\n"
            "nchannel.conditioned_distribution(state, erasure_basis(0.0).plus)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=one_blas_thread_env(), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr


class TestBlasThreadCount:
    """Artifacts are the same bytes on one and on two BLAS threads.

    These sizes are past the point where OpenBLAS splits a dot product
    across threads, which changed the last digits while the norms were BLAS
    reductions.
    """

    CASES = {
        "nchannel-1e4": ["nchannel", "--n", "10000"],
        "nchannel-dplus-3e5": ["nchannel", "--n", "300000", "--condition", "dplus", "--theta", "0.3"],
        "twoslit-custom-gaussian-2^18": [
            "twoslit", "--preset", "custom", "--d", "1", "--wavelength", "0.5", "--L", "100",
            "--x-min", "-100", "--x-max", "100", "--bins", str(2**18),
            "--envelope", "gaussian", "--sigma", "40", "--theta", "0.3", "--sign", "minus",
        ],
    }

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 2,
        reason="OpenBLAS caps its threads at the CPU count: one CPU cannot split a reduction",
    )
    @pytest.mark.parametrize("argv", CASES.values(), ids=CASES)
    def test_one_and_two_threads_write_the_same_bytes(self, argv):
        digests = []
        for threads in ("1", "2"):
            env = dict(one_blas_thread_env(), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "qeraser.cli", *argv, "-o", "-"],
                env=env, capture_output=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(hashlib.sha256(proc.stdout).hexdigest())
        assert digests[0] == digests[1]


class TestTwoSlit:
    def test_svg_contains_chart_and_condition(self, tmp_path, capsys):
        out = tmp_path / "fringes.svg"
        code, _, _ = run_cli(
            ["twoslit", "--preset", "default", "--theta", "0", "--sign", "plus",
             "--format", "svg", "--output", str(out)],
            capsys,
        )
        assert code == 0
        text = out.read_text()
        assert text.startswith("<?xml")
        assert "<polyline" in text and "</svg>" in text
        assert "dplus[theta=0]" in text

    def test_washed_pattern_is_flat(self, tmp_path, capsys):
        out = tmp_path / "washed.csv"
        code, _, _ = run_cli(
            ["twoslit", "--kind", "washed", "--output", str(out)], capsys
        )
        assert code == 0
        _, _, rows = read_csv(out)
        values = np.array([float(row[1]) for row in rows])
        assert np.max(np.abs(values - 1.0 / 512)) < 1e-12

    def test_custom_geometry(self, tmp_path, capsys):
        out = tmp_path / "custom.csv"
        code, _, _ = run_cli(
            ["twoslit", "--preset", "custom", "--d", "1", "--wavelength", "0.5",
             "--L", "100", "--x-min", "-100", "--x-max", "100", "--bins", "128",
             "--kind", "bare", "--output", str(out)],
            capsys,
        )
        assert code == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 128

    def test_underflowing_envelope_is_one_json_error(self, tmp_path, capsys):
        code, out, err = run_cli(
            ["twoslit", "--preset", "custom", "--d", "2", "--wavelength", "1",
             "--L", "1000", "--x-min", "1000", "--x-max", "2000", "--bins", "512",
             "--envelope", "gaussian", "--sigma", "1e-3",
             "--output", str(tmp_path / "p.csv")],
            capsys,
        )
        assert code == 3
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "InvalidGeometryError"
        assert error["exit_code"] == 3
        assert not (tmp_path / "p.csv").exists()

    def test_geometry_flags_with_default_preset_rejected(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["twoslit", "--bins", "64", "-o", str(tmp_path / "y.csv")], capsys
        )
        assert code == 3


class TestEpr:
    def test_crossed_basis_json(self, capsys):
        code, out, _ = run_cli(["epr", "--basis1", "z", "--basis2", "x", "--format", "json", "-o", "-"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["row_labels"] == ["up", "down"]
        assert doc["col_labels"] == ["plus", "minus"]
        flat = [p for row in doc["probabilities"] for p in row]
        assert all(p == pytest.approx(0.25, abs=1e-12) for p in flat)

    def test_same_basis_csv(self, tmp_path, capsys):
        out = tmp_path / "zz.csv"
        code, _, _ = run_cli(["epr", "--basis1", "z", "--basis2", "z", "-o", str(out)], capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "row,col,probability"
        row, col, p = lines[2].split(",")
        assert (row, col) == ("up", "up")
        assert float(p) == pytest.approx(0.5, abs=1e-12)

    def test_svg_not_supported_for_tables(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["epr", "--format", "svg", "-o", str(tmp_path / "t.svg")], capsys
        )
        assert code == 3
        assert "svg" in json.loads(err)["message"]


class TestSample:
    def test_log_is_byte_identical_for_same_seed(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sample", "--scenario", "nchannel", "--count", "500", "--seed", "77"]
        assert run_cli(args + ["--output", str(out1)], capsys)[0] == 0
        assert run_cli(args + ["--output", str(out2)], capsys)[0] == 0
        assert out1.read_bytes() == out2.read_bytes()
        out3 = tmp_path / "c.csv"
        run_cli(
            ["sample", "--scenario", "nchannel", "--count", "500", "--seed", "78",
             "--output", str(out3)],
            capsys,
        )
        assert out1.read_bytes() != out3.read_bytes()

    def test_log_shape_and_header(self, tmp_path, capsys):
        out = tmp_path / "events.csv"
        code, _, _ = run_cli(
            ["sample", "--scenario", "twoslit", "--count", "100", "--seed", "5",
             "--order", "marker_first", "--output", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "scenario_id,event_index,system_outcome,marker_outcome,order,seed"
        assert len(lines) == 102
        first = lines[2].split(",")
        assert first[0] == "twoslit-default-erasure-theta0"
        assert first[4] == "marker_first" and first[5] == "5"

    def test_epr_scenario(self, tmp_path, capsys):
        out = tmp_path / "epr_events.csv"
        code, _, _ = run_cli(
            ["sample", "--scenario", "epr", "--basis", "whichpath", "--count", "50",
             "--seed", "1", "--output", str(out)],
            capsys,
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        # whichpath conditioning of the correlated pair: outcomes always match
        assert all(int(r[2]) == int(r[3]) for r in rows)

    @pytest.mark.parametrize("seed", ["-1", "-5", str(2**64), str(2**64 + 3)])
    def test_seed_outside_64_bits_rejected(self, seed, capsys):
        code, out, err = run_cli(
            ["sample", "--count", "5", "--seed", seed, "-o", "-"], capsys
        )
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"] == "ValidationError"

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_ends_accepted(self, seed, capsys):
        code, out, _ = run_cli(
            ["sample", "--count", "5", "--seed", str(seed), "-o", "-"], capsys
        )
        assert code == 0
        assert out.splitlines()[2].endswith(f",{seed}")

    @pytest.mark.parametrize(
        "seed, expected", [(-1, 3), (2**64, 3), ("x", 3), (2**64 - 1, 0), (0, 0)]
    )
    def test_config_file_seed_range(self, tmp_path, capsys, seed, expected):
        path = tmp_path / "sample.json"
        path.write_text(json.dumps({"kind": "sample", "parameters": {"seed": seed, "count": 5}}))
        code, _, err = run_cli(["sample", "--config", str(path), "-o", "-"], capsys)
        assert code == expected
        if expected:
            assert json.loads(err)["error"] == "ValidationError"

    def test_non_csv_format_rejected(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["sample", "--format", "json", "-o", str(tmp_path / "x.json")], capsys
        )
        assert code == 3


#: Runs `qeraser.cli.main(argv[2:])`, then writes the process's VmHWM line to argv[1].
PEAK_LAUNCHER = """
import sys
from qeraser import cli
code = cli.main(sys.argv[2:])
with open("/proc/self/status") as status, open(sys.argv[1], "w") as out:
    out.writelines(line for line in status if line.startswith("VmHWM:"))
sys.exit(code)
"""


def peak_rss_kib(tmp_path, argv) -> int:
    """Peak RSS (VmHWM, KiB) of a `qeraser *argv` process, which must exit 0.

    Not ru_maxrss from wait4: at exec, Linux carries the parent's peak into
    the child's maxrss, so a child of a large pytest process reads at least
    pytest's peak. VmHWM belongs to the address space made at exec.
    """
    peak = tmp_path / "vmhwm.txt"
    with open(tmp_path / "stderr.txt", "w") as err:
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_LAUNCHER, str(peak), *argv],
            env=one_blas_thread_env(), stdout=subprocess.DEVNULL, stderr=err,
        )
    assert proc.returncode == 0, (tmp_path / "stderr.txt").read_text()
    name, kib, unit = peak.read_text().split()
    assert (name, unit) == ("VmHWM:", "kB")
    return int(kib)


def sample_peak_rss_kib(tmp_path, count: int) -> int:
    """Peak RSS (VmHWM, KiB) of a `sample --count count -o <file>` process."""
    rss = peak_rss_kib(tmp_path, ["sample", "--count", str(count), "-o", str(tmp_path / "events.csv")])
    assert len((tmp_path / "events.csv").read_text().splitlines()) == count + 2
    return rss


def test_peak_rss_is_the_childs_own(tmp_path):
    """A large pytest process does not raise the peak read for its child."""
    ballast = np.ones(2**25)  # 256 MiB, every page touched
    peak = peak_rss_kib(tmp_path, ["nchannel", "--n", "4", "-o", os.devnull])
    assert ballast.sum() == 2**25
    assert peak < 128 * 1024, peak


class FullDisk(io.FileIO):
    """A binary file whose writes fail with ENOSPC once one chunk is written."""

    def write(self, data):
        if self.tell():
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(data)


class TestStreamedLog:
    """The event log is written chunk by chunk, in place."""

    def test_peak_memory_does_not_grow_with_count(self, tmp_path):
        small = sample_peak_rss_kib(tmp_path, 100_000)
        large = sample_peak_rss_kib(tmp_path, 2_000_000)
        assert large <= 1.25 * small, (small, large)

    def test_dev_null_is_written_through(self, capsys):
        code, out, err = run_cli(["sample", "--count", "1000", "-o", os.devnull], capsys)
        assert (code, out, err) == (0, os.devnull + "\n", "")
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_write_error_after_first_chunk_is_exit_4(self, tmp_path, capsys, monkeypatch):
        def full_disk_open(path, mode):
            assert mode == "wb"
            return FullDisk(path, mode)

        monkeypatch.setattr(cli, "open", full_disk_open, raising=False)
        monkeypatch.setattr(_text, "CHUNK", 7)
        out = tmp_path / "events.csv"
        code, stdout, err = run_cli(["sample", "--count", "100", "-o", str(out)], capsys)
        assert code == 4
        assert stdout == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "OSError",
            "message": f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}",
            "exit_code": 4,
        }
        # The partial file holds what was written before the error: the config line.
        assert out.read_text().startswith("# config: ")
        assert out.read_text().count("\n") == 1


def run_with_stdout_encoding(tmp_path, encoding, argv):
    """`qeraser argv` in a subprocess in tmp_path whose stdout has the given encoding."""
    env = dict(one_blas_thread_env(), PYTHONIOENCODING=encoding)
    return subprocess.run(
        [sys.executable, "-m", "qeraser.cli", *argv],
        cwd=tmp_path, env=env, capture_output=True, timeout=60,
    )


class TestUnencodableStdout:
    """What stdout cannot encode never ends in a traceback."""

    def test_written_path_prints_escaped(self, tmp_path):
        name = os.fsdecode(b"o\xfe.csv")  # not UTF-8: the byte decodes to a lone surrogate
        proc = run_with_stdout_encoding(tmp_path, "utf-8", ["nchannel", "--n", "4", "-o", name])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"o\\udcfe.csv\n", b"")
        assert (tmp_path / name).read_text().startswith("# config: ")

    def test_artifact_is_exit_4(self, tmp_path):
        argv = ["sample", "--scenario-id", "é", "--count", "1", "-o", "-"]
        proc = run_with_stdout_encoding(tmp_path, "ascii", argv)
        assert proc.returncode == 4
        lines = proc.stderr.decode().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert (error["error"], error["exit_code"]) == ("UnicodeEncodeError", 4)


WIDE_SCREEN = [
    "twoslit", "--preset", "custom", "--d", "2", "--wavelength", "1", "--L", "1000",
    "--x-min=-2000", "--x-max", "2000",
]


@pytest.mark.parametrize("argv", [
    ["sample", "--count", "20001", "--scenario-id", "é"],
    [*WIDE_SCREEN, "--bins", "4096", "--format", "json"],
], ids=["event_log", "twoslit_json"])
def test_stdout_gets_the_bytes_of_the_file(tmp_path, argv):
    """Under a UTF-8 stdout, `-o -` writes the artifact's bytes as `-o file` does."""
    streamed = run_with_stdout_encoding(tmp_path, "utf-8", [*argv, "-o", "-"])
    written = run_with_stdout_encoding(tmp_path, "utf-8", [*argv, "-o", "a"])
    assert (streamed.returncode, streamed.stderr, written.returncode) == (0, b"", 0)
    assert streamed.stdout == (tmp_path / "a").read_bytes()


FINITE = st.floats(allow_nan=False, allow_infinity=False)
#: Config echoes as cli._config_echo writes them: sorted keys, nested values.
ECHOES = st.dictionaries(
    st.text(max_size=5),
    st.one_of(FINITE, st.integers(), st.text(max_size=5), st.lists(FINITE, max_size=3), st.just({})),
    max_size=4,
).map(lambda parameters: json.dumps({"kind": "twoslit", "parameters": parameters}, sort_keys=True))


def joined(chunks) -> bytes:
    chunks = list(chunks)
    assert all(chunks)
    return b"".join(chunks)


class TestStreamedPatterns:
    """Patterns are formatted chunk by chunk, byte-equal to one-row-per-call formatting."""

    @given(
        columns=st.integers(1, 40).flatmap(
            lambda n: st.tuples(
                st.one_of(
                    st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n),
                    st.lists(FINITE, min_size=n, max_size=n),
                ),
                st.lists(FINITE, min_size=n, max_size=n),
            )
        ),
        condition=st.one_of(st.sampled_from(["none", "d1", "dplus[theta=0.5]"]), st.text()),
        chunk=st.sampled_from([1, 7, _text.CHUNK, "above count"]),
        echo=ECHOES,
    )
    @example(columns=([1, 2, 3], [0.5, 0.25, 0.25]), condition="50% {x} ü", chunk=1, echo="{}")
    @example(columns=([-0.0, 1e-310], [0.0, 1.0]), condition="%s %% %(a)d", chunk=7, echo="{}")
    def test_chunks_join_to_the_reference_text(self, columns, condition, chunk, echo):
        xs, ps = columns
        payload = {"x": xs, "p": ps, "condition": condition}
        size = len(xs) + 1 if chunk == "above count" else chunk
        with mock.patch.object(_text, "CHUNK", size):
            csv = joined(cli.emit_pattern_csv(payload, echo))
            doc = joined(cli.emit_pattern_json(payload, echo))
        assert csv == oracles.pattern_csv(payload, echo).encode()
        assert doc == oracles.pattern_json(payload, echo).encode()

    def test_rows_per_chunk(self, monkeypatch):
        monkeypatch.setattr(_text, "CHUNK", 7)
        payload = {"x": list(range(1, 16)), "p": [1 / 15] * 15, "condition": "none"}
        chunks = list(cli.emit_pattern_csv(payload, "{}"))
        assert [chunk.count(b"\n") for chunk in chunks] == [2, 7, 7, 1]

    @given(
        points=st.integers(1, 30).flatmap(
            lambda n: st.tuples(
                st.one_of(
                    st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n),
                    st.lists(st.integers(-1000, 1000), min_size=n, max_size=n),
                ),
                st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
            )
        ),
    )
    @example(points=([3.5, 3.5, 3.5], [0.2, 0.5, 0.3]))  # constant xs: hi == lo
    @example(points=([-1.0, 0.0, 1.0], [0.0, 0.0, 0.0]))
    @example(points=([7], [0.0]))
    def test_line_chart_points_equal_the_per_point_reference(self, points):
        xs, ys = points
        chart = b"".join(_svg.line_chart(xs, ys, "t <&>", "x", "probability", "config: {}")).decode()
        assert chart.count("<polyline ") == 1
        assert f'<polyline points="{oracles.line_chart_points(xs, ys)}" ' in chart

    @given(
        bars=st.integers(1, 40).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n),
                st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
            )
        ),
        chunk=st.sampled_from([1, 7, _text.CHUNK, "above count"]),
    )
    @example(bars=(list(range(1, 11)), [0.2, 0.0] * 5), chunk=7)
    @example(bars=([1, 2, 3], [0.0, 0.0, 0.0]), chunk=1)
    @example(bars=([5], [5e-324]), chunk="above count")
    def test_bar_chart_marks_equal_the_per_detector_reference(self, bars, chunk):
        labels, values = bars
        size = len(values) + 1 if chunk == "above count" else chunk
        with mock.patch.object(_text, "CHUNK", size):
            chart = joined(_svg.bar_chart(labels, values, "t <&>", "x", "probability", "{}"))
        marks = oracles.bar_chart_marks(labels, values)
        assert chart.endswith(("\n" + marks + "</svg>\n").encode())
        assert chart.count(b"<rect ") == len(values) + 1  # the bars and the background

    @given(st.text())
    @example("a & b <c> &amp; ]]> \"'")
    def test_escape_equals_saxutils(self, text):
        assert _svg.escape(text) == escape(text)

    def test_cli_import_skips_the_xml_and_network_modules(self):
        script = (
            "import sys, qeraser.cli\n"
            "print([m for m in ('xml.sax.saxutils', 'urllib.request', 'ssl') if m in sys.modules])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=one_blas_thread_env(), capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr

    @pytest.mark.parametrize(
        "x, p",
        [
            ([0.0, math.inf], [0.5, 0.5]),
            ([0.0, math.nan], [0.5, 0.5]),
            ([1, 2], [math.nan, 1.0]),
            ([1, 2], [0.5, math.inf]),
            (["a", "b"], [0.5, 0.5]),
        ],
    )
    def test_bad_columns_raise_before_any_chunk(self, x, p):
        payload = {"x": x, "p": p, "condition": "none",
                   "x_label": "x", "title": "t", "chart": "line"}
        for emit in (cli.emit_pattern_csv, cli.emit_pattern_json, cli.emit_pattern_svg):
            with pytest.raises(ValidationError):
                emit(payload, "{}")

    @pytest.mark.parametrize("order", analysis.ORDERS)
    def test_range_row_labels_write_the_bytes_of_a_tuple(self, monkeypatch, order):
        """A range of row labels reads like the tuple it replaces."""
        state = twoslit.marked_state(twoslit.default_grid())
        basis = marker.erasure_basis(0.8)
        labels = tuple(range(state.system_dim))
        memoized = analysis.joint_distribution(state, basis, order)
        listed = analysis.joint_distribution(state, basis, order, system_labels=labels)
        assert isinstance(memoized.row_labels, range) and listed.row_labels == labels
        for emit in (cli.emit_joint_csv, cli.emit_joint_json):
            assert b"".join(emit(memoized, "{}")) == b"".join(emit(listed, "{}"))
        logs = [
            b"".join(analysis.event_log_chunks(state, basis, order, 70000, 9, "s", system_labels))
            for system_labels in (None, labels)
        ]
        assert logs[0] == logs[1] == oracles.event_log(listed, 70000, 9, "s", order).encode()
        # 1-based, as sample's detectors 1..n: a range's labels are ints
        # already, so core._integer runs O(1) times, not once per label.
        integer, calls = core._integer, []
        monkeypatch.setattr(core, "_integer", lambda *args: calls.append(args) or integer(*args))
        one_based = range(1, state.system_dim + 1)
        logs, counts = [], []
        for system_labels in (one_based, list(one_based)):
            calls.clear()
            chunks = analysis.event_log_chunks(state, basis, order, 70000, 9, "s", system_labels)
            logs.append(b"".join(chunks))
            counts.append(len(calls))
        assert counts[0] <= 2 and counts[1] >= state.system_dim, counts
        listed = analysis.joint_distribution(state, basis, order, system_labels=list(one_based))
        assert logs[0] == logs[1] == oracles.event_log(listed, 70000, 9, "s", order).encode()

    @pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
    def test_peak_memory_grows_little_with_bins(self, tmp_path, fmt):
        def rss(bins):
            argv = WIDE_SCREEN + ["--bins", str(bins), "--format", fmt, "-o", os.devnull]
            return peak_rss_kib(tmp_path, argv)

        small, large = rss(100_000), rss(1_000_000)
        assert large - small <= 140 * 1024, (small, large)

    def test_bar_chart_peak_memory_near_csv(self, tmp_path):
        def rss(fmt):
            argv = ["nchannel", "--n", "1000000", "--format", fmt, "-o", os.devnull]
            return peak_rss_kib(tmp_path, argv)

        csv, svg = rss("csv"), rss("svg")
        assert svg <= 1.3 * csv, (csv, svg)

    def test_event_log_peak_memory_near_pattern(self, tmp_path):
        """sample's per-cell text of a 10^6-detector table costs about one pattern."""
        sample = ["sample", "--n", "1000000", "--count", "10", "-o", os.devnull]
        events = peak_rss_kib(tmp_path, sample)
        pattern = peak_rss_kib(tmp_path, ["nchannel", "--n", "1000000", "-o", os.devnull])
        assert events <= 2.3 * pattern, (pattern, events)


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = {
            "kind": "nchannel",
            "parameters": {"n": 4, "condition": "dminus"},
            "output": "json",
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "result.json"
        code, _, _ = run_cli(
            ["nchannel", "--config", str(path), "--n", "6", "--output", str(out)],
            capsys,
        )
        assert code == 0
        doc = json.loads(out.read_text())
        # flag wins over file for n; file value survives for condition
        assert doc["config"]["parameters"]["n"] == 6
        assert doc["config"]["parameters"]["condition"] == "dminus"
        assert len(doc["index_or_x"]) == 6

    def test_unknown_parameter_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "nchannel", "parameters": {"m": 3}}))
        code, _, err = run_cli(["nchannel", "--config", str(path)], capsys)
        assert code == 3
        assert "unknown parameter" in json.loads(err)["message"]

    def test_kind_mismatch_rejected(self, tmp_path, capsys):
        path = tmp_path / "kind.json"
        path.write_text(json.dumps({"kind": "twoslit"}))
        code, _, _ = run_cli(["nchannel", "--config", str(path)], capsys)
        assert code == 3

    def test_malformed_json_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(["nchannel", "--config", str(path)], capsys)
        assert code == 2
        assert json.loads(err)["exit_code"] == 2

    def test_unknown_flag_is_parse_error(self, capsys):
        code, _, err = run_cli(["nchannel", "--wat", "1"], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "_ParseExit"

    def test_artifacts_are_byte_identical(self, tmp_path, capsys):
        args = ["twoslit", "--theta", "0.25", "--sign", "minus", "--format", "json"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(args + ["-o", str(a)], capsys)
        run_cli(args + ["-o", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_default_output_honors_env_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path))
        code, out, _ = run_cli(["epr", "--basis1", "x", "--basis2", "x"], capsys)
        assert code == 0
        expected = tmp_path / "epr_xx.csv"
        assert expected.exists()
        assert str(expected) in out

    def test_stdout_output(self, capsys):
        code, out, _ = run_cli(["nchannel", "--n", "4", "-o", "-"], capsys)
        assert code == 0
        assert out.splitlines()[1] == "index_or_x,probability"


class TestEmitters:
    def test_empty_pattern_rejected(self):
        from qeraser.errors import ValidationError

        payload = {"x": [], "p": [], "condition": "none",
                   "x_label": "x", "title": "t", "chart": "line"}
        for emit in (cli.emit_pattern_csv, cli.emit_pattern_json, cli.emit_pattern_svg):
            with pytest.raises(ValidationError):
                emit(payload, "{}")

    @pytest.mark.parametrize(
        "x, p",
        [
            ([0.0, 1.0, 2.0], [0.5, 0.5]),
            ([1, 2], [0.2, 0.3, 0.5]),
            (np.linspace(0.0, 1.0, 2000), np.full(1000, 1e-3)),
            ([], [1.0]),
            ([[0.0, 1.0]], [0.5, 0.5]),
            ([[0.0], [1.0]], [[0.5], [0.5]]),
            (0.0, [1.0]),
        ],
    )
    def test_columns_of_other_shapes_raise_before_any_chunk(self, x, p):
        """x and p must be 1-D columns of one length, on every emitter."""
        payload = {"x": x, "p": p, "condition": "none",
                   "x_label": "x", "title": "t", "chart": "line"}
        for emit in (cli.emit_pattern_csv, cli.emit_pattern_json, cli.emit_pattern_svg):
            with pytest.raises(ValidationError, match="1-D columns of one length"):
                emit(payload, "{}")


class TestCheck:
    def test_check_passes(self, capsys):
        code, out, _ = run_cli(["check"], capsys)
        assert code == 0
        assert "9/9 checks passed" in out
        assert "FAIL" not in out

    def test_shared_inputs_are_built_once(self):
        with mock.patch.object(twoslit, "build_grid", wraps=twoslit.build_grid) as build_grid:
            checks.run_checks()
        assert build_grid.call_count == 1

    def test_over_unity_screen_fidelity_fails(self, monkeypatch):
        condition = core.condition_on_system

        def over_unity(state):
            weights, conditionals = condition(state)
            return weights, conditionals * (1 + 1e-9)

        # Only checks sees the fault: the joint tables would reject it.
        seen = types.SimpleNamespace(**{**vars(core), "condition_on_system": over_unity})
        monkeypatch.setattr(checks, "core", seen)
        results = {result.name: result for result in checks.run_checks()}
        assert not results["delayed definiteness (screen)"].passed


CUSTOM_SCREEN = {"preset": "custom", "d": 1, "wavelength": 0.5, "L": 100,
                 "x_min": -100, "x_max": 100, "bins": 128}


def _file(command, **parameters):
    return {"kind": command, "parameters": parameters}


# Inputs the parameter types must reject before anything runs:
# name -> (argv, config file contents or None).
ERROR_CONTRACT_CASES = {
    "count-string": (["sample"], _file("sample", count="abc")),
    "n-string": (["nchannel"], _file("nchannel", n="ten")),
    "bins-string": (["twoslit"], _file("twoslit", **{**CUSTOM_SCREEN, "bins": "many"})),
    "theta-string": (["nchannel"], _file("nchannel", condition="dplus", theta="x")),
    "sigma-string": (["twoslit"], _file("twoslit", envelope="gaussian", sigma="wide")),
    "sign-unknown": (["twoslit"], _file("twoslit", sign="up")),
    "order-unknown": (["sample"], _file("sample", order="sideways")),
    "basis1-list": (["epr"], _file("epr", basis1=["z"])),
    "scenario-id-number": (["sample"], _file("sample", scenario_id=5)),
    "output-path-number": (["epr"], {"kind": "epr", "output_path": 5}),
    "thetas-flag-not-numbers": (
        ["nchannel", "--preset", "custom", "--thetas", "a,b", "--phis", "0,1"], None
    ),
    "count-float": (["sample"], _file("sample", count=5.7)),
    "bare-string": (["nchannel"], _file("nchannel", bare="false")),
    "sign-symbol-in-file": (["twoslit"], _file("twoslit", sign="+")),
    "sample-twoslit-phase-params": (
        ["sample", "--scenario", "twoslit", "--n", "4", "--preset", "custom", "--count", "2"],
        None,
    ),
    "sample-epr-thetas": (["sample", "--scenario", "epr", "--thetas", "1,2"], None),
    "sample-count-above-limit": (["sample", "--count", "1000000000000"], None),
    "nchannel-n-above-limit": (["nchannel", "--n", "1000000000000"], None),
    "twoslit-bins-above-limit": (
        ["twoslit", "--preset", "custom", "--d", "1", "--wavelength", "0.5", "--L", "100",
         "--x-min", "-100", "--x-max", "100", "--bins", "1000000000000"],
        None,
    ),
    # A parameter that has no effect under the other settings.
    "twoslit-bare-sign-theta": (
        ["twoslit", "--kind", "bare", "--sign", "minus", "--theta", "0.9"], None
    ),
    "twoslit-flat-sigma": (["twoslit", "--envelope", "flat", "--sigma", "3"], None),
    "nchannel-d1-theta": (["nchannel", "--condition", "d1", "--theta", "0.5"], None),
    # NUL bytes cannot reach a file name; only a config file can carry them.
    "scenario-id-nul": (["sample"], _file("sample", scenario_id="a\u0000b")),
    "output-path-nul": (["epr"], {"kind": "epr", "output_path": "x\u0000y"}),
    # scenario_id is the default file stem and a log field.
    "scenario-id-escape": (["sample"], _file("sample", scenario_id="x/../../escaped")),
    "scenario-id-cr": (["sample"], _file("sample", scenario_id="a\rb")),
    # Screen geometries whose float arithmetic overflows or underflows.
    "twoslit-phase-overflow": (
        ["twoslit", "--preset", "custom", "--d", "1e300", "--wavelength", "1", "--L", "1",
         "--x-min=-1e10", "--x-max", "1e10", "--bins", "4"],
        None,
    ),
    "twoslit-wavelength-L-underflow": (
        ["twoslit", "--preset", "custom", "--d", "1", "--wavelength", "1e-200", "--L", "1e-200",
         "--x-min=-1", "--x-max", "1", "--bins", "4"],
        None,
    ),
    "twoslit-phase-scale-overflow": (
        ["twoslit", "--preset", "custom", "--d", "1", "--wavelength", "1e-320", "--L", "1",
         "--x-min=-1", "--x-max", "1", "--bins", "4"],
        None,
    ),
    "twoslit-span-overflow": (
        ["twoslit", "--preset", "custom", "--d", "1", "--wavelength", "1", "--L", "1",
         "--x-min=-1e308", "--x-max", "1.7e308", "--bins", "4"],
        None,
    ),
    "twoslit-sigma-underflow": (["twoslit", "--envelope", "gaussian", "--sigma", "1e-300"], None),
    "twoslit-bin-width-subnormal": (
        ["twoslit", "--preset", "custom", "--d", "1", "--wavelength", "1", "--L", "1",
         "--x-min", "0", "--x-max", "1e-320", "--bins", "2"],
        None,
    ),
    # JSON has no NaN or Infinity, so the config echo must never carry one.
    "theta-flag-nan": (["sample", "--basis", "whichpath", "--theta", "nan", "--count", "2"], None),
    "theta-flag-overflow": (["sample", "--basis", "whichpath", "--theta=-1e400"], None),
    "theta-infinity-in-file": (["sample"], _file("sample", basis="whichpath", theta=math.inf)),
    "nchannel-phase-difference-overflow": (
        ["nchannel"],
        _file("nchannel", preset="custom", thetas=[1e308, 0.0], phis=[-1e308, math.pi]),
    ),
}

# Config files that cannot be read as JSON at all end like malformed JSON:
# name -> raw bytes of the file.
UNREADABLE_CONFIG_CASES = {
    "config-not-utf8": b"\xff\xfe{}",
    "config-nested-too-deep": b"[" * 10**5 + b"]" * 10**5,
}


def assert_one_json_error(tmp_path, monkeypatch, capsys, argv, config):
    """Run argv; require exit 3, one JSON line on stderr, no output at all."""
    out_dir = tmp_path / "out"
    monkeypatch.setenv(cli.ENV_OUT_DIR, str(out_dir))
    monkeypatch.chdir(tmp_path)
    argv = list(argv)
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv += ["--config", "config.json"]
    code, out, err = run_cli(argv, capsys)
    assert code == 3, err
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["exit_code"] == 3
    assert not out_dir.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == (["config.json"] if config else [])
    return error


class TestErrorContract:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name", sorted(ERROR_CONTRACT_CASES))
    def test_bad_input_is_one_json_error(self, name, tmp_path, monkeypatch, capsys):
        argv, config = ERROR_CONTRACT_CASES[name]
        assert_one_json_error(tmp_path, monkeypatch, capsys, argv, config)

    @pytest.mark.parametrize("name", sorted(UNREADABLE_CONFIG_CASES))
    def test_unreadable_config_is_one_parse_error(self, name, tmp_path, monkeypatch, capsys):
        out_dir = tmp_path / "out"
        monkeypatch.setenv(cli.ENV_OUT_DIR, str(out_dir))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "config.json").write_bytes(UNREADABLE_CONFIG_CASES[name])
        code, out, err = run_cli(["nchannel", "--config", "config.json"], capsys)
        assert code == 2, err
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["exit_code"] == 2 and error["error"] == "_ParseExit"
        assert "config.json" in error["message"]
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "kind, param",
        [(kind, param) for kind, scenario in cli.SCENARIOS.items() for param in scenario.params],
        ids=lambda value: getattr(value, "name", value),
    )
    def test_wrong_json_kind_for_every_parameter(
        self, kind, param, tmp_path, monkeypatch, capsys
    ):
        """A string for numbers, a number for strings, a string for bools, a list."""
        if param.type in (int, float):
            wrong = ["1", [1]]
        elif param.type is bool:
            wrong = ["true", [True]]
        elif param.type is list:
            wrong = [1, ["0"]]
        else:
            wrong = [1, [param.choices[0] if param.choices else "x"]]
        for value in wrong:
            config = _file(kind, **{param.name: value})
            error = assert_one_json_error(tmp_path, monkeypatch, capsys, [kind], config)
            assert repr(param.name) in error["message"]


def _non_default_value(param):
    """A value the parameter accepts that differs from its default."""
    if param.choices:
        return next(choice for choice in param.choices if choice != param.default)
    return {int: 4, float: 0.5, bool: True, list: [0.0, 0.0], str: "x"}[param.type]


GATED_PARAMS = [
    (kind, param)
    for kind, scenario in cli.SCENARIOS.items()
    for param in scenario.params
    if param.when
]


class TestApplicability:
    @pytest.mark.parametrize(
        "kind, param", GATED_PARAMS, ids=lambda value: getattr(value, "name", value)
    )
    def test_parameter_outside_its_condition_is_rejected(
        self, kind, param, tmp_path, monkeypatch, capsys
    ):
        other_name, values = param.when
        other = next(p for p in cli.SCENARIOS[kind].params if p.name == other_name)
        outside = next(v for v in (other.choices or (True, False)) if v not in values)
        value = _non_default_value(param)
        config = _file(kind, **{param.name: value, other_name: outside})
        error = assert_one_json_error(tmp_path, monkeypatch, capsys, [kind], config)
        assert repr(param.name) in error["message"]
        assert "applies only when" in error["message"]

        inside = _file(kind, **{param.name: value, other_name: values[0]})
        (tmp_path / "config.json").write_text(json.dumps(inside))
        code, _, err = run_cli([kind, "--config", str(tmp_path / "config.json"), "-o", "-"], capsys)
        assert code == 0 or "applies only when" not in json.loads(err)["message"]

    def test_explicit_defaults_are_accepted_and_echoed_alike(self, capsys):
        code, plain, _ = run_cli(["twoslit", "--kind", "bare", "-o", "-"], capsys)
        assert code == 0
        code, explicit, _ = run_cli(
            ["twoslit", "--kind", "bare", "--sign", "plus", "--theta", "0", "-o", "-"], capsys
        )
        assert code == 0
        assert explicit == plain


#: Flags, each written with `=`, under which every float and list parameter applies.
ALL_APPLICABLE = {
    "nchannel": ["--preset=custom", "--thetas=0,0", "--phis=0,0", "--condition=dplus"],
    "twoslit": ["--preset=custom", "--d=1", "--wavelength=0.5", "--L=100", "--x-min=-50",
                "--x-max=50", "--bins=64", "--envelope=gaussian", "--sigma=20"],
    "sample": ["--preset=custom", "--thetas=0,0", "--phis=0,0", "--count=50"],
}
NUMBER_PARAMS = [
    (kind, param)
    for kind, scenario in cli.SCENARIOS.items()
    for param in scenario.params
    if param.type in (float, list)
]


class TestNegativeValues:
    @pytest.mark.parametrize(
        "kind, param", NUMBER_PARAMS, ids=lambda value: getattr(value, "name", value)
    )
    def test_space_and_equals_spellings_agree(self, kind, param, capsys):
        """`--flag -2e-1` is the value -0.2, as `--flag=-2e-1` is, and never a parse error.

        Where the value is out of range (a negative length or sigma), both
        spellings give the same one JSON error.
        """
        flag = "--" + param.name.replace("_", "-")
        value = "-3.141592653589793,0" if param.type is list else "-2e-1"
        argv = [kind, *ALL_APPLICABLE[kind]]
        spaced = run_cli([*argv, flag, value, "-o", "-"], capsys)
        joined = run_cli([*argv, f"{flag}={value}", "-o", "-"], capsys)
        assert spaced == joined
        assert spaced[0] in (0, 3)
