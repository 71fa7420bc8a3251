import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qeraser import cli


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


class TestOneBlasThread:
    def test_hundred_thousand_channels(self, tmp_path):
        """The state norm check must not depend on the BLAS thread count."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / "wide.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "qeraser.cli", "nchannel", "--n", "100000",
             "--output", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert len(out.read_text().splitlines()) == 100002


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


class TestCheck:
    def test_check_passes(self, capsys):
        code, out, _ = run_cli(["check"], capsys)
        assert code == 0
        assert "9/9 checks passed" in out
        assert "FAIL" not in out


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
    "nchannel-phase-difference-overflow": (
        ["nchannel"],
        _file("nchannel", preset="custom", thetas=[1e308, 0.0], phis=[-1e308, math.pi]),
    ),
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
