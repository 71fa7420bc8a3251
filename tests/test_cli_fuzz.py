"""Fuzz gate of the CLI error contract, drawn from `cli.SCENARIOS`.

Each example picks a subcommand, a random subset of its parameters and a
value for each, taken from the parameter's type and choices or from junk
("abc", "", nan, +-inf, 1e308, 1e-320, NUL strings, lists). Values go on
the command line or into a config file; the artifact goes to stdout, to
a config-file output path or under $QERASER_OUT_DIR. Every example must
end in one of two ways:

- exit 0 with a non-empty artifact whose config echo is strict JSON (no
  NaN, Infinity or -Infinity), and nothing on stderr;
- exit 2, 3 or 4 with exactly one JSON object on stderr carrying the same
  exit code, nothing on stdout and no file written.

Every warning raised while `main` runs is an error, so a numpy
RuntimeWarning printed ahead of the JSON line fails the gate. (The filter
is set around `main` rather than by a filterwarnings mark: a mark also
covers hypothesis's failure report, whose imports warn and would turn a
failing example into a pytest INTERNALERROR.) n, bins and count are drawn up to 4096 only to
bound the run time. The one-BLAS-thread norm defect at n = 3x10^5
(ROADMAP item 5) lies outside that bound and stays open.
"""

import io
import json
import math
import os
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock
from xml.sax.saxutils import unescape

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qeraser import cli

SIZE_PARAMS = {"n", "bins", "count"}
EXTREME_FLOATS = [0.0, 1e-320, 1e-300, 1e-200, 1e300, 1e308, -1e308, 1.7e308,
                  math.nan, math.inf, -math.inf]
JUNK = st.sampled_from(["abc", "", "\0", "a\0b", [], [1, "x"], [math.nan], 2**70, True, None]
                       + EXTREME_FLOATS)
extremes = st.sampled_from(EXTREME_FLOATS)
floats = st.one_of(
    st.floats(-10.0, 10.0),
    st.floats(1e-3, 1e4),
    extremes,
    st.floats(),
)
#: Draws for a full custom geometry: mostly plausible, sometimes extreme.
GEOMETRY = {
    "d": st.floats(1e-2, 1e3),
    "wavelength": st.floats(1e-2, 1e3),
    "L": st.floats(1e-2, 1e4),
    "x_min": st.floats(-1e4, 0.0),
    "x_max": st.floats(0.0, 1e4),
    "bins": st.integers(-2, 4096),
}
sizes = st.one_of(st.integers(-2, 16), st.integers(-2, 4096))
seeds = st.one_of(st.integers(-2, 2**64 + 2), st.sampled_from([0, 2**64 - 1, 2**64]))


def _valid_phases(n):
    """The alternating splitter on n channels: (thetas, phis)."""
    return [0.0] * n, [0.0 if j % 2 else math.pi for j in range(1, n + 1)]


phase_lists = st.one_of(
    st.sampled_from([2, 4, 6]).map(lambda n: _valid_phases(n)[0]),
    st.sampled_from([2, 4, 6]).map(lambda n: _valid_phases(n)[1]),
    st.lists(floats, max_size=6),
)


def _typed_values(param):
    if param.choices:
        return st.sampled_from(param.choices)
    if param.name in SIZE_PARAMS:
        return sizes
    return {
        int: seeds,
        float: floats,
        bool: st.booleans(),
        list: phase_lists,
        str: st.text(alphabet="ab-_ ,\n\r\0", max_size=8),
    }[param.type]


def _mostly(values, rare=JUNK, one_in=4):
    """values, with one draw in `one_in` taken from `rare` instead."""
    return st.integers(1, one_in).flatmap(lambda k: rare if k == 1 else values)


def _flag_text(value):
    """The command-line spelling of a value, or None if argv cannot carry it."""
    if isinstance(value, list):
        text = ",".join(map(str, value))
    elif value is None or isinstance(value, bool):
        return None
    else:
        text = str(value)
    return None if "\0" in text else text


@st.composite
def invocations(draw):
    """(argv, config file contents or None)."""
    kind = draw(st.sampled_from(sorted(cli.SCENARIOS)))
    params = {p.name: p for p in cli.SCENARIOS[kind].params}
    names = draw(st.lists(st.sampled_from(sorted(params)), unique=True))
    values = {name: draw(_mostly(_typed_values(params[name]))) for name in names}
    if kind == "twoslit" and draw(st.booleans()):  # a full custom geometry, often
        values["preset"] = "custom"
        for name, plausible in GEOMETRY.items():
            values[name] = draw(_mostly(_mostly(plausible, extremes), one_in=12))
    if kind in ("nchannel", "sample") and draw(st.booleans()):  # custom phases, often
        thetas, phis = _valid_phases(draw(st.sampled_from([2, 4, 6])))
        values["preset"] = "custom"
        values.setdefault("thetas", thetas)
        values.setdefault("phis", phis)

    argv, file_params = [kind], {}
    for name, value in values.items():
        flag = "--" + name.replace("_", "-")
        text = _flag_text(value)
        if params[name].type is bool and value is True and draw(st.booleans()):
            argv.append(flag)
        elif text is not None and draw(st.booleans()):
            argv.append(f"{flag}={text}")
        else:
            file_params[name] = value

    config = None
    if file_params or draw(st.booleans()):
        config = {"kind": draw(_mostly(st.just(kind))), "parameters": file_params}
        if draw(st.booleans()):
            config["output"] = draw(_mostly(st.sampled_from(cli.FORMATS)))
        if draw(st.booleans()):
            paths = st.sampled_from(["-", "", "artifact.out", "sub/artifact.out"])
            config["output_path"] = draw(_mostly(paths))
    if draw(st.booleans()):
        argv.append("--format=" + draw(st.sampled_from(cli.FORMATS)))
    if draw(st.booleans()):
        argv += ["-o", "-"]
    return argv, config


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _config_echo(text):
    """The config echo of an artifact: its first line, its XML comment, or the document."""
    if text.startswith("# config: "):
        return text[len("# config: ") : text.index("\n")]
    if text.startswith("<?xml"):
        start = text.index("<!-- config: ") + len("<!-- config: ")
        return unescape(text[start : text.index(" -->", start)])
    return text


def _run(argv, config, workdir):
    out_dir = workdir / "out"
    argv = list(argv)
    if config is not None:
        (workdir / "config.json").write_text(json.dumps(config))
        argv.append("--config=config.json")
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with mock.patch.dict(os.environ, {cli.ENV_OUT_DIR: str(out_dir)}):
            with redirect_stdout(stdout), redirect_stderr(stderr), warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli.main(argv)
    finally:
        os.chdir(cwd)
    files = sorted(p for p in workdir.rglob("*") if p.is_file() and p.name != "config.json")
    return code, stdout.getvalue(), stderr.getvalue(), files


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
# A non-finite number by flag and by config file, on the one run that would
# otherwise exit 0 with it: the random search seldom draws that run.
@example((["sample", "--basis=whichpath", "--theta=nan", "--count=2"], None))
@example((["sample"], {"kind": "sample", "parameters": {"basis": "whichpath", "theta": math.inf}}))
def test_every_argv_ends_in_an_artifact_or_one_json_error(invocation):
    argv, config = invocation
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        code, out, err, files = _run(argv, config, workdir)
        if code == 0:
            assert err == ""
            if files:  # main wrote one file and printed its path
                assert len(files) == 1
                assert (workdir / out.rstrip("\n")).resolve() == files[0].resolve()
                text = files[0].read_text(encoding="utf-8")
            else:
                text = out
            assert text.startswith(("# config: ", "{", "<?xml"))
            json.loads(_config_echo(text), parse_constant=_reject_constant)
        else:
            assert code in (2, 3, 4), err
            assert out == ""
            lines = err.splitlines()
            assert len(lines) == 1, err
            assert json.loads(lines[0])["exit_code"] == code
            assert files == []
