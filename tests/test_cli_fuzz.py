"""Fuzz gate of the CLI error contract, drawn from `cli.SCENARIOS`.

Each example picks a subcommand, a random subset of its parameters and a
value for each, taken from the parameter's type and choices or, for at
most one value of the example, from junk ("abc", "", nan, +-inf, 1e308,
1e-320, NUL strings, lists). A parameter mostly comes with a value of the
condition it applies under, so that most runs get past the checks and
exit 0 with an artifact. Values go on
the command line or into a config file; the artifact goes to stdout, to
a config-file output path or under $QERASER_OUT_DIR. Every example must
end in one of two ways:

- exit 0 with a non-empty artifact whose config echo is strict JSON (no
  NaN, Infinity or -Infinity), and nothing on stderr; fed back as
  `--config` with `-o -`, that echo (a JSON artifact's "config") must
  reproduce the artifact's text exactly;
- exit 2, 3 or 4 with exactly one JSON object on stderr carrying the same
  exit code, nothing on stdout and no file written.

Every warning raised while `main` runs is an error, so a numpy
RuntimeWarning printed ahead of the JSON line fails the gate. (The filter
is set around `main` rather than by a filterwarnings mark: a mark also
covers hypothesis's failure report, whose imports warn and would turn a
failing example into a pytest INTERNALERROR.) n, bins and count are drawn up to 4096 only to
bound the run time.
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
floats = st.one_of(st.floats(-10.0, 10.0), st.floats(1e-3, 1e4), st.floats())
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
    st.lists(st.one_of(floats, extremes), max_size=6),
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
    """(argv, config file contents or None).

    At most one value of an example is junk or extreme. A parameter that
    applies only under a condition (its Param's `when`), a custom preset and
    the format mostly come valid, so most examples get past the checks.
    """
    kind = draw(st.sampled_from(sorted(cli.SCENARIOS)))
    scenario = cli.SCENARIOS[kind]
    params = {p.name: p for p in scenario.params}
    rare_left = draw(st.booleans())

    def mostly(values, rare=JUNK, one_in=4):
        """A draw from values, or one in `one_in` from `rare` if no value was rare yet."""
        nonlocal rare_left
        if rare_left and draw(st.integers(1, one_in)) == 1:
            rare_left = False
            return draw(rare)
        return draw(values)

    def usually() -> bool:
        """True seven times in eight."""
        return draw(st.integers(1, 8)) > 1

    names = draw(st.lists(st.sampled_from(sorted(params)), unique=True))
    values = {name: mostly(_typed_values(params[name])) for name in names}
    needs_custom = values.get("preset") == "custom" or any(
        params[name].when == ("preset", ("custom",)) for name in names
    )
    custom = (needs_custom and usually()) or draw(st.booleans())
    if kind == "twoslit" and custom:  # a full custom geometry
        values["preset"] = "custom"
        for name, plausible in GEOMETRY.items():
            values[name] = mostly(plausible, st.one_of(extremes, JUNK))
    if kind in ("nchannel", "sample") and custom:  # custom phases
        thetas, phis = _valid_phases(draw(st.sampled_from([2, 4, 6])))
        values["preset"] = "custom"
        if usually():  # in place of drawn phases, with a drawn n to match
            values.update(thetas=thetas, phis=phis)
            if "n" in values:
                values["n"] = len(thetas)
        values.setdefault("thetas", thetas)
        values.setdefault("phis", phis)
    pending = list(values)
    while pending:  # and the condition each parameter applies under
        when = params[pending.pop()].when
        if when and usually():
            other, allowed = when
            values[other] = draw(st.sampled_from(allowed))
            pending.append(other)

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

    formats = st.sampled_from(sorted(scenario.formats) if usually() else cli.FORMATS)
    config = None
    if file_params or draw(st.booleans()):
        config = {"kind": mostly(st.just(kind)), "parameters": file_params}
        if draw(st.booleans()):
            config["output"] = mostly(formats)
        if draw(st.booleans()):
            paths = st.sampled_from(["-", "", "artifact.out", "sub/artifact.out"])
            config["output_path"] = mostly(paths)
    if draw(st.booleans()):
        argv.append("--format=" + draw(formats))
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
            echo = json.loads(_config_echo(text), parse_constant=_reject_constant)
            if text.startswith("{"):
                echo = echo["config"]
            again = workdir / "again"
            again.mkdir()
            assert _run([echo["kind"], "-o", "-"], echo, again) == (0, text, "", [])
        else:
            assert code in (2, 3, 4), err
            assert out == ""
            lines = err.splitlines()
            assert len(lines) == 1, err
            assert json.loads(lines[0])["exit_code"] == code
            assert files == []
