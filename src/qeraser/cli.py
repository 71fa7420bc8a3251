"""Scenario runner: channel, screen, spin-pair, and sampling scenarios.

Subcommands
-----------
nchannel   detector distribution of the n-channel interferometer
twoslit    screen patterns of the two-slit eraser
epr        joint outcome table for the correlated spin pair
sample     seeded event log (CSV) drawn from the exact joint table
check      run the built-in invariant suite

Every parameter is declared once, in SCENARIOS, with the condition under
which it applies; the flags, the defaults, the checks on config-file values
and the format dispatch are derived from it. Flags override config-file
values, and the effective configuration is echoed into every artifact
header, so any artifact can be reproduced from itself.
Identical configuration and seed yield byte-identical CSV/JSON artifacts.

Exit codes: 0 success, 1 failed checks, 2 parse error, 3 validation
error, 4 I/O error. Errors are reported as one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from . import __version__, _svg, _text, analysis, checks, nchannel, twoslit
from .errors import QEraserError, ValidationError
from .marker import erasure_basis, which_path_basis

ENV_OUT_DIR = "QERASER_OUT_DIR"
FLOAT_FMT = "%.17g"
FORMATS = ("csv", "json", "svg")


class _ParseExit(Exception):
    """A malformed command line or config file (exit 2)."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # No flag starts with a digit, so "-1e-3" and "-3.1,0" are values, not flags.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):  # JSON on stderr instead of usage text
        raise _ParseExit(message)


@dataclass
class ScenarioConfig:
    kind: str
    parameters: dict
    output: str = "csv"
    output_path: str | None = None


# -- parameter declarations ---------------------------------------------------


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    # An integer beyond the float range would overflow in float().
    return isinstance(value, float) or (_is_int(value) and abs(value) <= sys.float_info.max)


def _phase_list(value) -> list | None:
    """Phases from a comma-separated string or a list of numbers; None if malformed."""
    if isinstance(value, str):
        try:
            return [float(part) for part in value.split(",") if part.strip()]
        except ValueError:
            return None
    if isinstance(value, list) and all(map(_is_real, value)):
        return value
    return None


#: Value check and its description for each parameter type; `list` marks
#: a phase vector, given as a comma-separated string or a JSON list.
_TYPES = {
    int: (_is_int, "an integer"),
    float: (lambda value: _is_real(value) and math.isfinite(value), "a finite number"),
    bool: (lambda value: isinstance(value, bool), "true or false"),
    str: (lambda value: isinstance(value, str), "a string"),
    list: (lambda value: _phase_list(value) is not None, "numbers, as a list or comma-separated"),
}


class Param(NamedTuple):
    """One scenario parameter: config key `name`, flag --name with _ as -."""

    name: str
    type: type = str
    default: object = None
    choices: tuple = ()
    help: str | None = None
    #: (other, values): applies only while parameter `other` is in `values`.
    when: tuple | None = None

    def check(self, value) -> None:
        """Raise ValidationError unless the flag would accept the value.

        A null value stands for the default where that is null.
        """
        if value is None and self.default is None:
            return
        if self.choices:
            ok = isinstance(value, str) and value in self.choices
            expected = f"one of {list(self.choices)}"
        else:
            accepts, expected = _TYPES[self.type]
            ok = accepts(value)
        if not ok:
            raise ValidationError(f"parameter {self.name!r} must be {expected}, got {value!r}")

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        flag = "--" + self.name.replace("_", "-")
        if self.type is bool:
            parser.add_argument(flag, dest=self.name, action="store_true", help=self.help)
        else:
            flag_type = {int: int, float: float}.get(self.type)
            parser.add_argument(
                flag, dest=self.name, type=flag_type, choices=self.choices or None, help=self.help
            )


class Scenario(NamedTuple):
    """One subcommand: parameters, runner -> (result, stem), formats.

    `formats` names each format's emitter in this module, looked up at
    render time so that wrappers rebound on the module (perfbench's
    tracer) see the call; `format_error` rejects every other format.
    """

    params: tuple[Param, ...]
    runner: Callable[[dict], tuple]
    formats: dict[str, str]
    format_error: str = ""


def _load_config_file(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _ParseExit(f"config file {path}: {exc}") from None
    except RecursionError:
        raise _ParseExit(f"config file {path}: nested too deeply") from None
    if not isinstance(raw, dict):
        raise _ParseExit(f"config file {path}: expected a JSON object")
    allowed = {"kind", "parameters", "output", "output_path"}
    unknown = set(raw) - allowed
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    if "parameters" in raw and not isinstance(raw["parameters"], dict):
        raise ValidationError("config 'parameters' must be an object")
    if not isinstance(raw.get("output_path", ""), (str, type(None))):
        raise ValidationError("config 'output_path' must be a string")
    if "\0" in (raw.get("output_path") or ""):
        raise ValidationError("config 'output_path' must not contain NUL bytes")
    return raw


def _merge_parameters(kind: str, file_params: dict, flag_params: dict) -> dict:
    """Defaults, overridden by file values, overridden by flags.

    Every file value and flag is checked against its Param. File values
    are kept as given, so the config echo reproduces them; phase flags
    are echoed as number lists.
    """
    declared = {param.name: param for param in SCENARIOS[kind].params}
    unknown = set(file_params) - set(declared)
    if unknown:
        raise ValidationError(f"unknown parameter keys for {kind}: {sorted(unknown)}")
    merged = {name: param.default for name, param in declared.items()}
    for values in (file_params, flag_params):
        for name, value in values.items():
            declared[name].check(value)
        merged.update(values)
    for name, value in flag_params.items():
        if declared[name].type is list:
            merged[name] = _phase_list(value)
    for name, param in declared.items():
        if param.when and merged[name] != param.default:
            other, values = param.when
            if merged[other] not in values:
                raise ValidationError(
                    f"parameter {name!r} applies only when {other!r} is one of"
                    f" {list(values)}, not {merged[other]!r}"
                )
    return merged


def _build_config(kind: str, ns: argparse.Namespace) -> ScenarioConfig:
    flags = dict(vars(ns))
    flags.pop("command", None)
    config_path = flags.pop("config", None)
    output = flags.pop("format", None)
    output_path = flags.pop("output", None)
    file_raw = _load_config_file(config_path) if config_path else {}
    if file_raw.get("kind", kind) != kind:
        raise ValidationError(
            f"config file kind {file_raw.get('kind')!r} does not match subcommand {kind!r}"
        )
    params = _merge_parameters(kind, file_raw.get("parameters", {}), flags)
    return ScenarioConfig(
        kind,
        params,
        output or file_raw.get("output", "csv"),
        output_path or file_raw.get("output_path"),
    )


def _config_echo(config: ScenarioConfig) -> str:
    payload = {
        "kind": config.kind,
        "parameters": {
            k: v for k, v in sorted(config.parameters.items()) if v is not None
        },
        "output": config.output,
    }
    return json.dumps(payload, sort_keys=True)


# -- scenario execution -------------------------------------------------------


def _nchannel_config(params) -> nchannel.PhaseConfig:
    if params["preset"] == "default":
        return nchannel.default_config(params["n"] if params["n"] is not None else 10)
    thetas, phis = _phase_list(params["thetas"]), _phase_list(params["phis"])
    if thetas is None or phis is None:
        raise ValidationError("preset 'custom' requires thetas and phis")
    n = params["n"] if params["n"] is not None else len(thetas)
    return nchannel.PhaseConfig(n, thetas, phis)


def _marker_pair(name: str, theta: float):
    return which_path_basis() if name in ("whichpath", "d1", "d2") else erasure_basis(theta)


def _run_nchannel(params):
    condition = params["condition"]
    phase_config = _nchannel_config(params)
    final_state = nchannel.final_state_bare if params["bare"] else nchannel.final_state_marked
    state = final_state(phase_config)
    if condition == "none":
        dist = nchannel.detector_probabilities(state)
    else:
        pair = _marker_pair(condition, float(params["theta"]))
        dist = nchannel.conditioned_distribution(state, pair[condition in ("d2", "dminus")])
    payload = {
        "x": np.arange(1, phase_config.n + 1),
        "p": dist.probabilities,
        "condition": dist.condition,
        "x_label": "detector",
        "title": f"Detector distribution (condition: {dist.condition})",
        "chart": "bar",
    }
    stem = f"nchannel_n{phase_config.n}_{params['preset']}_{condition}"
    return payload, stem


def _twoslit_geometry(params) -> twoslit.ScreenGeometry:
    if params["preset"] == "default":
        return twoslit.default_geometry()
    values = [params[k] for k in ("d", "wavelength", "L", "x_min", "x_max", "bins")]
    if None in values:
        raise ValidationError("preset 'custom' requires d, wavelength, L, x_min, x_max, bins")
    *lengths, bins = values
    return twoslit.ScreenGeometry(*map(float, lengths), bins)


def _run_twoslit(params):
    geometry = _twoslit_geometry(params)
    sigma = params["sigma"]
    grid = twoslit.build_grid(
        geometry, params["envelope"], float(sigma) if sigma is not None else None
    )
    kind = params["kind"]
    if kind == "bare":
        pattern = twoslit.pattern_no_marker(grid)
    elif kind == "washed":
        pattern = twoslit.pattern_marked_unconditioned(grid)
    else:
        pattern, _ = twoslit.pattern_conditioned(
            grid, float(params["theta"]), params["sign"]
        )
    title_tag = pattern.condition if kind == "conditioned" else kind
    payload = {
        "x": grid.positions,
        "p": pattern.probabilities,
        "condition": pattern.condition,
        "x_label": "x",
        "title": f"Screen pattern (condition: {title_tag})",
        "chart": "line",
    }
    stem = f"twoslit_{kind}" + (f"_{params['sign']}" if kind == "conditioned" else "")
    return payload, stem


def _run_epr(params):
    table = analysis.epr_correlation_table(params["basis1"], params["basis2"])
    return table, f"epr_{params['basis1']}{params['basis2']}"


def _nchannel_model(params):
    config = _nchannel_config(params)
    tag = f"nchannel-n{config.n}-{params['preset']}"
    return nchannel.final_state_marked(config), range(1, config.n + 1), tag


#: sample's models: scenario -> params -> (marked state, system labels, id tag).
#: No labels: the 0-based indices and joint_distribution's memo; a range stays a range.
_MODELS = {
    "nchannel": _nchannel_model,
    "twoslit": lambda _: (twoslit.marked_state(twoslit.default_grid()), None, "twoslit-default"),
    "epr": lambda _: (analysis.epr_state(), None, "epr"),
}


def _run_sample(params):
    state, labels, tag = _MODELS[params["scenario"]](params)
    theta = float(params["theta"])
    pair = _marker_pair(params["basis"], theta)
    scenario_id = params["scenario_id"] or f"{tag}-{params['basis']}-theta{theta:g}"
    rows = analysis.event_log_chunks(
        state, pair, params["order"], params["count"], params["seed"], scenario_id, labels
    )
    return rows, f"events_{scenario_id}"


_PRESET = Param("preset", default="default", choices=("default", "custom"))
_CUSTOM = ("preset", ("custom",))
#: The channel configuration, shared by nchannel and sample.
_PHASE_PARAMS = (
    Param("n", int),
    _PRESET,
    Param("thetas", list, help="comma-separated path-A phases (radians)", when=_CUSTOM),
    Param("phis", list, help="comma-separated path-B phases (radians)", when=_CUSTOM),
)
_PATTERN_FORMATS = {
    "csv": "emit_pattern_csv",
    "json": "emit_pattern_json",
    "svg": "emit_pattern_svg",
}

SCENARIOS = {
    "nchannel": Scenario(
        _PHASE_PARAMS
        + (
            Param("bare", bool, False, help="drop the path marker"),
            Param("condition", default="none", choices=("none", "d1", "d2", "dplus", "dminus"),
                  when=("bare", (False,))),
            Param("theta", float, 0.0, help="erasure basis angle for dplus/dminus",
                  when=("condition", ("dplus", "dminus"))),
        ),
        _run_nchannel,
        _PATTERN_FORMATS,
    ),
    "twoslit": Scenario(
        (
            _PRESET,
            Param("d", float, help="slit separation", when=_CUSTOM),
            Param("wavelength", float, when=_CUSTOM),
            Param("L", float, help="slit-to-screen distance", when=_CUSTOM),
            Param("x_min", float, when=_CUSTOM),
            Param("x_max", float, when=_CUSTOM),
            Param("bins", int, when=_CUSTOM),
            Param("envelope", default="flat", choices=("flat", "gaussian")),
            Param("sigma", float, when=("envelope", ("gaussian",))),
            Param("kind", default="conditioned", choices=("conditioned", "bare", "washed")),
            Param("theta", float, 0.0, help="erasure basis angle", when=("kind", ("conditioned",))),
            Param("sign", default="plus", choices=("plus", "minus"), when=("kind", ("conditioned",))),
        ),
        _run_twoslit,
        _PATTERN_FORMATS,
    ),
    "epr": Scenario(
        (
            Param("basis1", default="z", choices=("z", "x")),
            Param("basis2", default="z", choices=("z", "x")),
        ),
        _run_epr,
        {"csv": "emit_joint_csv", "json": "emit_joint_json"},
        "joint tables render as csv or json, not svg",
    ),
    "sample": Scenario(
        (Param("scenario", default="nchannel", choices=tuple(_MODELS)),)
        + tuple(p._replace(when=p.when or ("scenario", ("nchannel",))) for p in _PHASE_PARAMS)
        + (
            Param("basis", default="erasure", choices=("whichpath", "erasure")),
            Param("theta", float, 0.0),
            Param("order", default=analysis.SYSTEM_FIRST, choices=analysis.ORDERS),
            Param("count", int, 1000),
            Param("seed", int, 1),
            Param("scenario_id"),
        ),
        _run_sample,
        {"csv": "emit_event_log"},
        "event logs are CSV only",
    ),
}


# -- emitters -----------------------------------------------------------------
#
# Each emitter checks its input when called and returns the artifact as an
# iterable of text chunks. Patterns (csv, json, svg) and the event log are
# built as main writes them, _text.CHUNK rows at a time, by _text: pattern
# rows and chart marks through _text.rows, which picks the layout, and the
# event log through _text.event_rows (analysis.event_log_chunks). Joint
# tables and SVG ticks are a few rows of plain `%`.


def _pattern_columns(payload) -> tuple[np.ndarray, np.ndarray]:
    """index_or_x as given (integer detectors or float positions), probabilities as floats.

    Both columns must be 1-D, of one length and finite numbers: then the
    `%d`/`%.17g`/`%r` rows equal str.format and json.dumps.
    """
    xs = np.asarray(payload["x"])
    probs = np.asarray(payload["p"], dtype=np.float64)
    if probs.size == 0:
        raise ValidationError("cannot emit an empty pattern")
    if xs.ndim != 1 or xs.shape != probs.shape:
        raise ValidationError(
            f"pattern x and p must be 1-D columns of one length, got {xs.shape} and {probs.shape}"
        )
    if xs.dtype.kind not in "iuf":
        raise ValidationError("pattern x must be integers or floats")
    if not (np.isfinite(xs).all() and np.isfinite(probs).all()):
        raise ValidationError("cannot emit a pattern with non-finite values")
    return xs, probs


def emit_pattern_csv(payload, echo: str) -> Iterator[str]:
    """CSV with columns index_or_x,probability[,condition] at 17 digits."""
    xs, probs = _pattern_columns(payload)
    condition = payload["condition"]
    header = "index_or_x,probability"
    tail = "\n"
    if condition != "none":
        header += ",condition"
        tail = f",{condition}\n"
    rows = _text.rows((xs, ",", probs, tail), FLOAT_FMT)
    return itertools.chain((f"# config: {echo}\n{header}\n",), rows)


def _json_array(column: np.ndarray) -> Iterator[str]:
    """json.dumps(column.tolist(), indent=2) one level deep, in chunks."""
    items = _text.rows((",\n    ", column), "%r")
    yield "[" + next(items)[1:]
    yield from items
    yield "\n  ]"


def emit_pattern_json(payload, echo: str) -> Iterator[str]:
    """json.dumps of the document with sort_keys=True, indent=2, written out by hand.

    The four keys are fixed, so they are written in sorted order; a
    finite int or float prints as its repr in JSON.
    """
    xs, probs = _pattern_columns(payload)
    config = json.dumps(json.loads(echo), sort_keys=True, indent=2).replace("\n", "\n  ")
    return itertools.chain(
        (f'{{\n  "condition": {json.dumps(payload["condition"])},\n'
         f'  "config": {config},\n  "index_or_x": ',),
        _json_array(xs),
        (',\n  "probability": ',),
        _json_array(probs),
        ("\n}\n",),
    )


def emit_pattern_svg(payload, echo: str) -> Iterator[str]:
    _, probs = _pattern_columns(payload)
    chart = _svg.bar_chart if payload["chart"] == "bar" else _svg.line_chart
    comment = f"config: {echo}"
    return chart(payload["x"], probs, payload["title"], payload["x_label"], "probability", comment)


def emit_joint_json(table: analysis.JointTable, echo: str) -> tuple[str]:
    document = {
        "config": json.loads(echo),
        "row_labels": list(table.row_labels),
        "col_labels": list(table.col_labels),
        "probabilities": table.probabilities.tolist(),
    }
    return (json.dumps(document, sort_keys=True, indent=2) + "\n",)


def emit_joint_csv(table: analysis.JointTable, echo: str) -> tuple[str]:
    cells = zip(itertools.product(table.row_labels, table.col_labels), table.probabilities.flat)
    rows = [f"{r},{c},{FLOAT_FMT % float(p)}\n" for (r, c), p in cells]
    return ("".join([f"# config: {echo}\nrow,col,probability\n", *rows]),)


def emit_event_log(rows: Iterable[str], echo: str) -> Iterator[str]:
    """The config line, then the header and rows of analysis.event_log_chunks."""
    return itertools.chain((f"# config: {echo}\n",), rows)


def run(config: ScenarioConfig) -> tuple[Iterable[str], str]:
    """Execute one scenario; returns (artifact text chunks, default filename stem).

    Every error of the scenario is raised here, before any chunk exists.
    """
    if config.output not in FORMATS:
        raise ValidationError(f"unknown output format {config.output!r}")
    scenario = SCENARIOS[config.kind]
    if config.output not in scenario.formats:
        raise ValidationError(scenario.format_error)
    result, stem = scenario.runner(config.parameters)
    emitter = globals()[scenario.formats[config.output]]
    return emitter(result, _config_echo(config)), stem


def _resolve_output(config: ScenarioConfig, stem: str) -> Path | None:
    if config.output_path == "-":
        return None
    if config.output_path:
        return Path(config.output_path)
    # The stem stays inside out_dir: the one user-named part, sample's
    # scenario_id, holds no '/' or '\\' (analysis._event_inputs).
    out_dir = Path(os.environ.get(ENV_OUT_DIR, "."))
    return out_dir / f"{stem}.{config.output}"


# -- argument parsing ---------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once and reused by every `main` call."""
    parser = _Parser(prog="qeraser", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"qeraser {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind, scenario in SCENARIOS.items():
        p = sub.add_parser(kind, argument_default=argparse.SUPPRESS)
        for param in scenario.params:
            param.add_to(p)
        p.add_argument("--config", help="JSON scenario config file")
        p.add_argument("--format", choices=FORMATS, dest="format")
        p.add_argument("--output", "-o", help="output path ('-' for stdout)")
    sub.add_parser("check")
    return parser


def _fail(exit_code: int, error: BaseException) -> int:
    message = {
        "error": type(error).__name__,
        "message": str(error),
        "exit_code": exit_code,
    }
    print(json.dumps(message), file=sys.stderr)
    return exit_code


def _run_check() -> int:
    results = checks.run_checks()
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status}  {result.name}  (residual {result.residual:.3e}, tol {result.tolerance:.0e})")
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.command == "check":
            return _run_check()
        config = _build_config(ns.command, ns)
        chunks, stem = run(config)
        path = _resolve_output(config, stem)
        if path is None:
            sys.stdout.writelines(chunks)
        else:
            if path.parent != Path("."):
                path.parent.mkdir(parents=True, exist_ok=True)
            # Written in place, not renamed over: the path may be a device
            # or a symlink. A failing run never gets here, so it leaves no
            # file; an I/O error part-way can leave a partial one.
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.writelines(chunks)
            # The file is written; characters stdout cannot encode print as escapes.
            encoding = sys.stdout.encoding or "utf-8"
            print(str(path).encode(encoding, "backslashreplace").decode(encoding))
        return 0
    except _ParseExit as exc:
        return _fail(2, exc)
    except QEraserError as exc:  # ValidationError included
        return _fail(3, exc)
    except (OSError, UnicodeEncodeError) as exc:  # an artifact stdout cannot encode is I/O
        return _fail(4, exc)


if __name__ == "__main__":
    sys.exit(main())
