"""Scenario runner: channel, screen, spin-pair, and sampling scenarios.

Subcommands
-----------
nchannel   detector distribution of the n-channel interferometer
twoslit    screen patterns of the two-slit eraser
epr        joint outcome table for the correlated spin pair
sample     seeded event log (CSV) drawn from the exact joint table
check      run the built-in invariant suite

Scenarios can be driven by flags, by a JSON config file, or both; flags
override file values and the effective configuration is echoed into every
artifact header, so any artifact can be reproduced from itself. Identical
configuration and seed yield byte-identical CSV/JSON artifacts.

Exit codes: 0 success, 1 failed checks, 2 parse error, 3 validation
error, 4 I/O error. Errors are reported as one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, _svg, analysis, checks, nchannel, twoslit
from .errors import QEraserError, ValidationError
from .marker import erasure_basis, which_path_basis

ENV_OUT_DIR = "QERASER_OUT_DIR"
FLOAT_FMT = "{:.17g}"


class _ParseExit(Exception):
    def __init__(self, message: str):
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # JSON on stderr instead of usage text
        raise _ParseExit(message)


@dataclass
class ScenarioConfig:
    kind: str
    parameters: dict
    output: str = "csv"
    output_path: str | None = None


_DEFAULTS = {
    "nchannel": {
        "n": None,  # 10 for the default preset, list length for custom
        "preset": "default",
        "thetas": None,
        "phis": None,
        "bare": False,
        "condition": "none",
        "theta": 0.0,
    },
    "twoslit": {
        "preset": "default",
        "d": None,
        "wavelength": None,
        "L": None,
        "x_min": None,
        "x_max": None,
        "bins": None,
        "envelope": "flat",
        "sigma": None,
        "kind": "conditioned",
        "theta": 0.0,
        "sign": "plus",
    },
    "epr": {"basis1": "z", "basis2": "z"},
    "sample": {
        "scenario": "nchannel",
        "n": None,
        "preset": "default",
        "thetas": None,
        "phis": None,
        "basis": "erasure",
        "theta": 0.0,
        "order": analysis.SYSTEM_FIRST,
        "count": 1000,
        "seed": 1,
        "scenario_id": None,
    },
}

_CONDITIONS = ("none", "d1", "d2", "dplus", "dminus")


def _phase_list(text):
    if text is None or isinstance(text, list):
        return text
    return [float(part) for part in str(text).split(",") if part.strip()]


def _merge_parameters(kind: str, file_params: dict, flag_params: dict) -> dict:
    defaults = _DEFAULTS[kind]
    unknown = set(file_params) - set(defaults)
    if unknown:
        raise ValidationError(f"unknown parameter keys for {kind}: {sorted(unknown)}")
    merged = dict(defaults)
    merged.update(file_params)
    merged.update(flag_params)
    return merged


def _load_config_file(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise _ParseExit(f"config file {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise _ParseExit(f"config file {path}: expected a JSON object")
    allowed = {"kind", "parameters", "output", "output_path"}
    unknown = set(raw) - allowed
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    if "parameters" in raw and not isinstance(raw["parameters"], dict):
        raise ValidationError("config 'parameters' must be an object")
    return raw


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
    for key in ("thetas", "phis"):
        if key in flags:
            flags[key] = _phase_list(flags[key])
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
        if params["thetas"] is not None or params["phis"] is not None:
            raise ValidationError("preset 'default' does not take phase vectors")
        return nchannel.default_config(int(params["n"]) if params["n"] is not None else 10)
    if params["preset"] == "custom":
        thetas, phis = _phase_list(params["thetas"]), _phase_list(params["phis"])
        if thetas is None or phis is None:
            raise ValidationError("preset 'custom' requires thetas and phis")
        n = int(params["n"]) if params["n"] is not None else len(thetas)
        return nchannel.PhaseConfig(n, thetas, phis)
    raise ValidationError(f"unknown preset {params['preset']!r}")


def _marker_for(condition: str, theta: float):
    d1, d2 = which_path_basis()
    if condition == "d1":
        return d1
    if condition == "d2":
        return d2
    basis = erasure_basis(theta)
    return basis.plus if condition == "dplus" else basis.minus


def _run_nchannel(config: ScenarioConfig):
    params = config.parameters
    condition = params["condition"]
    if condition not in _CONDITIONS:
        raise ValidationError(f"condition must be one of {_CONDITIONS}")
    phase_config = _nchannel_config(params)
    if params["bare"]:
        if condition != "none":
            raise ValidationError("a bare state has no marker to condition on")
        state = nchannel.final_state_bare(phase_config)
        dist = nchannel.detector_probabilities(state)
    else:
        state = nchannel.final_state_marked(phase_config)
        if condition == "none":
            dist = nchannel.detector_probabilities(state)
        else:
            dist = nchannel.conditioned_distribution(
                state, _marker_for(condition, float(params["theta"]))
            )
    payload = {
        "x": list(range(1, phase_config.n + 1)),
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
        geometry_keys = ("d", "wavelength", "L", "x_min", "x_max", "bins")
        if any(params[k] is not None for k in geometry_keys):
            raise ValidationError("preset 'default' does not take geometry fields")
        return twoslit.default_geometry()
    if params["preset"] == "custom":
        try:
            return twoslit.ScreenGeometry(
                float(params["d"]),
                float(params["wavelength"]),
                float(params["L"]),
                float(params["x_min"]),
                float(params["x_max"]),
                int(params["bins"]),
            )
        except (TypeError, KeyError):
            raise ValidationError(
                "preset 'custom' requires d, wavelength, L, x_min, x_max, bins"
            ) from None
    raise ValidationError(f"unknown preset {params['preset']!r}")


def _run_twoslit(config: ScenarioConfig):
    params = config.parameters
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
    elif kind == "conditioned":
        pattern, _ = twoslit.pattern_conditioned(
            grid, float(params["theta"]), params["sign"]
        )
    else:
        raise ValidationError("kind must be conditioned, bare, or washed")
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


def _run_epr(config: ScenarioConfig):
    params = config.parameters
    table = analysis.epr_correlation_table(params["basis1"], params["basis2"])
    return table, f"epr_{params['basis1']}{params['basis2']}"


def _sample_state_and_basis(params):
    scenario = params["scenario"]
    theta = float(params["theta"])
    if params["basis"] == "whichpath":
        basis = which_path_basis()
    elif params["basis"] == "erasure":
        basis = erasure_basis(theta)
    else:
        raise ValidationError("basis must be 'whichpath' or 'erasure'")
    if scenario == "nchannel":
        phase_config = _nchannel_config(params)
        state = nchannel.final_state_marked(phase_config)
        labels = list(range(1, phase_config.n + 1))
        tag = f"nchannel-n{phase_config.n}-{params['preset']}"
    elif scenario == "twoslit":
        grid = twoslit.default_grid()
        state = twoslit.marked_state(grid)
        labels = list(range(grid.bins))
        tag = "twoslit-default"
    elif scenario == "epr":
        state = analysis.epr_state()
        labels = [0, 1]
        tag = "epr"
    else:
        raise ValidationError("scenario must be nchannel, twoslit, or epr")
    return state, basis, labels, f"{tag}-{params['basis']}-theta{theta:g}"


def _checked_seed(value) -> int:
    """The event-stream seed, rejected outside [0, 2^64).

    SplitMix64 reduces seeds mod 2^64, so a seed outside that range would
    reproduce another seed's stream while the log records a different one.
    """
    try:
        seed = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"seed must be an integer, got {value!r}") from None
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed must be in [0, 2^64), got {seed}")
    return seed


def _run_sample(config: ScenarioConfig):
    params = config.parameters
    if config.output != "csv":
        raise ValidationError("event logs are CSV only")
    state, basis, labels, derived_id = _sample_state_and_basis(params)
    scenario_id = params["scenario_id"] or derived_id
    events = analysis.sample_events(
        state,
        basis,
        params["order"],
        int(params["count"]),
        _checked_seed(params["seed"]),
        scenario_id,
        labels,
    )
    return events, f"events_{scenario_id}"


# -- emitters -----------------------------------------------------------------


def _fmt_value(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return FLOAT_FMT.format(float(value))


def emit_pattern_csv(payload, echo: str) -> str:
    """CSV with columns index_or_x,probability[,condition] at 17 digits."""
    probs = np.asarray(payload["p"])
    if probs.size == 0:
        raise ValidationError("cannot emit an empty pattern")
    with_condition = payload["condition"] != "none"
    header = "index_or_x,probability" + (",condition" if with_condition else "")
    lines = [f"# config: {echo}", header]
    for x, p in zip(payload["x"], probs):
        row = f"{_fmt_value(x)},{FLOAT_FMT.format(float(p))}"
        if with_condition:
            row += f",{payload['condition']}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def emit_pattern_json(payload, echo: str) -> str:
    probs = np.asarray(payload["p"])
    if probs.size == 0:
        raise ValidationError("cannot emit an empty pattern")
    document = {
        "config": json.loads(echo),
        "index_or_x": [
            int(x) if isinstance(x, (int, np.integer)) else float(x)
            for x in payload["x"]
        ],
        "probability": [float(p) for p in probs],
        "condition": payload["condition"],
    }
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def emit_pattern_svg(payload, echo: str) -> str:
    probs = np.asarray(payload["p"])
    if probs.size == 0:
        raise ValidationError("cannot emit an empty pattern")
    comment = f"config: {echo}"
    if payload["chart"] == "bar":
        return _svg.bar_chart(
            payload["x"], probs, payload["title"], payload["x_label"], "probability", comment
        )
    return _svg.line_chart(
        payload["x"], probs, payload["title"], payload["x_label"], "probability", comment
    )


def emit_joint_json(table: analysis.JointTable, echo: str) -> str:
    document = {
        "config": json.loads(echo),
        "row_labels": list(table.row_labels),
        "col_labels": list(table.col_labels),
        "probabilities": [[float(p) for p in row] for row in table.probabilities],
    }
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def emit_joint_csv(table: analysis.JointTable, echo: str) -> str:
    lines = [f"# config: {echo}", "row,col,probability"]
    for i, row_label in enumerate(table.row_labels):
        for j, col_label in enumerate(table.col_labels):
            lines.append(
                f"{row_label},{col_label},{FLOAT_FMT.format(float(table.probabilities[i, j]))}"
            )
    return "\n".join(lines) + "\n"


def emit_event_log(events, echo: str) -> str:
    lines = [f"# config: {echo}", analysis.EVENT_LOG_HEADER]
    lines.extend(event.csv_row() for event in events)
    return "\n".join(lines) + "\n"


def render_artifact(config: ScenarioConfig, result) -> str:
    echo = _config_echo(config)
    if config.kind == "sample":
        return emit_event_log(result, echo)
    if config.kind == "epr":
        if config.output == "json":
            return emit_joint_json(result, echo)
        if config.output == "csv":
            return emit_joint_csv(result, echo)
        raise ValidationError("joint tables render as csv or json, not svg")
    payload, _ = result
    if config.output == "csv":
        return emit_pattern_csv(payload, echo)
    if config.output == "json":
        return emit_pattern_json(payload, echo)
    if config.output == "svg":
        return emit_pattern_svg(payload, echo)
    raise ValidationError(f"unknown output format {config.output!r}")


def run(config: ScenarioConfig) -> tuple[str, str]:
    """Execute one scenario; returns (artifact text, default filename stem)."""
    if config.output not in ("csv", "json", "svg"):
        raise ValidationError(f"unknown output format {config.output!r}")
    if config.kind == "nchannel":
        result = _run_nchannel(config)
        stem = result[1]
    elif config.kind == "twoslit":
        result = _run_twoslit(config)
        stem = result[1]
    elif config.kind == "epr":
        result, stem = _run_epr(config)
    elif config.kind == "sample":
        result, stem = _run_sample(config)
    else:
        raise ValidationError(f"unknown scenario kind {config.kind!r}")
    return render_artifact(config, result), stem


def _resolve_output(config: ScenarioConfig, stem: str) -> Path | None:
    if config.output_path == "-":
        return None
    if config.output_path:
        return Path(config.output_path)
    out_dir = Path(os.environ.get(ENV_OUT_DIR, "."))
    return out_dir / f"{stem}.{config.output}"


# -- argument parsing ---------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--config", help="JSON scenario config file")
    parser.add_argument("--format", choices=("csv", "json", "svg"), dest="format")
    parser.add_argument("--output", "-o", help="output path ('-' for stdout)")


def build_parser() -> _Parser:
    parser = _Parser(prog="qeraser", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"qeraser {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nchannel", argument_default=argparse.SUPPRESS)
    p.add_argument("--n", type=int)
    p.add_argument("--preset", choices=("default", "custom"))
    p.add_argument("--thetas", help="comma-separated path-A phases (radians)")
    p.add_argument("--phis", help="comma-separated path-B phases (radians)")
    p.add_argument("--bare", action="store_true", help="drop the path marker")
    p.add_argument("--condition", choices=_CONDITIONS)
    p.add_argument("--theta", type=float, help="erasure basis angle for dplus/dminus")
    _add_common(p)

    p = sub.add_parser("twoslit", argument_default=argparse.SUPPRESS)
    p.add_argument("--preset", choices=("default", "custom"))
    p.add_argument("--d", type=float, help="slit separation")
    p.add_argument("--wavelength", type=float)
    p.add_argument("--L", type=float, help="slit-to-screen distance")
    p.add_argument("--x-min", dest="x_min", type=float)
    p.add_argument("--x-max", dest="x_max", type=float)
    p.add_argument("--bins", type=int)
    p.add_argument("--envelope", choices=("flat", "gaussian"))
    p.add_argument("--sigma", type=float)
    p.add_argument("--kind", choices=("conditioned", "bare", "washed"))
    p.add_argument("--theta", type=float, help="erasure basis angle")
    p.add_argument("--sign", choices=("plus", "minus"))
    _add_common(p)

    p = sub.add_parser("epr", argument_default=argparse.SUPPRESS)
    p.add_argument("--basis1", choices=("z", "x"))
    p.add_argument("--basis2", choices=("z", "x"))
    _add_common(p)

    p = sub.add_parser("sample", argument_default=argparse.SUPPRESS)
    p.add_argument("--scenario", choices=("nchannel", "twoslit", "epr"))
    p.add_argument("--n", type=int)
    p.add_argument("--preset", choices=("default", "custom"))
    p.add_argument("--thetas")
    p.add_argument("--phis")
    p.add_argument("--basis", choices=("whichpath", "erasure"))
    p.add_argument("--theta", type=float)
    p.add_argument("--order", choices=analysis.ORDERS)
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--scenario-id", dest="scenario_id")
    _add_common(p)

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
        text, stem = run(config)
        path = _resolve_output(config, stem)
        if path is None:
            sys.stdout.write(text)
        else:
            if path.parent != Path("."):
                path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(text.encode("utf-8"))
            print(str(path))
        return 0
    except _ParseExit as exc:
        return _fail(2, exc)
    except ValidationError as exc:
        return _fail(3, exc)
    except QEraserError as exc:
        return _fail(3, exc)
    except OSError as exc:
        return _fail(4, exc)


if __name__ == "__main__":
    sys.exit(main())
