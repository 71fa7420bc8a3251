"""Deterministic input generator for the qeraser benchmark.

Every input a run uses (CLI argv, config files, screen geometries, seeds,
angles) is drawn here from the workload seed with the standard-library
Mersenne Twister, never from the package under test, so a change to
`qeraser.rng` cannot change what the benchmark feeds it.

A workload is a fixed *pool* of ops built once per run. The timed loop
runs whole *rounds*; each round runs every op of the pool once, in a
seeded order of its own. Whole rounds keep the op mix, and so the op-time
percentiles and the per-op trace counts, independent of how many rounds
fit in the measured time. Pool entry 0 is the warm-up op.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("event_log", "verify_wide", "cli_small", "artifact_wide")
DEFAULT_SEED = 1

#: Op sizes from the middle rungs of the size ladder.
SIZES = {
    "event_count": 100_000,
    "channel_n": 10,
    "small_sample_count": 1000,
    "screen_bins": 32768,
    "config_n": 1024,
    "probe_bins": 32,
    "wide_bins": 2**18,
    "svg_bins": 2**16,
    "wide_n": 10_000,
    "config_file_n": 2048,
}

#: Same op mix at sizes small enough for the self-tests.
TINY_SIZES = {
    "event_count": 200,
    "channel_n": 10,
    "small_sample_count": 50,
    "screen_bins": 256,
    "config_n": 16,
    "probe_bins": 4,
    "wide_bins": 512,
    "svg_bins": 256,
    "wide_n": 64,
    "config_file_n": 32,
}


@dataclass(frozen=True)
class Op:
    """One closed-loop operation and what its output must satisfy.

    `check` names the artifact kind the output is verified as:
    event_log, pattern_csv, pattern_json, joint_csv, joint_json, svg,
    check (the `qeraser check` report) or verify (library results).
    """

    label: str
    check: str
    argv: tuple = ()
    output: str | None = None
    count: int | None = None
    inputs: dict = field(default_factory=dict)


def _angle(rng: random.Random) -> str:
    return f"{rng.uniform(0.0, math.pi):.6f}"


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2**32))


def _event_log(rng, out, sizes):
    ops = []
    for scenario in ("nchannel", "twoslit", "epr"):
        for order in ("marker_first", "system_first"):
            for basis in ("whichpath", "erasure"):
                slot = len(ops)
                path = str(out / f"slot{slot}.csv")
                argv = ["sample", "--scenario", scenario]
                if scenario == "nchannel":
                    argv += ["--n", str(sizes["channel_n"])]
                argv += ["--order", order, "--basis", basis]
                if basis == "erasure":
                    argv += ["--theta", _angle(rng)]
                argv += ["--count", str(sizes["event_count"]), "--seed", _seed(rng)]
                argv += ["--output", path]
                label = f"sample-{scenario}-{order}-{basis}"
                ops.append(Op(label, "event_log", tuple(argv), path, sizes["event_count"]))
    return ops, {}


def _verify_wide(rng, out, sizes):
    bins = sizes["screen_bins"]
    extent = rng.uniform(800.0, 2000.0)
    inputs = {
        "geometry": (2.0, 1.0, 1000.0, -extent, extent, bins),
        "sigma": rng.uniform(0.3, 1.0) * extent,
        "angles": (rng.uniform(0.0, math.pi), rng.uniform(0.0, math.pi)),
        "config_n": sizes["config_n"],
        "config_seed": rng.randrange(2**32),
        "probe_bins": tuple(sorted(rng.sample(range(bins), sizes["probe_bins"]))),
    }
    return [Op("verify", "verify", inputs=inputs)], {}


def _cli_small(rng, out, sizes):
    ops = []

    def add(label, check, argv, fmt, count=None):
        path = str(out / f"slot{len(ops)}.{fmt}")
        full = tuple(argv) + ("--format", fmt, "--output", path)
        ops.append(Op(label, check, full, path, count))

    pattern_check = {"csv": "pattern_csv", "json": "pattern_json", "svg": "svg"}
    for condition in ("none", "d1", "d2", "dplus", "dminus"):
        argv = ["nchannel", "--n", str(sizes["channel_n"]), "--condition", condition]
        if condition in ("dplus", "dminus"):
            argv += ["--theta", _angle(rng)]
        for fmt in ("csv", "json", "svg"):
            add(f"nchannel-{condition}-{fmt}", pattern_check[fmt], argv, fmt)
    for kind in ("conditioned", "bare", "washed"):
        argv = ["twoslit", "--kind", kind]
        if kind == "conditioned":
            argv += ["--theta", _angle(rng), "--sign", rng.choice(("plus", "minus"))]
        for fmt in ("csv", "json", "svg"):
            add(f"twoslit-{kind}-{fmt}", pattern_check[fmt], argv, fmt)
    for basis1 in ("z", "x"):
        for basis2 in ("z", "x"):
            argv = ["epr", "--basis1", basis1, "--basis2", basis2]
            for fmt in ("csv", "json"):
                add(f"epr-{basis1}{basis2}-{fmt}", f"joint_{fmt}", argv, fmt)
    # Both orders of every scenario, so the op mix and its cost do not
    # depend on the seed.
    count = sizes["small_sample_count"]
    for scenario in ("nchannel", "twoslit", "epr"):
        for order in ("marker_first", "system_first"):
            argv = [
                "sample", "--scenario", scenario, "--order", order,
                "--basis", "erasure", "--theta", _angle(rng),
                "--count", str(count), "--seed", _seed(rng),
            ]
            add(f"sample-{scenario}-{order}", "event_log", argv, "csv", count)
    # One op in twenty runs the invariant suite (2 of 40).
    for index in range(2):
        ops.append(Op(f"check-{index}", "check", ("check",)))
    return ops, {}


def _channel_phases(rng, n):
    """Valid splitter phases: phi_j - theta_j walk the n-th roots of unity."""
    thetas = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(n)]
    steps = list(range(n))
    rng.shuffle(steps)
    offset = rng.uniform(0.0, 2.0 * math.pi)
    phis = [t + offset + 2.0 * math.pi * k / n for t, k in zip(thetas, steps)]
    return thetas, phis


def _artifact_wide(rng, out, sizes):
    ops, files = [], {}
    n = sizes["config_file_n"]
    thetas, phis = _channel_phases(rng, n)
    config_path = str(out / "channel_config.json")
    files[config_path] = json.dumps({
        "kind": "nchannel",
        "parameters": {
            "preset": "custom", "n": n, "thetas": thetas, "phis": phis,
            "condition": "dplus", "theta": rng.uniform(0.0, math.pi),
        },
    })
    # Three small ops (nchannel), two mid-size svg ops and two large twoslit
    # ops per round: the median op always falls inside the svg block, far
    # from the overlapping small ops, and the 90th percentile inside the
    # large block.
    path = str(out / f"slot{len(ops)}.csv")
    argv = ("nchannel", "--config", config_path, "--format", "csv", "--output", path)
    ops.append(Op(f"nchannel-config-n{n}-csv", "pattern_csv", argv, path))

    extent = rng.uniform(1000.0, 3000.0)
    geometry = [
        "twoslit", "--preset", "custom", "--d", "2", "--wavelength", "1",
        "--L", f"{rng.uniform(500.0, 2000.0):.3f}",
        "--x-min", f"{-extent:.3f}", "--x-max", f"{extent:.3f}",
        "--envelope", "gaussian", "--sigma", f"{rng.uniform(0.5, 1.5) * extent:.3f}",
        "--kind", "conditioned", "--theta", _angle(rng),
    ]
    wide_sign = rng.choice(("plus", "minus"))
    for bins, fmt, check, sign in (
        (sizes["wide_bins"], "csv", "pattern_csv", wide_sign),
        (sizes["wide_bins"], "json", "pattern_json", wide_sign),
        (sizes["svg_bins"], "svg", "svg", "plus"),
        (sizes["svg_bins"], "svg", "svg", "minus"),
    ):
        path = str(out / f"slot{len(ops)}.{fmt}")
        argv = geometry + [
            "--sign", sign, "--bins", str(bins), "--format", fmt, "--output", path,
        ]
        ops.append(Op(f"twoslit-{bins}-{sign}-{fmt}", check, tuple(argv), path))
    for fmt in ("csv", "json"):
        path = str(out / f"slot{len(ops)}.{fmt}")
        argv = ["nchannel", "--n", str(sizes["wide_n"]), "--format", fmt, "--output", path]
        ops.append(Op(f"nchannel-{sizes['wide_n']}-{fmt}", f"pattern_{fmt}", tuple(argv), path))
    return ops, files


_BUILDERS = {
    "event_log": _event_log,
    "verify_wide": _verify_wide,
    "cli_small": _cli_small,
    "artifact_wide": _artifact_wide,
}


def build_pool(workload: str, seed: int, out_dir, sizes=SIZES):
    """The op pool and the input files (path -> text) for one run."""
    rng = random.Random(f"qeraser-bench:{workload}:{seed}")
    return _BUILDERS[workload](rng, Path(out_dir), sizes)


def round_order(workload: str, seed: int, round_index: int, pool_size: int) -> list[int]:
    """Seeded order in which round `round_index` runs the pool."""
    order = list(range(pool_size))
    random.Random(f"qeraser-bench:{workload}:{seed}:round{round_index}").shuffle(order)
    return order
