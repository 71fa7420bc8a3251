"""Run one benchmark workload in this process and print its numbers.

Started by run.py, one process per workload, with BLAS pinned to one
thread. The process imports qeraser from the checkout's src/, builds the
seeded op pool, runs the warm-up op (pool entry 0), and then runs whole
rounds of the pool as a closed loop with one client until the summed op
time reaches --seconds. Every op's output is checked (see verify.py).

Untraced, it reports end-to-end numbers. With --trace 1 it alternates an
untraced and a traced pass over the same round order, reports the
per-layer metrics of the traced passes and the difference between the
two passes as tracing overhead, and writes every span to --out-dir.

The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import qeraser  # noqa: E402
from qeraser import analysis, cli, marker, nchannel, twoslit  # noqa: E402

import numpy  # noqa: E402
from tracing import PER_LAYER_UNITS, Tracer, layer_metrics  # noqa: E402
from verify import OutputChecker, OutputMismatch  # noqa: E402
from workloads import SIZES, build_pool, round_order  # noqa: E402

MAX_FAILURE_MESSAGES = 5


def verify_op(inputs: dict) -> dict:
    """One verify_wide op: library calls only, nothing sampled or emitted."""
    grid = twoslit.build_grid(
        twoslit.ScreenGeometry(*inputs["geometry"]), "gaussian", inputs["sigma"]
    )
    screen = twoslit.marked_state(grid)
    config = nchannel.random_config(inputs["config_n"], inputs["config_seed"])
    channel = nchannel.final_state_marked(config)
    theta_a, theta_b = inputs["angles"]
    bases = (marker.which_path_basis(), marker.erasure_basis(theta_a), marker.erasure_basis(theta_b))
    tables, infos, residuals = [], [], []
    for state in (screen, channel):
        for basis in bases:
            for order in analysis.ORDERS:
                table = analysis.joint_distribution(state, basis, order)
                tables.append(table)
                infos.append(analysis.mutual_information(table))
            residuals.append(analysis.ordering_invariance_residual(state, basis))
    return {
        "tables": tables,
        "mutual_information": infos,
        "residuals": residuals,
        "screen_delayed": [
            twoslit.delayed_marker_state_at(grid, k) for k in inputs["probe_bins"]
        ],
        "config": config,
        "channel_delayed": [
            nchannel.delayed_marker_state(channel, j) for j in range(1, config.n + 1)
        ],
        "washed": twoslit.pattern_marked_unconditioned(grid),
        "complementarity": [
            (twoslit.pattern_conditioned(grid, theta, "plus"),
             twoslit.pattern_conditioned(grid, theta, "minus"))
            for theta in (theta_a, theta_b)
        ],
    }


class Runner:
    """Runs and checks the ops of one workload's pool."""

    def __init__(self, workload: str, seed: int, work_dir: Path, sizes=SIZES):
        self.workload = workload
        self.seed = seed
        work_dir.mkdir(parents=True, exist_ok=True)
        self.pool, files = build_pool(workload, seed, work_dir, sizes)
        for path, text in files.items():
            Path(path).write_text(text, encoding="utf-8")
        self.checker = OutputChecker()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tracer: Tracer | None = None
        self._stdout = io.StringIO()

    def run_op(self, slot: int) -> float:
        """Run pool entry `slot`, check its output, return its wall seconds."""
        op = self.pool[slot]
        if op.output:
            Path(op.output).unlink(missing_ok=True)
        buffer = self._stdout
        buffer.seek(0)
        buffer.truncate()
        exit_code = payload = None
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buffer):
                if op.check == "verify":
                    payload = verify_op(op.inputs)
                else:
                    exit_code = cli.main(list(op.argv))
        except Exception:  # an op that raises is a failed op, not a dead run
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        self.attempted += 1
        try:
            if error is not None:
                raise OutputMismatch(f"raised:\n{error}")
            if op.output:
                payload = Path(op.output).read_bytes()
                if self.tracer is not None:
                    self.tracer.counts["cli.bytes_written"] += len(payload)
            elif op.check == "check":
                payload = buffer.getvalue().encode("utf-8")
            self.checker.check(slot, op, exit_code, payload)
        except (OutputMismatch, OSError) as exc:
            self.failed += 1
            if len(self.failures) < MAX_FAILURE_MESSAGES:
                self.failures.append(f"{op.label}: {exc}")
        return elapsed

    def run_round(self, round_index: int) -> list[float]:
        return [
            self.run_op(slot)
            for slot in round_order(self.workload, self.seed, round_index, len(self.pool))
        ]

    def run_traced_round(self, round_index: int, tracer: Tracer) -> list[float]:
        tracer.install()
        self.tracer = tracer
        try:
            times = []
            for slot in round_order(self.workload, self.seed, round_index, len(self.pool)):
                tracer.op += 1
                times.append(self.run_op(slot))
            return times
        finally:
            self.tracer = None
            tracer.uninstall()


def _percentile_ms(times: list[float], q: int) -> float:
    if len(times) == 1:
        return times[0] * 1e3
    return statistics.quantiles(times, n=100, method="inclusive")[q - 1] * 1e3


def measure(runner: Runner, seconds: float) -> dict:
    """Untraced closed loop of whole rounds; end-to-end metrics.

    The op percentiles are taken over the pool's ops, each counted once at
    its mean time across the rounds. On a shared host the CPU's speed can
    drift by ~40% over seconds to minutes; a percentile over single op
    times, or over per-op medians, jumps between drift levels or between
    two unlike op kinds, while the per-op mean moves only with the drift.
    """
    per_op: list[list[float]] = [[] for _ in runner.pool]
    rounds = 0
    elapsed = 0.0
    while rounds == 0 or elapsed < seconds:
        for slot in round_order(runner.workload, runner.seed, rounds, len(runner.pool)):
            seconds_taken = runner.run_op(slot)
            per_op[slot].append(seconds_taken)
            elapsed += seconds_taken
        rounds += 1
    op_times = [statistics.fmean(times) for times in per_op]
    return {
        "ops_per_s": rounds * len(runner.pool) / elapsed,
        "op_p50_ms": statistics.median(op_times) * 1e3,
        "op_p90_ms": _percentile_ms(op_times, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": rounds * len(runner.pool),
        "rounds": rounds,
        "timed_s": elapsed,
    }


def measure_traced(runner: Runner, seconds: float, spans_path: Path) -> dict:
    """Paired untraced/traced rounds; per-layer metrics and overhead."""
    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []
    rounds = 0
    while rounds == 0 or sum(plain) + sum(traced) < seconds:
        # Alternate which pass goes first, so warm-up effects cancel in the overhead.
        if rounds % 2:
            traced += runner.run_traced_round(rounds, tracer)
            plain += runner.run_round(rounds)
        else:
            plain += runner.run_round(rounds)
            traced += runner.run_traced_round(rounds, tracer)
        rounds += 1
    values = layer_metrics(tracer, len(traced))
    values["trace.overhead_ms_per_op"] = (sum(traced) - sum(plain)) * 1e3 / len(traced)
    tracer.dump(spans_path)
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()
    }
    return {"metrics": metrics, "ops": len(traced), "rounds": rounds}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() just before this process was spawned")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after the warm-up op and report set-up time only")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    if Path(qeraser.__file__).resolve().parent != (SRC / "qeraser").resolve():
        print(f"qeraser imported from {qeraser.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir)
    runner = Runner(args.workload, args.seed, out_dir / f"work-{args.workload}")
    runner.run_op(0)
    gc.collect()
    result = {"setup_s": time.monotonic() - args.started, "numpy": numpy.__version__}
    if not args.setup_only:
        if args.trace:
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
            result.update(measure_traced(runner, args.seconds, spans))
        else:
            result.update(measure(runner, args.seconds))
    result.update(
        attempted=runner.attempted, failed=runner.failed, failures=runner.failures
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
