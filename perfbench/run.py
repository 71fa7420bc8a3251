"""qeraser benchmark: run one workload (or all) and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli_small --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in processes of its own (perfbench/worker.py) with
BLAS pinned to one thread, so peak RSS and set-up time are per workload.
With --trace 0 the run spawns SETUP_RUNS - 1 set-up-only processes and
one measuring process, and reports the end-to-end metrics with set-up
time as the median over all of them. With --trace 1 one process reports
the per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it hold the run metadata
and a readable summary. The exit code is 0 only when every op's output
passed its checks. Outputs, span dumps and a copy of each result go to
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
DEFAULT_SECONDS = 20
SETUP_RUNS = 5
#: Workers still running this long after the run started are killed, so a
#: hung op ends the run inside the 180 s it may take.
DEADLINE_S = 170
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}


class WorkerFailed(Exception):
    pass


def _git_sha() -> str:
    """HEAD's sha read from .git without running git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def _src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src").rglob("*.py"))
    )


def metadata(numpy_version: str) -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {name: "1" for name in THREAD_ENV},
        "src_lines": _src_lines(),
        "loop": "closed, 1 client, 1 thread",
    }


def _worker(workload, seed, seconds, trace, setup_only, deadline) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({name: "1" for name in THREAD_ENV})
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--out-dir", str(OUT_DIR),
    ]
    if setup_only:
        argv.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.run(
        argv + ["--started", repr(started)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=max(1.0, deadline - started),
    )
    if proc.returncode != 0:
        raise WorkerFailed(
            f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """Spawn the workload's processes; return its result object."""
    runs = [] if trace else [
        _worker(workload, seed, seconds, trace, True, deadline) for _ in range(SETUP_RUNS - 1)
    ]
    main = _worker(workload, seed, seconds, trace, False, deadline)
    runs.append(main)
    setup_runs = [run["setup_s"] for run in runs]
    if trace:
        metrics = main["metrics"]
    else:
        values = dict(main, setup_s=statistics.median(setup_runs))
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": {
            "ops": main["ops"],
            "rounds": main["rounds"],
            "fail_ratio": failed / attempted,
            "setup_runs_s": setup_runs,
            "numpy": main["numpy"],
            "failures": [f for run in runs for f in run["failures"]],
        },
    }


def _summary(workload: str, result: dict) -> list[str]:
    detail = result["detail"]
    lines = [
        f"[{workload}] attempted {result['attempted']}, failed {result['failed']}, "
        f"fail_ratio {detail['fail_ratio']:.6g} failed/attempted, "
        f"{detail['ops']} timed ops in {detail['rounds']} rounds"
    ]
    lines += [
        f"[{workload}] {name} = {metric['value']:.6g} {metric['unit']}"
        for name, metric in result["metrics"].items()
    ]
    lines += [f"[{workload}] FAILED {message}" for message in detail["failures"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qeraser" / "__init__.py").is_file():
        print(f"no qeraser sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            deadline = time.monotonic() + DEADLINE_S
            results[workload] = run_workload(
                workload, args.seed, args.seconds, args.trace, deadline
            )
    except (WorkerFailed, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2
    finally:
        for workload in workloads:
            shutil.rmtree(OUT_DIR / f"work-{workload}", ignore_errors=True)

    meta = metadata(next(iter(results.values()))["detail"]["numpy"])
    meta.update(seed=args.seed, seconds=args.seconds, trace=args.trace)
    print(json.dumps({"metadata": meta}, sort_keys=True))
    for workload, result in results.items():
        print("\n".join(_summary(workload, result)))
        record = dict(result, workload=workload, metadata=meta)
        name = f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
        (OUT_DIR / name).write_text(json.dumps(record, indent=2) + "\n")
    if len(results) == 1:
        final = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{workload}/{name}": metric
                for workload, result in results.items()
                for name, metric in result["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
