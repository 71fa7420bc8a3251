"""Self-tests of the benchmark harness (run: python -m pytest perfbench)."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import tracing
import worker
from run import END_TO_END_UNITS
from tracing import PER_LAYER_UNITS, Tracer
from verify import OutputChecker, OutputMismatch
from workloads import TINY_SIZES, WORKLOADS, build_pool, round_order

ROOT = Path(__file__).resolve().parent.parent

#: Every per-layer value that is a count, not a time.
COUNTS = [name for name, unit in PER_LAYER_UNITS.items() if unit in ("1/op", "B/op", "ratio")]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_in_its_seed(workload, tmp_path):
    first = build_pool(workload, 7, tmp_path, TINY_SIZES)
    assert build_pool(workload, 7, tmp_path, TINY_SIZES) == first
    assert build_pool(workload, 8, tmp_path, TINY_SIZES) != first
    order = round_order(workload, 7, 3, len(first[0]))
    assert order == round_order(workload, 7, 3, len(first[0]))
    assert sorted(order) == list(range(len(first[0])))


def _outputs(runner):
    """sha256 of every slot's artifact file."""
    digests = {}
    for slot, op in enumerate(runner.pool):
        if op.output:
            digests[slot] = hashlib.sha256(Path(op.output).read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_leaves_outputs_unchanged(workload, tmp_path):
    runner = worker.Runner(workload, 5, tmp_path / "work", TINY_SIZES)
    runner.run_round(0)
    untraced = _outputs(runner)
    runner.run_traced_round(0, Tracer())
    assert _outputs(runner) == untraced
    # The checker also held every traced op to the untraced op's bytes or digest.
    assert runner.failed == 0, runner.failures
    assert runner.attempted == 2 * len(runner.pool)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_across_traced_runs(workload, tmp_path):
    runs = []
    for index in range(2):
        runner = worker.Runner(workload, 11, tmp_path / f"work{index}", TINY_SIZES)
        result = worker.measure_traced(runner, 0.0, tmp_path / f"spans{index}.npz")
        assert runner.failed == 0, runner.failures
        runs.append({name: result["metrics"][name]["value"] for name in COUNTS})
    assert runs[0] == runs[1]
    assert set(runs[0]) >= {
        "rng.draws", "analysis.event_records", "analysis.joint_rows",
        "core.state_bytes", "cli.bytes_written", "core.project_system.calls",
    }


def test_checker_rejects_a_wrong_or_changed_output(tmp_path):
    runner = worker.Runner("cli_small", 3, tmp_path / "work", TINY_SIZES)
    slot = next(i for i, op in enumerate(runner.pool) if op.check == "event_log")
    runner.run_op(slot)
    op = runner.pool[slot]
    good = Path(op.output).read_bytes()
    with pytest.raises(OutputMismatch, match="differs"):
        runner.checker.check(slot, op, 0, good.replace(b",", b";", 1))
    with pytest.raises(OutputMismatch, match="exit code"):
        runner.checker.check(slot, op, 3, good)
    with pytest.raises(OutputMismatch, match="event rows"):
        OutputChecker().check(slot, op, 0, good.rsplit(b"\n", 2)[0] + b"\n")


def test_every_traced_name_exists():
    import qeraser.marker
    import qeraser.twoslit

    original = qeraser.marker.erasure_basis
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = qeraser.twoslit.erasure_basis
        assert wrapped is not original and wrapped.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert qeraser.twoslit.erasure_basis is original


def test_renamed_function_fails_loudly(monkeypatch):
    monkeypatch.setattr(tracing, "FUNCTIONS", tracing.FUNCTIONS + (("core", "no_such_fn"),))
    with pytest.raises(AttributeError, match="core.no_such_fn"):
        Tracer().install()


def test_definition_matches_the_harness():
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in definition["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in definition["end_to_end"]] == list(END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in definition["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in definition["per_layer"]} == PER_LAYER_UNITS
    spec = json.loads((ROOT / "perfbench" / "spec.json").read_text())
    assert list(spec["workloads"]) == list(WORKLOADS)
    mapped = {name for entry in spec["layer_map"] for name in entry["per_layer"]}
    assert mapped == set(PER_LAYER_UNITS)
