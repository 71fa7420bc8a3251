"""Span tracing around the public functions of every qeraser layer.

`Tracer.install()` replaces each traced function at module-attribute
level in every loaded qeraser module that binds it (for example
`erasure_basis` in `marker`, `twoslit`, `nchannel`, `cli` and `checks`),
and wraps the constructors of `PureState` and `DensityOperator` and the
draw methods of `SplitMix64` on their classes. `uninstall()` restores
the originals. A traced name that no longer exists raises, so a rename
fails loudly instead of silently dropping a metric.

Spans (id, name, start, end, parent span, op id) and counts are kept in
memory and written out with `dump()` when the run ends. A span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

#: (module, attribute) of every traced public function; spans are named
#: "<module>.<attribute>".
FUNCTIONS = (
    ("analysis", "sample_events"),
    ("analysis", "sample_outcomes"),
    ("analysis", "joint_distribution"),
    ("analysis", "mutual_information"),
    ("cli", "main"),
    ("cli", "run"),
    ("cli", "build_parser"),
    ("cli", "emit_event_log"),
    ("cli", "emit_pattern_csv"),
    ("cli", "emit_pattern_json"),
    ("_svg", "line_chart"),
    ("_svg", "bar_chart"),
    ("checks", "run_checks"),
    ("core", "make_state"),
    ("core", "project_marker"),
    ("core", "project_system"),
    ("marker", "erasure_basis"),
    ("nchannel", "random_config"),
    ("nchannel", "delayed_marker_state"),
    ("twoslit", "build_grid"),
    ("twoslit", "marked_state"),
    ("twoslit", "delayed_marker_state_at"),
)

#: (module, class, method, span name) of every traced method.
METHODS = (
    ("core", "PureState", "__post_init__", "core.PureState"),
    ("core", "DensityOperator", "__post_init__", "core.DensityOperator"),
    ("rng", "SplitMix64", "uint64s", "rng.uint64s"),
    ("rng", "SplitMix64", "floats", "rng.floats"),
    ("rng", "SplitMix64", "next_uint64", "rng.next_uint64"),
)

_RANDOM_CONFIG = "nchannel.random_config"


def _joint_name(args, kwargs):
    order = kwargs["order"] if "order" in kwargs else args[2]
    return f"analysis.joint_distribution.{order}"


def _count_rows(tracer, args, kwargs, result):
    tracer.counts["analysis.joint_rows"] += result.probabilities.shape[0]


def _count_events(tracer, args, kwargs, result):
    tracer.counts["analysis.event_records"] += len(result)


def _count_batch(tracer, args, kwargs, result):
    tracer.counts["rng.draws"] += len(result)
    if tracer.active_random_config:
        tracer.counts["rng.batches_in_random_config"] += 1


def _count_scalar_draw(tracer, args, kwargs, result):
    tracer.counts["rng.draws"] += 1


def _count_state(tracer, args, kwargs, result):
    state = args[0]
    # Computed, not measured: 16 B per complex128 amplitude.
    tracer.counts["core.state_bytes"] += 16 * state.system_dim * state.marker_dim


_HOOKS = {
    "analysis.joint_distribution": _count_rows,
    "analysis.sample_events": _count_events,
    "rng.uint64s": _count_batch,
    "rng.next_uint64": _count_scalar_draw,
    "core.PureState": _count_state,
}


class Tracer:
    """In-memory span and count recorder for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.ids = array("q")
        self.name_ids = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.op_ids = array("q")
        self.next_id = 0
        self.current = -1
        self.op = -1
        self.counts: dict[str, int] = {
            "analysis.joint_rows": 0,
            "analysis.event_records": 0,
            "rng.draws": 0,
            "rng.batches_in_random_config": 0,
            "core.state_bytes": 0,
            "cli.bytes_written": 0,
        }
        self.active_random_config = 0
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name, name_of=None):
        tracer = self
        clock = time.perf_counter_ns
        fixed_id = self.name_id(name)
        hook = _HOOKS.get(name)
        watch = name == _RANDOM_CONFIG

        def traced(*args, **kwargs):
            span = tracer.next_id
            tracer.next_id = span + 1
            parent = tracer.current
            tracer.current = span
            name_id = tracer.name_id(name_of(args, kwargs)) if name_of else fixed_id
            if watch:
                tracer.active_random_config += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer.current = parent
                if watch:
                    tracer.active_random_config -= 1
                tracer.ids.append(span)
                tracer.name_ids.append(name_id)
                tracer.starts.append(start)
                tracer.ends.append(end)
                tracer.parents.append(parent)
                tracer.op_ids.append(tracer.op)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function and method; raise if one is missing."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        missing = [
            f"{module}.{attr}" for module, attr in FUNCTIONS
            if not callable(getattr(importlib.import_module(f"qeraser.{module}"), attr, None))
        ] + [
            f"{module}.{cls}.{meth}" for module, cls, meth, _ in METHODS
            if not callable(getattr(
                getattr(importlib.import_module(f"qeraser.{module}"), cls, None), meth, None))
        ]
        if missing:
            raise AttributeError(f"traced names missing from qeraser: {missing}")
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "qeraser" or name.startswith("qeraser."))
        ]
        for module, attr in FUNCTIONS:
            original = getattr(importlib.import_module(f"qeraser.{module}"), attr)
            name = f"{module}.{attr}"
            wrapper = self._wrap(
                original, name, _joint_name if attr == "joint_distribution" else None
            )
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, binding, original))
                        setattr(mod, binding, wrapper)
        for module, cls_name, meth, name in METHODS:
            cls = getattr(importlib.import_module(f"qeraser.{module}"), cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, binding, original in reversed(self._restore):
            setattr(owner, binding, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def self_ns(self) -> dict[str, int]:
        """Total self time per span name, in nanoseconds."""
        if not self.ids:
            return {}
        size = self.next_id
        ids = np.frombuffer(self.ids, dtype=np.int64)
        duration = np.zeros(size, dtype=np.int64)
        duration[ids] = np.frombuffer(self.ends, np.int64) - np.frombuffer(self.starts, np.int64)
        parent = np.full(size, -1, dtype=np.int64)
        parent[ids] = np.frombuffer(self.parents, np.int64)
        name = np.full(size, -1, dtype=np.int64)
        name[ids] = np.frombuffer(self.name_ids, np.int64)
        has_parent = parent >= 0
        children = np.zeros(size, dtype=np.int64)
        np.add.at(children, parent[has_parent], duration[has_parent])
        own = duration - children
        recorded = name >= 0
        totals = np.bincount(name[recorded], weights=own[recorded], minlength=len(self.names))
        return {n: int(totals[i]) for i, n in enumerate(self.names)}

    def calls(self) -> dict[str, int]:
        counts = np.bincount(np.frombuffer(self.name_ids, np.int64), minlength=len(self.names))
        return {n: int(counts[i]) for i, n in enumerate(self.names)}

    def dump(self, path) -> None:
        """Write every recorded span to a compressed .npz file."""
        np.savez_compressed(
            path,
            span=np.frombuffer(self.ids, np.int64),
            name=np.frombuffer(self.name_ids, np.int64),
            start_ns=np.frombuffer(self.starts, np.int64),
            end_ns=np.frombuffer(self.ends, np.int64),
            parent=np.frombuffer(self.parents, np.int64),
            op=np.frombuffer(self.op_ids, np.int64),
            names=np.array(self.names),
        )


def _per_op(value, ops):
    return value / ops if ops else 0.0


#: Per-layer metrics of the traced run and their units; values are per op.
PER_LAYER_UNITS = {
    "analysis.sample_events.self_ms": "ms/op",
    "analysis.event_records": "1/op",
    "cli.emit_event_log.self_ms": "ms/op",
    "rng.draws": "1/op",
    "rng.self_ms": "ms/op",
    "analysis.sample_outcomes.self_ms": "ms/op",
    "analysis.joint_distribution.system_first.self_ms": "ms/op",
    "analysis.joint_distribution.marker_first.self_ms": "ms/op",
    "analysis.joint_rows": "1/op",
    "core.project_system.calls": "1/op",
    "core.project_system.self_ms": "ms/op",
    "core.DensityOperator.calls": "1/op",
    "twoslit.marked_state.calls": "1/op",
    "twoslit.delayed_marker_state_at.self_ms": "ms/op",
    "nchannel.delayed_marker_state.self_ms": "ms/op",
    "analysis.mutual_information.self_ms": "ms/op",
    "nchannel.random_config.self_ms": "ms/op",
    "nchannel.random_config.accept_ratio": "ratio",
    "checks.run_checks.self_ms": "ms/op",
    "cli.build_parser.self_ms": "ms/op",
    "cli.run.self_ms": "ms/op",
    "cli.main.self_ms": "ms/op",
    "cli.emit_pattern_csv.self_ms": "ms/op",
    "cli.emit_pattern_json.self_ms": "ms/op",
    "svg.self_ms": "ms/op",
    "cli.bytes_written": "B/op",
    "core.make_state.self_ms": "ms/op",
    "core.project_marker.self_ms": "ms/op",
    "core.state_bytes": "B/op",
    "twoslit.build_grid.self_ms": "ms/op",
    "marker.erasure_basis.calls": "1/op",
    "marker.erasure_basis.self_ms": "ms/op",
    "trace.overhead_ms_per_op": "ms/op",
}

#: Metric prefixes that sum the self time of a whole module's spans.
_LAYER_SUMS = {"svg": "_svg.", "rng": "rng."}


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-op values of every per-layer metric except the overhead.

    Layers a workload never calls report 0, and so does the accept ratio
    when `random_config` never ran.
    """
    own = tracer.self_ns()
    calls = tracer.calls()
    metrics = {}
    for metric in PER_LAYER_UNITS:
        base, _, kind = metric.rpartition(".")
        if kind == "self_ms":
            prefix = _LAYER_SUMS.get(base)
            total = sum(
                ns for name, ns in own.items()
                if (name.startswith(prefix) if prefix else name == base)
            )
            metrics[metric] = _per_op(total / 1e6, ops)
        elif kind == "calls":
            metrics[metric] = _per_op(calls.get(base, 0), ops)
        elif metric in tracer.counts:
            metrics[metric] = _per_op(tracer.counts[metric], ops)
    batches = tracer.counts["rng.batches_in_random_config"]
    metrics["nchannel.random_config.accept_ratio"] = (
        calls.get(_RANDOM_CONFIG, 0) / batches if batches else 0.0
    )
    return metrics
