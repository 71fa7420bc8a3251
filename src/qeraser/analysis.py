"""Cross-cutting verification engine.

Joint system/marker distributions computed in either measurement order,
the ordering-invariance residual between them, the maximally correlated
two-spin pair the eraser is isomorphic to, and deterministic Monte Carlo
event sampling.

The "delayed mode" is the `system_first` ordering tag: the system outcome
is projected first and the marker conditional read off afterwards. No
wall-clock time is simulated; the content of the orderings is which
projection is applied first.

Event logs use one CSV line per detection,

    scenario_id,event_index,system_outcome,marker_outcome,order,seed

with a header row; marker_outcome indexes the chosen marker basis (0 for
plus/d1, 1 for minus/d2). Sampling is inverse-CDF over the exact joint
table driven by the splitmix64 stream specified in `rng`, so identical
(scenario, seed) pairs yield byte-identical logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from . import core
from .errors import (
    DimensionMismatchError,
    InvalidCountError,
    ValidationError,
    ZeroProbabilityError,
)
from .rng import SplitMix64, checked_seed

MARKER_FIRST = "marker_first"
SYSTEM_FIRST = "system_first"
ORDERS = (MARKER_FIRST, SYSTEM_FIRST)


@dataclass(frozen=True, eq=False)
class JointTable:
    """Joint probabilities over (system outcome, marker outcome)."""

    row_labels: tuple
    col_labels: tuple
    probabilities: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=np.float64)
        rows, cols = len(self.row_labels), len(self.col_labels)
        if probs.shape != (rows, cols):
            raise DimensionMismatchError(f"table shape {probs.shape} does not match labels")
        probs = core.checked_probabilities(probs, "joint table entries")
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "row_labels", tuple(self.row_labels))
        object.__setattr__(self, "col_labels", tuple(self.col_labels))


def joint_distribution(
    state: core.PureState, marker_basis, order: str, system_labels=None
) -> JointTable:
    """Joint table P(system outcome, marker outcome) for one ordering.

    marker_first projects each basis element (core.project_marker) and
    then measures the residual over the system. system_first conditions
    the marker on every system outcome at once (core.condition_on_system)
    and reads each conditional in the basis: cell (s, m) is
    weight_s * |<m|conditional_s>|^2, and outcomes of zero probability
    leave all-zero rows. The two orderings are separate arithmetic that
    fill the same table and agree entrywise (see
    ordering_invariance_residual).

    system_labels, when given, names the rows (e.g. 1-based detector
    numbers); the default is the 0-based outcome index. marker_basis is a
    pair of orthogonal MarkerStates, such as erasure_basis(theta) or
    which_path_basis().

    Without system_labels, while a caller holds a table, a call with the
    same state and order and a basis of equal vectors and labels returns
    that same immutable table instead of computing it again.
    """
    if order not in ORDERS:
        raise ValidationError(f"order must be one of {ORDERS}, got {order!r}")
    first, second = marker_basis
    if abs(first.overlap(second)) > core.ATOL:
        raise ValidationError("marker basis states must be orthogonal")
    if system_labels is None:
        # Keyed on the order as well: the two orderings stay two computations.
        key = (order, first.vector.tobytes(), second.vector.tobytes(), first.label, second.label)
        return core._memo(
            state, key, lambda: _joint_table(state, first, second, order, range(state.system_dim))
        )
    system_labels = tuple(system_labels)
    if len(system_labels) != state.system_dim:
        raise DimensionMismatchError("system_labels must cover every system outcome")
    return _joint_table(state, first, second, order, system_labels)


def _joint_table(state, first, second, order, system_labels) -> JointTable:
    if order == MARKER_FIRST:
        table = np.zeros((state.system_dim, 2))
        for col, element in enumerate((first, second)):
            try:
                residual, branch = core.project_marker(state, element.vector)
            except ZeroProbabilityError:
                continue
            table[:, col] = branch * residual.system_probabilities()
    else:
        weights, conditionals = core.condition_on_system(state)
        basis = np.stack([first.vector, second.vector])
        table = weights[:, None] * np.abs(conditionals @ basis.conj().T) ** 2
    return JointTable(system_labels, (first.label, second.label), table)


def ordering_invariance_residual(state: core.PureState, marker_basis) -> float:
    """Largest entrywise gap between the two measurement orderings.

    Tables the caller still holds for this state and basis are reused.
    """
    first = joint_distribution(state, marker_basis, MARKER_FIRST)
    second = joint_distribution(state, marker_basis, SYSTEM_FIRST)
    return float(np.max(np.abs(first.probabilities - second.probabilities)))


def mutual_information(table: JointTable) -> float:
    """Mutual information of a joint table in bits, with 0 log 0 = 0."""
    probs = table.probabilities
    # Column sums on the usual two marker columns: np.sum's bytes, faster.
    rows = probs[:, 0] + probs[:, 1] if probs.shape[1] == 2 else probs.sum(axis=1)
    marginals = np.outer(rows, probs.sum(axis=0))
    live = probs > 0.0
    return float(np.sum(probs[live] * np.log2(probs[live] / marginals[live])))


# -- Two-spin pair isomorphic to the marked interferometer ------------------

_SQ = 1.0 / math.sqrt(2.0)
_SPIN_BASES = {
    "z": (("up", "down"), np.eye(2, dtype=np.complex128)),
    "x": (
        ("plus", "minus"),
        np.array([[_SQ, _SQ], [_SQ, -_SQ]], dtype=np.complex128),
    ),
}


def epr_state() -> core.PureState:
    """Maximally correlated pair (|up,up> + |down,down>) / sqrt(2).

    Identical amplitudes to the marked two-path state under the
    relabeling path A/B -> spin-1 up/down, d1/d2 -> spin-2 up/down; the
    same state reads (|+,+> + |-,->) / sqrt(2) in the x eigenbases.
    """
    return core.PureState(2, 2, np.array([_SQ, 0.0, 0.0, _SQ]))


def epr_correlation_table(basis1: str, basis2: str) -> JointTable:
    """Joint outcome table measuring spin 1 in basis1 and spin 2 in basis2.

    Same-basis tables are diag(1/2, 1/2) (perfect correlation); crossed
    bases give the uniform 1/4 table, carrying zero mutual information.
    """
    try:
        labels1, vecs1 = _SPIN_BASES[basis1]
        labels2, vecs2 = _SPIN_BASES[basis2]
    except KeyError as exc:
        raise ValidationError(f"unknown spin basis {exc.args[0]!r}") from None
    psi = epr_state().amplitudes.reshape(2, 2)
    table = np.empty((2, 2))
    for a in range(2):
        for b in range(2):
            amplitude = complex(vecs1[a].conj() @ psi @ vecs2[b].conj())
            table[a, b] = abs(amplitude) ** 2
    return JointTable(labels1, labels2, table)


# -- Seeded event sampling ---------------------------------------------------


class EventRecord(NamedTuple):
    """One sampled detection with its seed lineage, in log-column order."""

    scenario_id: str
    event_index: int
    system_outcome: int
    marker_outcome: int
    order: str
    seed: int


EVENT_LOG_HEADER = ",".join(EventRecord._fields)

#: Events drawn, and rows of an event log or pattern artifact formatted, at a time.
_EVENT_CHUNK = 1 << 16


def _rows(row: str, columns: tuple[np.ndarray, ...]) -> Iterator[str]:
    """`row % (c[i] for c in columns)` for each i, as _EVENT_CHUNK rows per chunk."""
    width = len(columns)
    for start in range(0, len(columns[0]), _EVENT_CHUNK):
        parts = [column[start : start + _EVENT_CHUNK].tolist() for column in columns]
        flat = [None] * (width * len(parts[0]))
        for offset, part in enumerate(parts):
            flat[offset::width] = part
        yield (row * len(parts[0])) % tuple(flat)


def _draws(table: JointTable, count: int, seed) -> Iterator[np.ndarray]:
    """Flat (row-major) cell indices of `count` inverse-CDF draws, in chunks.

    The seed rule (rng.checked_seed) and the count range are checked when
    this is called; the returned iterator then yields _EVENT_CHUNK cells at
    a time. The CDF is the running sum of the table rescaled so its last
    entry is exactly 1; a uniform u lands in the first cell whose CDF
    exceeds it, so zero-probability cells are never drawn. Output i of the
    splitmix64 stream depends only on (seed, i), so the chunks concatenate
    to the draws of one batch.
    """
    stream = SplitMix64(checked_seed(seed))
    if count < 1:
        raise InvalidCountError(f"count must be >= 1, got {count}")
    if count > core.MAX_SIZE:
        raise InvalidCountError(f"count must be <= {core.MAX_SIZE}, got {count}")
    cdf = np.cumsum(table.probabilities.reshape(-1))
    cdf /= cdf[-1]

    def chunks():
        for start in range(0, count, _EVENT_CHUNK):
            uniforms = stream.floats(min(_EVENT_CHUNK, count - start))
            yield np.searchsorted(cdf, uniforms, side="right")

    return chunks()


def sample_outcomes(table: JointTable, count: int, seed: int) -> np.ndarray:
    """Flat (row-major) cell indices of `count` inverse-CDF draws.

    count must be in [1, core.MAX_SIZE] and the seed an integer in
    [0, 2^64) (rng.checked_seed).
    """
    return np.concatenate(list(_draws(table, count, seed)))


def _event_inputs(state, marker_basis, order, count, seed, scenario_id, system_labels):
    """(cell draws, joint table, seed) of an event log, after every check.

    Both event-log paths call this before drawing anything, so a bad input
    raises before the first event or byte.
    """
    if not scenario_id.isprintable() or any(char in scenario_id for char in ",/\\"):
        raise ValidationError(
            f"scenario_id must be printable and contain no ',', '/' or '\\', got {scenario_id!r}"
        )
    table = joint_distribution(state, marker_basis, order, system_labels)
    if not all(isinstance(label, (int, np.integer)) for label in table.row_labels):
        raise ValidationError("system labels must be integers in event logs")
    return _draws(table, count, seed), table, int(seed)


def sample_events(
    state: core.PureState,
    marker_basis,
    order: str,
    count: int,
    seed: int,
    scenario_id: str = "scenario",
    system_labels=None,
) -> list[EventRecord]:
    """Deterministic i.i.d. event stream from the exact joint table.

    Each record carries the ordering tag and the stream seed; identical
    (scenario, seed) pairs reproduce the stream exactly; the seed must be
    an integer in [0, 2^64) (rng.checked_seed). scenario_id is a log field
    and the CLI's default file stem, so it must be printable (no CR, LF,
    tab, NUL or other control character) and hold no ',', '/' or '\\'.
    system_labels, when given, must be integers (e.g. 1-based detector
    numbers) and are used as the logged system outcomes.
    """
    draws, table, seed = _event_inputs(
        state, marker_basis, order, count, seed, scenario_id, system_labels
    )
    rows, markers = np.divmod(np.concatenate(list(draws)), len(table.col_labels))
    labels = [int(label) for label in table.row_labels]
    return [
        EventRecord(scenario_id, index, labels[row], marker, order, seed)
        for index, (row, marker) in enumerate(zip(rows.tolist(), markers.tolist()))
    ]


def event_log_chunks(
    state: core.PureState,
    marker_basis,
    order: str,
    count: int,
    seed: int,
    scenario_id: str = "scenario",
    system_labels=None,
) -> Iterator[str]:
    """The CSV text of sample_events' records, header first, in chunks.

    The chunks join to EVENT_LOG_HEADER and one comma-joined line per
    record, each ending in a newline. Every check of sample_events is
    made before this returns, so iterating raises no QEraserError; the
    rows are drawn and formatted _EVENT_CHUNK at a time, and no record
    object is built.
    """
    draws, table, seed = _event_inputs(
        state, marker_basis, order, count, seed, scenario_id, system_labels
    )
    # Everything after the event index depends only on the drawn cell.
    markers = range(len(table.col_labels))
    suffixes = np.array(
        [f"{int(label)},{m},{order},{seed}" for label in table.row_labels for m in markers],
        dtype=object,
    )
    row = scenario_id.replace("%", "%%") + ",%d,%s\n"

    def rows():
        yield EVENT_LOG_HEADER + "\n"
        start = 0
        for chunk in draws:
            yield from _rows(row, (np.arange(start, start + chunk.size), suffixes[chunk]))
            start += chunk.size

    return rows()
