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
(scenario, seed) pairs yield byte-identical logs. `_text` lays the log out.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from . import _text, core
from .errors import (
    DimensionMismatchError,
    InvalidCountError,
    NoMarkerError,
    ValidationError,
)
from .marker import SQRT_HALF, erasure_basis, which_path_basis
from .rng import SplitMix64, unit_floats

MARKER_FIRST = "marker_first"
SYSTEM_FIRST = "system_first"
ORDERS = (MARKER_FIRST, SYSTEM_FIRST)


@dataclass(frozen=True, eq=False)
class JointTable:
    """Joint probabilities over (system outcome, marker outcome).

    The labels are kept as tuples, except that a `range` of row labels
    stays a range: a table over 32768 bins holds no tuple of 32768 ints.
    Labels that do not match the table's shape raise DimensionMismatchError.
    """

    row_labels: tuple | range
    col_labels: tuple
    probabilities: np.ndarray

    def __post_init__(self):
        probs = core._real_array(self.probabilities, "joint table entries")
        _set_labels(self, self.row_labels, self.col_labels, probs.shape)
        probs = core.checked_probabilities(probs, "joint table entries")
        object.__setattr__(self, "probabilities", probs)


def _set_labels(table: JointTable, row_labels, col_labels, shape) -> None:
    """Store JointTable's labels on `table`, a range of row labels as a
    range and any other labels as tuples, once they match `shape`."""
    if not isinstance(row_labels, range):
        row_labels = tuple(row_labels)
    col_labels = tuple(col_labels)
    if shape != (len(row_labels), len(col_labels)):
        raise DimensionMismatchError(f"table shape {shape} does not match labels")
    table.__dict__.update(row_labels=row_labels, col_labels=col_labels)


def _checked_table(row_labels, col_labels, probabilities: np.ndarray) -> JointTable:
    """JointTable around probabilities that core._checked_stack returned.

    Skips JointTable's probability checks, which _checked_stack has made,
    as core._normalized_state wraps states; the labels are stored and
    counted as JointTable does.
    """
    table = object.__new__(JointTable)
    _set_labels(table, row_labels, col_labels, probabilities.shape)
    table.__dict__["probabilities"] = probabilities
    return table


def joint_distribution(
    state: core.PureState, marker_basis, order: str, system_labels=None
) -> JointTable:
    """Joint table P(system outcome, marker outcome) for one ordering.

    The one-basis case of joint_distributions, which says how each ordering
    fills it. system_labels, when given, names the rows (e.g. 1-based
    detector numbers) and goes to JointTable as given; the default is the
    0-based outcome index. marker_basis is a pair of orthogonal
    MarkerStates, such as erasure_basis(theta) or which_path_basis().

    Without system_labels, while a caller holds a table, a call with the
    same state and order and a basis of equal vectors and labels returns
    that same immutable table instead of computing it again.
    """
    if system_labels is None:
        first, second = marker_basis
        # Keyed on the order as well: the two orderings stay two computations.
        key = (order, first.vector.tobytes(), second.vector.tobytes(), first.label, second.label)
        return core._memo(state, key, lambda: joint_distributions(state, [marker_basis], order)[0])
    return _joint_tables(state, [marker_basis], order, system_labels)[0]


def joint_distributions(state: core.PureState, bases, order: str) -> list[JointTable]:
    """joint_distribution(state, basis, order) for each basis in `bases`, in one pass.

    Table k equals joint_distribution(state, bases[k], order) bit for bit.
    marker_first projects the marker onto all 2K basis elements with one
    ufunc kernel (core._project_markers) and measures each residual over
    the system: cell (s, m) is branch_m * |residual_m(s)|^2, and an
    element the state never projects onto leaves an all-zero column.
    system_first conditions the marker on every system outcome once
    (core.condition_on_system) and reads each conditional in each basis:
    cell (s, m) is weight_s * |<m|conditional_s>|^2, and outcomes of zero
    probability leave all-zero rows. The two orderings are separate
    arithmetic that fill the same table and agree entrywise (see
    ordering_invariance_residual).

    Every basis is checked before any table is built: a pair that is not
    orthogonal raises ValidationError, a marker-free state NoMarkerError.
    An empty `bases` gives an empty list, after the same checks. The
    tables' rows are the 0-based outcome indices. These calls neither read
    nor fill joint_distribution's memo.
    """
    return _joint_tables(state, bases, order, range(state.system_dim))


def _joint_tables(state, bases, order, system_labels) -> list[JointTable]:
    if order not in ORDERS:
        raise ValidationError(f"order must be one of {ORDERS}, got {order!r}")
    pairs = [(first, second) for first, second in bases]
    if any(abs(first.overlap(second)) > core.ATOL for first, second in pairs):
        raise ValidationError("marker basis states must be orthogonal")
    if state.marker_dim != 2:
        raise NoMarkerError("state has no marker to measure")
    # _marker_first and _system_first check their stack while their
    # temporaries are still held: the checked copy, which the tables keep,
    # is then allocated above them, so glibc reuses their freed space for
    # the next table instead of trimming it and faulting it in again
    # (BENCH_28.json, verify_wide_minor_faults).
    if order == MARKER_FIRST:
        stack = _marker_first(state, pairs)
    else:
        stack = _system_first(state, pairs)
    return [
        _checked_table(system_labels, (first.label, second.label), probabilities)
        for probabilities, (first, second) in zip(stack, pairs)
    ]


def _marker_first(state, pairs) -> np.ndarray:
    """The checked (K, S, 2) stack of marker_first tables (see joint_distributions)."""
    vectors = np.array([[m.c1, m.c2] for pair in pairs for m in pair], np.complex128)
    stack = np.zeros((len(pairs), state.system_dim, 2))
    columns = (table[:, col] for table in stack for col in range(2))
    projections = core._project_markers(state, vectors.reshape(-1, 2))
    for column, (residual, probability) in zip(columns, projections):
        if probability >= core.ZERO_PROBABILITY:
            branch = core._checked_probability(probability, "marker projection probability")
            np.multiply(np.abs(residual) ** 2, branch, out=column)
    return core._checked_stack(stack, "joint table entries")


def _system_first(state, pairs) -> np.ndarray:
    """The checked (K, S, 2) stack of system_first tables (see joint_distributions)."""
    weights, conditionals = core.condition_on_system(state)
    stack = np.empty((len(pairs), state.system_dim, 2))
    for table, (first, second) in zip(stack, pairs):
        overlaps = conditionals @ np.stack([first.vector, second.vector]).conj().T
        for col in range(2):  # column by column: no broadcast over the 2-wide axis
            np.multiply(weights, np.abs(overlaps[:, col]) ** 2, out=table[:, col])
    return core._checked_stack(stack, "joint table entries")


def _table_gap(first: JointTable, second: JointTable) -> float:
    """Largest entrywise gap between two tables of one shape."""
    return float(np.max(np.abs(first.probabilities - second.probabilities)))


def ordering_invariance_residual(state: core.PureState, marker_basis) -> float:
    """Largest entrywise gap between the two measurement orderings.

    Tables the caller still holds for this state and basis are reused.
    """
    return _table_gap(
        joint_distribution(state, marker_basis, MARKER_FIRST),
        joint_distribution(state, marker_basis, SYSTEM_FIRST),
    )


def mutual_information(table: JointTable) -> float:
    """Mutual information of a joint table in bits, with 0 log 0 = 0."""
    probs = table.probabilities
    # Column by column: an outer product or a reduction across the 2-wide
    # marker axis costs more than the logarithms.
    rows = probs[:, 0] + probs[:, 1] if probs.shape[1] == 2 else probs.sum(axis=1)
    total = 0.0
    for col in range(probs.shape[1]):
        column = probs[:, col]
        live = column > 0.0
        cells = column[live]
        total += float(np.sum(cells * np.log2(cells / (rows[live] * column.sum()))))
    return total


# -- Two-spin pair isomorphic to the marked interferometer ------------------

_SPIN_BASES = {
    "z": (("up", "down"), which_path_basis()),
    "x": (("plus", "minus"), erasure_basis(0.0)),
}


def epr_state() -> core.PureState:
    """Maximally correlated pair (|up,up> + |down,down>) / sqrt(2).

    Identical amplitudes to the marked two-path state under the
    relabeling path A/B -> spin-1 up/down, d1/d2 -> spin-2 up/down; the
    same state reads (|+,+> + |-,->) / sqrt(2) in the x eigenbases.
    """
    return core.PureState(2, 2, np.array([SQRT_HALF, 0.0, 0.0, SQRT_HALF]))


def epr_correlation_table(basis1: str, basis2: str) -> JointTable:
    """Joint outcome table measuring spin 1 in basis1 and spin 2 in basis2.

    Same-basis tables are diag(1/2, 1/2) (perfect correlation); crossed
    bases give the uniform 1/4 table, carrying zero mutual information.
    """
    try:
        labels1, pair1 = _SPIN_BASES[basis1]
        labels2, pair2 = _SPIN_BASES[basis2]
    except KeyError as exc:
        raise ValidationError(f"unknown spin basis {exc.args[0]!r}") from None
    psi = epr_state().amplitudes.reshape(2, 2)
    table = np.empty((2, 2))
    for a in range(2):
        for b in range(2):
            amplitude = complex(pair1[a].vector.conj() @ psi @ pair2[b].vector.conj())
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


def _draws(table: JointTable, count: int, seed) -> Iterator[np.ndarray]:
    """Flat (row-major) cell indices of `count` inverse-CDF draws, in chunks.

    The seed rule (SplitMix64's constructor) and the count range are
    checked when this is called; the returned iterator then yields
    _text.CHUNK cells at a time. The CDF is the running sum of the table
    rescaled so its last entry is exactly 1; a uniform u (rng.unit_floats)
    lands in the first cell whose CDF exceeds it, so zero-probability cells
    are never drawn.
    Output i of the splitmix64 stream depends only on (seed, i), so the
    chunks concatenate to the draws of one batch.

    A guide table (Chen & Asau 1974; Devroye 1986, III.2.4) makes most draws
    a lookup. The top `bits` bits of an output name the bucket
    [j, j + 1) / 2^bits that holds its u. One search over the bucket edges
    gives each edge's cell; where a bucket's two edges share a cell, every
    u in it lands there, and only the draws in the other, split buckets are
    searched. The rule is unchanged, so the draws are the same cells, bit
    for bit. With fewer buckets than cells nearly every bucket is split and
    the table costs more than it saves (BENCH_25.json, "guide_table"); there
    bits is 0, and the one bucket is split, so every draw is searched.
    """
    stream = SplitMix64(seed)
    count = core._integer(count, "count", 1, core.MAX_SIZE, InvalidCountError)
    cdf = np.cumsum(table.probabilities.reshape(-1))
    cdf /= cdf[-1]
    # At most 2^16 buckets, 16 per cell, and fewer buckets than draws.
    bits = min(16, cdf.size.bit_length() + 4, max(count.bit_length() - 1, 0))
    if (1 << bits) < cdf.size:
        bits = 0
    guide = np.searchsorted(cdf, np.arange((1 << bits) + 1) * 2.0**-bits, side="right")
    split = guide[1:] > guide[:-1]
    chunk = _text.CHUNK

    def chunks():
        for start in range(0, count, chunk):
            outputs = stream.uint64s(min(chunk, count - start))
            if not bits:  # one split bucket: every draw is searched
                yield np.searchsorted(cdf, unit_floats(outputs), side="right")
                continue
            buckets = (outputs >> np.uint64(64 - bits)).astype(np.intp)
            cells = guide[buckets]
            searched = np.flatnonzero(split[buckets])
            cells[searched] = np.searchsorted(cdf, unit_floats(outputs[searched]), side="right")
            yield cells

    return chunks()


def sample_outcomes(table: JointTable, count: int, seed: int) -> np.ndarray:
    """Flat (row-major) cell indices of `count` inverse-CDF draws.

    count must be an integer in [1, core.MAX_SIZE] and the seed an integer
    in [0, 2^64) (SplitMix64's seed rule).
    """
    return np.concatenate(list(_draws(table, count, seed)))


def _event_inputs(state, marker_basis, order, count, seed, scenario_id, system_labels):
    """(cell draws, int row labels, column count, seed, count) of an event
    log, after every check.

    Both event-log paths call this before drawing anything, so a bad input
    raises before the first event or byte.
    """
    if not scenario_id.isprintable() or any(char in scenario_id for char in ",/\\"):
        raise ValidationError(
            f"scenario_id must be printable and contain no ',', '/' or '\\', got {scenario_id!r}"
        )
    table = joint_distribution(state, marker_basis, order, system_labels)
    labels = table.row_labels
    if not isinstance(labels, range):  # a range's labels are ints already
        labels = [
            core._integer(label, "system label", -math.inf, math.inf, ValidationError)
            for label in labels
        ]
    draws = _draws(table, count, seed)  # checks the seed and the count
    return draws, labels, len(table.col_labels), int(seed), int(count)


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
    an integer in [0, 2^64) (SplitMix64's seed rule). scenario_id is a log
    field and the CLI's default file stem, so it must be printable (no CR,
    LF, tab, NUL or other control character) and hold no ',', '/' or '\\'.
    system_labels, when given, must be integers (e.g. 1-based detector
    numbers) and are used as the logged system outcomes.
    """
    draws, labels, columns, seed, _ = _event_inputs(
        state, marker_basis, order, count, seed, scenario_id, system_labels
    )
    rows, markers = np.divmod(np.concatenate(list(draws)), columns)
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
) -> Iterator[bytes | bytearray]:
    """The CSV of sample_events' records, header first, in chunks of UTF-8 bytes.

    The chunks join to the encoded EVENT_LOG_HEADER and one comma-joined
    line per record, each ending in a newline. Every check of sample_events is
    made before this returns, so iterating raises no QEraserError; the
    rows are drawn and laid out _text.CHUNK at a time (_text.event_rows),
    and no record object is built. The labels become one integer array.
    """
    draws, labels, columns, seed, count = _event_inputs(
        state, marker_basis, order, count, seed, scenario_id, system_labels
    )
    # np.int64 raises where a bare np.array or np.arange makes floats.
    try:
        if isinstance(labels, range):
            labels = np.arange(*map(np.int64, (labels.start, labels.stop, labels.step)))
        else:
            labels = np.array(labels, np.int64)
    except OverflowError:
        labels = np.array(labels, object)
    # No field holds a NUL: scenario_id is printable, the labels and the
    # seed are ints and the order is one of ORDERS.
    rows = _text.event_rows(draws, labels, columns, f"{scenario_id},", f",{order},{seed}\n", count)
    return itertools.chain(((EVENT_LOG_HEADER + "\n").encode(),), rows)
