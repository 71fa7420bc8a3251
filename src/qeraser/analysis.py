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
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import core
from .errors import (
    InvalidCountError,
    NoMarkerError,
    ValidationError,
    ZeroProbabilityError,
)
from .marker import basis_pair
from .rng import SplitMix64

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
            raise ValueError(f"table shape {probs.shape} does not match labels")
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
    numbers); the default is the 0-based outcome index.
    """
    if state.marker_dim != 2:
        raise NoMarkerError("joint distribution requires a marked state")
    if order not in ORDERS:
        raise ValueError(f"order must be one of {ORDERS}, got {order!r}")
    states = basis_pair(marker_basis)
    if system_labels is None:
        system_labels = tuple(range(state.system_dim))
    else:
        system_labels = tuple(system_labels)
        if len(system_labels) != state.system_dim:
            raise ValueError("system_labels must cover every system outcome")

    if order == MARKER_FIRST:
        table = np.zeros((state.system_dim, 2))
        for col, element in enumerate(states):
            try:
                residual, branch = core.project_marker(state, element.vector)
            except ZeroProbabilityError:
                continue
            table[:, col] = branch * residual.system_probabilities()
    else:
        weights, conditionals = core.condition_on_system(state)
        basis = np.stack([element.vector for element in states])
        table = weights[:, None] * np.abs(conditionals @ basis.conj().T) ** 2
    return JointTable(system_labels, tuple(s.label for s in states), table)


def ordering_invariance_residual(state: core.PureState, marker_basis) -> float:
    """Largest entrywise gap between the two measurement orderings."""
    first = joint_distribution(state, marker_basis, MARKER_FIRST)
    second = joint_distribution(state, marker_basis, SYSTEM_FIRST)
    return float(np.max(np.abs(first.probabilities - second.probabilities)))


def mutual_information(table: JointTable) -> float:
    """Mutual information of a joint table in bits, with 0 log 0 = 0."""
    probs = table.probabilities
    marginals = np.outer(probs.sum(axis=1), probs.sum(axis=0))
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

    def csv_row(self) -> str:
        return (
            f"{self.scenario_id},{self.event_index},{self.system_outcome},"
            f"{self.marker_outcome},{self.order},{self.seed}"
        )


EVENT_LOG_HEADER = ",".join(EventRecord._fields)


def sample_outcomes(table: JointTable, count: int, seed: int) -> np.ndarray:
    """Flat (row-major) cell indices of `count` inverse-CDF draws.

    The CDF is the running sum of the table rescaled so its last entry is
    exactly 1; a uniform u lands in the first cell whose CDF exceeds it,
    so zero-probability cells are never drawn.
    """
    if count < 1:
        raise InvalidCountError(f"count must be >= 1, got {count}")
    if count > core.MAX_SIZE:
        raise InvalidCountError(f"count must be <= {core.MAX_SIZE}, got {count}")
    cdf = np.cumsum(table.probabilities.reshape(-1))
    cdf /= cdf[-1]
    uniforms = SplitMix64(seed).floats(count)
    return np.searchsorted(cdf, uniforms, side="right")


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
    an integer in [0, 2^64). system_labels,
    when given, must be integers (e.g. 1-based detector numbers) and are
    used as the logged system outcomes.
    """
    if any(char in scenario_id for char in ",\n\0"):
        raise ValidationError("scenario_id must not contain commas, newlines or NUL bytes")
    # SplitMix64 reduces seeds mod 2^64, so a seed outside that range (or a
    # fraction, truncated by int()) would reproduce another seed's stream.
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise ValidationError(f"seed must be in [0, 2^64), got {seed}")
    table = joint_distribution(state, marker_basis, order, system_labels)
    if not all(isinstance(label, (int, np.integer)) for label in table.row_labels):
        raise ValidationError("system labels must be integers in event logs")
    labels = [int(label) for label in table.row_labels]
    cells = sample_outcomes(table, count, seed)
    systems, markers = np.divmod(cells, len(table.col_labels))
    return list(
        map(
            EventRecord,
            repeat(scenario_id),
            range(cells.size),
            map(labels.__getitem__, systems.tolist()),
            markers.tolist(),
            repeat(order),
            repeat(int(seed)),
        )
    )
