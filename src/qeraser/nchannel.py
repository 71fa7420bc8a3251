"""Two-path interferometer fanned out into n detector channels.

A path splitter sends path A to sum_j e^{i theta_j} |D_j> / sqrt(n) and
path B to sum_j e^{i phi_j} |D_j> / sqrt(n). For the splitter to extend
to a unitary the two images must be orthogonal, i.e.

    sum_j e^{i (phi_j - theta_j)} = 0,

and configurations violating this are rejected at construction. Without a
path marker the detector amplitudes are (e^{i theta_j} + e^{i phi_j}) /
sqrt(2n), which interfere; with a marker the joint amplitudes are
e^{i theta_j} |D_j, d1> / sqrt(2n) and e^{i phi_j} |D_j, d2> / sqrt(2n)
and every detector fires with probability 1/n.

Detector indices are 1-based in every public interface and emitted file,
matching the usual odd/even bright-dark labeling of the alternating
default configuration (theta_j = 0; phi_j = 0 for odd j, pi for even j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import core
from .errors import (
    IndexOutOfRangeError,
    InvalidConfigError,
    InvariantError,
    LengthMismatchError,
    NoMarkerError,
    OddChannelCountError,
)
from .marker import MarkerState, _normalized_marker, erasure_basis
from .rng import SplitMix64


def validate_config(thetas, phis) -> float:
    """Unitarity residual |sum_j e^{i (phi_j - theta_j)}| / n.

    Zero for realizable splitters; 1 for identical path images. Raises
    LengthMismatchError when the two phase vectors disagree in length.
    """
    t = np.asarray(thetas, dtype=np.float64).reshape(-1)
    p = np.asarray(phis, dtype=np.float64).reshape(-1)
    if t.size != p.size or t.size == 0:
        raise LengthMismatchError(
            f"phase vectors must have equal nonzero length, got {t.size} and {p.size}"
        )
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(p))):
        raise InvalidConfigError("phases must be finite")
    with np.errstate(over="ignore"):  # finite phases can differ by more than the float range
        differences = p - t
    if not np.all(np.isfinite(differences)):
        raise InvalidConfigError("phase differences must be finite")
    return float(abs(np.sum(np.exp(1j * differences))) / t.size)


@dataclass(frozen=True, eq=False)
class PhaseConfig:
    """Per-channel phases (theta_j, phi_j) defining a valid path splitter."""

    n: int
    thetas: np.ndarray
    phis: np.ndarray

    def __post_init__(self):
        n = core._integer(self.n, "channel count", 2, math.inf, InvalidConfigError)
        object.__setattr__(self, "n", n)
        t = np.asarray(self.thetas, dtype=np.float64).reshape(-1).copy()
        p = np.asarray(self.phis, dtype=np.float64).reshape(-1).copy()
        if t.size != self.n or p.size != self.n:
            raise LengthMismatchError(
                f"expected {self.n} phases per path, got {t.size} and {p.size}"
            )
        residual = validate_config(t, p)
        if residual >= core.UNITARITY_TOL:
            raise InvalidConfigError(
                f"splitter images not orthogonal: residual {residual:.3e}"
            )
        t.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "thetas", t)
        object.__setattr__(self, "phis", p)


def default_config(n: int) -> PhaseConfig:
    """Alternating bright/dark configuration on n channels (n even).

    theta_j = 0 for all j; phi_j = 0 for odd j and pi for even j. n = 2 is
    the Mach-Zehnder interferometer. Odd n cannot satisfy the unitarity
    condition for this pattern and raises OddChannelCountError.
    """
    n = core._integer(n, "channel count", -math.inf, core.MAX_SIZE, InvalidConfigError)
    if n < 2 or n % 2 != 0:
        raise OddChannelCountError(f"alternating preset needs even n >= 2, got {n}")
    thetas = np.zeros(n)
    phis = np.where(np.arange(n) % 2 == 0, 0.0, math.pi)
    return PhaseConfig(n, thetas, phis)


def random_config(n: int, seed: int) -> PhaseConfig:
    """Draw a valid phase configuration deterministically from a seed.

    All theta_j and then the phi_j of channels 3..n are drawn uniform in
    [0, 2pi), 2n - 2 uniforms in two batches. Let S be the sum of
    e^{i (phi_j - theta_j)} over channels 3..n. While |S| > 2, the next
    of those channels whose term has a positive projection c on S has
    its term reflected across the line orthogonal to S, which keeps S's
    direction and lowers |S| by 2c; the positive projections sum to at
    least |S|, so the reflections bring |S| into (0, 2] before the
    channels run out. The
    first two phi's are then solved so the unitarity sum vanishes
    exactly: with S recomputed and -S = r e^{i a}, set

        phi_1 = theta_1 + a + arccos(r / 2)
        phi_2 = theta_2 + a - arccos(r / 2)

    so that the two repaired terms contribute exactly r e^{i a} = -S.
    The seed must be an integer in [0, 2^64) (SplitMix64's seed rule).
    """
    n = core._integer(n, "channel count", 2, core.MAX_SIZE, InvalidConfigError)
    stream = SplitMix64(seed)
    two_pi = 2.0 * math.pi
    thetas = stream.floats(n) * two_pi
    phis = np.empty(n)
    phis[2:] = stream.floats(n - 2) * two_pi
    offsets = phis[2:] - thetas[2:]
    partial = complex(np.sum(np.exp(1j * offsets)))
    excess = abs(partial) - 2.0
    if excess > 0.0:
        axis = math.atan2(partial.imag, partial.real)
        drops = 2.0 * np.maximum(np.cos(offsets - axis), 0.0)
        last = np.searchsorted(np.cumsum(drops), excess)
        flip = np.flatnonzero(drops[: last + 1])
        phis[2 + flip] = thetas[2 + flip] + (2.0 * axis + math.pi) - offsets[flip]
        partial = complex(np.sum(np.exp(1j * (phis[2:] - thetas[2:]))))
    r = abs(partial)
    alpha = math.atan2(-partial.imag, -partial.real) if r > 0.0 else 0.0
    beta = math.acos(min(r / 2.0, 1.0))
    phis[0] = thetas[0] + alpha + beta
    phis[1] = thetas[1] + alpha - beta
    return PhaseConfig(n, thetas, phis)


def final_state_bare(config: PhaseConfig) -> core.PureState:
    """Detector-side state without a path marker.

    Amplitude (e^{i theta_j} + e^{i phi_j}) / sqrt(2n) at detector j;
    normalized (guaranteed by the unitarity condition).
    """
    amps = (np.exp(1j * config.thetas) + np.exp(1j * config.phis)) / math.sqrt(
        2 * config.n
    )
    return core.make_state((config.n, 1), amps)


def final_state_marked(config: PhaseConfig) -> core.PureState:
    """Entangled detector (x) marker state.

    e^{i theta_j} / sqrt(2n) on (D_j, d1) and e^{i phi_j} / sqrt(2n) on
    (D_j, d2).
    """
    table = np.empty((config.n, 2), dtype=np.complex128)
    table[:, 0] = np.exp(1j * config.thetas)
    table[:, 1] = np.exp(1j * config.phis)
    table /= math.sqrt(2 * config.n)
    return core.make_state((config.n, 2), table.reshape(-1))


def detector_probabilities(state: core.PureState) -> core.Distribution:
    """Unconditioned detector distribution (marker summed over, if any)."""
    return core.Distribution(state.system_probabilities(), "none")


def conditioned_distribution(state: core.PureState, marker_state) -> core.Distribution:
    """Detector distribution given a marker projection, renormalized.

    Raises NoMarkerError for bare states and ZeroProbabilityError when the
    projection has no weight.
    """
    residual, _ = core.project_marker(state, np.asarray(marker_state, dtype=complex))
    label = getattr(marker_state, "label", "marker")
    return core.Distribution(residual.system_probabilities(), label)


#: The theta = 0 erasure pair's amplitudes, against which
#: delayed_marker_state reports fidelities; built once, as they never change.
_DPLUS, _DMINUS = ((state.c1, state.c2) for state in erasure_basis(0.0))


class DelayedMarker(NamedTuple):
    """Marker state inferred from one detection in the delayed mode."""

    marker_state: MarkerState
    purity: float
    fidelity_dplus: float
    fidelity_dminus: float


def delayed_marker_state(state: core.PureState, detector_j: int) -> DelayedMarker:
    """Conditional marker state after detection at detector j (1-based).

    The conditional is the row core.condition_on_system gives the detector,
    computed on the row's two amplitudes alone in Python floats. For a pure
    joint state it is itself pure: its purity <c|c>^2, from its two
    amplitudes, is checked to be 1. Fidelities |<d|c>|^2 against the
    theta = 0 erasure pair are reported alongside, range-checked and
    clamped to [0, 1]. Raises ZeroProbabilityError for detectors that
    never fire.
    """
    detector_j = core._integer(detector_j, "detector", 1, state.system_dim, IndexOutOfRangeError)
    if state.marker_dim != 2:
        raise NoMarkerError("state has no marker to condition")
    c1, c2, _ = core._condition_row(
        state.amplitudes.item(2 * detector_j - 2),
        state.amplitudes.item(2 * detector_j - 1),
        f"system outcome {detector_j - 1}",
    )
    p = (abs(c1) ** 2 + abs(c2) ** 2) ** 2
    if not abs(p - 1.0) <= core.ATOL:  # a NaN fails too
        raise InvariantError(f"conditional marker of a pure state has purity {p!r}")
    return DelayedMarker(
        _normalized_marker(c1, c2, f"detector{detector_j}"),
        p,
        core._overlap_fidelity(c1, c2, *_DPLUS),
        core._overlap_fidelity(c1, c2, *_DMINUS),
    )
