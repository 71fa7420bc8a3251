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
    LengthMismatchError,
    NoMarkerError,
    OddChannelCountError,
)
from .marker import MarkerState, erasure_basis
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
        if self.n < 2:
            raise InvalidConfigError("channel count must be >= 2")
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

    @property
    def residual(self) -> float:
        return validate_config(self.thetas, self.phis)


def default_config(n: int) -> PhaseConfig:
    """Alternating bright/dark configuration on n channels (n even).

    theta_j = 0 for all j; phi_j = 0 for odd j and pi for even j. n = 2 is
    the Mach-Zehnder interferometer. Odd n cannot satisfy the unitarity
    condition for this pattern and raises OddChannelCountError.
    """
    if n > core.MAX_SIZE:
        raise InvalidConfigError(f"channel count must be <= {core.MAX_SIZE}, got {n}")
    if n < 2 or n % 2 != 0:
        raise OddChannelCountError(f"alternating preset needs even n >= 2, got {n}")
    thetas = np.zeros(n)
    phis = np.array([0.0 if j % 2 == 1 else math.pi for j in range(1, n + 1)])
    return PhaseConfig(n, thetas, phis)


def random_config(n: int, seed: int) -> PhaseConfig:
    """Draw a valid phase configuration deterministically from a seed.

    All theta_j and the phi_j of channels 3..n are uniform in [0, 2pi).
    The first two phi's are then solved so the unitarity sum vanishes
    exactly: with S the partial sum of e^{i (phi_j - theta_j)} over
    channels 3..n (resampled until |S| <= 2), write -S = r e^{i a} and set

        phi_1 = theta_1 + a + arccos(r / 2)
        phi_2 = theta_2 + a - arccos(r / 2)

    so that the two repaired terms contribute exactly r e^{i a} = -S.
    """
    if not 2 <= n <= core.MAX_SIZE:
        raise InvalidConfigError(f"channel count must be in [2, {core.MAX_SIZE}], got {n}")
    stream = SplitMix64(seed)
    two_pi = 2.0 * math.pi
    thetas = stream.floats(n) * two_pi
    while True:
        tail = stream.floats(n - 2) * two_pi if n > 2 else np.zeros(0)
        partial = complex(np.sum(np.exp(1j * (tail - thetas[2:]))))
        if abs(partial) <= 2.0:
            break
    r = abs(partial)
    alpha = math.atan2(-partial.imag, -partial.real) if r > 0.0 else 0.0
    beta = math.acos(min(r / 2.0, 1.0))
    phis = np.empty(n)
    phis[0] = thetas[0] + alpha + beta
    phis[1] = thetas[1] + alpha - beta
    if n > 2:
        phis[2:] = tail
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


@dataclass(frozen=True, eq=False)
class DetectorDistribution:
    """Probabilities over the n detectors, optionally marker-conditioned."""

    probabilities: np.ndarray
    condition: str = "none"

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=np.float64).reshape(-1)
        if p.size == 0:
            raise LengthMismatchError("distribution must cover at least one detector")
        p = core.checked_probabilities(p, "detector probabilities")
        object.__setattr__(self, "probabilities", p)

    @property
    def n(self) -> int:
        return self.probabilities.size

    def probability(self, detector_j: int) -> float:
        """Probability of detector j (1-based)."""
        if not 1 <= detector_j <= self.n:
            raise IndexOutOfRangeError(f"detector {detector_j} out of 1..{self.n}")
        return float(self.probabilities[detector_j - 1])


def detector_probabilities(state: core.PureState) -> DetectorDistribution:
    """Unconditioned detector distribution (marker summed over, if any)."""
    return DetectorDistribution(state.system_probabilities(), "none")


def conditioned_distribution(state: core.PureState, marker_state) -> DetectorDistribution:
    """Detector distribution given a marker projection, renormalized.

    Raises NoMarkerError for bare states and ZeroProbabilityError when the
    projection has no weight.
    """
    if state.marker_dim != 2:
        raise NoMarkerError("conditioning requires a marked state")
    residual, _ = core.project_marker(state, np.asarray(marker_state, dtype=complex))
    label = getattr(marker_state, "label", "marker")
    return DetectorDistribution(residual.system_probabilities(), label)


class DelayedMarker(NamedTuple):
    """Marker state inferred from one detection in the delayed mode."""

    marker_state: MarkerState
    purity: float
    fidelity_dplus: float
    fidelity_dminus: float


def delayed_marker_state(state: core.PureState, detector_j: int) -> DelayedMarker:
    """Conditional marker state after detection at detector j (1-based).

    The conditional is read off with core.project_system. For a pure joint
    state it is itself pure: its purity trace(rho^2) = <c|c>^2 is computed
    and asserted to be 1, with no density matrix built. Fidelities
    |<d|c>|^2 against the theta = 0 erasure pair are reported alongside,
    range-checked and clamped to [0, 1]. Raises ZeroProbabilityError for
    detectors that never fire.
    """
    if not 1 <= detector_j <= state.system_dim:
        raise IndexOutOfRangeError(
            f"detector {detector_j} out of 1..{state.system_dim}"
        )
    conditional, _ = core.project_system(state, detector_j - 1)
    p = float(np.real(np.vdot(conditional, conditional))) ** 2
    assert abs(p - 1.0) <= core.ATOL, "conditional marker of a pure state must be pure"
    basis = erasure_basis(0.0)
    return DelayedMarker(
        MarkerState.from_vector(conditional, f"detector{detector_j}"),
        p,
        core.overlap_fidelity(conditional, basis.plus.vector),
        core.overlap_fidelity(conditional, basis.minus.vector),
    )
