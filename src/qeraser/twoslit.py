"""Continuous two-slit eraser on a discretized screen.

A quanton passing the double slit picks up position-dependent phases
+theta_x on path A and -theta_x on path B, with

    theta_x = pi * x * d / (wavelength * L) = pi * x / w,

w = wavelength * L / d being the fringe width. With a path marker the
screen state has amplitudes psi(x) e^{+i theta_x} on (x, d1) and
psi(x) e^{-i theta_x} on (x, d2); the unconditioned screen distribution
is the bare envelope |psi(x)|^2 (no interference), while conditioning on
an erasure state plus/minus(theta) recovers the complementary fringe
patterns proportional to 1 +/- cos(2 theta_x - 2 theta).

The screen is discretized at `bins` sample points x_k = x_min + k * dx
(dx = (x_max - x_min) / bins) with bin-integrated probabilities
approximated by sample-value * dx. The lattice includes x_min, so for the
standard symmetric extents (integer numbers of fringes) the fringe
extrema land exactly on sample points.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import core
from .errors import (
    DegeneratePatternError,
    IndexOutOfRangeError,
    InvalidGeometryError,
    NonFinitePhaseError,
)
from .marker import MarkerState, erasure_basis

_SIGNS = {"+": +1, "plus": +1, "-": -1, "minus": -1}


@dataclass(frozen=True)
class ScreenGeometry:
    """Two-slit geometry in one consistent length unit.

    d is the slit separation, L the slit-to-screen distance; the screen
    spans [x_min, x_max] sampled at `bins` points.
    """

    d: float
    wavelength: float
    L: float
    x_min: float
    x_max: float
    bins: int

    def __post_init__(self):
        values = (self.d, self.wavelength, self.L, self.x_min, self.x_max)
        if not all(math.isfinite(v) for v in values):
            raise InvalidGeometryError("geometry values must be finite")
        if self.d <= 0 or self.wavelength <= 0 or self.L <= 0:
            raise InvalidGeometryError("d, wavelength and L must be positive")
        if not self.x_min < self.x_max:
            raise InvalidGeometryError("x_min must be below x_max")
        if self.bins < 2:
            raise InvalidGeometryError("need at least two bins")
        if self.bins > core.MAX_SIZE:
            raise InvalidGeometryError(f"at most {core.MAX_SIZE} bins, got {self.bins}")
        # The grid is built in floats: its span, phase scale and largest
        # phase must not overflow, nor wavelength * L underflow to zero; a
        # subnormal bin width would overflow the normalized envelope.
        if self.wavelength * self.L == 0.0:
            raise InvalidGeometryError("wavelength * L underflows to zero")
        if self.dx < sys.float_info.min:
            raise InvalidGeometryError(f"bin width {self.dx!r} is below the normal float range")
        largest_phase = self.phase_scale * max(abs(self.x_min), abs(self.x_max))
        if not all(map(math.isfinite, (self.x_max - self.x_min, self.phase_scale, largest_phase))):
            raise InvalidGeometryError("screen span and phases overflow in floating point")

    @property
    def phase_scale(self) -> float:
        """pi * d / (wavelength * L), so that theta_x = phase_scale * x."""
        return math.pi * self.d / (self.wavelength * self.L)

    @property
    def fringe_width(self) -> float:
        """w = wavelength * L / d, the spatial period of the fringes."""
        return self.wavelength * self.L / self.d

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.bins


def default_geometry() -> ScreenGeometry:
    """d = 2, wavelength = 1, L = 1000 (w = 500), four fringes, 512 bins."""
    w = 1.0 * 1000.0 / 2.0
    return ScreenGeometry(2.0, 1.0, 1000.0, -2.0 * w, 2.0 * w, 512)


@dataclass(frozen=True, eq=False)
class ScreenGrid:
    """Discretized screen: sample positions, phases, normalized envelope."""

    geometry: ScreenGeometry
    positions: np.ndarray
    theta_x: np.ndarray
    envelope: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64).copy()
        env = np.asarray(self.envelope, dtype=np.float64).copy()
        theta = np.asarray(self.theta_x, dtype=np.float64).copy()
        bins = self.geometry.bins
        if pos.size != bins or env.size != bins or theta.size != bins:
            raise InvalidGeometryError("grid arrays must match the bin count")
        if not np.all(np.isfinite(env)):
            raise InvalidGeometryError("envelope must be finite")
        if np.min(env) < 0:
            raise InvalidGeometryError("envelope must be non-negative")
        expected = self.geometry.phase_scale * pos
        if not np.array_equal(theta, expected):
            raise InvalidGeometryError("theta_x must equal pi*x*d/(wavelength*L)")
        if abs(float(np.sum(env**2)) * self.dx - 1.0) > core.SUM_ATOL:
            raise InvalidGeometryError("envelope is not normalized on the grid")
        for arr in (pos, env, theta):
            arr.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "envelope", env)
        object.__setattr__(self, "theta_x", theta)

    @property
    def bins(self) -> int:
        return self.geometry.bins

    @property
    def dx(self) -> float:
        return self.geometry.dx

    def bin_weights(self) -> np.ndarray:
        """Envelope-only probability per bin, psi(x_k)^2 * dx."""
        return self.envelope**2 * self.dx


def build_grid(
    geometry: ScreenGeometry, envelope: str = "flat", sigma: float | None = None
) -> ScreenGrid:
    """Sample the screen and renormalize the envelope discretely.

    envelope is "flat" or "gaussian"; the gaussian case needs sigma > 0
    and produces |psi(x)|^2 proportional to exp(-x^2 / (2 sigma^2)).
    Raises InvalidGeometryError when the sampled envelope has zero or
    non-finite norm, e.g. a gaussian that underflows on every bin.
    """
    dx = geometry.dx
    positions = geometry.x_min + np.arange(geometry.bins) * dx
    theta_x = geometry.phase_scale * positions
    if envelope == "flat":
        env = np.ones(geometry.bins)
    elif envelope == "gaussian":
        if sigma is None or not math.isfinite(sigma) or sigma <= 0:
            raise InvalidGeometryError("gaussian envelope requires sigma > 0")
        # A tiny sigma can overflow or divide by zero; the norm check rejects that.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            env = np.exp(-(positions**2) / (4.0 * sigma * sigma))
    else:
        raise InvalidGeometryError(f"unknown envelope kind {envelope!r}")
    norm_sq = float(np.sum(env**2)) * dx
    if not (math.isfinite(norm_sq) and norm_sq > 0.0):
        raise InvalidGeometryError(
            f"envelope has squared norm {norm_sq!r} on the grid; widen sigma or move the screen"
        )
    env = env / math.sqrt(norm_sq)
    return ScreenGrid(geometry, positions, theta_x, env)


def default_grid() -> ScreenGrid:
    return build_grid(default_geometry())


def bare_state(grid: ScreenGrid) -> core.PureState:
    """Screen state without a marker; amplitudes psi sqrt(dx) sqrt(2) cos(theta_x)."""
    amps = grid.envelope * math.sqrt(grid.dx) * math.sqrt(2.0) * np.cos(grid.theta_x)
    return core.make_state((grid.bins, 1), amps)


def _marked_amplitudes(grid: ScreenGrid, bins=slice(None)) -> np.ndarray:
    """(len(bins), 2) table psi sqrt(dx) e^{+-i theta_x} / sqrt(2) of some bins."""
    scale = grid.envelope[bins] * math.sqrt(grid.dx) / math.sqrt(2.0)
    theta_x = grid.theta_x[bins]
    table = np.empty((scale.size, 2), dtype=np.complex128)
    table[:, 0] = scale * np.exp(1j * theta_x)
    table[:, 1] = scale * np.exp(-1j * theta_x)
    return table


def marked_state(grid: ScreenGrid) -> core.PureState:
    """Screen (x) marker state: psi sqrt(dx) e^{+-i theta_x} / sqrt(2) per bin."""
    return core.make_state((grid.bins, 2), _marked_amplitudes(grid).reshape(-1))


@dataclass(frozen=True, eq=False)
class ScreenPattern:
    """Normalized per-bin probabilities, tagged with their conditioning."""

    grid: ScreenGrid
    probabilities: np.ndarray
    condition: str = "none"

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=np.float64)
        if p.size != self.grid.bins:
            raise InvalidGeometryError("pattern length must match the grid")
        p = core.checked_probabilities(p, "pattern probabilities")
        object.__setattr__(self, "probabilities", p)


def pattern_no_marker(grid: ScreenGrid) -> ScreenPattern:
    """Full-contrast fringes, proportional to psi^2 (1 + cos 2 theta_x) dx."""
    return ScreenPattern(grid, bare_state(grid).system_probabilities(), "none")


def pattern_marked_unconditioned(grid: ScreenGrid) -> ScreenPattern:
    """Washed-out pattern: the bare envelope, visibility zero."""
    return ScreenPattern(grid, marked_state(grid).system_probabilities(), "none")


def pattern_conditioned(
    grid: ScreenGrid, theta: float, sign: str
) -> tuple[ScreenPattern, float]:
    """Recovered fringes given the erasure outcome plus/minus(theta).

    Returns (renormalized pattern, branch probability). The pattern is
    proportional to psi^2 [1 +/- cos(2 theta_x - 2 theta)] dx and the
    branch probability is 1/2 for a symmetric envelope.
    """
    if sign not in _SIGNS:
        raise ValueError(f"sign must be one of {sorted(_SIGNS)}, got {sign!r}")
    if not math.isfinite(theta):
        raise NonFinitePhaseError(f"theta must be finite, got {theta!r}")
    basis = erasure_basis(theta)
    element = basis.plus if _SIGNS[sign] > 0 else basis.minus
    residual, probability = core.project_marker(marked_state(grid), element)
    pattern = ScreenPattern(grid, residual.system_probabilities(), element.label)
    return pattern, probability


class ScreenMarker(NamedTuple):
    """Marker state inferred from one landing position in the delayed mode."""

    theta_x: float
    marker_state: MarkerState
    fidelity_dplus_thetax: float


def delayed_marker_state_at(grid: ScreenGrid, bin_k: int) -> ScreenMarker:
    """Conditional marker state after a landing in bin k (0-based).

    Only bin k's two amplitudes are built (the same formula as
    marked_state, without the full screen state) and normalized with
    core.condition_block. The conditional is exactly plus(theta_x) for the
    bin's own theta_x; the reported fidelity against that state is 1 for
    every bin with nonzero envelope. Raises ZeroProbabilityError where the
    envelope vanishes.
    """
    if not 0 <= bin_k < grid.bins:
        raise IndexOutOfRangeError(f"bin {bin_k} out of 0..{grid.bins - 1}")
    block = _marked_amplitudes(grid, slice(bin_k, bin_k + 1))[0]
    conditional, _ = core.condition_block(block, f"bin {bin_k}")
    theta_x = float(grid.theta_x[bin_k])
    target = erasure_basis(theta_x).plus
    return ScreenMarker(
        theta_x,
        MarkerState.from_vector(conditional, f"bin{bin_k}"),
        core.overlap_fidelity(conditional, target.vector),
    )


def visibility(pattern: ScreenPattern, envelope_corrected: bool = True) -> float:
    """Fringe contrast (max - min) / (max + min) of a pattern.

    With envelope_corrected (the default) each bin is divided by the
    envelope-only weight psi^2 dx first, so a pure envelope has
    visibility 0 and a full-contrast cosine has visibility 1; bins with
    zero envelope are excluded. Raises DegeneratePatternError when no
    contrast information remains.
    """
    values = pattern.probabilities
    if envelope_corrected:
        weights = pattern.grid.bin_weights()
        mask = weights > 0.0
        values = values[mask] / weights[mask]
    if values.size < 2:
        raise DegeneratePatternError("need at least two usable bins")
    highest = float(np.max(values))
    lowest = float(np.min(values))
    if highest + lowest < core.ZERO_CONTRAST:
        raise DegeneratePatternError("pattern is numerically zero")
    return min(max((highest - lowest) / (highest + lowest), 0.0), 1.0)
