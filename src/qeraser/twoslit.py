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
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import core
from .errors import (
    DegeneratePatternError,
    IndexOutOfRangeError,
    InvalidGeometryError,
    ValidationError,
)
from .marker import MarkerBasis, MarkerState, erasure_basis


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
        bins = core._integer(self.bins, "bins", 2, core.MAX_SIZE, InvalidGeometryError)
        object.__setattr__(self, "bins", bins)
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


def _lattice(geometry: ScreenGeometry) -> np.ndarray:
    """Sample positions x_k = x_min + k * dx, k = 0 .. bins - 1."""
    return geometry.x_min + np.arange(geometry.bins) * geometry.dx


@dataclass(frozen=True, eq=False)
class ScreenGrid:
    """Discretized screen: a geometry and an envelope normalized on it. The
    positions x_k and phases theta_x = phase_scale * x_k follow from the geometry."""

    geometry: ScreenGeometry
    envelope: np.ndarray
    positions: np.ndarray = field(init=False)
    theta_x: np.ndarray = field(init=False)

    def __post_init__(self):
        env = np.asarray(self.envelope, dtype=np.float64).copy()
        if env.shape != (self.bins,):
            raise InvalidGeometryError("envelope must be a vector with one entry per bin")
        if not np.all(np.isfinite(env)):
            raise InvalidGeometryError("envelope must be finite")
        if np.min(env) < 0:
            raise InvalidGeometryError("envelope must be non-negative")
        if abs(float(np.sum(env**2)) * self.dx - 1.0) > core.SUM_ATOL:
            raise InvalidGeometryError("envelope is not normalized on the grid")
        pos = _lattice(self.geometry)
        theta = self.geometry.phase_scale * pos
        for name, arr in (("positions", pos), ("envelope", env), ("theta_x", theta)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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
    if envelope == "flat":
        env = np.ones(geometry.bins)
    elif envelope == "gaussian":
        if sigma is None or not math.isfinite(sigma) or sigma <= 0:
            raise InvalidGeometryError("gaussian envelope requires sigma > 0")
        x = _lattice(geometry)
        # A tiny sigma can overflow or divide by zero; the norm check rejects that.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            env = np.exp(-(x**2) / (4.0 * sigma * sigma))
    else:
        raise InvalidGeometryError(f"unknown envelope kind {envelope!r}")
    norm_sq = float(np.sum(env**2)) * geometry.dx
    if not (math.isfinite(norm_sq) and norm_sq > 0.0):
        raise InvalidGeometryError(
            f"envelope has squared norm {norm_sq!r} on the grid; widen sigma or move the screen"
        )
    env = env / math.sqrt(norm_sq)
    return ScreenGrid(geometry, env)


def default_grid() -> ScreenGrid:
    return build_grid(default_geometry())


def bare_state(grid: ScreenGrid) -> core.PureState:
    """Screen state without a marker; amplitudes psi sqrt(dx) sqrt(2) cos(theta_x)."""
    amps = grid.envelope * math.sqrt(grid.dx) * math.sqrt(2.0) * np.cos(grid.theta_x)
    return core.make_state((grid.bins, 1), amps)


def _marked_amplitudes(grid: ScreenGrid, bins=slice(None)) -> np.ndarray:
    """(len(bins), 2) table psi sqrt(dx) e^{+-i theta_x} / sqrt(2) of some bins."""
    scale = grid.envelope[bins] * math.sqrt(grid.dx) / math.sqrt(2.0)
    table = np.empty((scale.size, 2), dtype=np.complex128)
    # One complex exp, written in place: e^{-i theta} is its conjugate.
    np.exp(1j * grid.theta_x[bins], out=table[:, 0])
    np.conjugate(table[:, 0], out=table[:, 1])
    table *= scale[:, None]
    return table


def marked_state(grid: ScreenGrid) -> core.PureState:
    """Screen (x) marker state: psi sqrt(dx) e^{+-i theta_x} / sqrt(2) per bin.

    While a caller holds the state, a call with the same grid returns that
    same immutable object instead of building it again.
    """
    return core._memo(
        grid,
        "marked_state",
        lambda: core.make_state((grid.bins, 2), _marked_amplitudes(grid).reshape(-1)),
    )


def pattern_no_marker(grid: ScreenGrid) -> core.Distribution:
    """Full-contrast fringes, proportional to psi^2 (1 + cos 2 theta_x) dx."""
    return core.Distribution(bare_state(grid).system_probabilities(), "none")


def pattern_marked_unconditioned(grid: ScreenGrid) -> core.Distribution:
    """Washed-out pattern: the bare envelope, visibility zero."""
    return core.Distribution(marked_state(grid).system_probabilities(), "none")


def pattern_conditioned(
    grid: ScreenGrid, theta: float, sign: str
) -> tuple[core.Distribution, float]:
    """Recovered fringes given the erasure outcome plus/minus(theta).

    Returns (renormalized pattern, branch probability). The pattern is
    proportional to psi^2 [1 +/- cos(2 theta_x - 2 theta)] dx and the
    branch probability is 1/2 for a symmetric envelope. sign names the
    element: "plus" or "minus".
    """
    if sign not in MarkerBasis._fields:
        raise ValidationError(f"sign must be one of {MarkerBasis._fields}, got {sign!r}")
    element = getattr(erasure_basis(theta), sign)
    residual, probability = core.project_marker(marked_state(grid), element)
    pattern = core.Distribution(residual.system_probabilities(), element.label)
    return pattern, probability


class ScreenMarker(NamedTuple):
    """Marker state inferred from one landing position in the delayed mode."""

    theta_x: float
    marker_state: MarkerState
    fidelity_dplus_thetax: float


def delayed_marker_state_at(grid: ScreenGrid, bin_k: int) -> ScreenMarker:
    """Conditional marker state after a landing in bin k (0-based).

    Only bin k's two amplitudes are built (as in marked_state, without
    the full screen state) and normalized as project_system normalizes a
    row. The conditional is exactly plus(theta_x) for the bin's own
    theta_x; the reported fidelity against it is 1 for every bin with
    nonzero envelope. Raises ZeroProbabilityError where the envelope
    vanishes.
    """
    bin_k = core._integer(bin_k, "bin", 0, grid.bins - 1, IndexOutOfRangeError)
    block = _marked_amplitudes(grid, slice(bin_k, bin_k + 1))
    c1, c2, _ = core._condition_row(block.item(0), block.item(1), f"bin {bin_k}")
    theta_x = grid.theta_x.item(bin_k)
    target = erasure_basis(theta_x).plus
    return ScreenMarker(
        theta_x,
        MarkerState(c1, c2, f"bin{bin_k}"),
        core._overlap_fidelity(c1, c2, target.c1, target.c2),
    )


def visibility(
    grid: ScreenGrid, pattern: core.Distribution, envelope_corrected: bool = True
) -> float:
    """Fringe contrast (max - min) / (max + min) of a pattern on `grid`.

    With envelope_corrected (the default) each bin is divided by the
    envelope-only weight psi^2 dx first, so a pure envelope has
    visibility 0 and a full-contrast cosine has visibility 1; bins with
    zero envelope are excluded. Raises InvalidGeometryError when the
    pattern does not have one entry per bin, and DegeneratePatternError
    when no contrast information remains.
    """
    values = pattern.probabilities
    if values.size != grid.bins:
        raise InvalidGeometryError("pattern length must match the grid")
    if envelope_corrected:
        weights = grid.bin_weights()
        mask = weights > 0.0
        values = values[mask] / weights[mask]
    if values.size < 2:
        raise DegeneratePatternError("need at least two usable bins")
    highest = float(np.max(values))
    lowest = float(np.min(values))
    if highest + lowest < core.ZERO_CONTRAST:
        raise DegeneratePatternError("pattern is numerically zero")
    return min(max((highest - lowest) / (highest + lowest), 0.0), 1.0)
