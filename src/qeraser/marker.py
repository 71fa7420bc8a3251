"""Two-state path marker: the which-path pair and the erasure basis family.

The which-path basis is the canonical pair |d1>, |d2>. The erasure family
is parameterized by an angle theta:

    plus(theta)  = (e^{i theta} |d1> + e^{-i theta} |d2>) / sqrt(2)
    minus(theta) = (e^{i theta} |d1> - e^{-i theta} |d2>) / sqrt(2)

Every member is mutually unbiased with the which-path pair: each cross
overlap has squared magnitude exactly 1/2, so reading the marker in an
erasure basis reveals nothing about which path was taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import ATOL
from .errors import NonFiniteError, NonFinitePhaseError, NotNormalizedError

SQRT_HALF = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class MarkerState:
    """Normalized state of the two-level marker, c1 |d1> + c2 |d2>."""

    c1: complex
    c2: complex
    label: str = "marker"

    def __post_init__(self):
        if isinstance(self.c1, str) or isinstance(self.c2, str):
            raise TypeError("marker amplitudes must be numbers, not strings")
        c1, c2 = complex(self.c1), complex(self.c2)
        for c in (c1, c2):
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise NonFiniteError("marker amplitudes must be finite")
        if abs(abs(c1) ** 2 + abs(c2) ** 2 - 1.0) > ATOL:
            raise NotNormalizedError("marker state is not normalized")
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.c1, self.c2], dtype=np.complex128)

    def __array__(self, dtype=None, copy=None):
        arr = self.vector
        return arr.astype(dtype) if dtype is not None else arr

    def overlap(self, other: "MarkerState") -> complex:
        """<self|other>."""
        return complex(np.conj(self.c1) * other.c1 + np.conj(self.c2) * other.c2)

    def squared_overlap(self, other: "MarkerState") -> float:
        return abs(self.overlap(other)) ** 2


def _normalized_marker(c1: complex, c2: complex, label: str) -> MarkerState:
    """MarkerState of two Python complex amplitudes that the caller has
    already checked to be finite and of unit norm within ATOL.

    Skips MarkerState's checks, as core._normalized_state skips PureState's.
    """
    state = object.__new__(MarkerState)
    state.__dict__.update(c1=c1, c2=c2, label=label)
    return state


class MarkerBasis(NamedTuple):
    """The erasure pair (plus(theta), minus(theta)), orthonormal as built."""

    plus: MarkerState
    minus: MarkerState


def which_path_basis() -> tuple[MarkerState, MarkerState]:
    """The canonical which-path pair (|d1>, |d2>)."""
    return (MarkerState(1.0, 0.0, "d1"), MarkerState(0.0, 1.0, "d2"))


def erasure_basis(theta: float) -> MarkerBasis:
    """Erasure pair at angle theta (radians, any finite real).

    theta is not reduced modulo pi; theta and theta + pi give the same
    pair up to a global sign on each element.
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise NonFinitePhaseError(f"theta must be finite, got {theta!r}")
    forward = complex(math.cos(theta), math.sin(theta)) * SQRT_HALF
    backward = complex(math.cos(theta), -math.sin(theta)) * SQRT_HALF
    tag = f"{theta:.12g}"
    return MarkerBasis(
        MarkerState(forward, backward, f"dplus[theta={tag}]"),
        MarkerState(forward, -backward, f"dminus[theta={tag}]"),
    )

