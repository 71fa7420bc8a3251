"""Exact complex linear algebra over small labeled system (x) marker spaces.

States are dense complex vectors over a product basis in system-major
layout: the amplitude for (system index s, marker index m) sits at flat
position s * marker_dim + m, so the marker block of one system outcome is
a contiguous slice. The marker space has dimension 1 (no marker) or 2.

All operations are pure functions over immutable values; returned arrays
are fresh and the arrays stored inside states are read-only. Algebraic
identities hold to ATOL = 1e-12; probabilities are clipped to [0, 1] only
after the corresponding assertion has passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    NoMarkerError,
    ZeroNormError,
    ZeroProbabilityError,
)

# -- tolerances ----------------------------------------------------------------

#: Algebraic identities, and how far a probability may leave [0, 1] before clipping.
ATOL = 1e-12
#: Conditioning on an outcome below this probability is an error, not a NaN.
ZERO_PROBABILITY = 1e-15
#: Probability vectors and tables, and the screen envelope, sum to 1 within this.
SUM_ATOL = 1e-10
#: Looser than the algebra tolerance: accepts decimal rounding in
#: user-supplied phase files while rejecting structurally wrong configs.
UNITARITY_TOL = 1e-9
#: A pattern whose extremes sum below this carries no contrast.
ZERO_CONTRAST = 1e-15

#: Floats squared at a time by the PureState norm check.
_NORM_BLOCK = 1 << 16


def _as_complex_vector(values, length: int | None = None, name: str = "vector") -> np.ndarray:
    vec = np.asarray(values, dtype=np.complex128).reshape(-1)
    if length is not None and vec.size != length:
        raise DimensionMismatchError(f"{name}: expected length {length}, got {vec.size}")
    if not (np.all(np.isfinite(vec.real)) and np.all(np.isfinite(vec.imag))):
        raise ValueError(f"{name} contains non-finite amplitudes")
    return vec


def checked_probabilities(values, what: str) -> np.ndarray:
    """Read-only float64 copy of a probability array, clipped to [0, 1].

    Raises AssertionError for a non-finite entry, an entry outside [0, 1]
    by more than ATOL, or a total off 1 by more than SUM_ATOL. `what`
    names the array in the messages.
    """
    p = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(p)):
        raise AssertionError(f"{what} contain non-finite entries")
    if np.min(p) < -ATOL or np.max(p) > 1.0 + ATOL:
        raise AssertionError(f"{what} out of [0, 1]")
    if abs(float(np.sum(p)) - 1.0) > SUM_ATOL:
        raise AssertionError(f"{what} do not sum to 1")
    p = np.clip(p, 0.0, 1.0)
    p.setflags(write=False)
    return p


def _checked_probability(p: float, what: str) -> float:
    if p < -ATOL or p > 1.0 + ATOL:
        raise AssertionError(f"{what} out of range: {p!r}")
    return min(max(p, 0.0), 1.0)


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized pure state over a (system_dim x marker_dim) product basis.

    `normalization` records the Euclidean norm that `make_state` divided
    out of the raw amplitudes (1.0 when constructed pre-normalized).
    """

    system_dim: int
    marker_dim: int
    amplitudes: np.ndarray
    normalization: float = 1.0

    def __post_init__(self):
        if self.system_dim < 1:
            raise DimensionMismatchError("system dimension must be >= 1")
        if self.marker_dim not in (1, 2):
            raise DimensionMismatchError("marker dimension must be 1 or 2")
        vec = _as_complex_vector(
            self.amplitudes, self.system_dim * self.marker_dim, "amplitudes"
        ).copy()
        # numpy's pairwise sum, in blocks: a BLAS dot product accumulates
        # enough rounding error at ~10^5 amplitudes to miss the 1e-12 check
        # on one thread, and blocks keep the squared copy small.
        parts = vec.view(np.float64)
        sq_norm = math.fsum(
            float(np.sum(np.square(parts[i : i + _NORM_BLOCK])))
            for i in range(0, parts.size, _NORM_BLOCK)
        )
        if abs(sq_norm - 1.0) > ATOL:
            raise ValueError(f"state is not normalized: squared norm = {sq_norm!r}")
        vec.setflags(write=False)
        object.__setattr__(self, "amplitudes", vec)

    @property
    def dims(self) -> tuple[int, int]:
        return (self.system_dim, self.marker_dim)

    def amplitude(self, system_index: int, marker_index: int = 0) -> complex:
        """Amplitude at one (system, marker) basis label."""
        if not 0 <= system_index < self.system_dim:
            raise IndexOutOfRangeError(f"system index {system_index} out of range")
        if not 0 <= marker_index < self.marker_dim:
            raise IndexOutOfRangeError(f"marker index {marker_index} out of range")
        return complex(self.amplitudes[system_index * self.marker_dim + marker_index])

    def marker_block(self, system_index: int) -> np.ndarray:
        """Contiguous marker amplitudes of one system outcome (copy)."""
        if not 0 <= system_index < self.system_dim:
            raise IndexOutOfRangeError(f"system index {system_index} out of range")
        start = system_index * self.marker_dim
        return self.amplitudes[start : start + self.marker_dim].copy()

    def system_probabilities(self) -> np.ndarray:
        """Probability of each system outcome, marker summed over."""
        table = self.amplitudes.reshape(self.system_dim, self.marker_dim)
        return np.sum(np.abs(table) ** 2, axis=1)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Dense density matrix; Hermitian, unit trace, positive within 1e-12."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatchError("density matrix must be square")
        if not np.all(np.isfinite(mat.real)) or not np.all(np.isfinite(mat.imag)):
            raise ValueError("density matrix contains non-finite entries")
        if np.max(np.abs(mat - mat.conj().T)) > ATOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(mat).real - 1.0) > ATOL or abs(np.trace(mat).imag) > ATOL:
            raise ValueError("density matrix trace is not 1")
        if np.min(np.linalg.eigvalsh(mat)) < -ATOL:
            raise ValueError("density matrix has a negative eigenvalue")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def make_state(dims: tuple[int, int], amplitudes) -> PureState:
    """Build a normalized state from raw amplitudes.

    The input is copied, normalized, and the divided-out norm recorded on
    the returned state. Raises ZeroNormError when every amplitude is zero
    and DimensionMismatchError when the vector length disagrees with dims.
    """
    system_dim, marker_dim = int(dims[0]), int(dims[1])
    vec = _as_complex_vector(amplitudes, name="amplitudes")
    if vec.size != system_dim * marker_dim:
        raise DimensionMismatchError(
            f"amplitudes: expected length {system_dim * marker_dim}, got {vec.size}"
        )
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ZeroNormError("cannot normalize the zero vector")
    return PureState(system_dim, marker_dim, vec / norm, normalization=norm)


def inner_product(a: PureState, b: PureState) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.dims != b.dims:
        raise DimensionMismatchError(f"incompatible dims {a.dims} vs {b.dims}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def tensor(system: PureState, marker) -> PureState:
    """Tensor product of a marker-free state with a 1- or 2-level factor.

    `marker` may be a marker-free PureState or any 1- or 2-component
    normalized vector. The result uses system-major ordering.
    """
    if system.marker_dim != 1:
        raise DimensionMismatchError("system factor must be marker-free")
    if isinstance(marker, PureState):
        if marker.marker_dim != 1:
            raise DimensionMismatchError("marker factor must itself be a plain vector")
        marker_vec = marker.amplitudes
    else:
        marker_vec = _as_complex_vector(marker, name="marker factor")
        if abs(float(np.real(np.vdot(marker_vec, marker_vec))) - 1.0) > ATOL:
            raise ValueError("marker factor is not normalized")
    if marker_vec.size not in (1, 2):
        raise DimensionMismatchError("marker factor must have dimension 1 or 2")
    return PureState(
        system.system_dim, marker_vec.size, np.kron(system.amplitudes, marker_vec)
    )


def _marker_vector(marker_state) -> np.ndarray:
    vec = _as_complex_vector(marker_state, 2, "marker state")
    if abs(float(np.real(np.vdot(vec, vec))) - 1.0) > ATOL:
        raise ValueError("marker state is not normalized")
    return vec


def project_marker(state: PureState, marker_state) -> tuple[PureState, float]:
    """Project the marker onto a 2-component state.

    Returns (residual system state, probability). The probability is the
    squared norm of the unnormalized partial inner product and the
    residual is that partial state renormalized. Raises NoMarkerError for
    marker-free states and ZeroProbabilityError below ZERO_PROBABILITY.
    """
    if state.marker_dim != 2:
        raise NoMarkerError("state has no marker to project")
    mv = _marker_vector(marker_state)
    table = state.amplitudes.reshape(state.system_dim, 2)
    partial = table @ mv.conj()
    probability = float(np.real(np.vdot(partial, partial)))
    if probability < ZERO_PROBABILITY:
        raise ZeroProbabilityError(
            f"marker projection probability {probability!r} below threshold"
        )
    residual = PureState(state.system_dim, 1, partial / np.sqrt(probability))
    return residual, _checked_probability(probability, "marker projection probability")


def condition_block(block: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    """Normalize one 2-component marker block of a system outcome.

    Returns (normalized conditional, squared norm of the block). `what`
    names the outcome in errors. Raises ZeroProbabilityError when the
    block carries probability below ZERO_PROBABILITY.
    """
    probability = float(np.real(np.vdot(block, block)))
    if probability < ZERO_PROBABILITY:
        raise ZeroProbabilityError(f"{what} has probability {probability!r}")
    conditional = block / np.sqrt(probability)
    return conditional, _checked_probability(probability, f"{what} probability")


def project_system(state: PureState, system_index: int) -> tuple[np.ndarray, float]:
    """Condition the marker on one system outcome (0-based index).

    Returns (normalized 2-component marker conditional, probability of the
    outcome). Raises ZeroProbabilityError when the outcome carries
    probability below ZERO_PROBABILITY.
    """
    if state.marker_dim != 2:
        raise NoMarkerError("state has no marker to condition")
    return condition_block(state.marker_block(system_index), f"system outcome {system_index}")


def condition_on_system(state: PureState) -> tuple[np.ndarray, np.ndarray]:
    """Condition the marker on every system outcome at once.

    Returns (weights[S], conditionals[S, 2]): row s holds the probability
    of system outcome s and the normalized marker state it leaves, as
    project_system would return them. Zero-row rule: an outcome below
    ZERO_PROBABILITY, for which project_system raises, gets weight 0 and
    an all-zero conditional instead, so it drops out of any table built
    as weights * |overlap|^2.
    """
    if state.marker_dim != 2:
        raise NoMarkerError("state has no marker to condition")
    table = state.amplitudes.reshape(state.system_dim, 2)
    # Each row as 4 reals (re, im of both components): one sum of squares.
    parts = state.amplitudes.view(np.float64).reshape(state.system_dim, 4)
    probabilities = np.einsum("ij,ij->i", parts, parts)
    live = probabilities >= ZERO_PROBABILITY
    conditionals = np.zeros_like(table)
    np.divide(table, np.sqrt(probabilities)[:, None], out=conditionals, where=live[:, None])
    # _checked_probability over the whole array; sums of squares are >= 0.
    worst = float(np.max(probabilities))
    if worst > 1.0 + ATOL:
        raise AssertionError(f"system outcome probability out of range: {worst!r}")
    weights = np.where(live, np.minimum(probabilities, 1.0), 0.0)
    return weights, conditionals


def reduced_marker_density(state: PureState) -> DensityOperator:
    """Reduced 2x2 density operator of the marker (system traced out)."""
    if state.marker_dim != 2:
        raise NoMarkerError("state has no marker")
    table = state.amplitudes.reshape(state.system_dim, 2)
    rho = table.T @ table.conj()
    # Symmetrize away last-ulp Hermiticity drift before validation.
    rho = 0.5 * (rho + rho.conj().T)
    return DensityOperator(rho)


def purity(rho: DensityOperator) -> float:
    """trace(rho^2); 1 for pure states, 1/dim for the maximally mixed one."""
    value = float(np.trace(rho.matrix @ rho.matrix).real)
    assert 1.0 / rho.dim - ATOL <= value <= 1.0 + ATOL, f"purity out of range: {value!r}"
    return value


def fidelity_pure(rho: DensityOperator, target) -> float:
    """<target|rho|target> for a normalized target vector."""
    vec = _as_complex_vector(target, rho.dim, "target")
    if abs(float(np.real(np.vdot(vec, vec))) - 1.0) > ATOL:
        raise ValueError("target state is not normalized")
    value = float(np.real(np.vdot(vec, rho.matrix @ vec)))
    return _checked_probability(value, "fidelity")


def overlap_fidelity(vector, target) -> float:
    """|<target|vector>|^2: fidelity_pure of the pure state |vector><vector|."""
    value = abs(complex(np.vdot(target, vector))) ** 2
    return _checked_probability(value, "fidelity")
