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
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidDensityError,
    InvariantError,
    NoMarkerError,
    NonFiniteError,
    NotNormalizedError,
    ZeroNormError,
    ZeroProbabilityError,
)

# -- tolerances and limits -----------------------------------------------------

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
#: Upper bound on channels, screen bins and sampled events, checked
#: before anything of that size is allocated.
MAX_SIZE = 10**7

#: Floats squared at a time by the exact squared norm.
_NORM_BLOCK = 1 << 16


def _as_complex_vector(values, length: int | None = None, name: str = "vector") -> np.ndarray:
    vec = np.asarray(values, dtype=np.complex128).reshape(-1)
    if length is not None and vec.size != length:
        raise DimensionMismatchError(f"{name}: expected length {length}, got {vec.size}")
    if not np.isfinite(vec).all():  # a complex entry is finite when both parts are
        raise NonFiniteError(f"{name} contains non-finite entries")
    return vec


def _squared_norm(vec: np.ndarray) -> float:
    """sum |v_i|^2: numpy's pairwise sum over fixed blocks, and the block
    sums added exactly by math.fsum.

    No BLAS call is made, so the bits depend on the vector alone and not on
    the BLAS thread count; blocks keep the squared copy small.
    """
    parts = np.ascontiguousarray(vec).view(np.float64)
    return math.fsum(
        np.square(parts[i : i + _NORM_BLOCK]).sum() for i in range(0, parts.size, _NORM_BLOCK)
    )


def _exactly_normalized(unit: np.ndarray, name: str = "state") -> np.ndarray:
    """unit, once its exact squared norm is 1 within ATOL: PureState's
    state check. Raises NotNormalizedError otherwise.
    """
    sq_norm = _squared_norm(unit)
    if not abs(sq_norm - 1.0) <= ATOL:  # an infinity or a NaN fails too
        raise NotNormalizedError(f"{name} is not normalized: squared norm = {sq_norm!r}")
    return unit


def _unit_vector(values, length: int | None, name: str) -> np.ndarray:
    """Finite complex vector of unit norm (within ATOL) and the given length."""
    return _exactly_normalized(_as_complex_vector(values, length, name), name)


def checked_probabilities(values, what: str) -> np.ndarray:
    """Read-only float64 copy of a probability array, clipped to [0, 1].

    Raises InvariantError (an AssertionError) for a non-finite entry, an
    entry outside [0, 1] by more than ATOL, or a total off 1 by more than
    SUM_ATOL. `what` names the array in the messages.
    """
    p = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(p)):
        raise InvariantError(f"{what} contain non-finite entries")
    _checked_probability(float(np.min(p)), what)
    _checked_probability(float(np.max(p)), what)
    if abs(float(np.sum(p)) - 1.0) > SUM_ATOL:
        raise InvariantError(f"{what} do not sum to 1")
    p = np.clip(p, 0.0, 1.0)
    p.setflags(write=False)
    return p


def _checked_probability(p: float, what: str) -> float:
    if not -ATOL <= p <= 1.0 + ATOL:  # a NaN fails too
        raise InvariantError(f"{what} out of range: {p!r}")
    return min(max(p, 0.0), 1.0)


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probabilities over the system outcomes (detectors or screen bins),
    tagged with the marker outcome they are conditioned on, if any."""

    probabilities: np.ndarray
    condition: str = "none"

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=np.float64).reshape(-1)
        if p.size == 0:
            raise DimensionMismatchError("a distribution needs at least one outcome")
        object.__setattr__(self, "probabilities", checked_probabilities(p, "probabilities"))


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized pure state over a (system_dim x marker_dim) product basis."""

    system_dim: int
    marker_dim: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_dims(self.system_dim, self.marker_dim)
        vec = _unit_vector(self.amplitudes, self.system_dim * self.marker_dim, "state").copy()
        vec.setflags(write=False)
        object.__setattr__(self, "amplitudes", vec)

    def marker_block(self, system_index: int) -> np.ndarray:
        """Contiguous marker amplitudes of one system outcome (copy)."""
        if not 0 <= system_index < self.system_dim:
            raise IndexOutOfRangeError(f"system index {system_index} out of range")
        start = system_index * self.marker_dim
        return self.amplitudes[start : start + self.marker_dim].copy()

    def system_probabilities(self) -> np.ndarray:
        """Probability of each system outcome, marker summed over."""
        sq = np.abs(self.amplitudes.reshape(self.system_dim, self.marker_dim)) ** 2
        # Column sums: the bytes of np.sum(sq, axis=1), without a reduction per row.
        return sq[:, 0] + sq[:, 1] if self.marker_dim == 2 else sq[:, 0]


def _check_dims(system_dim: int, marker_dim: int) -> None:
    if system_dim < 1:
        raise DimensionMismatchError("system dimension must be >= 1")
    if marker_dim not in (1, 2):
        raise DimensionMismatchError("marker dimension must be 1 or 2")


def _normalized_state(system_dim: int, marker_dim: int, unit: np.ndarray) -> PureState:
    """PureState around `unit`, a fresh vector of length system_dim *
    marker_dim that _exactly_normalized returned.

    Makes PureState's dimension checks but not its vector check, which
    _exactly_normalized has made with the same exact sum: the vector is
    neither summed a second time nor copied.
    """
    _check_dims(system_dim, marker_dim)
    unit.setflags(write=False)
    state = object.__new__(PureState)
    state.__dict__.update(system_dim=system_dim, marker_dim=marker_dim, amplitudes=unit)
    return state


# Values derived from an immutable owner (a PureState or ScreenGrid, both
# hashed by identity), kept only while something else holds them.
_DERIVED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _memo(owner, key, build):
    """build(), or the value an earlier call with the same owner and key
    returned, while that value is still held elsewhere.

    The memo holds owners and values weakly, so it keeps nothing alive.
    build must be a pure function of the owner and key.
    """
    derived = _DERIVED.get(owner)
    if derived is None:
        derived = _DERIVED[owner] = weakref.WeakValueDictionary()
    value = derived.get(key)
    if value is None:
        value = derived[key] = build()
    return value


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Dense density matrix; Hermitian, unit trace, positive within 1e-12."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatchError("density matrix must be square")
        _as_complex_vector(mat, name="density matrix")
        if np.max(np.abs(mat - mat.conj().T)) > ATOL:
            raise InvalidDensityError("density matrix is not Hermitian")
        if abs(np.trace(mat).real - 1.0) > ATOL or abs(np.trace(mat).imag) > ATOL:
            raise NotNormalizedError("density matrix trace is not 1")
        if np.min(np.linalg.eigvalsh(mat)) < -ATOL:
            raise InvalidDensityError("density matrix has a negative eigenvalue")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def make_state(dims: tuple[int, int], amplitudes) -> PureState:
    """Build a normalized state from raw amplitudes.

    The input is copied and divided by its norm; the caller's array is
    never changed. Any finite nonzero vector is accepted, however large or
    small its entries. Raises ZeroNormError when every amplitude is zero
    and DimensionMismatchError when the vector length disagrees with dims.
    """
    system_dim, marker_dim = int(dims[0]), int(dims[1])
    vec = _as_complex_vector(amplitudes, system_dim * marker_dim, "amplitudes")
    parts = np.ascontiguousarray(vec).view(np.float64)
    largest = max(float(parts.max()), -float(parts.min()))
    if largest == 0.0:
        raise ZeroNormError("cannot normalize the zero vector")
    # Dividing by the power of two of the largest part is exact, and leaves
    # a squared norm in [1/4, 2n): no square underflows or overflows.
    scaled = np.ldexp(parts, -math.frexp(largest)[1]).view(np.complex128)
    scaled *= 1.0 / math.sqrt(_squared_norm(scaled))  # the bits of vec / norm
    return _normalized_state(system_dim, marker_dim, _exactly_normalized(scaled))


def project_marker(state: PureState, marker_state) -> tuple[PureState, float]:
    """Project the marker onto a 2-component state.

    Returns (residual system state, probability): the partial inner
    product <m|psi> divided by its norm, and its exact squared norm, summed
    over the whole residual rather than row by row as system-first is. Raises
    NoMarkerError for marker-free states and ZeroProbabilityError below
    ZERO_PROBABILITY.
    """
    if state.marker_dim != 2:
        raise NoMarkerError("state has no marker to project")
    mv = _unit_vector(marker_state, 2, "marker state")
    partial = state.amplitudes.reshape(state.system_dim, 2) @ mv.conj()
    probability = _squared_norm(partial)
    if probability < ZERO_PROBABILITY:
        raise ZeroProbabilityError(f"marker projection has probability {probability!r}")
    partial /= math.sqrt(probability)
    probability = _checked_probability(probability, "marker projection probability")
    return _normalized_state(state.system_dim, 1, _exactly_normalized(partial)), probability


def _row_probability(re1, im1, re2, im2):
    """|c1|^2 + |c2|^2 from four reals: equal bits on Python floats and float64 columns."""
    return (re1 * re1 + re2 * re2) + (im1 * im1 + im2 * im2)


def _condition_row(c1: complex, c2: complex, what: str) -> tuple[complex, complex, float]:
    """(c1 / sqrt(p), c2 / sqrt(p), p) for one marker block, as its row of condition_on_system.

    Python floats throughout: each part times 1 / sqrt(p), as the kernel
    scales its columns. `what` names the outcome in errors. Raises
    ZeroProbabilityError below ZERO_PROBABILITY.
    """
    probability = _row_probability(c1.real, c1.imag, c2.real, c2.imag)
    if not probability >= ZERO_PROBABILITY:
        raise ZeroProbabilityError(f"{what} has probability {probability!r}")
    scale = 1.0 / math.sqrt(probability)
    return (
        complex(c1.real * scale, c1.imag * scale),
        complex(c2.real * scale, c2.imag * scale),
        _checked_probability(probability, f"{what} probability"),
    )


def project_system(state: PureState, system_index: int) -> tuple[np.ndarray, float]:
    """Condition the marker on one system outcome (0-based index).

    Returns (normalized 2-component marker conditional, probability of the
    outcome), row system_index of condition_on_system bit for bit. Raises
    ZeroProbabilityError below ZERO_PROBABILITY.
    """
    if state.marker_dim != 2:
        raise NoMarkerError("state has no marker to condition")
    block = state.marker_block(system_index).tolist()
    c1, c2, probability = _condition_row(*block, f"system outcome {system_index}")
    return np.array([c1, c2]), probability


def condition_on_system(state: PureState) -> tuple[np.ndarray, np.ndarray]:
    """Condition the marker on every system outcome at once.

    Returns (weights[S], conditionals[S, 2]): row s holds what
    project_system(state, s) returns, bit for bit. Zero-row rule: an
    outcome below ZERO_PROBABILITY, for which project_system raises, gets
    weight 0 and an all-zero conditional instead, so it drops out of any
    table built as weights * |overlap|^2.
    """
    if state.marker_dim != 2:
        raise NoMarkerError("state has no marker to condition")
    # Each row as 4 reals (re, im of both components), handled column by
    # column: numpy's loops over a length-4 inner axis cost several times more.
    parts = state.amplitudes.view(np.float64).reshape(state.system_dim, 4)
    probabilities = _row_probability(*parts.T)
    live = probabilities >= ZERO_PROBABILITY
    _checked_probability(float(np.max(probabilities)), "system outcome probability")
    scales = np.divide(1.0, np.sqrt(probabilities), out=np.zeros(state.system_dim), where=live)
    conditionals = np.empty((state.system_dim, 2), dtype=np.complex128)
    scaled = conditionals.view(np.float64)
    for part in range(4):
        np.multiply(parts[:, part], scales, out=scaled[:, part])
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
    if not 1.0 / rho.dim - ATOL <= value <= 1.0 + ATOL:
        raise InvariantError(f"purity out of range: {value!r}")
    return value


def fidelity_pure(rho: DensityOperator, target) -> float:
    """<target|rho|target> for a normalized target vector."""
    vec = _unit_vector(target, rho.dim, "target state")
    value = float(np.real(np.vdot(vec, rho.matrix @ vec)))
    return _checked_probability(value, "fidelity")


def overlap_fidelity(vector, target) -> float:
    """|<target|vector>|^2 of two marker vectors: fidelity_pure of the
    pure state |vector><vector|."""
    c1, c2 = _as_complex_vector(vector, 2, "vector").tolist()
    t1, t2 = _as_complex_vector(target, 2, "target").tolist()
    return _overlap_fidelity(c1, c2, t1, t2)


def _overlap_fidelity(c1: complex, c2: complex, t1: complex, t2: complex) -> float:
    """|conj(t1) c1 + conj(t2) c2|^2 in Python complex arithmetic, range-checked."""
    value = abs(t1.conjugate() * c1 + t2.conjugate() * c2) ** 2
    return _checked_probability(value, "fidelity")
