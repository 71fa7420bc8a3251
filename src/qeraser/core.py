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
from typing import Iterator

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
#: Rows of the marker contraction's second product made at a time. A 64 KiB
#: temporary is reused from the heap, where a full-length one is mapped and
#: faulted in afresh: at 2^18 rows project_marker took 4.4 ms that way
#: against 3.2 ms in blocks (BENCH_28.json, project_marker_us).
_CONTRACTION_BLOCK = 1 << 12


def _integer(value, name: str, low, high, error: type[Exception]) -> int:
    """int(value) for an int or numpy integer, not a bool, in [low, high].

    The one integer rule of the package, for every count, size, dimension,
    index and seed; anything else raises `error`. No value is truncated,
    masked or kept as a float.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if low <= int(value) <= high:
            return int(value)
    raise error(f"{name} must be an integer in [{low}, {high}], got {value!r}")


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


def _real_array(values, what: str) -> np.ndarray:
    """values as a float64 array. Entries that are not real numbers (str,
    bytes, complex, objects) raise TypeError instead of being parsed or cast."""
    array = np.asarray(values)
    if array.dtype.kind not in "biuf":
        raise TypeError(f"{what} must be real numbers, not {array.dtype}")
    return array.astype(np.float64, copy=False)


def checked_probabilities(values, what: str) -> np.ndarray:
    """Read-only float64 copy of a probability array, clipped to [0, 1].

    Raises InvariantError (an AssertionError) for a non-finite entry, an
    entry outside [0, 1] by more than ATOL, or a total off 1 by more than
    SUM_ATOL. `what` names the array in the messages.
    """
    return _checked_stack(np.asarray(values, dtype=np.float64)[None], what)[0]


def _checked_stack(stack: np.ndarray, what: str) -> np.ndarray:
    """checked_probabilities of each stack[k], in one pass over a float64
    stack of probability arrays of one shape: one read-only clipped copy.
    A stack of no arrays is returned as it is."""
    if not len(stack):
        return stack
    if not np.all(np.isfinite(stack)):
        raise InvariantError(f"{what} contain non-finite entries")
    _checked_probability(float(np.min(stack)), what)
    _checked_probability(float(np.max(stack)), what)
    totals = stack.reshape(len(stack), -1).sum(axis=1).tolist()
    if any(abs(total - 1.0) > SUM_ATOL for total in totals):
        raise InvariantError(f"{what} do not sum to 1")
    p = np.clip(stack, 0.0, 1.0)
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
        p = _real_array(self.probabilities, "probabilities").reshape(-1)
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
        system_dim, marker_dim = _dims(self.system_dim, self.marker_dim)
        self.__dict__.update(system_dim=system_dim, marker_dim=marker_dim)
        vec = _unit_vector(self.amplitudes, self.system_dim * self.marker_dim, "state").copy()
        vec.setflags(write=False)
        object.__setattr__(self, "amplitudes", vec)

    def system_probabilities(self) -> np.ndarray:
        """Probability of each system outcome, marker summed over."""
        sq = np.abs(self.amplitudes.reshape(self.system_dim, self.marker_dim)) ** 2
        # Column sums: the bytes of np.sum(sq, axis=1), without a reduction per row.
        return sq[:, 0] + sq[:, 1] if self.marker_dim == 2 else sq[:, 0]


def _dims(system_dim, marker_dim) -> tuple[int, int]:
    """The dimensions as ints: system_dim >= 1, marker_dim 1 or 2."""
    return (
        _integer(system_dim, "system dimension", 1, math.inf, DimensionMismatchError),
        _integer(marker_dim, "marker dimension", 1, 2, DimensionMismatchError),
    )


def _normalized_state(system_dim: int, marker_dim: int, unit: np.ndarray) -> PureState:
    """PureState around `unit`, a fresh vector that _exactly_normalized
    returned, of dimensions that _dims accepted.

    Makes none of PureState's checks, which those two have made: the vector
    is neither summed a second time nor copied.
    """
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
    and DimensionMismatchError for bad dims or a vector of another length.
    """
    system_dim, marker_dim = _dims(*dims)
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
    over the whole residual rather than row by row as system-first is. The
    one-vector case of _project_markers. Raises NoMarkerError for
    marker-free states and ZeroProbabilityError below ZERO_PROBABILITY.
    """
    if state.marker_dim != 2:
        raise NoMarkerError("state has no marker to project")
    mv = _unit_vector(marker_state, 2, "marker state")
    residual, probability = next(_project_markers(state, mv[None]))
    if probability < ZERO_PROBABILITY:
        raise ZeroProbabilityError(f"marker projection has probability {probability!r}")
    probability = _checked_probability(probability, "marker projection probability")
    return _normalized_state(state.system_dim, 1, _exactly_normalized(residual)), probability


def _project_markers(state: PureState, vectors: np.ndarray) -> Iterator[tuple[np.ndarray, float]]:
    """Project the marker of `state` (marker_dim 2) onto each row of
    `vectors`, a (K, 2) complex array.

    Yields (residual, probability) per row: <m|psi> divided by its norm,
    and its exact squared norm (_squared_norm). A residual below
    ZERO_PROBABILITY is left undivided. Each residual is the numpy ufunc
    contraction t[:, 0] * conj(m1) + t[:, 1] * conj(m2), with no BLAS call,
    so a row has the bits of the one-vector call. The second product is
    added _CONTRACTION_BLOCK rows at a time.
    """
    table = state.amplitudes.reshape(state.system_dim, 2)
    for m1, m2 in vectors.conj().tolist():
        residual = table[:, 0] * m1
        for start in range(0, state.system_dim, _CONTRACTION_BLOCK):
            rows = slice(start, start + _CONTRACTION_BLOCK)
            residual[rows] += table[rows, 1] * m2
        probability = _squared_norm(residual)
        if probability >= ZERO_PROBABILITY:
            residual /= math.sqrt(probability)
        yield residual, probability


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
    last = state.system_dim - 1
    system_index = _integer(system_index, "system index", 0, last, IndexOutOfRangeError)
    c1, c2, probability = _condition_row(
        state.amplitudes.item(2 * system_index),
        state.amplitudes.item(2 * system_index + 1),
        f"system outcome {system_index}",
    )
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


def _overlap_fidelity(c1: complex, c2: complex, t1: complex, t2: complex) -> float:
    """|conj(t1) c1 + conj(t2) c2|^2 in Python complex arithmetic, range-checked."""
    value = abs(t1.conjugate() * c1 + t2.conjugate() * c2) ** 2
    return _checked_probability(value, "fidelity")
