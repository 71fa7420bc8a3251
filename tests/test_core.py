import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, assume, settings
from hypothesis import strategies as st

from oracles import inner_product, tensor
from qeraser.analysis import (
    SYSTEM_FIRST,
    JointTable,
    joint_distribution,
    sample_events,
    sample_outcomes,
)
from qeraser.core import (
    ZERO_PROBABILITY,
    DensityOperator,
    Distribution,
    PureState,
    MAX_SIZE,
    _overlap_fidelity,
    checked_probabilities,
    condition_on_system,
    fidelity_pure,
    make_state,
    project_marker,
    project_system,
    purity,
    reduced_marker_density,
)
from qeraser.errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidConfigError,
    InvalidCountError,
    InvalidDensityError,
    InvariantError,
    InvalidGeometryError,
    NoMarkerError,
    NonFiniteError,
    NotNormalizedError,
    QEraserError,
    ValidationError,
    ZeroNormError,
    ZeroProbabilityError,
)
from qeraser.marker import MarkerState, erasure_basis
from qeraser.nchannel import (
    PhaseConfig,
    default_config,
    delayed_marker_state,
    final_state_marked,
    random_config,
)
from qeraser.rng import SplitMix64
from qeraser.twoslit import ScreenGeometry, default_geometry, default_grid, delayed_marker_state_at

SQ = 1.0 / math.sqrt(2.0)

# The maximally entangled path/marker state (|A,d1> + |B,d2>)/sqrt(2).
ENTANGLED = make_state((2, 2), [1, 0, 0, 1])


def default_marked_state(n=10):
    """Alternating-phase marked channel state, built by hand from scalars."""
    table = np.zeros((n, 2), dtype=complex)
    for j in range(1, n + 1):
        table[j - 1, 0] = 1.0
        table[j - 1, 1] = np.exp(1j * (0.0 if j % 2 == 1 else math.pi))
    return make_state((n, 2), table.reshape(-1) / math.sqrt(2 * n))


_component = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def marked_states(draw, max_system=6):
    n = draw(st.integers(1, max_system))
    parts = draw(
        st.lists(st.tuples(_component, _component), min_size=2 * n, max_size=2 * n)
    )
    amps = [complex(re, im) for re, im in parts]
    assume(math.sqrt(sum(abs(a) ** 2 for a in amps)) > 1e-3)
    return make_state((n, 2), amps)


@st.composite
def marked_states_with_dead_rows(draw, max_system=8):
    """Marked states in which some rows are exactly zero or below threshold."""
    n = draw(st.integers(2, max_system))
    parts = draw(
        st.lists(st.tuples(_component, _component), min_size=2 * n, max_size=2 * n)
    )
    amps = [complex(re, im) for re, im in parts]
    kinds = draw(st.lists(st.sampled_from(("live", "zero", "tiny")), min_size=n, max_size=n))
    for row, kind in enumerate(kinds):
        if kind != "live":
            scale = 0.0 if kind == "zero" else 1e-12
            amps[2 * row] *= scale
            amps[2 * row + 1] *= scale
    live_norm = math.sqrt(
        sum(abs(amps[2 * r]) ** 2 + abs(amps[2 * r + 1]) ** 2
            for r, kind in enumerate(kinds) if kind == "live")
    )
    assume(live_norm > 1e-3)
    return make_state((n, 2), amps)


@st.composite
def marker_angles(draw):
    return draw(st.floats(-20.0, 20.0, allow_nan=False))


def erasure_pair(theta):
    plus = np.array([np.exp(1j * theta), np.exp(-1j * theta)]) * SQ
    minus = np.array([np.exp(1j * theta), -np.exp(-1j * theta)]) * SQ
    return plus, minus


class TestMakeState:
    def test_normalizes_and_records_factor(self):
        state = make_state((2, 1), [1, 1])
        assert np.allclose(state.amplitudes, [SQ, SQ], atol=1e-15)

    def test_identity_case(self):
        state = make_state((2, 1), [1, 0])
        assert np.array_equal(state.amplitudes, [1, 0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "amplitudes",
        [
            [1e-200, 1e-200],
            [1e200, 1e200],
            [1e154, 1e154],
            [3e-162, 0],
            [1.7e308, 1.7e308],
            [1e-310, 0],
            [5e-324, 5e-324],
        ],
    )
    def test_any_finite_nonzero_vector_normalizes(self, amplitudes):
        """No square underflows to zero or overflows to infinity on the way."""
        raw = np.array(amplitudes, dtype=complex)
        state = make_state((2, 1), raw)
        expected = [SQ, SQ] if amplitudes[1] else [1, 0]
        assert np.allclose(state.amplitudes, expected, atol=1e-15)
        assert np.array_equal(raw, amplitudes)  # the caller's array is not scaled in place

    def test_entangled_state(self):
        assert np.allclose(ENTANGLED.amplitudes, [SQ, 0, 0, SQ], atol=1e-15)

    def test_zero_norm_rejected(self):
        with pytest.raises(ZeroNormError):
            make_state((2, 1), [0, 0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            make_state((2, 2), [1, 0, 0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            make_state((2, 1), [float("nan"), 1.0])

    def test_direct_construction_requires_normalization(self):
        with pytest.raises(ValueError):
            PureState(2, 1, np.array([1.0, 1.0]))

    def test_amplitudes_are_frozen(self):
        with pytest.raises(ValueError):
            ENTANGLED.amplitudes[0] = 0.0


class TestInnerProduct:
    def test_orthonormal_marker_states(self):
        d1 = make_state((2, 1), [1, 0])
        d2 = make_state((2, 1), [0, 1])
        assert inner_product(d1, d2) == 0

    def test_self_overlap_is_one(self):
        s = make_state((3, 1), [1, 2j, -1])
        assert inner_product(s, s) == pytest.approx(1.0, abs=1e-12)

    def test_erasure_pair_orthogonal(self):
        plus = make_state((2, 1), [1, 1])
        minus = make_state((2, 1), [1, -1])
        assert abs(inner_product(plus, minus)) < 1e-12

    def test_conjugate_linear_in_first_argument(self):
        a = make_state((2, 1), [1, 1j])
        b = make_state((2, 1), [1, 2])
        assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            inner_product(make_state((2, 1), [1, 0]), make_state((2, 2), [1, 0, 0, 1]))


class TestTensor:
    def test_system_major_ordering(self):
        out = tensor(make_state((2, 1), [1, 0]), [0, 1])
        assert np.array_equal(out.amplitudes, [0, 1, 0, 0])

    def test_superposed_system(self):
        out = tensor(make_state((2, 1), [1, 1]), [1, 0])
        assert np.allclose(out.amplitudes, [SQ, 0, SQ, 0], atol=1e-15)

    def test_norm_preserved(self):
        out = tensor(make_state((3, 1), [1, 1j, 2]), [0.6, 0.8j])
        assert abs(np.vdot(out.amplitudes, out.amplitudes).real - 1) < 1e-12

    def test_unnormalized_factor_rejected(self):
        with pytest.raises(ValueError):
            tensor(make_state((2, 1), [1, 0]), [3, 4j])

    def test_entangled_state_is_not_a_product(self):
        # If it factored, the reduced marker state would be pure.
        assert purity(reduced_marker_density(ENTANGLED)) == pytest.approx(0.5, abs=1e-12)

    def test_marked_factor_rejected(self):
        with pytest.raises(DimensionMismatchError):
            tensor(ENTANGLED, [1, 0])


class TestProjectMarker:
    def test_erasure_projection_recovers_superposition(self):
        residual, probability = project_marker(ENTANGLED, [SQ, SQ])
        assert probability == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(residual.amplitudes, [SQ, SQ], atol=1e-12)

    def test_which_path_projection_isolates_one_path(self):
        residual, probability = project_marker(ENTANGLED, [1, 0])
        assert probability == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(residual.amplitudes, [1, 0], atol=1e-12)

    def test_orthogonal_projection_is_zero_probability(self):
        product = tensor(make_state((2, 1), [1, 1]), [1, 0])
        with pytest.raises(ZeroProbabilityError):
            project_marker(product, [0, 1])

    def test_requires_marker(self):
        with pytest.raises(NoMarkerError):
            project_marker(make_state((2, 1), [1, 0]), [1, 0])

    def test_requires_normalized_marker_vector(self):
        with pytest.raises(ValueError):
            project_marker(ENTANGLED, [1, 1])


class TestProjectSystem:
    def test_odd_detector_conditional_is_dplus(self):
        state = default_marked_state(10)
        conditional, probability = project_system(state, 2)  # detector 3
        assert probability == pytest.approx(0.1, abs=1e-12)
        assert np.allclose(conditional, [SQ, SQ], atol=1e-12)

    def test_even_detector_conditional_is_dminus(self):
        state = default_marked_state(10)
        conditional, probability = project_system(state, 3)  # detector 4
        assert probability == pytest.approx(0.1, abs=1e-12)
        assert np.allclose(conditional, [SQ, -SQ], atol=1e-12)

    def test_perfect_correlation(self):
        conditional, probability = project_system(ENTANGLED, 0)
        assert probability == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(conditional, [1, 0], atol=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            project_system(ENTANGLED, 2)

    def test_zero_probability_outcome(self):
        state = make_state((2, 2), [1, 1, 0, 0])
        with pytest.raises(ZeroProbabilityError):
            project_system(state, 1)


class TestConditionOnSystem:
    @given(marked_states_with_dead_rows(), marker_angles())
    @settings(max_examples=80, deadline=None)
    def test_matches_per_row_projection(self, state, theta):
        weights, conditionals = condition_on_system(state)
        assert weights.shape == (state.system_dim,)
        assert conditionals.shape == (state.system_dim, 2)
        table = joint_distribution(state, erasure_basis(theta), SYSTEM_FIRST)
        for row in range(state.system_dim):
            try:
                conditional, weight = project_system(state, row)
            except ZeroProbabilityError:
                assert weights[row] == 0.0
                assert np.all(conditionals[row] == 0.0)
                assert np.all(table.probabilities[row] == 0.0)
                continue
            assert abs(weights[row] - weight) < 1e-12
            assert np.max(np.abs(conditionals[row] - conditional)) < 1e-12

    def test_zero_row_rule(self):
        state = make_state((3, 2), [1, 1, 0, 0, 1e-9, 0])
        weights, conditionals = condition_on_system(state)
        assert weights[1] == 0.0 and weights[2] == 0.0
        assert state.system_probabilities()[2] < ZERO_PROBABILITY
        assert np.all(conditionals[1:] == 0.0)
        assert np.allclose(conditionals[0], [SQ, SQ], atol=1e-12)

    def test_requires_marker(self):
        with pytest.raises(NoMarkerError):
            condition_on_system(make_state((2, 1), [1, 1]))

    def test_overlap_fidelity_equals_rank_one_fidelity_pure(self):
        vec = np.array([0.6, 0.8j])
        target = np.array([SQ, SQ])
        rho = DensityOperator(np.outer(vec, vec.conj()))
        assert _overlap_fidelity(*vec.tolist(), *target.tolist()) == pytest.approx(
            fidelity_pure(rho, target), abs=1e-12
        )


def channel_states():
    """Marked states of 1024-channel random configurations."""
    return st.integers(0, 2**64 - 1).map(lambda seed: final_state_marked(random_config(1024, seed)))


class TestOneRowFormula:
    """project_system is row s of condition_on_system, bit for bit."""

    @given(st.one_of(marked_states_with_dead_rows(), channel_states()))
    @settings(max_examples=40, deadline=None)
    def test_project_system_is_kernel_row(self, state):
        weights, conditionals = condition_on_system(state)
        for row in range(state.system_dim):
            try:
                conditional, weight = project_system(state, row)
            except ZeroProbabilityError:
                assert weights[row] == 0.0
                continue
            assert conditional.tobytes() == conditionals[row].tobytes()
            assert weight == weights[row]

    def test_delayed_marker_is_kernel_row(self):
        for seed in range(4):
            state = final_state_marked(random_config(1024, seed))
            _, conditionals = condition_on_system(state)
            for j in range(1, state.system_dim + 1):
                vector = delayed_marker_state(state, j).marker_state.vector
                assert vector.tobytes() == project_system(state, j - 1)[0].tobytes()
                assert vector.tobytes() == conditionals[j - 1].tobytes()

    def test_default_config_is_the_scalar_pattern(self):
        """The alternating phases that default_marked_state writes one by one."""
        for n in (2, 10, 1000, 100000):
            scalar = [0.0 if j % 2 == 1 else math.pi for j in range(1, n + 1)]
            assert default_config(n).phis.tobytes() == np.array(scalar).tobytes()


class TestDensity:
    def test_entangled_marker_is_maximally_mixed(self):
        rho = reduced_marker_density(ENTANGLED)
        assert np.allclose(rho.matrix, np.diag([0.5, 0.5]), atol=1e-12)
        assert purity(rho) == pytest.approx(0.5, abs=1e-12)

    def test_product_marker_is_pure(self):
        product = tensor(make_state((2, 1), [1, 1]), [1, 0])
        rho = reduced_marker_density(product)
        assert np.allclose(rho.matrix, [[1, 0], [0, 0]], atol=1e-12)
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_of_projector(self):
        plus = np.array([SQ, SQ])
        rho = DensityOperator(np.outer(plus, plus.conj()))
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)
        assert fidelity_pure(rho, plus) == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_of_maximally_mixed(self):
        rho = DensityOperator(np.diag([0.5, 0.5]))
        for vec in ([1, 0], [SQ, SQ], [SQ, 1j * SQ]):
            assert fidelity_pure(rho, vec) == pytest.approx(0.5, abs=1e-12)

    def test_invalid_densities_rejected(self):
        with pytest.raises(ValueError):
            DensityOperator(np.array([[1.0, 0.5], [0.0, 0.0]]))  # not Hermitian
        with pytest.raises(ValueError):
            DensityOperator(np.diag([0.6, 0.6]))  # trace 1.2
        with pytest.raises(ValueError):
            DensityOperator(np.diag([1.5, -0.5]))  # negative eigenvalue


class TestInvariants:
    @given(marked_states())
    @settings(max_examples=60, deadline=None)
    def test_states_stay_normalized(self, state):
        sq = float(np.vdot(state.amplitudes, state.amplitudes).real)
        assert abs(sq - 1.0) < 1e-12

    @given(marked_states(), marker_angles())
    @settings(max_examples=60, deadline=None)
    def test_marker_completeness(self, state, theta):
        plus, minus = erasure_pair(theta)
        total = 0.0
        for vec in (plus, minus):
            try:
                total += project_marker(state, vec)[1]
            except ZeroProbabilityError:
                pass
        assert abs(total - 1.0) < 1e-12

    @given(marked_states())
    @settings(max_examples=60, deadline=None)
    def test_system_completeness(self, state):
        assert abs(float(np.sum(state.system_probabilities())) - 1.0) < 1e-12

    @given(marked_states(), marker_angles())
    @settings(max_examples=60, deadline=None)
    def test_projection_order_consistency(self, state, theta):
        """marker-then-system equals system-then-marker, entry by entry."""
        vectors = erasure_pair(theta)
        n = state.system_dim
        marker_first = np.zeros((n, 2))
        for col, vec in enumerate(vectors):
            try:
                residual, branch = project_marker(state, vec)
            except ZeroProbabilityError:
                continue
            marker_first[:, col] = branch * residual.system_probabilities()
        system_first = np.zeros((n, 2))
        for row in range(n):
            try:
                conditional, weight = project_system(state, row)
            except ZeroProbabilityError:
                continue
            for col, vec in enumerate(vectors):
                system_first[row, col] = weight * abs(np.vdot(vec, conditional)) ** 2
        assert np.max(np.abs(marker_first - system_first)) < 1e-12

    @given(marked_states(), marker_angles())
    @settings(max_examples=60, deadline=None)
    def test_reduced_density_reproduces_marginals(self, state, theta):
        rho = reduced_marker_density(state)
        for vec in erasure_pair(theta):
            expected = float(np.real(np.vdot(vec, rho.matrix @ vec)))
            try:
                _, probability = project_marker(state, vec)
            except ZeroProbabilityError:
                probability = 0.0
            assert abs(probability - expected) < 1e-12


def _distribution(values):
    return Distribution(values)


def _table(values):
    from qeraser.analysis import JointTable

    return JointTable(("a", "b"), ("c", "d"), np.reshape(values, (2, 2)))


def _pattern_functions():
    """Each pattern function of nchannel and twoslit: (call, its condition tag)."""
    from qeraser import nchannel, twoslit

    state = final_state_marked(default_config(4))
    grid = twoslit.default_grid()
    return {
        "detector_probabilities": (lambda: nchannel.detector_probabilities(state), "none"),
        "conditioned_distribution": (
            lambda: nchannel.conditioned_distribution(state, erasure_basis(0.0).plus),
            "dplus[theta=0]",
        ),
        "pattern_no_marker": (lambda: twoslit.pattern_no_marker(grid), "none"),
        "pattern_marked_unconditioned": (
            lambda: twoslit.pattern_marked_unconditioned(grid), "none"
        ),
        "pattern_conditioned": (
            lambda: twoslit.pattern_conditioned(grid, 0.0, "minus")[0], "dminus[theta=0]"
        ),
    }


class TestProbabilityValidator:
    @pytest.mark.parametrize("name", sorted(_pattern_functions()))
    def test_every_pattern_function_returns_one_type(self, name):
        call, condition = _pattern_functions()[name]
        dist = call()
        assert type(dist) is Distribution
        assert dist.condition == condition

    @pytest.mark.parametrize("build", [_distribution, _table])
    @pytest.mark.parametrize(
        "values",
        [
            [math.nan] * 4,
            [0.5, 0.5, math.nan, 0.0],
            [0.5, 0.5, math.inf, -math.inf],
            [0.75, 0.5, -0.25, 0.0],
            [0.25, 0.25, 0.25, 0.25 + 1e-9],
        ],
        ids=["all-nan", "one-nan", "infinite", "negative", "sum-off-1e-9"],
    )
    def test_rejected_by_every_probability_type(self, build, values):
        with pytest.raises(AssertionError):
            build(values)

    @pytest.mark.parametrize("build", [_distribution, _table])
    @pytest.mark.parametrize(
        "values",
        [["abc"] * 4, ["0.25"] * 4, [b"0.25"] * 4, [0.25 + 0j] * 4, [Fraction(1, 4)] * 4],
        ids=["junk", "numeric-str", "bytes", "complex", "objects"],
    )
    def test_non_real_entries_are_a_type_error(self, build, values):
        """Nothing is parsed or cast: "0.25" is no probability."""
        with pytest.raises(TypeError):
            build(values)

    @pytest.mark.parametrize("values", ["abc", "1", b"1"])
    def test_distribution_parses_no_string(self, values):
        with pytest.raises(TypeError):
            Distribution(values)

    @pytest.mark.parametrize("build", [_distribution, _table])
    def test_valid_values_clipped_and_read_only(self, build):
        probs = build([0.5, 0.5 + 1e-13, -1e-13, 0.0]).probabilities
        assert np.min(probs) == 0.0 and not probs.flags.writeable


class TestRuleErrors:
    """Each state rule raises a domain error (exit 3 from the CLI) that is
    still the builtin class callers caught before."""

    @pytest.mark.parametrize(
        "violate, error, builtin",
        [
            (lambda: make_state((2, 1), [math.nan, 1.0]), NonFiniteError, ValueError),
            (lambda: PureState(2, 1, np.array([1.0, 1.0])), NotNormalizedError, ValueError),
            (lambda: tensor(make_state((2, 1), [1, 0]), [3, 4j]), NotNormalizedError, ValueError),
            (lambda: project_marker(ENTANGLED, [1, 1]), NotNormalizedError, ValueError),
            (lambda: fidelity_pure(DensityOperator(np.eye(2) / 2), [1, 1]), NotNormalizedError,
             ValueError),
            (lambda: checked_probabilities([1.5, -0.5], "p"), InvariantError, AssertionError),
            (lambda: checked_probabilities([0.5, math.nan], "p"), InvariantError, AssertionError),
            (lambda: JointTable((0, 1), ("a",), np.eye(2) / 2), DimensionMismatchError,
             ValueError),
            (lambda: joint_distribution(ENTANGLED, erasure_basis(0.0), "both"), ValidationError,
             ValueError),
            (lambda: joint_distribution(ENTANGLED, erasure_basis(0.0), SYSTEM_FIRST, [1]),
             DimensionMismatchError, ValueError),
            (lambda: MarkerState(math.inf, 0.0), NonFiniteError, ValueError),
            (lambda: MarkerState(1.0, 1.0), NotNormalizedError, ValueError),
            (lambda: SplitMix64(1).uint64s(-1), InvalidCountError, ValueError),
            (lambda: joint_distribution(ENTANGLED, (erasure_basis(0.0).plus,) * 2, SYSTEM_FIRST),
             ValidationError, ValueError),
            (lambda: DensityOperator(np.array([[1.0, 0.5], [0.0, 0.0]])), InvalidDensityError,
             ValueError),
            (lambda: DensityOperator(np.diag([0.6, 0.6])), NotNormalizedError, ValueError),
            (lambda: DensityOperator(np.diag([1.5, -0.5])), InvalidDensityError, ValueError),
            (lambda: Distribution([]), DimensionMismatchError, ValueError),
        ],
        ids=["non-finite", "state-norm", "tensor-norm", "marker-norm", "target-norm",
             "probability-range", "probability-non-finite", "table-shape", "order",
             "system-label-count", "marker-non-finite", "marker-norm-state",
             "negative-draw-count", "basis-not-orthogonal",
             "density-not-hermitian", "density-trace", "density-negative-eigenvalue",
             "distribution-empty"],
    )
    def test_rule_error_classes(self, violate, error, builtin):
        with pytest.raises(error) as info:
            violate()
        assert isinstance(info.value, QEraserError)
        assert isinstance(info.value, builtin)


#: Marked 4-channel state and its joint table, for the integer-rule probes.
CHANNEL = final_state_marked(default_config(4))
TABLE = joint_distribution(CHANNEL, erasure_basis(0.0), SYSTEM_FIRST)


class TestIntegerRule:
    """Every count, size, dimension, index and seed is an int or numpy
    integer, not a bool, within its bounds (core._integer); anything else
    raises the site's domain error instead of being truncated, masked or
    kept as a float."""

    CASES = {
        "sample-seed-bool": (lambda: sample_outcomes(TABLE, 3, True), ValidationError),
        "seed-negative": (lambda: SplitMix64(-1), ValidationError),
        "seed-float": (lambda: SplitMix64(1.5), ValidationError),
        "seed-above-64-bits": (lambda: SplitMix64(2**64 + 3), ValidationError),
        "floats-count-float": (lambda: SplitMix64(1).floats(1.5), InvalidCountError),
        "uint64s-above-limit": (lambda: SplitMix64(1).uint64s(MAX_SIZE + 1), InvalidCountError),
        "sample-count-float": (lambda: sample_outcomes(TABLE, 3.0, 1), InvalidCountError),
        "make-state-float-dim": (lambda: make_state((2, 2.5), [1, 0]), DimensionMismatchError),
        "make-state-zero-dim": (lambda: make_state((0, 2), []), DimensionMismatchError),
        "state-float-dim": (lambda: PureState(2.0, 2, [SQ, 0, 0, SQ]), DimensionMismatchError),
        "state-marker-dim-3": (lambda: PureState(1, 3, [1, 0, 0]), DimensionMismatchError),
        "phase-config-float-n": (lambda: PhaseConfig(2.0, [0, 0], [0, 3]), InvalidConfigError),
        "default-config-float-n": (lambda: default_config(4.0), InvalidConfigError),
        "random-config-float-n": (lambda: random_config(4.0, 1), InvalidConfigError),
        "detector-bool": (lambda: delayed_marker_state(CHANNEL, True), IndexOutOfRangeError),
        "detector-float": (lambda: delayed_marker_state(CHANNEL, 1.0), IndexOutOfRangeError),
        "system-index-float": (lambda: project_system(ENTANGLED, 1.0), IndexOutOfRangeError),
        "bin-float": (lambda: delayed_marker_state_at(default_grid(), 2.0), IndexOutOfRangeError),
        "bins-bool": (lambda: dataclasses.replace(default_geometry(), bins=True),
                      InvalidGeometryError),
        "system-label-float": (lambda: sample_events(CHANNEL, erasure_basis(0.0), SYSTEM_FIRST, 1,
                                                     1, "s", [1, 2, 3, 4.0]), ValidationError),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_rejected_with_the_site_error(self, name):
        violate, error = self.CASES[name]
        with pytest.raises(error, match="must be an integer") as info:
            violate()
        assert isinstance(info.value, QEraserError)

    def test_numpy_integers_give_equal_results(self):
        seed = np.uint64(2**63)
        assert SplitMix64(seed).uint64s(8).tobytes() == SplitMix64(2**63).uint64s(8).tobytes()
        count = np.int64(100)
        assert SplitMix64(3).floats(count).tobytes() == SplitMix64(3).floats(100).tobytes()
        draws = sample_outcomes(TABLE, count, seed)
        assert draws.tobytes() == sample_outcomes(TABLE, 100, 2**63).tobytes()
        config = random_config(np.int64(6), np.uint64(5))
        assert config.n == 6 and type(config.n) is int
        assert config.phis.tobytes() == random_config(6, 5).phis.tobytes()
        index = np.int64(1)
        (conditional, weight), (expected, expected_weight) = (
            project_system(ENTANGLED, index), project_system(ENTANGLED, 1))
        assert conditional.tobytes() == expected.tobytes() and weight == expected_weight
        assert delayed_marker_state(CHANNEL, index + 1) == delayed_marker_state(CHANNEL, 2)
        grid = default_grid()
        assert delayed_marker_state_at(grid, np.int64(256)) == delayed_marker_state_at(grid, 256)
        geometry = dataclasses.replace(default_geometry(), bins=np.int64(512))
        assert geometry == default_geometry() and type(geometry.bins) is int
        state = make_state((np.int64(2), np.int64(2)), [1, 0, 0, 1])
        assert (state.system_dim, state.marker_dim) == (2, 2) and type(state.system_dim) is int
        assert state.amplitudes.tobytes() == ENTANGLED.amplitudes.tobytes()
