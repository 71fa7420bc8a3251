"""The weak memo behind twoslit.marked_state and analysis.joint_distribution.

While a caller holds a marked screen state or a joint table, a call with
the same owner and key returns that same immutable object; once the
caller drops it, nothing is kept.
"""

import copy
import math
import pickle
import weakref
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import marked_screen_amplitudes
from qeraser import analysis, core, twoslit
from qeraser.analysis import (
    MARKER_FIRST,
    ORDERS,
    SYSTEM_FIRST,
    joint_distribution,
    ordering_invariance_residual,
)
from qeraser.marker import MarkerState, erasure_basis, which_path_basis
from qeraser.twoslit import ScreenGeometry, ScreenGrid, build_grid, marked_state

GEOMETRY = ScreenGeometry(2.0, 1.0, 1000.0, -1500.0, 1500.0, 32768)


def wide_grid():
    return build_grid(GEOMETRY, "gaussian", 700.0)


def relabeled(basis, labels):
    return tuple(MarkerState(m.c1, m.c2, label) for m, label in zip(basis, labels))


class TestHits:
    def test_marked_state_is_built_once_while_held(self):
        grid = wide_grid()
        state = marked_state(grid)
        assert marked_state(grid) is state
        fresh = marked_state(wide_grid())
        assert fresh is not state
        assert fresh.amplitudes.tobytes() == state.amplitudes.tobytes()

    def test_joint_table_is_built_once_while_held(self):
        state = marked_state(wide_grid())
        fresh_state = marked_state(wide_grid())
        for order in ORDERS:
            table = joint_distribution(state, erasure_basis(0.4), order)
            # An equal basis built separately is a hit as well.
            assert joint_distribution(state, erasure_basis(0.4), order) is table
            fresh = joint_distribution(fresh_state, erasure_basis(0.4), order)
            assert fresh is not table
            assert fresh.probabilities.tobytes() == table.probabilities.tobytes()
            assert (fresh.row_labels, fresh.col_labels) == (table.row_labels, table.col_labels)

    def test_patterns_share_the_held_state(self):
        grid = wide_grid()
        state = marked_state(grid)
        with mock.patch.object(twoslit, "_marked_amplitudes") as build:
            twoslit.pattern_marked_unconditioned(grid)
            twoslit.pattern_conditioned(grid, 0.3, "plus")
            twoslit.pattern_conditioned(grid, 0.3, "minus")
        build.assert_not_called()
        assert marked_state(grid) is state


class TestRangeLabels:
    """A memoized table keeps its 0-based row labels as a range."""

    def test_memoized_and_fresh_tables_compare_equal(self):
        state = marked_state(wide_grid())
        for order in ORDERS:
            memoized = joint_distribution(state, erasure_basis(0.6), order)
            fresh = joint_distribution(
                state, erasure_basis(0.6), order, system_labels=range(state.system_dim)
            )
            assert memoized.row_labels == range(state.system_dim)
            assert isinstance(fresh.row_labels, tuple)
            assert tuple(memoized.row_labels) == fresh.row_labels
            assert memoized.col_labels == fresh.col_labels
            assert memoized.probabilities.tobytes() == fresh.probabilities.tobytes()

    def test_only_a_range_stays_a_range(self):
        probs = np.full((3, 2), 1.0 / 6.0)
        assert analysis.JointTable(range(3), ("a", "b"), probs).row_labels == range(3)
        for labels in ([0, 1, 2], (n for n in range(3)), np.arange(3)):
            table = analysis.JointTable(labels, iter(("a", "b")), probs)
            assert table.row_labels == (0, 1, 2)
            assert table.col_labels == ("a", "b")


class TestNothingIsKept:
    def test_dropped_state_and_table_die(self):
        grid = wide_grid()
        state_ref = weakref.ref(marked_state(grid))
        assert state_ref() is None
        state = marked_state(grid)
        table_ref = weakref.ref(joint_distribution(state, which_path_basis(), SYSTEM_FIRST))
        assert table_ref() is None
        grid_ref, owner_ref = weakref.ref(grid), weakref.ref(state)
        del grid, state
        assert grid_ref() is None and owner_ref() is None

    def test_many_thetas_leave_no_table_alive(self):
        state = marked_state(wide_grid())
        refs = []
        for index, theta in enumerate(np.linspace(-math.pi, math.pi, 1000)):
            order = ORDERS[index % 2]
            refs.append(weakref.ref(joint_distribution(state, erasure_basis(theta), order)))
        assert not any(ref() is not None for ref in refs)
        assert len(core._DERIVED.get(state, ())) == 0


class TestKey:
    def test_orders_are_two_computations(self):
        state = marked_state(wide_grid())
        basis = erasure_basis(1.1)
        with (
            mock.patch.object(core, "project_marker", wraps=core.project_marker) as project,
            mock.patch.object(core, "condition_on_system", wraps=core.condition_on_system) as condition,
        ):
            first = joint_distribution(state, basis, MARKER_FIRST)
            assert (project.call_count, condition.call_count) == (2, 0)
            second = joint_distribution(state, basis, SYSTEM_FIRST)
            assert (project.call_count, condition.call_count) == (2, 1)
            assert joint_distribution(state, basis, MARKER_FIRST) is first
            assert joint_distribution(state, basis, SYSTEM_FIRST) is second
            assert (project.call_count, condition.call_count) == (2, 1)
        assert first is not second

    def test_basis_vectors_and_labels_are_part_of_the_key(self):
        state = marked_state(wide_grid())
        labels = tuple(m.label for m in erasure_basis(0.5))
        table = joint_distribution(state, erasure_basis(0.5), SYSTEM_FIRST)
        # Same labels, other vectors.
        moved = joint_distribution(state, relabeled(erasure_basis(0.3), labels), SYSTEM_FIRST)
        assert moved is not table
        reference = joint_distribution(state, erasure_basis(0.3), SYSTEM_FIRST)
        assert moved.probabilities.tobytes() == reference.probabilities.tobytes()
        assert moved.col_labels == labels
        # Same vectors, other labels.
        renamed = joint_distribution(state, relabeled(erasure_basis(0.5), ("p", "m")), SYSTEM_FIRST)
        assert renamed is not table
        assert renamed.col_labels == ("p", "m")
        assert renamed.probabilities.tobytes() == table.probabilities.tobytes()

    def test_system_labels_bypass_the_memo(self):
        state = marked_state(wide_grid())
        basis = which_path_basis()
        for order in ORDERS:
            held = joint_distribution(state, basis, order)
            labels = range(state.system_dim)
            first = joint_distribution(state, basis, order, system_labels=labels)
            second = joint_distribution(state, basis, order, system_labels=labels)
            assert first is not held and second is not first
            assert first.probabilities.tobytes() == held.probabilities.tobytes()


class TestRoundTrips:
    def test_pickle_and_deepcopy(self):
        grid = wide_grid()
        state = marked_state(grid)
        table = joint_distribution(state, erasure_basis(0.2), MARKER_FIRST)
        direct = core.PureState(2, 2, np.array([0.5, 0.5, 0.5, 0.5]))
        for copied in (pickle.loads(pickle.dumps(grid)), copy.deepcopy(grid)):
            assert copied is not grid
            for name in ("positions", "theta_x", "envelope"):
                assert getattr(copied, name).tobytes() == getattr(grid, name).tobytes()
            assert marked_state(copied).amplitudes.tobytes() == state.amplitudes.tobytes()
        for original in (state, direct):
            for copied in (pickle.loads(pickle.dumps(original)), copy.deepcopy(original)):
                assert (copied.system_dim, copied.marker_dim) == (
                    original.system_dim, original.marker_dim
                )
                assert copied.amplitudes.tobytes() == original.amplitudes.tobytes()
        for copied in (pickle.loads(pickle.dumps(table)), copy.deepcopy(table)):
            assert (copied.row_labels, copied.col_labels) == (table.row_labels, table.col_labels)
            assert copied.probabilities.tobytes() == table.probabilities.tobytes()


class TestResidual:
    def test_residual_after_hits_equals_fresh(self):
        basis = erasure_basis(2.2)
        fresh = ordering_invariance_residual(marked_state(wide_grid()), basis)
        state = marked_state(wide_grid())
        held = [joint_distribution(state, basis, order) for order in ORDERS]
        with mock.patch.object(analysis, "_joint_table") as build:
            again = ordering_invariance_residual(state, basis)
        build.assert_not_called()
        assert again == fresh
        assert again == float(np.max(np.abs(held[0].probabilities - held[1].probabilities)))


@st.composite
def screens(draw):
    """Grids with |theta_x| up to 1e6 and some bins of zero envelope."""
    bins = draw(st.integers(2, 200))
    # phase_scale = pi / 500, so |x| <= 1.5e8 keeps |theta_x| below 1e6.
    x_min = draw(st.floats(-1.5e8, 1.5e8 - 1.0))
    x_max = draw(st.floats(x_min + 1.0, 1.5e8))
    geometry = ScreenGeometry(2.0, 1.0, 1000.0, x_min, x_max, bins)
    raw = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=bins, max_size=bins
    )))
    raw[draw(st.integers(0, bins - 1))] = 1.0
    positions = geometry.x_min + np.arange(bins) * geometry.dx
    envelope = raw / math.sqrt(float(np.sum(raw**2)) * geometry.dx)
    return ScreenGrid(geometry, positions, geometry.phase_scale * positions, envelope)


class TestMarkedAmplitudes:
    @settings(max_examples=200)
    @given(screens())
    def test_marked_state_equals_two_exp_reference(self, grid):
        table = marked_screen_amplitudes(grid.envelope, grid.theta_x, grid.dx)
        expected = core.make_state((grid.bins, 2), table.reshape(-1))
        assert marked_state(grid).amplitudes.tobytes() == expected.amplitudes.tobytes()
